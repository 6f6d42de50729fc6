#!/usr/bin/env bash
# Snapshot the matcher-critical criterion benches into BENCH_matching.json.
#
# Runs the `matching` and `distances` benches on the fixed synthetic
# cohorts they define (seeded generators — the workload is identical
# across runs and machines) and collects each benchmark's median ns/op
# into one JSON document at the repo root:
#
#   {
#     "captured": "<utc timestamp>",
#     "label": "<arg, e.g. before/after>",
#     "results": { "matching/scan/60p": 1234.5, ... }
#   }
#
# Usage: scripts/bench_snapshot.sh [label] [output.json]
# The vendored criterion stand-in appends one JSON line per benchmark to
# $CRITERION_SNAPSHOT; this script assembles those lines into the map.

set -euo pipefail

label="${1:-snapshot}"
out="${2:-BENCH_matching.json}"
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

# A snapshot is only comparable if it describes a committed tree: refuse
# to run with uncommitted changes so a capture can always be traced back
# to one commit. ALLOW_DIRTY=1 overrides for local experimentation (the
# capture is then marked dirty in the JSON label line below).
commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
if [[ -n "$(git status --porcelain 2>/dev/null)" ]]; then
    if [[ "${ALLOW_DIRTY:-0}" != "1" ]]; then
        echo "error: working tree is dirty; commit first so the snapshot is" >&2
        echo "       attributable to one commit, or rerun with ALLOW_DIRTY=1" >&2
        git status --porcelain >&2
        exit 1
    fi
    commit="$commit-dirty"
fi
echo "== snapshotting at commit $commit (label: $label) =="

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

echo "== building benches (release) =="
cargo build --release -p tsm-bench --benches

echo "== checking search equivalence against the oracle (release) =="
# The matching numbers below are only comparable if every plan returns
# the oracle's answers. Prove it before measuring: the property suite's
# oracle test and the f32 tier's admissibility test must pass in release
# mode (the same optimization level the benches run at).
cargo test --release -p tsm-core --test matcher_properties -- --quiet \
    all_variants_return_identical_ordered_topk \
    f32_tier_never_prunes_an_admissible_window

echo "== running matching + distances benches =="
CRITERION_SNAPSHOT="$raw" cargo bench -p tsm-bench --bench matching
CRITERION_SNAPSHOT="$raw" cargo bench -p tsm-bench --bench distances

python3 - "$raw" "$out" "$label" "$commit" <<'EOF'
import json, sys, datetime

raw_path, out_path, label, commit = sys.argv[1:5]
results = {}
with open(raw_path) as fh:
    for line in fh:
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        results[rec["id"]] = rec["median_ns"]

doc = {
    "captured": datetime.datetime.now(datetime.timezone.utc)
    .strftime("%Y-%m-%dT%H:%M:%SZ"),
    "label": label,
    "commit": commit,
    "results": dict(sorted(results.items())),
}

# Merge: keep earlier labelled captures (e.g. "before") alongside this one
# so the file carries the before/after comparison in a single artifact.
try:
    with open(out_path) as fh:
        prior = json.load(fh)
    captures = prior.get("captures", [])
    captures = [c for c in captures if c.get("label") != label]
except (FileNotFoundError, json.JSONDecodeError):
    captures = []
captures.append(doc)
with open(out_path, "w") as fh:
    json.dump({"captures": captures}, fh, indent=2)
    fh.write("\n")

print(f"wrote {len(results)} medians to {out_path} (label: {label})")
EOF

echo "== running end-to-end pipeline throughput bench =="
pipeline_raw="$(mktemp)"
trap 'rm -f "$raw" "$pipeline_raw"' EXIT
cargo run --release -p tsm-bench --bin exp_pipeline -- --json "$pipeline_raw"

python3 - "$pipeline_raw" BENCH_pipeline.json "$label" "$commit" <<'EOF'
import json, sys, datetime

raw_path, out_path, label, commit = sys.argv[1:5]
with open(raw_path) as fh:
    doc = json.load(fh)
doc["captured"] = datetime.datetime.now(datetime.timezone.utc).strftime(
    "%Y-%m-%dT%H:%M:%SZ"
)
doc["label"] = label
doc["commit"] = commit

# Same merge discipline as BENCH_matching.json: one capture per label.
try:
    with open(out_path) as fh:
        prior = json.load(fh)
    captures = [c for c in prior.get("captures", []) if c.get("label") != label]
except (FileNotFoundError, json.JSONDecodeError):
    captures = []
captures.append(doc)
with open(out_path, "w") as fh:
    json.dump({"captures": captures}, fh, indent=2)
    fh.write("\n")

print(f"wrote pipeline throughput (speedup {doc['speedup']}x) to {out_path}")
EOF

echo "== running cohort-scale ramp soak (sharded vs unsharded) =="
cohort_raw="$(mktemp)"
trap 'rm -f "$raw" "$pipeline_raw" "$cohort_raw"' EXIT
cargo run --release -p tsm-bench --bin exp_cohort_scale -- --json "$cohort_raw"

python3 - "$cohort_raw" BENCH_cohort.json "$label" "$commit" <<'EOF'
import json, sys, datetime

raw_path, out_path, label, commit = sys.argv[1:5]
with open(raw_path) as fh:
    doc = json.load(fh)
doc["captured"] = datetime.datetime.now(datetime.timezone.utc).strftime(
    "%Y-%m-%dT%H:%M:%SZ"
)
doc["label"] = label
doc["commit"] = commit

# Same merge discipline as the other BENCH_* files: one capture per label.
try:
    with open(out_path) as fh:
        prior = json.load(fh)
    captures = [c for c in prior.get("captures", []) if c.get("label") != label]
except (FileNotFoundError, json.JSONDecodeError):
    captures = []
captures.append(doc)
with open(out_path, "w") as fh:
    json.dump({"captures": captures}, fh, indent=2)
    fh.write("\n")

tail = doc["ramp"][-1]
print(
    f"wrote cohort ramp (knee {doc['knee_sessions']} sessions, "
    f"{tail['sessions']}-session speedup {tail['speedup']}x) to {out_path}"
)
EOF

echo "== running durability bench (WAL append / replay / checkpoint) =="
persist_raw="$(mktemp)"
trap 'rm -f "$raw" "$pipeline_raw" "$cohort_raw" "$persist_raw"' EXIT
cargo run --release -p tsm-bench --bin exp_persistence -- --json "$persist_raw"

python3 - "$persist_raw" BENCH_persistence.json "$label" "$commit" <<'EOF'
import json, sys, datetime

raw_path, out_path, label, commit = sys.argv[1:5]
with open(raw_path) as fh:
    doc = json.load(fh)
doc["captured"] = datetime.datetime.now(datetime.timezone.utc).strftime(
    "%Y-%m-%dT%H:%M:%SZ"
)
doc["label"] = label
doc["commit"] = commit

# The experiment binary already asserted bit-identity and RPO = 0;
# re-check the recorded number so a stale capture can never claim it.
if doc["rpo_lost_records"] != 0:
    sys.exit(f"durability bench recorded rpo_lost_records={doc['rpo_lost_records']}")

# Same merge discipline as the other BENCH_* files: one capture per label.
try:
    with open(out_path) as fh:
        prior = json.load(fh)
    captures = [c for c in prior.get("captures", []) if c.get("label") != label]
except (FileNotFoundError, json.JSONDecodeError):
    captures = []
captures.append(doc)
with open(out_path, "w") as fh:
    json.dump({"captures": captures}, fh, indent=2)
    fh.write("\n")

append = doc["wal_append_ns"]
print(
    f"wrote durability capture (append p50 {append['p50']} ns, "
    f"replay {doc['wal_replay_ms']} ms, RPO 0) to {out_path}"
)
EOF

echo "== checking metrics overhead =="
# The exp_pipeline JSON carries `metrics_overhead`: the metrics-enabled
# replay's throughput as a fraction of the disabled baseline. The
# observability layer's contract is <= 5% overhead; fail the snapshot if
# instrumentation has become more expensive than that. Override the
# tolerance (e.g. on noisy shared runners) with METRICS_OVERHEAD_MIN.
min_ratio="${METRICS_OVERHEAD_MIN:-0.95}"
python3 - BENCH_pipeline.json "$label" "$min_ratio" <<'EOF2'
import json, sys

out_path, label, min_ratio = sys.argv[1], sys.argv[2], float(sys.argv[3])
with open(out_path) as fh:
    captures = json.load(fh)["captures"]
doc = next(c for c in captures if c.get("label") == label)
ratio = doc["metrics_overhead"]
if ratio < min_ratio:
    sys.exit(
        f"metrics-enabled replay kept only {ratio:.3f} of baseline "
        f"throughput (floor {min_ratio}): instrumentation too expensive"
    )
print(f"metrics overhead OK: ratio {ratio:.3f} >= {min_ratio}")
EOF2
