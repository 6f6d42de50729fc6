#!/usr/bin/env bash
# Snapshot the repository's benches into the BENCH_*.json captures.
#
# Runs the `matching` and `distances` criterion benches on the fixed
# synthetic cohorts they define (seeded generators — the workload is
# identical across runs and machines) into BENCH_matching.json (each
# benchmark's median ns/op), then the `exp_pipeline`, `exp_cohort_scale`
# and `exp_persistence` experiments into BENCH_pipeline.json,
# BENCH_cohort.json and BENCH_persistence.json. Every file holds a list
# of captures, each stamped with its time, label and commit:
#
#   { "captures": [ { ..., "captured": "<utc timestamp>",
#                     "label": "<arg, e.g. before/after>",
#                     "commit": "<short hash>" } ] }
#
# Usage: scripts/bench_snapshot.sh [label] [output.json]
# (output.json names the matching capture; default BENCH_matching.json.)

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

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# merge_capture RAW OUT [KEY...]: stamps the JSON document in RAW with the
# capture time, label and commit, and merges it into OUT's `captures`
# list — one capture per label, so the file carries the before/after
# comparison in a single artifact. Each KEY (a dotted path; list indices
# may be negative) is echoed from the document as a summary.
merge_capture() {
    python3 - "$1" "$2" "$label" "$commit" "${@:3}" <<'EOF'
import json, sys, datetime

raw_path, out_path, label, commit = sys.argv[1:5]
with open(raw_path) as fh:
    doc = json.load(fh)
doc["captured"] = datetime.datetime.now(datetime.timezone.utc).strftime(
    "%Y-%m-%dT%H:%M:%SZ"
)
doc["label"] = label
doc["commit"] = commit

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


def pick(node, path):
    for part in path.split("."):
        node = node[int(part)] if isinstance(node, list) else node[part]
    return node


summary = ", ".join(f"{key} {pick(doc, key)}" for key in sys.argv[5:])
print(f"wrote {out_path} (label: {label})" + (f": {summary}" if summary else ""))
EOF
}

echo "== building benches (release) =="
cargo build --release -p tsm-bench --benches

echo "== checking search equivalence against the oracle (release) =="
# The matching numbers below are only comparable if every plan returns
# the oracle's answers. Prove it before measuring: the property suite's
# oracle test and the band's admissibility property (every window the
# oracle returns lies inside its tier's bands) must pass in release mode
# (the same optimization level the benches run at).
cargo test --release -p tsm-core --test matcher_properties -- --quiet \
    all_variants_return_identical_ordered_topk
cargo test --release -p tsm-core --lib -- --quiet \
    matcher::tests::band_holds_every_window_the_oracle_returns

echo "== running matching + distances benches =="
CRITERION_SNAPSHOT="$tmp/matching.jsonl" cargo bench -p tsm-bench --bench matching
CRITERION_SNAPSHOT="$tmp/matching.jsonl" cargo bench -p tsm-bench --bench distances
# The vendored criterion stand-in appends one {"id", "median_ns"} line per
# benchmark; the capture maps each id to its median.
python3 - "$tmp/matching.jsonl" "$tmp/matching.json" <<'EOF'
import json, sys

with open(sys.argv[1]) as fh:
    records = [json.loads(line) for line in fh if line.strip()]
with open(sys.argv[2], "w") as fh:
    json.dump({"results": dict(sorted((r["id"], r["median_ns"]) for r in records))}, fh)
EOF
merge_capture "$tmp/matching.json" "$out"

echo "== running end-to-end pipeline throughput bench =="
cargo run --release -p tsm-bench --bin exp_pipeline -- --json "$tmp/pipeline.json"
merge_capture "$tmp/pipeline.json" BENCH_pipeline.json metrics_overhead

echo "== running cohort-scale ramp soak (pooled vs per-session) =="
cargo run --release -p tsm-bench --bin exp_cohort_scale -- --json "$tmp/cohort.json"
merge_capture "$tmp/cohort.json" BENCH_cohort.json host_cpus workers \
    ramp.-1.sessions ramp.-1.speedup

echo "== running durability bench (WAL append / replay / checkpoint) =="
cargo run --release -p tsm-bench --bin exp_persistence -- --json "$tmp/persistence.json"
# The experiment binary already asserted bit-identity and RPO = 0;
# re-check the recorded number so a stale capture can never claim it.
python3 - "$tmp/persistence.json" <<'EOF'
import json, sys

with open(sys.argv[1]) as fh:
    lost = json.load(fh)["rpo_lost_records"]
if lost != 0:
    sys.exit(f"durability bench recorded rpo_lost_records={lost}")
EOF
merge_capture "$tmp/persistence.json" BENCH_persistence.json \
    wal_append_ns.p50 wal_replay_ms rpo_lost_records

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
