//! `tsm` — the subsequence-matching toolchain on the command line.
//!
//! ```text
//! tsm simulate --patients 12 --sessions 2 --streams 2 --duration 120 \
//!              --seed 7 --out cohort.tsmdb        # build & save a store
//! tsm info     --store cohort.tsmdb               # store statistics
//! tsm segment  --csv signal.csv [--axis 0]        # segment a CSV signal
//! tsm match    --store cohort.tsmdb --stream 0 --start 4 --len 9
//! tsm predict  --store cohort.tsmdb --patient 0 --duration 60 --dt 0.3
//! tsm replay   --store cohort.tsmdb --sessions 4 --threads 4
//! tsm chaos    --plans 8 --seed 99                 # fault-injection soak
//! tsm cluster  --store cohort.tsmdb --k 4
//! tsm serve    --store cohort.tsmdb --addr 127.0.0.1:7878   # HTTP front-end
//! tsm serve    --wal wal/ --checkpoint-every 256 --idle-timeout 300   # durable
//! tsm recover  --wal wal/ --out recovered.tsmdb   # replay a crashed log
//! ```

mod args;
mod commands;

use args::Args;

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // Dying quietly on a closed pipe (`tsm info | head`) is correct CLI
    // behaviour; Rust turns SIGPIPE into a panic by default.
    let outcome = std::panic::catch_unwind(|| run(raw));
    let code = match outcome {
        Ok(Ok(())) => 0,
        Ok(Err(msg)) => {
            eprintln!("error: {msg}");
            eprintln!("run `tsm help` for usage");
            1
        }
        Err(payload) => {
            let is_pipe = payload
                .downcast_ref::<String>()
                .map(|s| s.contains("Broken pipe"))
                .unwrap_or(false);
            if is_pipe {
                0
            } else {
                std::panic::resume_unwind(payload)
            }
        }
    };
    std::process::exit(code);
}

/// A subcommand: its entry point and every flag it reads, space-separated.
type Command = (fn(&Args) -> Result<(), String>, &'static str);

fn run(raw: Vec<String>) -> Result<(), String> {
    let args = Args::parse(raw)?;
    let command = args
        .positional
        .first()
        .map(String::as_str)
        .unwrap_or("help");
    // Each list names every flag the command and its helpers read:
    // `store` and `salvage` for `load_with_metrics`, `metrics` for
    // `metrics_registry`.
    let (entry, flags): Command = match command {
        "simulate" => (
            commands::simulate,
            "patients sessions streams duration dim seed out",
        ),
        "info" => (commands::info, "store salvage verbose"),
        "segment" => (commands::segment, "csv axis cardiac-cancel"),
        "match" => (
            commands::match_cmd,
            "store salvage metrics stream start len delta k top",
        ),
        "predict" => (
            commands::predict,
            "store salvage patient duration dt seed delta",
        ),
        "replay" => (
            commands::replay,
            "store salvage metrics sessions threads duration dt every seed faults",
        ),
        "chaos" => (commands::chaos, "plans seed duration threads"),
        "cluster" => (commands::cluster, "store salvage k len stride"),
        "serve" => (
            commands::serve,
            "store salvage addr sessions-max workers ingest-queue dt wal checkpoint-every \
             idle-timeout",
        ),
        "recover" => (commands::recover, "wal store salvage out metrics"),
        // Deliberately undocumented: the crash-soak ingest worker.
        "wal-soak" => (commands::wal_soak, "wal seed duration batch"),
        "help" | "--help" | "-h" => {
            commands::help();
            return Ok(());
        }
        other => return Err(format!("unknown command '{other}'")),
    };
    args.reject_unknown_flags(command, flags)?;
    entry(&args)
}
