//! `ow-e2e-bench` — one end-to-end benchmark of the OmniWindow loop:
//! trace packets → switch models (sketch update, C&R) → lossy channel →
//! `RecordBlock`s into a 2-shard `ReliableLiveController` (session
//! dedup/recovery, scatter, shard fold) → a `LiveHandle` threshold query
//! at every window close.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload packets|afr_ingest|afr_lossy [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload with every call into a layer timed and prints the per-layer
//! ledger. The last line of standard output is the result object; the
//! line before it is the run's metadata. See `README.md` here for the
//! metric definitions. Exit codes: 0 correct, 1 a correctness breach,
//! 2 bad arguments, 3 watchdog (a wedged pipeline).

mod ledger;
mod observer;
mod pass;
mod report;
mod serial;
mod sys;
mod workloads;

use std::time::Duration;

use workloads::{Run, DEFAULT_SEED};

/// No progress for this long means the pipeline is wedged.
const WATCHDOG_LIMIT: Duration = Duration::from_secs(60);

const USAGE: &str = "usage: ow-e2e-bench --workload packets|afr_ingest|afr_lossy \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !matches!(
        args.workload.as_str(),
        "packets" | "afr_ingest" | "afr_lossy"
    ) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let watchdog = sys::Watchdog::start(WATCHDOG_LIMIT);
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        heart: watchdog.heart(),
    };
    run.heart.beat();
    let (steal0, started) = (sys::steal_ns(), std::time::Instant::now());
    let mut out = match args.workload.as_str() {
        "packets" => workloads::packets(&run),
        "afr_ingest" => workloads::afr(&run, false),
        _ => workloads::afr(&run, true),
    };
    watchdog.stop();
    // Share of the machine's CPU time the hypervisor gave to other
    // guests during the run: the noise every wall-clock figure carries.
    let cpu_ns = started.elapsed().as_secs_f64() * 1e9 * nproc() as f64;
    let steal = sys::steal_ns().saturating_sub(steal0) as f64 / cpu_ns;
    out.meta_num("host.steal_share", steal);
    if args.trace {
        out.metric("host.steal_share", steal, "ratio");
    }

    out.meta_str("workload", &args.workload);
    out.meta_num("seed", args.seed as f64);
    out.meta_num("seconds", args.seconds);
    out.meta_num("trace", f64::from(u8::from(args.trace)));
    out.meta_num("nproc", nproc() as f64);
    out.meta_str("rustc", &sys::rustc_version());
    out.meta_str("git_commit", &sys::git_commit());
    out.meta_num("ledger.tolerance", ledger::LEDGER_TOLERANCE);
    for e in &out.errors {
        eprintln!("CHECK FAILED: {e}");
    }
    println!("{}", out.meta_line());
    println!("{}", out.result_line());
    if !out.errors.is_empty() || out.failed > 0 {
        std::process::exit(1);
    }
}
