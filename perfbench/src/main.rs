//! Host-time benchmark of the bi-mode reproduction.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Runs one workload in-process against the repository's library
//! crates and prints, as the last line of standard output, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end metrics declared in
//! `BENCHMARK.json`; with `--trace 1` they are its per-layer metrics.
//! See `perfbench/README.md` for what each workload and metric means.

mod alloc;
mod metrics;
mod reproduce;
mod serve_mixed;
mod spans;
mod synth;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use metrics::Metrics;
use spans::Spans;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["reproduce-cold", "reproduce-warm", "serve-mixed"];

/// Everything one run needs besides its workload name.
pub struct Ctx {
    /// Seed of the generated inputs (serve-mixed only; the reproduce
    /// workloads run the registered kernels, whose seeds are fixed).
    pub seed: u64,
    /// How long the measured phase runs, at least.
    pub seconds: f64,
    /// Thread, shard and connection budget: the host's core count.
    pub jobs: usize,
    /// This run's private working directory (trace cache, result
    /// store, rendered artefacts); removed when the run ends.
    pub work: PathBuf,
    /// Span recorder: records only in a traced run.
    pub spans: Spans,
}

/// What a workload reports back to `main`.
pub struct Outcome {
    /// Operations attempted (experiment runs or serve requests).
    pub attempted: u64,
    /// Operations that failed a correctness check.
    pub failed: u64,
    /// Digest over every simulated result the run checked; a pure
    /// speed-up leaves it unchanged.
    pub fingerprint: u64,
    /// Extra provenance lines printed before the result.
    pub notes: Vec<String>,
    /// End-to-end metrics (filled in untraced runs).
    pub end_to_end: Metrics,
    /// Per-layer metrics (filled in traced runs).
    pub layers: Metrics,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` wants a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("`{flag}` wants a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("`--trace` wants 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; valid workloads: {}",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("`--seconds` must be at least 1".to_owned());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    let declared = match metrics::Declared::load() {
        Ok(d) => d,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let work = match std::env::current_dir() {
        Ok(dir) => {
            dir.join(".bench_work")
                .join(format!("{}-{}", args.workload, std::process::id()))
        }
        Err(e) => {
            eprintln!("perfbench: no working directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The trace cache and the result store under it are fixed once per
    // process, so this must happen before any library call.
    std::env::remove_var("BPRED_NO_TRACE_CACHE");
    std::env::set_var("BPRED_TRACE_CACHE", &work);
    let jobs =
        bpred_harness::sync::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds as f64,
        jobs,
        work: work.clone(),
        spans: Spans::new(args.trace, started),
    };
    let result = match args.workload.as_str() {
        "reproduce-cold" => reproduce::run(&mut ctx, reproduce::Store::Cold),
        "reproduce-warm" => reproduce::run(&mut ctx, reproduce::Store::Warm),
        _ => serve_mixed::run(&mut ctx),
    };
    let cleanup = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(work.parent().unwrap_or(&work));
    let mut outcome = match result {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("perfbench: {} failed: {msg}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = cleanup {
        eprintln!("perfbench: cannot remove {}: {e}", work.display());
        return ExitCode::FAILURE;
    }

    let metrics = if args.trace {
        let wall = started.elapsed().as_secs_f64();
        outcome.layers.set(
            "unattributed_s",
            (wall - ctx.spans.top_level_seconds()).max(0.0),
        );
        outcome.layers.set(
            "error_rate",
            outcome.failed as f64 / outcome.attempted.max(1) as f64,
        );
        outcome
            .layers
            .set("process.peak_rss_mib", metrics::peak_rss_mib());
        eprint!("{}", ctx.spans.summary());
        declared.per_layer(&outcome.layers)
    } else {
        outcome.end_to_end.set("peak_heap_mib", alloc::peak_mib());
        declared.end_to_end(&outcome.end_to_end)
    };
    let metrics = match metrics {
        Ok(m) => m,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "provenance workload={} seed={} seconds={} trace={} nproc={jobs} {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        metrics::provenance()
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    println!("fingerprint {:016x}", outcome.fingerprint);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    );
    ExitCode::SUCCESS
}
