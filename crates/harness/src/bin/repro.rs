//! `repro` — regenerates the tables and figures of *The Bi-Mode Branch
//! Predictor* (MICRO-30, 1997). See `repro list` or `--help`.
//!
//! Every run resolves through the orchestrator: one plan, one shared
//! trace pool, per-stage observability, and a structured manifest
//! written to `<out>/run-<name>.json`.

use std::path::Path;
use std::process::ExitCode;

use bpred_harness::cli::{self, Command};
use bpred_harness::manifest::Manifest;
use bpred_harness::{orchestrate, registry, serve, store};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match cli::parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let cli::Options {
        command,
        scale,
        jobs,
        out,
        store_mode,
    } = options;
    if let Some(mode) = store_mode {
        store::set_mode(mode);
    }
    match command {
        Command::List => {
            print!("{}", cli::usage());
            ExitCode::SUCCESS
        }
        Command::Verify => {
            let started = std::time::Instant::now();
            let (report, passed) = cli::run_verify();
            println!("{report}");
            eprintln!("[verify in {:.1}s]", started.elapsed().as_secs_f64());
            if passed {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Command::ManifestCheck(path) => {
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            };
            // The manifest's own run name decides its expected
            // coverage: `all` means the whole registry, otherwise the
            // `+`-joined experiment names.
            let expected: Vec<String> = match Manifest::run_of(&text) {
                Ok(run) if run == "all" => {
                    registry::names().iter().map(|&n| n.to_owned()).collect()
                }
                Ok(run) => run.split('+').map(str::to_owned).collect(),
                Err(e) => {
                    eprintln!("{}: INVALID: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            };
            for name in &expected {
                if registry::find(name).is_none() {
                    eprintln!(
                        "{}: INVALID: run names unregistered experiment `{name}`",
                        path.display()
                    );
                    return ExitCode::FAILURE;
                }
            }
            let expected: Vec<&str> = expected.iter().map(String::as_str).collect();
            match Manifest::validate(&text, &expected) {
                Ok(summary) => {
                    println!("{}: {summary}", path.display());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{}: INVALID: {e}", path.display());
                    ExitCode::FAILURE
                }
            }
        }
        Command::CacheStats => {
            match store::location() {
                Some(dir) => {
                    let stats = store::disk_stats();
                    println!(
                        "result store: {} ({} files, {} bytes, mode {})",
                        dir.display(),
                        stats.files,
                        stats.bytes,
                        store::mode()
                    );
                }
                None => println!("result store: unavailable (trace cache disabled)"),
            }
            ExitCode::SUCCESS
        }
        Command::CacheClear => {
            let removed = store::clear();
            println!("result store: removed {removed} file(s)");
            ExitCode::SUCCESS
        }
        Command::Serve(addr) => {
            let shards = jobs.unwrap_or_else(|| {
                bpred_harness::sync::thread::available_parallelism()
                    .map_or(2, std::num::NonZeroUsize::get)
            });
            let server = match serve::Server::bind(&addr, shards) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot bind {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            eprintln!(
                "serving on {} with {shards} shard worker(s); \
                 connect and issue SHUTDOWN to stop",
                server.addr()
            );
            match server.run() {
                Ok(summary) => {
                    print!("{}", summary.stats);
                    eprintln!(
                        "served {} connection(s), {} stream(s), {} branch(es); \
                         store: {} hit(s), {} insert(s)",
                        summary.connections,
                        summary.streams_finished,
                        summary.branches_streamed,
                        summary.store.hits,
                        summary.store.inserts
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("serve failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Command::Run(names) => run(&names, scale, jobs, out.as_deref()),
    }
}

fn run(
    names: &[String],
    scale: bpred_workloads::Scale,
    jobs: Option<usize>,
    out: Option<&Path>,
) -> ExitCode {
    let plan = match orchestrate::plan(names, scale, jobs) {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "plan `{}`: {} experiment(s), {} workload trace(s), scale {} ...",
        plan.run_name,
        plan.experiments.len(),
        plan.workloads.len(),
        plan.scale
    );

    let mut io_failed = false;
    let outcome = orchestrate::execute(&plan, |def, report, stats| {
        println!("{report}");
        eprintln!("[{} in {:.1}s]", def.name, stats.wall.as_secs_f64());
        if let Some(dir) = out {
            if !write_outputs(def.name, report, dir) {
                io_failed = true;
            }
        }
    });

    let out_dir = out.map_or_else(|| Path::new("results").to_path_buf(), Path::to_path_buf);
    match outcome.manifest.write(&out_dir) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("failed to write run manifest: {e}");
            io_failed = true;
        }
    }
    let total = &outcome.manifest.total;
    eprintln!("{}", total.note());
    let engines = total.engine_note();
    if !engines.is_empty() {
        eprintln!("{engines}");
    }
    eprintln!("{}", total.cache_note());
    eprintln!("{}", total.store_note());

    if io_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Writes one report's CSVs and plot scripts; returns false on I/O
/// failure.
fn write_outputs(name: &str, report: &bpred_harness::Report, dir: &Path) -> bool {
    match report.write_csv(dir) {
        Ok(files) => {
            for f in files {
                eprintln!("wrote {}", f.display());
            }
            match bpred_harness::plot::write_plots(report, dir) {
                Ok(scripts) => {
                    for s in scripts {
                        eprintln!("wrote {}", s.display());
                    }
                }
                Err(e) => eprintln!("plot scripts for {name} not written: {e}"),
            }
            true
        }
        Err(e) => {
            eprintln!("failed to write CSVs for {name}: {e}");
            false
        }
    }
}
