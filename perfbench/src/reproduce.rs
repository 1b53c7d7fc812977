//! The reproduce workloads: all registered experiments at smoke scale as
//! one orchestrated plan, in-process, from an empty result store
//! (`reproduce-cold`) or a full one (`reproduce-warm`).
//!
//! One operation is one pass of the plan: `orchestrate::execute`, then
//! every report's CSVs and the run manifest written to disk, as
//! `repro all --out` does. Checks run after the timed part of a pass.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use bpred_analysis::{metrics as engine_metrics, Engine};
use bpred_harness::manifest::Manifest;
use bpred_harness::orchestrate::{self, Plan};
use bpred_harness::{store, traces, TraceSet};
use bpred_trace::PackedTrace;
use bpred_workloads::{Scale, Suite};

use crate::metrics::{fnv, median, quantile, Metrics, FNV_OFFSET};
use crate::spans::Spans;
use crate::{Ctx, Outcome};

/// Which result-store state the measured passes start from.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Store {
    /// Emptied before every measured pass.
    Cold,
    /// Filled by one unmeasured cold pass first.
    Warm,
}

/// Trace-cache fills per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;

/// One experiment's CSV files (name, bytes), or why it has none.
type Csvs = Result<Vec<(String, Vec<u8>)>, String>;

/// What one pass produced.
struct Pass {
    /// Timed part: execute, CSVs and manifest written.
    wall: f64,
    /// Per experiment, in plan order.
    csvs: Vec<(&'static str, Csvs)>,
    /// `traces` stage and per-experiment walls from the run manifest.
    stage_walls: Vec<(String, f64)>,
}

/// Runs one pass of `plan`, writing artefacts under `out`.
fn pass(plan: &Plan, out: &Path, spans: &mut Spans) -> Pass {
    let mut completed = Vec::new();
    let started = Instant::now();
    let outcome = spans.span("orchestrate.execute", |_| {
        catch_unwind(AssertUnwindSafe(|| {
            orchestrate::execute(plan, |def, _, _| completed.push(def.name))
        }))
    });
    let Ok(outcome) = outcome else {
        let wall = started.elapsed().as_secs_f64();
        let csvs = plan
            .experiments
            .iter()
            .map(|def| {
                let why = if completed.contains(&def.name) {
                    "the plan panicked after it"
                } else {
                    "panicked or never ran"
                };
                (def.name, Err(why.to_owned()))
            })
            .collect();
        return Pass {
            wall,
            csvs,
            stage_walls: Vec::new(),
        };
    };
    let written: Vec<_> = spans.span("render.csv", |_| {
        outcome
            .reports
            .iter()
            .map(|report| report.write_csv(out))
            .collect()
    });
    let manifest = spans.span("render.manifest", |_| outcome.manifest.write(out));
    let wall = started.elapsed().as_secs_f64();

    let names: Vec<&str> = plan.experiments.iter().map(|e| e.name).collect();
    let verdict = manifest
        .map_err(|e| format!("manifest not written: {e}"))
        .and_then(|path| {
            std::fs::read_to_string(path).map_err(|e| format!("manifest unreadable: {e}"))
        })
        .and_then(|text| {
            Manifest::validate(&text, &names).map_err(|e| format!("manifest rejected: {e}"))
        });
    let csvs = plan
        .experiments
        .iter()
        .zip(&outcome.reports)
        .zip(written)
        .map(|((def, report), files)| {
            let read = |files: Vec<std::path::PathBuf>| {
                files
                    .into_iter()
                    .map(|f| {
                        let name = f
                            .file_name()
                            .map_or_else(String::new, |n| n.to_string_lossy().into_owned());
                        std::fs::read(&f)
                            .map(|bytes| (name, bytes))
                            .map_err(|e| format!("{} unreadable: {e}", f.display()))
                    })
                    .collect()
            };
            let csvs = match (&verdict, files) {
                (Err(why), _) => Err(why.clone()),
                (_, Err(e)) => Err(format!("CSVs not written: {e}")),
                _ if report.id != def.name => Err(format!("report `{}` out of order", report.id)),
                (Ok(_), Ok(files)) => read(files),
            };
            (def.name, csvs)
        })
        .collect();
    let mut stage_walls = vec![(
        "traces".to_owned(),
        outcome.manifest.trace_stage.wall.as_secs_f64(),
    )];
    stage_walls.extend(
        outcome
            .manifest
            .experiments
            .iter()
            .map(|r| (r.name.clone(), r.stats.wall.as_secs_f64())),
    );
    Pass {
        wall,
        csvs,
        stage_walls,
    }
}

/// Correctness accounting against the first pass of the run.
#[derive(Default)]
struct Checker {
    reference: Vec<(&'static str, Csvs)>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    /// Counts one pass: an experiment fails if it panicked, its
    /// manifest was rejected, or its CSVs differ from the reference
    /// pass byte for byte.
    fn check(&mut self, pass: &Pass, label: &str) {
        if self.reference.is_empty() {
            self.reference = pass.csvs.clone();
        }
        for ((name, csvs), (_, reference)) in pass.csvs.iter().zip(&self.reference) {
            self.attempted += 1;
            let why = match (csvs, reference) {
                (Err(why), _) => why.clone(),
                (Ok(_), Err(_)) => "the reference pass failed".to_owned(),
                (Ok(have), Ok(want)) if have == want => continue,
                (Ok(_), Ok(_)) => "CSVs differ from the first pass".to_owned(),
            };
            self.failed += 1;
            eprintln!("FAIL {label} pass: experiment {name}: {why}");
        }
    }

    /// Digest over every CSV of the reference pass.
    fn fingerprint(&self) -> u64 {
        let mut hash = FNV_OFFSET;
        for (name, csvs) in &self.reference {
            hash = fnv(hash, name.as_bytes());
            for (file, bytes) in csvs.iter().flatten() {
                hash = fnv(fnv(hash, file.as_bytes()), bytes);
            }
        }
        hash
    }
}

/// Library counters, read before and after a measured phase.
struct Snapshot {
    engines: engine_metrics::EngineSnapshot,
    cache: traces::CacheCounters,
    store: store::StoreCounters,
}

impl Snapshot {
    fn now() -> Snapshot {
        Snapshot {
            engines: engine_metrics::engine_snapshot(),
            cache: traces::cache_counters(),
            store: store::counters(),
        }
    }
}

/// The timed passes of one measured phase.
struct Measured {
    walls: Vec<f64>,
    stage_walls: Vec<Vec<(String, f64)>>,
    before: Snapshot,
    after: Snapshot,
}

/// Runs passes until `seconds` have elapsed (at least one).
fn measure(
    spans: &mut Spans,
    work: &Path,
    seconds: f64,
    plan: &Plan,
    kind: Store,
    checker: &mut Checker,
) -> Measured {
    let out = work.join("out");
    let before = Snapshot::now();
    let started = Instant::now();
    let (mut walls, mut stage_walls) = (Vec::new(), Vec::new());
    loop {
        if kind == Store::Cold {
            store::clear();
        }
        let p = spans.span("pass", |sp| pass(plan, &out, sp));
        checker.check(&p, "measured");
        walls.push(p.wall);
        stage_walls.push(p.stage_walls);
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    Measured {
        walls,
        stage_walls,
        before,
        after: Snapshot::now(),
    }
}

/// Deletes every cached trace (the result store under it stays).
fn remove_traces(dir: &Path) -> Result<(), String> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Ok(());
    };
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        if path.is_file() {
            std::fs::remove_file(&path)
                .map_err(|e| format!("cannot remove {}: {e}", path.display()))?;
        }
    }
    Ok(())
}

/// Runs a reproduce workload.
pub fn run(ctx: &mut Ctx, kind: Store) -> Result<Outcome, String> {
    let plan = orchestrate::plan_all(Scale::Smoke, Some(ctx.jobs))?;
    let mut checker = Checker::default();

    // Set-up: fill the trace cache from empty, several times.
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPEATS {
        remove_traces(&ctx.work)?;
        let started = Instant::now();
        ctx.spans.span("setup.fill_trace_cache", |_| {
            TraceSet::of(plan.workloads.clone(), plan.scale, plan.jobs)
        });
        setups.push(started.elapsed().as_secs_f64());
    }
    let out = ctx.work.join("out");
    if kind == Store::Warm {
        store::clear();
        let p = ctx
            .spans
            .span("prime.cold_pass", |sp| pass(&plan, &out, sp));
        checker.check(&p, "priming");
    }

    let mut outcome = Outcome {
        attempted: 0,
        failed: 0,
        fingerprint: 0,
        notes: vec![format!(
            "inputs: {} registered experiments at --scale smoke over {} workload traces; \
             their kernel seeds are fixed in the program, so --seed does not change them",
            plan.experiments.len(),
            plan.workloads.len()
        )],
        end_to_end: Metrics::default(),
        layers: Metrics::default(),
    };

    if ctx.spans.on() {
        traced(ctx, &plan, kind, &mut checker, &mut outcome.layers)?;
    } else {
        let m = measure(
            &mut ctx.spans,
            &ctx.work,
            ctx.seconds,
            &plan,
            kind,
            &mut checker,
        );
        let e = &mut outcome.end_to_end;
        e.set("setup_s", median(&setups));
        e.set("wall_s", median(&m.walls));
        e.set(
            "throughput_rps",
            m.walls.len() as f64 / m.walls.iter().sum::<f64>(),
        );
        e.set("latency_p50_ms", 1e3 * median(&m.walls));
        e.set("latency_p99_ms", 1e3 * quantile(&m.walls, 0.99));
        let store = m.after.store.since(&m.before.store);
        outcome.notes.push(format!("set-ups (s): {setups:?}"));
        outcome.notes.push(format!(
            "passes {} (walls {:?} s); result store per pass: {} lookups, {} hits, {} inserts",
            m.walls.len(),
            m.walls,
            store.total() / m.walls.len() as u64,
            store.hits / m.walls.len() as u64,
            store.inserts / m.walls.len() as u64
        ));
    }

    if kind == Store::Cold {
        // The cold side of the cold/warm identity check ran above; now
        // the warm side, from the store the last pass filled.
        let p = ctx
            .spans
            .span("check.warm_pass", |sp| pass(&plan, &out, sp));
        checker.check(&p, "warm check");
    }
    outcome.attempted = checker.attempted;
    outcome.failed = checker.failed;
    outcome.fingerprint = checker.fingerprint();
    Ok(outcome)
}

/// The traced run: an untraced baseline phase, the traced phase, and
/// per-layer probes around single library calls.
fn traced(
    ctx: &mut Ctx,
    plan: &Plan,
    kind: Store,
    checker: &mut Checker,
    layers: &mut Metrics,
) -> Result<(), String> {
    let (work, seconds) = (&ctx.work, ctx.seconds);
    let base = ctx.spans.span("baseline", |sp| {
        sp.paused(|sp| measure(sp, work, seconds, plan, kind, checker))
    });
    let m = measure(&mut ctx.spans, work, seconds, plan, kind, checker);
    let passes = m.walls.len() as f64;
    layers.set("tracing_overhead", median(&m.walls) / median(&base.walls));

    // Per-experiment and trace-stage walls, from the run manifests.
    for (name, _) in &m.stage_walls[0] {
        let walls: Vec<f64> = m
            .stage_walls
            .iter()
            .filter_map(|w| w.iter().find(|(n, _)| n == name).map(|&(_, s)| s))
            .collect();
        let metric = if name == "traces" {
            "traces.load_s".to_owned()
        } else {
            format!("experiment.{name}_s")
        };
        layers.set(metric, median(&walls));
    }
    let cache = m.after.cache.since(&m.before.cache);
    layers.set("traces.cache_hits", cache.hits as f64 / passes);
    layers.set("traces.cache_misses", cache.misses as f64 / passes);
    layers.set("trace.packs_built", cache.packs_built as f64 / passes);
    let store = m.after.store.since(&m.before.store);
    layers.set("store.lookups", store.total() as f64 / passes);
    layers.set("store.hits", store.hits as f64 / passes);
    layers.set("store.inserts", store.inserts as f64 / passes);
    layers.set(
        "store.hit_ratio",
        store.hits as f64 / store.total().max(1) as f64,
    );
    engine_layers(&m.after.engines.since(&m.before.engines), passes, layers);
    layers.set("render.csv_s", ctx.spans.seconds("render.csv") / passes);
    layers.set(
        "render.manifest_s",
        ctx.spans.seconds("render.manifest") / passes,
    );

    // Trace generation per generator family, one workload at a time.
    ctx.spans.span("probe.generate", |sp| {
        for w in &plan.workloads {
            let layer = if w.suite() == Suite::SimKernels {
                "sim.generate"
            } else {
                "workloads.generate"
            };
            sp.span(layer, |_| std::hint::black_box(w.trace(plan.scale)));
        }
    });
    layers.set(
        "workloads.generate_s",
        ctx.spans.seconds("workloads.generate"),
    );
    layers.set("sim.generate_s", ctx.spans.seconds("sim.generate"));

    // Packing every trace of the pool once.
    ctx.spans.span("probe.pack", |sp| {
        let set = sp.span("traces.load", |_| {
            TraceSet::of(plan.workloads.clone(), plan.scale, plan.jobs)
        });
        for (_, trace) in set.entries() {
            sp.span("trace.pack", |_| {
                std::hint::black_box(PackedTrace::build(trace)).ok()
            });
        }
    });
    layers.set("trace.pack_s", ctx.spans.seconds("trace.pack"));

    crate::serve_mixed::family_probe(ctx, layers)
}

/// `analysis.<engine>.*` from an engine-counter delta over `units`
/// operations.
pub fn engine_layers(engines: &engine_metrics::EngineSnapshot, units: f64, layers: &mut Metrics) {
    for engine in Engine::ALL {
        let drive = engines.get(engine);
        let label = engine.label();
        layers.set(
            format!("analysis.{label}.busy_s"),
            drive.busy_seconds() / units,
        );
        layers.set(
            format!("analysis.{label}.branches"),
            drive.branches as f64 / units,
        );
        layers.set(format!("analysis.{label}.mbps"), drive.mbranches_per_sec());
    }
}
