//! The serve-mixed workload: an in-process `repro serve` on loopback
//! with `nproc` shards, driven as a closed loop by one client. One
//! client rather than `nproc`: with two, a request's latency depends on
//! which request the other connection happens to run beside it, and the
//! run-to-run spread of every timing grows by half.
//!
//! Set-up starts the server and synthesises the first trace. Round 0,
//! an untimed warm-up, streams every spec of [`synth::SPECS`] once over
//! that trace and so fills the result store. Each timed round `r` then
//! streams every spec over a new trace (22 misses) and repeats 11 of
//! round `r - 1`'s pairs (11 store hits), in a seeded order. One
//! operation is one request, from connect to final reply.

use std::collections::BTreeMap;
use std::thread::JoinHandle;
use std::time::Instant;

use bpred_analysis::{measure_packed, metrics as engine_metrics, RunResult};
use bpred_core::PredictorSpec;
use bpred_harness::serve::{self, ClientReply, ServeSummary, Server};
use bpred_harness::store;
use bpred_trace::{PackedTrace, Trace};

use crate::metrics::{fnv, median, quantile, Metrics, FNV_OFFSET, SERVE_STATS};
use crate::reproduce::engine_layers;
use crate::spans::Spans;
use crate::{synth, Ctx, Outcome};

/// Timed rounds the fingerprint covers; every run measures at least
/// this many.
const FINGERPRINT_ROUNDS: u64 = 4;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// A request slower than this counts as failed.
const REQUEST_TIMEOUT_S: f64 = 30.0;

/// A round repeats one earlier pair per this many fresh ones.
const REPEAT_EVERY: usize = 2;

/// Generator stream for a round's request order (trace streams are the
/// round numbers themselves).
const ORDER_STREAM: u64 = 1 << 32;

/// One planned request: stream `spec` over the trace of `round`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Request {
    round: u64,
    spec: usize,
    /// Whether the pair was measured in an earlier round, so the server
    /// should answer from the store.
    repeat: bool,
}

/// One answered request.
struct Answer {
    request: Request,
    reply: Result<ClientReply, String>,
    latency: f64,
}

/// The requests of round `round`, in their seeded order.
fn plan_round(seed: u64, round: u64, specs: usize) -> Vec<Request> {
    let mut rng = synth::rng(seed, ORDER_STREAM + round);
    let mut requests: Vec<Request> = (0..specs)
        .map(|spec| Request {
            round,
            spec,
            repeat: false,
        })
        .collect();
    if round > 0 {
        let mut earlier: Vec<usize> = (0..specs).collect();
        rng.shuffle(&mut earlier);
        earlier.truncate(specs / REPEAT_EVERY);
        requests.extend(earlier.into_iter().map(|spec| Request {
            round: round - 1,
            spec,
            repeat: true,
        }));
    }
    rng.shuffle(&mut requests);
    requests
}

/// Sends `requests` in order, each when the previous one is answered
/// (`client_run` opens a connection per request). Returns the answers
/// and the round's wall time.
fn drive(
    addr: &str,
    requests: &[Request],
    traces: &BTreeMap<u64, Trace>,
    specs: &[PredictorSpec],
) -> (Vec<Answer>, f64) {
    let started = Instant::now();
    let answers = requests
        .iter()
        .map(|&request| {
            let sent = Instant::now();
            let reply = match traces.get(&request.round) {
                Some(trace) => {
                    serve::client_run(addr, &specs[request.spec], trace).map_err(|e| e.to_string())
                }
                None => Err(format!("no trace for round {}", request.round)),
            };
            Answer {
                request,
                reply,
                latency: sent.elapsed().as_secs_f64(),
            }
        })
        .collect();
    (answers, started.elapsed().as_secs_f64())
}

/// A running in-process server.
struct Running {
    addr: String,
    handle: JoinHandle<std::io::Result<ServeSummary>>,
}

impl Running {
    fn start(shards: usize) -> Result<Running, String> {
        let server = Server::bind("127.0.0.1:0", shards).map_err(|e| format!("bind: {e}"))?;
        let addr = server.addr().to_string();
        let handle = std::thread::spawn(move || server.run());
        Ok(Running { addr, handle })
    }

    fn stop(self) -> Result<ServeSummary, String> {
        serve::client_shutdown(&self.addr).map_err(|e| format!("shutdown: {e}"))?;
        match self.handle.join() {
            Ok(Ok(summary)) => Ok(summary),
            Ok(Err(e)) => Err(format!("server failed: {e}")),
            Err(_) => Err("server thread panicked".to_owned()),
        }
    }
}

/// Correctness accounting for every answered request.
#[derive(Default)]
struct Checker {
    /// The `DONE` result of each (round, spec) pair.
    measured: BTreeMap<(u64, usize), RunResult>,
    /// Every checked answer, for the fingerprint.
    seen: Vec<(Request, RunResult)>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    /// Counts one answer: it fails on a transport error or `ERR`, a
    /// timeout, a hit/miss kind other than planned, or a hit that
    /// differs from the pair's `DONE`. Misses are compared with the
    /// local reference later, in [`Checker::verify`].
    fn check(&mut self, answer: &Answer) {
        self.attempted += 1;
        let r = answer.request;
        let why = match &answer.reply {
            Err(e) => format!("request failed: {e}"),
            Ok(_) if answer.latency > REQUEST_TIMEOUT_S => {
                format!("timed out after {:.1} s", answer.latency)
            }
            Ok(reply) if reply.store_served != r.repeat => format!(
                "served {} where the plan expects {}",
                if reply.store_served { "HIT" } else { "DONE" },
                if r.repeat { "HIT" } else { "DONE" }
            ),
            Ok(reply) => {
                self.seen.push((r, reply.result));
                let first = *self
                    .measured
                    .entry((r.round, r.spec))
                    .or_insert(reply.result);
                if first == reply.result {
                    return;
                }
                format!("HIT {:?} differs from DONE {first:?}", reply.result)
            }
        };
        self.fail(r, &why);
    }

    fn fail(&mut self, r: Request, why: &str) {
        self.failed += 1;
        eprintln!(
            "FAIL request round {} spec `{}`: {why}",
            r.round,
            synth::SPECS[r.spec]
        );
    }

    /// Compares every `DONE` of `round` with a local `measure_packed`
    /// of the same spec and trace.
    fn verify(
        &mut self,
        round: u64,
        packed: &PackedTrace,
        specs: &[PredictorSpec],
        spans: &mut Spans,
    ) {
        for (spec, predictor) in specs.iter().enumerate() {
            let Some(&served) = self.measured.get(&(round, spec)) else {
                continue;
            };
            let local = reference(spans, predictor, packed);
            if local != served {
                let request = Request {
                    round,
                    spec,
                    repeat: false,
                };
                self.fail(
                    request,
                    &format!("DONE {served:?} differs from local {local:?}"),
                );
            }
        }
    }

    /// Digest over the results of rounds `0..=FINGERPRINT_ROUNDS`.
    fn fingerprint(&self) -> u64 {
        let mut seen: Vec<_> = self
            .seen
            .iter()
            .filter(|(r, _)| r.round <= FINGERPRINT_ROUNDS)
            .collect();
        seen.sort_by_key(|(r, _)| *r);
        seen.iter().fold(FNV_OFFSET, |h, (r, result)| {
            let words = [
                r.round,
                r.spec as u64,
                u64::from(r.repeat),
                result.branches,
                result.mispredictions,
            ];
            words.iter().fold(h, |h, w| fnv(h, &w.to_le_bytes()))
        })
    }
}

/// The benchmark's own reference measurement of one spec, inside a
/// `core.<grammar name>` span.
fn reference(spans: &mut Spans, spec: &PredictorSpec, packed: &PackedTrace) -> RunResult {
    spans.span(format!("core.{}", family(spec)), |_| {
        let mut predictor = spec.build();
        measure_packed(packed, predictor.as_mut())
    })
}

/// The grammar name of a spec: its rendering up to the first `:`.
fn family(spec: &PredictorSpec) -> String {
    let text = spec.to_string();
    text.split(':').next().unwrap_or_default().to_owned()
}

/// `core.<name>.mbps` from the reference spans, given the branches each
/// family measured.
fn core_layers(spans: &Spans, specs: &[PredictorSpec], branches: u64, layers: &mut Metrics) {
    for spec in specs {
        let name = family(spec);
        let seconds = spans.seconds(&format!("core.{name}"));
        if seconds > 0.0 {
            layers.set(format!("core.{name}.mbps"), branches as f64 / seconds / 1e6);
        }
    }
}

/// Per-family throughput and trace digest time on one synthetic trace,
/// for the traced runs of the other workloads.
pub fn family_probe(ctx: &mut Ctx, layers: &mut Metrics) -> Result<(), String> {
    let specs = synth::specs()?;
    let seed = ctx.seed;
    ctx.spans.span("probe.family", |sp| {
        let trace = synth::trace(seed, 0);
        digest_probe(sp, &trace, layers);
        let packed = PackedTrace::build(&trace).map_err(|e| format!("pack: {e:?}"))?;
        for spec in &specs {
            reference(sp, spec, &packed);
        }
        Ok::<_, String>(())
    })?;
    core_layers(&ctx.spans, &specs, synth::BRANCHES as u64, layers);
    Ok(())
}

/// `trace.digest_ms`: median of a few whole-trace digests.
fn digest_probe(spans: &mut Spans, trace: &Trace, layers: &mut Metrics) {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            spans.span("trace.digest", |_| std::hint::black_box(trace.digest()));
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    layers.set("trace.digest_ms", median(&times));
}

/// The timed rounds of one measured phase.
#[derive(Default)]
struct Phase {
    walls: Vec<f64>,
    hit_latencies: Vec<f64>,
    miss_latencies: Vec<f64>,
}

impl Phase {
    fn latencies(&self) -> Vec<f64> {
        let mut all = self.hit_latencies.clone();
        all.extend(&self.miss_latencies);
        all
    }
}

/// State carried across rounds.
struct Traffic {
    seed: u64,
    addr: String,
    specs: Vec<PredictorSpec>,
    traces: BTreeMap<u64, Trace>,
    trace_digests: Vec<u64>,
    checker: Checker,
    next_round: u64,
}

impl Traffic {
    /// Synthesises round `round`'s trace, keeping the previous one for
    /// the repeats.
    fn synthesize(&mut self, round: u64) {
        let trace = synth::trace(self.seed, round);
        if round <= FINGERPRINT_ROUNDS {
            self.trace_digests.push(trace.digest());
        }
        self.traces.insert(round, trace);
        self.traces.retain(|&r, _| r + 1 >= round);
    }

    /// Runs one round and checks its answers.
    fn round(&mut self, round: u64, phase: Option<&mut Phase>) {
        let requests = plan_round(self.seed, round, self.specs.len());
        let (answers, wall) = drive(&self.addr, &requests, &self.traces, &self.specs);
        for a in &answers {
            self.checker.check(a);
        }
        if let Some(phase) = phase {
            phase.walls.push(wall);
            for a in &answers {
                match a.request.repeat {
                    true => phase.hit_latencies.push(a.latency),
                    false => phase.miss_latencies.push(a.latency),
                }
            }
        }
    }

    /// Timed rounds until `seconds` have elapsed and the fingerprint
    /// rounds are done.
    fn measure(&mut self, seconds: f64, spans: &mut Spans) -> Result<Phase, String> {
        let mut phase = Phase::default();
        let started = Instant::now();
        let mut timed = 0;
        while timed < FINGERPRINT_ROUNDS || started.elapsed().as_secs_f64() < seconds {
            let round = self.next_round;
            self.next_round += 1;
            spans.span("synth.trace", |_| self.synthesize(round));
            spans.span("serve.round", |_| self.round(round, Some(&mut phase)));
            timed += 1;
        }
        Ok(phase)
    }
}

/// Runs the serve-mixed workload.
pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let specs = synth::specs()?;
    let mut setups = Vec::new();
    let mut last: Option<(Running, Traffic)> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((running, _)) = last.take() {
            running.stop()?;
        }
        store::clear();
        let started = Instant::now();
        last = Some(ctx.spans.span("setup", |sp| -> Result<_, String> {
            let running = sp.span("setup.server_start", |_| Running::start(ctx.jobs))?;
            let mut s = Traffic {
                seed: ctx.seed,
                addr: running.addr.clone(),
                specs: specs.clone(),
                traces: BTreeMap::new(),
                trace_digests: Vec::new(),
                checker: Checker::default(),
                next_round: 1,
            };
            sp.span("synth.trace", |_| s.synthesize(0));
            Ok((running, s))
        })?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let (running, mut s) = last.ok_or("no set-up ran")?;
    ctx.spans
        .span("warmup.store_fill_round", |_| s.round(0, None));

    let mut outcome = Outcome {
        attempted: 0,
        failed: 0,
        fingerprint: 0,
        notes: Vec::new(),
        end_to_end: Metrics::default(),
        layers: Metrics::default(),
    };
    let before_store = store::counters();
    let before_engines = engine_metrics::engine_snapshot();
    let phase = if ctx.spans.on() {
        let seconds = ctx.seconds;
        let base = ctx
            .spans
            .span("baseline", |sp| sp.paused(|sp| s.measure(seconds, sp)))?;
        let layer_store = store::counters();
        let layer_engines = engine_metrics::engine_snapshot();
        let phase = s.measure(seconds, &mut ctx.spans)?;
        let stats = ctx
            .spans
            .span("serve.stats", |_| serve::client_stats(&running.addr));
        let layers = &mut outcome.layers;
        let rounds = phase.walls.len() as f64;
        layers.set(
            "tracing_overhead",
            median(&phase.walls) / median(&base.walls),
        );
        layers.set("serve.hit_p50_ms", 1e3 * median(&phase.hit_latencies));
        layers.set("serve.miss_p50_ms", 1e3 * median(&phase.miss_latencies));
        let requests = (phase.hit_latencies.len() + phase.miss_latencies.len()) as f64;
        layers.set(
            "serve.hit_ratio",
            phase.hit_latencies.len() as f64 / requests,
        );
        let fed = phase.miss_latencies.len() * synth::BRANCHES * serve::WIRE_RECORD_BYTES;
        layers.set("serve.fed_mib", fed as f64 / rounds / (1u64 << 20) as f64);
        let store = store::counters().since(&layer_store);
        layers.set("store.lookups", store.total() as f64 / rounds);
        layers.set("store.hits", store.hits as f64 / rounds);
        layers.set("store.inserts", store.inserts as f64 / rounds);
        layers.set(
            "store.hit_ratio",
            store.hits as f64 / store.total().max(1) as f64,
        );
        engine_layers(
            &engine_metrics::engine_snapshot().since(&layer_engines),
            rounds,
            layers,
        );
        let stats = stats
            .map_err(|e| e.to_string())
            .and_then(|text| serve::parse_stats(&text))
            .map_err(|e| format!("STATS: {e}"))?;
        for (key, value) in stats {
            if SERVE_STATS.contains(&key.as_str()) {
                layers.set(format!("serve.stats.{key}"), value);
            }
        }
        if let Some(trace) = s.traces.values().next() {
            digest_probe(&mut ctx.spans, trace, layers);
        }
        phase
    } else {
        s.measure(ctx.seconds, &mut ctx.spans)?
    };
    let store_delta = store::counters().since(&before_store);
    let engine_delta = engine_metrics::engine_snapshot().since(&before_engines);
    let summary = ctx.spans.span("serve.shutdown", |_| running.stop())?;

    // Local references for every measured pair, over the same traces
    // synthesised again (keeping them all would make peak heap grow
    // with the number of rounds).
    let Traffic {
        seed,
        specs,
        mut checker,
        trace_digests,
        next_round,
        ..
    } = s;
    ctx.spans.span("verify.references", |sp| {
        for round in 0..next_round {
            let trace = synth::trace(seed, round);
            let packed = PackedTrace::build(&trace).map_err(|e| format!("pack: {e:?}"))?;
            checker.verify(round, &packed, &specs, sp);
        }
        Ok::<_, String>(())
    })?;
    if ctx.spans.on() {
        let branches = synth::BRANCHES as u64 * next_round;
        core_layers(&ctx.spans, &specs, branches, &mut outcome.layers);
    } else {
        let latencies = phase.latencies();
        let e = &mut outcome.end_to_end;
        e.set("setup_s", median(&setups));
        e.set("wall_s", median(&phase.walls));
        e.set(
            "throughput_rps",
            latencies.len() as f64 / phase.walls.iter().sum::<f64>(),
        );
        e.set("latency_p50_ms", 1e3 * median(&latencies));
        e.set("latency_p99_ms", 1e3 * quantile(&latencies, 0.99));
    }

    let digests = trace_digests
        .iter()
        .fold(FNV_OFFSET, |h, d| fnv(h, &d.to_le_bytes()));
    outcome.notes.push(format!("trace_digests {digests:016x}"));
    outcome.notes.push(format!("set-ups (s): {setups:?}"));
    outcome
        .notes
        .push(format!("round walls (s): {:?}", phase.walls));
    outcome.notes.push(format!(
        "rounds {} timed after a warm-up round; {} requests timed ({} hits), \
         one client, {} server shards; server: {} connections, \
         {} streams, {} branches streamed; result store over the run: {} \
         lookups, {} hits, {} inserts; engines: {} branches",
        phase.walls.len(),
        phase.latencies().len(),
        phase.hit_latencies.len(),
        ctx.jobs,
        summary.connections,
        summary.streams_finished,
        summary.branches_streamed,
        store_delta.total(),
        store_delta.hits,
        store_delta.inserts,
        engine_delta.total().branches,
    ));
    outcome.attempted = checker.attempted;
    outcome.failed = checker.failed;
    outcome.fingerprint = checker.fingerprint();
    Ok(outcome)
}
