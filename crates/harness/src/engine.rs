//! The harness's one rate front door: [`rates`] measures a grid of
//! [`Point`]s over packed traces and returns `rates[point][trace]`.
//!
//! Every figure and ablation of the paper is a misprediction rate: a
//! predictor spec, driven plainly, behind an update-delay FIFO, or with
//! periodic flushes, measured over a suite of traces. A [`Point`] names
//! one such measurement, and [`Point::job_spec`] is the one place a
//! rate gets its result-store key. [`rates`] serves every stored
//! (point, trace) pair from the store and measures the rest in as few
//! passes as the engines allow:
//!
//! - plain points that [`LaneSpec::of`] classifies as sliceable (the
//!   gshare family, bimodal included) ride the bit-sliced engine in
//!   [`MAX_LANES`]-wide lane groups;
//! - every other point falls back explicitly to the batch engine, in
//!   one mixed `Box<dyn Predictor>` pass per (trace, flush interval).
//!
//! Each (trace, group) pass is one work item sharded across threads by
//! [`parallel::map`], so a grid parallelises even over a single trace.
//! Sessions are fed one sealed block at a time ([`PackedTrace::blocks`],
//! the chunk geometry the streaming service replays and the session
//! property tests pin). A flushed group's blocks are also clipped at
//! its flush boundaries, where the whole batch is reset.
//!
//! Work accounting (branches simulated, configurations driven) is
//! recorded process-wide by the sessions themselves (see
//! [`bpred_analysis::metrics`]) and attributed to stages by
//! [`crate::observe::Observer`]; the engine carries no throughput
//! plumbing of its own.

use std::ops::Range;

use bpred_analysis::session::{BatchSession, PackedSession, SlicedSession};
use bpred_analysis::sliced::LaneSpec;
use bpred_analysis::{RunResult, SiteMisses, MAX_LANES};
use bpred_core::{DelayedUpdate, Predictor, PredictorSpec};
use bpred_trace::PackedTrace;

use crate::parallel;
use crate::store::{self, JobSpec};

/// One rate measurement: a predictor spec and how it is driven. Each
/// variant is one of the result store's rate job kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Point {
    /// A plain drive from power-on.
    Rate(PredictorSpec),
    /// A drive whose updates reach the tables `depth` branches late
    /// (branch-resolution latency, see [`DelayedUpdate`]).
    Delayed {
        /// The delayed predictor.
        spec: PredictorSpec,
        /// Depth of the update FIFO, in branches.
        depth: usize,
    },
    /// A drive that resets the predictor to power-on every `interval`
    /// branches (a context-switch model). The interval must be
    /// positive; "never" is a plain [`Point::Rate`].
    Flushed {
        /// The flushed predictor.
        spec: PredictorSpec,
        /// Branches between flushes.
        interval: u64,
    },
}

impl Point {
    /// The point's result-store identity.
    #[must_use]
    pub fn job_spec(&self) -> JobSpec {
        match self {
            Point::Rate(spec) => JobSpec::rate(spec),
            Point::Delayed { spec, depth } => JobSpec::delayed_rate(spec, *depth as u64),
            Point::Flushed { spec, interval } => JobSpec::flushed_rate(spec, *interval),
        }
    }

    /// The sliced-engine lane of a sliceable plain point.
    fn lane(&self) -> Option<LaneSpec> {
        match self {
            Point::Rate(spec) => LaneSpec::of(spec),
            Point::Delayed { .. } | Point::Flushed { .. } => None,
        }
    }

    /// The flush interval of a flushed point.
    fn flush(&self) -> Option<u64> {
        match self {
            Point::Flushed { interval, .. } => Some(*interval),
            Point::Rate(_) | Point::Delayed { .. } => None,
        }
    }

    /// A power-on fresh predictor for the batch engine.
    fn build(&self) -> Box<dyn Predictor> {
        match self {
            Point::Rate(spec) | Point::Flushed { spec, .. } => spec.build(),
            Point::Delayed { spec, depth } => Box::new(DelayedUpdate::new(spec.build(), *depth)),
        }
    }
}

/// The sealed blocks of `trace`, clipped at every multiple of `flush`
/// when one is given. Each range is paired with whether it
/// opens at a flush boundary, where the caller resets its predictors.
///
/// # Panics
///
/// Panics if `flush` is `Some(0)`.
fn segments(trace: &PackedTrace, flush: Option<u64>) -> Vec<(bool, Range<usize>)> {
    assert_ne!(flush, Some(0), "flush interval must be positive");
    let interval = flush.map_or(usize::MAX, |f| usize::try_from(f).unwrap_or(usize::MAX));
    let mut segments = Vec::new();
    for block in trace.blocks() {
        let mut start = block.start;
        while start < block.end {
            let end = block
                .end
                .min((start / interval + 1).saturating_mul(interval));
            segments.push((start > 0 && start % interval == 0, start..end));
            start = end;
        }
    }
    segments
}

/// Per-site misprediction table of `spec` over one packed trace,
/// driven through a block-fed [`PackedSession`] with site tracking on,
/// so the rows are reproducible from any chunking of the same records.
#[must_use]
pub fn site_miss_table(trace: &PackedTrace, spec: &PredictorSpec) -> Vec<SiteMisses> {
    let mut session = PackedSession::<_, dyn Predictor>::new(spec.build());
    session.track_sites();
    for block in trace.blocks() {
        session.feed(block.map(|i| trace.record(i)));
    }
    let rows = session
        .site_tally()
        .map(bpred_analysis::SiteTally::rows)
        .unwrap_or_default();
    let _ = session.finish();
    rows
}

/// The average of one configuration's per-trace rates (0 for none).
#[must_use]
pub fn average(rates: &[f64]) -> f64 {
    if rates.is_empty() {
        0.0
    } else {
        rates.iter().sum::<f64>() / rates.len() as f64
    }
}

/// How one group of missing points is driven.
#[derive(Debug, PartialEq)]
enum Drive {
    /// One lane group of the bit-sliced engine.
    Sliced(Vec<LaneSpec>),
    /// One mixed batch, flushed every so many branches when given.
    Batch(Option<u64>),
}

/// One pass over one trace: the points it measures, in grid order.
#[derive(Debug)]
struct Group {
    trace: usize,
    points: Vec<usize>,
    drive: Drive,
}

impl Group {
    /// Measures the group's points, power-on fresh, over `trace`.
    fn measure(&self, trace: &PackedTrace, points: &[Point]) -> Vec<RunResult> {
        match &self.drive {
            Drive::Sliced(lanes) => {
                let mut session = SlicedSession::new(lanes);
                for block in trace.blocks() {
                    session.feed(block.map(|i| trace.record(i)));
                }
                session.finish()
            }
            Drive::Batch(flush) => {
                let batch: Vec<Box<dyn Predictor>> =
                    self.points.iter().map(|&i| points[i].build()).collect();
                let mut session = BatchSession::new(batch);
                for (flushed, range) in segments(trace, *flush) {
                    if flushed {
                        session.reset();
                    }
                    session.feed(range.map(|i| trace.record(i)));
                }
                session.finish()
            }
        }
    }
}

/// Looks every (trace, point) pair up in the result store, in parallel
/// over traces: `probe[trace][point]`, `None` where it missed.
fn probe(traces: &[&PackedTrace], jobs: Option<usize>, specs: &[JobSpec]) -> Vec<Vec<Option<f64>>> {
    parallel::map(traces.to_vec(), jobs, |t| {
        let digest = t.digest();
        specs
            .iter()
            .map(|s| store::lookup_run(s.job(digest)).map(|r| r.misprediction_rate()))
            .collect()
    })
}

/// Groups the missed pairs of a [`probe`] into passes: per trace, the
/// sliceable points in lane groups of at most [`MAX_LANES`], then one
/// batch per distinct flush interval.
fn plan(points: &[Point], probed: &[Vec<Option<f64>>]) -> Vec<Group> {
    let mut groups = Vec::new();
    for (trace, rates) in probed.iter().enumerate() {
        let missing = (0..points.len()).filter(|&i| rates[i].is_none());
        let (sliced, batched): (Vec<usize>, Vec<usize>) =
            missing.partition(|&i| points[i].lane().is_some());
        for chunk in sliced.chunks(MAX_LANES) {
            groups.push(Group {
                trace,
                points: chunk.to_vec(),
                drive: Drive::Sliced(chunk.iter().filter_map(|&i| points[i].lane()).collect()),
            });
        }
        let first_batch = groups.len();
        for i in batched {
            let drive = Drive::Batch(points[i].flush());
            match groups[first_batch..].iter_mut().find(|g| g.drive == drive) {
                Some(group) => group.points.push(i),
                None => groups.push(Group {
                    trace,
                    points: vec![i],
                    drive,
                }),
            }
        }
    }
    groups
}

/// Measures every point over every trace: `rates[point][trace]`
/// misprediction rates, each bit-identical to the scalar reference
/// loop for its kind ([`bpred_analysis::measure`],
/// [`bpred_analysis::measure_with_flushes`], or `measure` over a
/// [`DelayedUpdate`]).
///
/// Pairs already in the result store are served from it, so on a warm
/// store no predictor is built and no trace is streamed. The rest are
/// measured in the passes the module docs describe, `jobs` bounding
/// the parallelism, and stored.
///
/// # Panics
///
/// Panics if a [`Point::Flushed`] has a zero interval.
#[must_use]
pub fn rates(traces: &[&PackedTrace], jobs: Option<usize>, points: &[Point]) -> Vec<Vec<f64>> {
    let specs: Vec<JobSpec> = points.iter().map(Point::job_spec).collect();
    let mut per_trace = probe(traces, jobs, &specs);
    let measured = parallel::map(plan(points, &per_trace), jobs, |group| {
        let trace = traces[group.trace];
        let results = group.measure(trace, points);
        let rates: Vec<(usize, f64)> = group
            .points
            .iter()
            .zip(&results)
            .map(|(&i, r)| {
                store::insert_run(specs[i].job(trace.digest()), r);
                (i, r.misprediction_rate())
            })
            .collect();
        (group.trace, rates)
    });
    for (trace, rates) in measured {
        for (point, rate) in rates {
            per_trace[trace][point] = Some(rate);
        }
    }
    let mut rates = vec![Vec::with_capacity(traces.len()); points.len()];
    for trace_rates in per_trace {
        for (point, rate) in trace_rates.into_iter().enumerate() {
            rates[point].push(rate.expect("every point is either a hit or freshly measured"));
            // panic-audited: `plan` grouped exactly the pairs `probe` missed, and each group filled its own
        }
    }
    rates
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred_analysis::metrics::{engine_snapshot, Engine};
    use bpred_trace::{BranchRecord, Trace};
    use proptest::prelude::*;

    /// `len` conditional branches over 40 sites, forward and backward,
    /// from a seed no other test (or earlier process) shares, so every
    /// first measurement misses the result store.
    fn trace(seed: u64, len: usize) -> Trace {
        let mut t = Trace::new("t");
        let mut x = (seed ^ u64::from(std::process::id()) << 32) | 1;
        for _ in 0..len {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pc = 0x1000 + (x % 40) * 4;
            let target = if (x >> 40) & 1 == 0 {
                pc - 0x40
            } else {
                pc + 0x40
            };
            t.push(BranchRecord::conditional(pc, target, (x >> 21) & 1 == 0));
        }
        t
    }

    fn spec(s: &str) -> PredictorSpec {
        s.parse().expect("valid spec")
    }

    /// The scalar reference loop for one point.
    fn oracle(trace: &Trace, point: &Point) -> f64 {
        let result = match point {
            Point::Rate(spec) => bpred_analysis::measure(trace, spec.build().as_mut()),
            Point::Delayed { spec, depth } => {
                bpred_analysis::measure(trace, &mut DelayedUpdate::new(spec.build(), *depth))
            }
            Point::Flushed { spec, interval } => {
                bpred_analysis::measure_with_flushes(trace, spec.build().as_mut(), *interval)
            }
        };
        result.misprediction_rate()
    }

    /// Sliceable specs first, then batch fallbacks.
    const SPECS: [&str; 7] = [
        "gshare:s=8,h=8",
        "gshare:s=7,h=3",
        "bimodal:s=6",
        "bimode:d=6",
        "btfnt",
        "gskew:s=6,h=6",
        "always-taken",
    ];

    /// A random point: kind, spec and parameter drawn independently.
    /// Flush intervals never divide a 4096-record block; 6144 and
    /// 8192 land flush boundaries on block starts.
    fn point() -> impl Strategy<Value = Point> {
        (
            0usize..3,
            prop::sample::select(SPECS.to_vec()),
            0usize..6,
            prop::sample::select(vec![3u64, 1000, 3000, 4095, 4097, 6144, 8192]),
        )
            .prop_map(|(kind, name, depth, interval)| match kind {
                0 => Point::Rate(spec(name)),
                1 => Point::Delayed {
                    spec: spec(name),
                    depth,
                },
                _ => Point::Flushed {
                    spec: spec(name),
                    interval,
                },
            })
    }

    proptest! {
        #[test]
        fn rates_equal_the_scalar_oracle_and_replay_from_the_store(
            points in prop::collection::vec(point(), 1..10),
            seed in any::<u64>(),
            base in prop::sample::select(vec![0usize, 4000, 8100, 12200]),
            extra in 0usize..300,
        ) {
            // Two traces straddling sealed-block boundaries.
            let traces = [trace(seed, base + extra), trace(!seed, 4096 + extra)];
            let packed: Vec<PackedTrace> =
                traces.iter().map(|t| PackedTrace::build(t).unwrap()).collect();
            let refs: Vec<&PackedTrace> = packed.iter().collect();
            let got = rates(&refs, Some(2), &points);
            for (p, point) in points.iter().enumerate() {
                for (t, trace) in traces.iter().enumerate() {
                    prop_assert_eq!(got[p][t], oracle(trace, point));
                }
            }
            // Warm: nothing left to measure, the same rates from the store.
            let specs: Vec<JobSpec> = points.iter().map(Point::job_spec).collect();
            let warm = plan(&points, &probe(&refs, Some(1), &specs));
            prop_assert!(warm.is_empty(), "a warm grid planned {:?}", warm);
            prop_assert_eq!(rates(&refs, Some(2), &points), got);
        }
    }

    #[test]
    fn segments_clip_blocks_at_flush_boundaries() {
        let t = PackedTrace::build(&trace(1, 9000)).unwrap();
        let plain: Vec<_> = segments(&t, None);
        assert_eq!(
            plain,
            [(false, 0..4096), (false, 4096..8192), (false, 8192..9000)]
        );
        assert_eq!(
            segments(&t, Some(3000)),
            [
                (false, 0..3000),
                (true, 3000..4096),
                (false, 4096..6000),
                (true, 6000..8192),
                (false, 8192..9000),
            ]
        );
        assert_eq!(
            segments(&t, Some(4096)),
            [(false, 0..4096), (true, 4096..8192), (true, 8192..9000)]
        );
    }

    #[test]
    fn plain_points_split_between_the_sliced_and_batch_engines() {
        let t = PackedTrace::build(&trace(2, 3000)).unwrap();
        let mut points: Vec<Point> = (0..=6u32)
            .map(|m| {
                Point::Rate(PredictorSpec::Gshare {
                    table_bits: 6,
                    history_bits: m,
                })
            })
            .collect();
        points.push(Point::Rate(spec("bimode:d=5")));
        let groups = plan(&points, &[vec![None; points.len()]]);
        assert_eq!(groups.len(), 2, "{groups:?}");
        assert!(matches!(&groups[0].drive, Drive::Sliced(lanes) if lanes.len() == 7));
        assert_eq!(groups[1].drive, Drive::Batch(None));
        let before = engine_snapshot();
        let _ = rates(&[&t], Some(2), &points);
        let delta = engine_snapshot().since(&before);
        assert!(delta.get(Engine::Sliced).lanes >= 7, "{delta:?}");
        assert!(delta.get(Engine::Batch).lanes >= 1, "{delta:?}");
    }

    #[test]
    fn batches_split_by_flush_interval() {
        let flushed = |interval| Point::Flushed {
            spec: spec("bimode:d=5"),
            interval,
        };
        let points = [
            flushed(100),
            Point::Delayed {
                spec: spec("gshare:s=6,h=6"),
                depth: 2,
            },
            flushed(200),
            flushed(100),
        ];
        let groups = plan(&points, &[vec![None; 4], vec![Some(0.5); 4]]);
        let shape: Vec<(usize, &[usize], &Drive)> = groups
            .iter()
            .map(|g| (g.trace, g.points.as_slice(), &g.drive))
            .collect();
        assert_eq!(
            shape,
            [
                (0, &[0, 3][..], &Drive::Batch(Some(100))),
                (0, &[1][..], &Drive::Batch(None)),
                (0, &[2][..], &Drive::Batch(Some(200))),
            ]
        );
    }

    #[test]
    fn rates_handle_empty_inputs() {
        let grid = [Point::Rate(spec("bimodal:s=4"))];
        assert_eq!(rates(&[], Some(1), &grid), [Vec::<f64>::new()]);
        let t = PackedTrace::build(&trace(3, 200)).unwrap();
        assert!(rates(&[&t], Some(1), &[]).is_empty());
    }

    #[test]
    fn average_handles_empty_and_values() {
        assert_eq!(average(&[]), 0.0);
        assert!((average(&[0.1, 0.3]) - 0.2).abs() < 1e-12);
    }
}
