//! Predictor-size sweeps: the machinery behind Figures 2, 3 and 4.
//!
//! The x-axis is hardware cost in KB of two-bit counters. gshare points
//! sit at table sizes `2^10..2^17` (0.25 KB–32 KB); bi-mode points sit
//! at 1.5x the next-smaller gshare (two half-size direction banks plus
//! an equal-size choice table), reproducing the staggered positions of
//! the paper's plots.
//!
//! Every scheme's whole ladder — for `gshare.best`, every `(s, m)`
//! candidate of every ladder size at once — is one grid of plain rate
//! points through [`engine::rates`]: gshare-family ladders ride the
//! bit-sliced engine in 64-lane groups, bi-mode falls back to the
//! batch engine, and every (trace, group) pass is sharded across
//! threads. Work accounting is global (see [`crate::observe`]); the
//! sweeps return points only.

use bpred_core::{BiMode, BiModeConfig, Gshare, Predictor, PredictorSpec};
use bpred_trace::PackedTrace;

use crate::engine::{self, Point};

/// The schemes compared in Figures 2–4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// gshare with history length = index width (single PHT).
    GshareSinglePht,
    /// gshare with the best exhaustively-searched history length.
    GshareBest,
    /// The bi-mode predictor at its paper-default shape.
    BiMode,
}

impl Scheme {
    /// The label used in the paper's legends.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Scheme::GshareSinglePht => "gshare.1PHT",
            Scheme::GshareBest => "gshare.best",
            Scheme::BiMode => "bi-mode",
        }
    }
}

/// One measured point of a curve.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Scheme the point belongs to.
    pub scheme: Scheme,
    /// Predictor cost in KB of counter state.
    pub kib: f64,
    /// The configuration's printable name.
    pub config: String,
    /// Per-trace misprediction rates, in input trace order.
    pub rates: Vec<f64>,
}

impl SweepPoint {
    /// The average misprediction rate over the traces, in `[0, 1]`.
    #[must_use]
    pub fn average_rate(&self) -> f64 {
        engine::average(&self.rates)
    }
}

/// The paper's gshare size ladder: index widths for 0.25 KB to 32 KB.
pub const GSHARE_SIZES: std::ops::RangeInclusive<u32> = 10..=17;

/// The matching bi-mode ladder: direction-bank widths whose total cost
/// interleaves the gshare ladder (0.375 KB to 24 KB).
pub const BIMODE_SIZES: std::ops::RangeInclusive<u32> = 9..=16;

fn point(scheme: Scheme, p: &dyn Predictor, rates: Vec<f64>) -> SweepPoint {
    SweepPoint {
        scheme,
        kib: p.cost().state_kib(),
        config: p.name(),
        rates,
    }
}

/// Sweeps one scheme across its size ladder in one batched pass per
/// trace. `jobs` bounds the parallelism over traces.
#[must_use]
pub fn sweep_scheme(
    traces: &[&PackedTrace],
    scheme: Scheme,
    jobs: Option<usize>,
) -> Vec<SweepPoint> {
    match scheme {
        Scheme::GshareSinglePht => {
            let sizes: Vec<u32> = GSHARE_SIZES.collect();
            let points: Vec<Point> = sizes
                .iter()
                .map(|&s| {
                    Point::Rate(PredictorSpec::Gshare {
                        table_bits: s,
                        history_bits: s,
                    })
                })
                .collect();
            let rates = engine::rates(traces, jobs, &points);
            sizes
                .iter()
                .zip(rates)
                .map(|(&s, rates)| point(scheme, &Gshare::single_pht(s), rates))
                .collect()
        }
        Scheme::GshareBest => {
            // Every (s, m <= s) candidate of every ladder size, fused
            // into one single-pass batch; the per-size winner is picked
            // afterwards (last minimum, matching `search::best_gshare`).
            let pairs: Vec<(u32, u32)> = GSHARE_SIZES
                .flat_map(|s| (0..=s).map(move |m| (s, m)))
                .collect();
            let points: Vec<Point> = pairs
                .iter()
                .map(|&(s, m)| {
                    Point::Rate(PredictorSpec::Gshare {
                        table_bits: s,
                        history_bits: m,
                    })
                })
                .collect();
            let rates = engine::rates(traces, jobs, &points);
            GSHARE_SIZES
                .map(|s| {
                    let (&(_, m), rates) = pairs
                        .iter()
                        .zip(&rates)
                        .filter(|(&(ps, _), _)| ps == s)
                        .min_by(|a, b| {
                            engine::average(a.1)
                                .partial_cmp(&engine::average(b.1))
                                .expect("rates are finite") // panic-audited: misprediction rates are finite ratios, never NaN
                        })
                        .expect("every ladder size has candidates"); // panic-audited: every ladder size carries at least the m = s candidate
                    point(scheme, &Gshare::new(s, m), rates.clone())
                })
                .collect()
        }
        Scheme::BiMode => {
            // Not sliceable (cross-bank choice update): rides the
            // explicit batch fallback inside the spec dispatch.
            let sizes: Vec<u32> = BIMODE_SIZES.collect();
            let points: Vec<Point> = sizes
                .iter()
                .map(|&d| Point::Rate(PredictorSpec::BiMode(BiModeConfig::paper_default(d))))
                .collect();
            let rates = engine::rates(traces, jobs, &points);
            sizes
                .iter()
                .zip(rates)
                .map(|(&d, rates)| {
                    point(scheme, &BiMode::new(BiModeConfig::paper_default(d)), rates)
                })
                .collect()
        }
    }
}

/// Sweeps all three schemes (the full Figure 2/3/4 data set).
#[must_use]
pub fn sweep_all(traces: &[&PackedTrace], jobs: Option<usize>) -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for scheme in [Scheme::GshareSinglePht, Scheme::GshareBest, Scheme::BiMode] {
        points.extend(sweep_scheme(traces, scheme, jobs));
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred_trace::{BranchRecord, Trace};

    fn small_trace() -> Trace {
        let mut t = Trace::new("t");
        let mut x = 1u64;
        for _ in 0..3000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let pc = 0x1000 + (x % 50) * 4;
            t.push(BranchRecord::conditional(pc, 0, !x.is_multiple_of(3)));
        }
        t
    }

    fn packed() -> PackedTrace {
        PackedTrace::build(&small_trace()).expect("small site table")
    }

    #[test]
    fn ladders_hit_the_papers_cost_points() {
        let t = packed();
        let single = sweep_scheme(&[&t], Scheme::GshareSinglePht, Some(2));
        let kibs: Vec<f64> = single.iter().map(|p| p.kib).collect();
        assert_eq!(kibs, [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]);

        let bimode = sweep_scheme(&[&t], Scheme::BiMode, Some(2));
        let kibs: Vec<f64> = bimode.iter().map(|p| p.kib).collect();
        assert_eq!(kibs, [0.375, 0.75, 1.5, 3.0, 6.0, 12.0, 24.0, 48.0]);
    }

    #[test]
    fn best_is_never_worse_than_single_pht_on_average() {
        let t = packed();
        let single = sweep_scheme(&[&t], Scheme::GshareSinglePht, Some(2));
        let best = sweep_scheme(&[&t], Scheme::GshareBest, Some(2));
        for (s, b) in single.iter().zip(&best) {
            assert!(
                b.average_rate() <= s.average_rate() + 1e-12,
                "best ({}) lost to 1PHT ({}) at {} KB",
                b.average_rate(),
                s.average_rate(),
                s.kib
            );
        }
    }

    #[test]
    fn fused_best_matches_the_per_size_search() {
        let t = packed();
        let best = sweep_scheme(&[&t], Scheme::GshareBest, Some(2));
        for (point, s) in best.iter().zip(GSHARE_SIZES) {
            let search = crate::search::best_gshare(&[&t], s, Some(2));
            assert_eq!(point.config, Gshare::new(s, search.history_bits).name());
            assert_eq!(point.rates, search.per_workload, "size {s}");
        }
    }

    #[test]
    fn sweep_all_produces_three_curves_and_accounts_every_point() {
        let t = packed();
        let drive_before = bpred_analysis::metrics::snapshot();
        let store_before = crate::store::counters();
        let all = sweep_all(&[&t], Some(2));
        assert_eq!(all.len(), 24);
        for scheme in [Scheme::GshareSinglePht, Scheme::GshareBest, Scheme::BiMode] {
            assert_eq!(all.iter().filter(|p| p.scheme == scheme).count(), 8);
        }
        // 8 single-PHT + 116 best candidates + 8 bi-mode configurations
        // over one trace: every point is either driven (recorded as a
        // config drive) or served from the result store (recorded as a
        // hit) — other tests may add more concurrently, and earlier
        // runs sharing the on-disk store may have warmed any subset.
        let drives = bpred_analysis::metrics::snapshot().since(&drive_before);
        let store = crate::store::counters().since(&store_before);
        assert!(
            drives.configs + store.hits >= 8 + 116 + 8,
            "got {drives:?} + {store:?}"
        );
    }

    #[test]
    fn average_rate_averages() {
        let p = SweepPoint {
            scheme: Scheme::BiMode,
            kib: 1.0,
            config: String::new(),
            rates: vec![0.1, 0.3],
        };
        assert!((p.average_rate() - 0.2).abs() < 1e-12);
    }
}
