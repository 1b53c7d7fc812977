//! Trace summary statistics: the static/dynamic branch counts of the
//! paper's Table 2 and the per-branch bias distribution that Section 4's
//! analysis builds on (cf. the \[Chang94\] measurement the paper cites:
//! ~50% of dynamic branches come from statics biased >90% one way).

use crate::pchash::PcMap;
use crate::record::BranchKind;
use crate::trace::Trace;

/// Per-branch bias buckets used in the distribution summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BiasBucket {
    /// Taken at least 90% of the time.
    StronglyTaken,
    /// Not-taken at least 90% of the time.
    StronglyNotTaken,
    /// Everything else.
    WeaklyBiased,
}

impl BiasBucket {
    /// Buckets a taken fraction using the paper's 90% thresholds.
    #[must_use]
    pub fn of(taken: u64, total: u64) -> Self {
        debug_assert!(taken <= total && total > 0);
        let t = taken as f64 / total as f64;
        if t >= 0.9 {
            BiasBucket::StronglyTaken
        } else if t <= 0.1 {
            BiasBucket::StronglyNotTaken
        } else {
            BiasBucket::WeaklyBiased
        }
    }
}

/// Outcome summary of one static conditional branch site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteSummary {
    /// The site's static byte PC.
    pub pc: u64,
    /// Dynamic executions of the site.
    pub executions: u64,
    /// Executions that were taken.
    pub taken: u64,
}

impl SiteSummary {
    /// The site's bias class under the paper's 90% thresholds.
    #[must_use]
    pub fn bucket(&self) -> BiasBucket {
        BiasBucket::of(self.taken, self.executions)
    }
}

/// Per-site summary table of a trace's conditional branches, sorted by
/// PC: one row per static site with its execution count, taken count,
/// and (via [`SiteSummary::bucket`]) bias class at the paper's 90%
/// threshold. Shared by the bias experiments and the static/dynamic
/// cross-check in `cfa.report`.
#[must_use]
pub fn site_table(trace: &Trace) -> Vec<SiteSummary> {
    let mut per_branch: PcMap<u64, (u64, u64)> = PcMap::default();
    for r in trace.iter() {
        if r.kind != BranchKind::Conditional {
            continue;
        }
        let e = per_branch.entry(r.pc).or_insert((0, 0));
        e.0 += u64::from(r.taken);
        e.1 += 1;
    }
    let mut sites: Vec<SiteSummary> = per_branch
        .into_iter()
        .map(|(pc, (taken, executions))| SiteSummary {
            pc,
            executions,
            taken,
        })
        .collect();
    sites.sort_by_key(|s| s.pc);
    sites
}

/// Summary statistics of one trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceStats {
    /// Distinct conditional branch sites (Table 2, "static conditional").
    pub static_conditional: usize,
    /// Dynamic conditional branch executions (Table 2, "dynamic
    /// conditional").
    pub dynamic_conditional: u64,
    /// Dynamic events of any kind.
    pub dynamic_total: u64,
    /// Dynamic conditional branches that were taken.
    pub taken: u64,
    /// Dynamic conditional branches from statics biased >=90% taken.
    pub from_strongly_taken: u64,
    /// Dynamic conditional branches from statics biased >=90% not-taken.
    pub from_strongly_not_taken: u64,
    /// Dynamic conditional branches from weakly biased statics.
    pub from_weakly_biased: u64,
}

impl TraceStats {
    /// Measures a trace. The per-site aggregation is [`site_table`],
    /// so this summary and the per-site view can never disagree.
    /// [`PackedTrace::build`](crate::PackedTrace::build) derives the
    /// same numbers from its own per-site tallies; this separate pass
    /// is the oracle its tests compare against.
    #[must_use]
    pub fn measure(trace: &Trace) -> Self {
        let mut stats = TraceStats {
            dynamic_total: trace.len() as u64,
            ..Self::default()
        };
        let sites = site_table(trace);
        stats.static_conditional = sites.len();
        for site in &sites {
            stats.dynamic_conditional += site.executions;
            stats.taken += site.taken;
            match site.bucket() {
                BiasBucket::StronglyTaken => stats.from_strongly_taken += site.executions,
                BiasBucket::StronglyNotTaken => stats.from_strongly_not_taken += site.executions,
                BiasBucket::WeaklyBiased => stats.from_weakly_biased += site.executions,
            }
        }
        stats
    }

    /// Fraction of dynamic conditional branches that were taken.
    #[must_use]
    pub fn taken_rate(&self) -> f64 {
        if self.dynamic_conditional == 0 {
            0.0
        } else {
            self.taken as f64 / self.dynamic_conditional as f64
        }
    }

    /// Fraction of dynamic conditional branches coming from strongly
    /// biased statics (either direction) — the \[Chang94\] statistic.
    #[must_use]
    pub fn strongly_biased_fraction(&self) -> f64 {
        if self.dynamic_conditional == 0 {
            0.0
        } else {
            (self.from_strongly_taken + self.from_strongly_not_taken) as f64
                / self.dynamic_conditional as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::BranchRecord;

    #[test]
    fn bias_bucket_thresholds_are_inclusive_at_90() {
        assert_eq!(BiasBucket::of(9, 10), BiasBucket::StronglyTaken);
        assert_eq!(BiasBucket::of(1, 10), BiasBucket::StronglyNotTaken);
        assert_eq!(BiasBucket::of(5, 10), BiasBucket::WeaklyBiased);
        assert_eq!(BiasBucket::of(89, 100), BiasBucket::WeaklyBiased);
        assert_eq!(BiasBucket::of(90, 100), BiasBucket::StronglyTaken);
        assert_eq!(BiasBucket::of(10, 100), BiasBucket::StronglyNotTaken);
        assert_eq!(BiasBucket::of(11, 100), BiasBucket::WeaklyBiased);
    }

    #[test]
    fn measure_counts_statics_and_dynamics() {
        let mut t = Trace::new("s");
        for i in 0..10 {
            t.push(BranchRecord::conditional(0x100, 0x80, true)); // ST
            t.push(BranchRecord::conditional(0x200, 0x300, i % 2 == 0)); // WB
        }
        t.push(BranchRecord::unconditional(0x300, 0x400)); // not counted
        let s = t.stats();
        assert_eq!(s.static_conditional, 2);
        assert_eq!(s.dynamic_conditional, 20);
        assert_eq!(s.dynamic_total, 21);
        assert_eq!(s.taken, 15);
        assert_eq!(s.from_strongly_taken, 10);
        assert_eq!(s.from_weakly_biased, 10);
        assert_eq!(s.from_strongly_not_taken, 0);
        assert!((s.taken_rate() - 0.75).abs() < 1e-12);
        assert!((s.strongly_biased_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_yields_zero_rates() {
        let s = Trace::new("e").stats();
        assert_eq!(s.static_conditional, 0);
        assert_eq!(s.taken_rate(), 0.0);
        assert_eq!(s.strongly_biased_fraction(), 0.0);
    }

    #[test]
    fn site_table_aggregates_per_pc_and_sorts() {
        let mut t = Trace::new("sites");
        for i in 0..10 {
            t.push(BranchRecord::conditional(0x200, 0x300, i % 2 == 0)); // WB
            t.push(BranchRecord::conditional(0x100, 0x80, true)); // ST
        }
        t.push(BranchRecord::conditional(0x300, 0x100, false)); // SNT
        t.push(BranchRecord::unconditional(0x400, 0x500)); // ignored
        let sites = site_table(&t);
        assert_eq!(sites.len(), 3);
        assert!(sites.windows(2).all(|w| w[0].pc < w[1].pc), "sorted by PC");
        assert_eq!(
            sites[0],
            SiteSummary {
                pc: 0x100,
                executions: 10,
                taken: 10
            }
        );
        assert_eq!(sites[0].bucket(), BiasBucket::StronglyTaken);
        assert_eq!(sites[1].bucket(), BiasBucket::WeaklyBiased);
        assert_eq!(sites[1].taken, 5);
        assert_eq!(sites[2].bucket(), BiasBucket::StronglyNotTaken);
    }

    #[test]
    fn site_table_matches_measure() {
        let mut t = Trace::new("agree");
        for i in 0..100u64 {
            let pc = 0x1000 + (i % 7) * 4;
            t.push(BranchRecord::conditional(pc, 0, i % 3 != 0));
        }
        let sites = site_table(&t);
        let s = t.stats();
        assert_eq!(sites.len(), s.static_conditional);
        assert_eq!(
            sites.iter().map(|x| x.executions).sum::<u64>(),
            s.dynamic_conditional
        );
        assert_eq!(sites.iter().map(|x| x.taken).sum::<u64>(), s.taken);
    }

    #[test]
    fn site_table_of_empty_trace_is_empty() {
        assert!(site_table(&Trace::new("e")).is_empty());
    }

    #[test]
    fn bias_attribution_sums_to_dynamic_count() {
        let mut t = Trace::new("sum");
        for i in 0..100u64 {
            let pc = 0x1000 + (i % 7) * 4;
            t.push(BranchRecord::conditional(pc, 0, i % 3 != 0));
        }
        let s = t.stats();
        assert_eq!(
            s.from_strongly_taken + s.from_strongly_not_taken + s.from_weakly_biased,
            s.dynamic_conditional
        );
    }
}
