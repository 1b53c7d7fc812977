//! The in-memory trace container.

use std::fmt;
use std::sync::OnceLock;

use crate::record::{BranchKind, BranchRecord};
use crate::stats::TraceStats;

/// A named, ordered sequence of dynamic branch events.
///
/// ```
/// use bpred_trace::{BranchRecord, Trace};
///
/// let trace: Trace = std::iter::repeat_with(|| BranchRecord::conditional(0x40, 0x80, true))
///     .take(3)
///     .collect();
/// assert_eq!(trace.len(), 3);
/// assert_eq!(trace.conditional().count(), 3);
/// ```
#[derive(Clone, Default)]
pub struct Trace {
    name: String,
    records: Vec<BranchRecord>,
    /// Memo of [`Trace::digest`]. Every `&mut` path that changes
    /// `records` empties it; equality and `Debug` ignore it.
    digest: OnceLock<u64>,
}

impl Trace {
    /// Creates an empty trace with a provenance name (workload name).
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self::from_records(name, Vec::new())
    }

    /// Creates a trace from existing records.
    #[must_use]
    pub fn from_records(name: impl Into<String>, records: Vec<BranchRecord>) -> Self {
        Self {
            name: name.into(),
            records,
            digest: OnceLock::new(),
        }
    }

    /// The workload name this trace came from.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the trace (e.g. after filtering).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of dynamic branch events of all kinds.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Appends one event.
    pub fn push(&mut self, record: BranchRecord) {
        self.digest.take();
        self.records.push(record);
    }

    /// All events in program order.
    #[must_use]
    pub fn records(&self) -> &[BranchRecord] {
        &self.records
    }

    /// Iterates over all events.
    pub fn iter(&self) -> std::slice::Iter<'_, BranchRecord> {
        self.records.iter()
    }

    /// Iterates over the conditional branches only — the stream
    /// predictors train on.
    pub fn conditional(&self) -> impl Iterator<Item = &BranchRecord> + '_ {
        self.records
            .iter()
            .filter(|r| r.kind == BranchKind::Conditional)
    }

    /// A new trace holding only the conditional branches.
    #[must_use]
    pub fn conditional_only(&self) -> Trace {
        Trace::from_records(self.name.clone(), self.conditional().copied().collect())
    }

    /// A new trace truncated to at most `n` events (prefix). Useful for
    /// quick-look runs of the big workloads.
    #[must_use]
    pub fn truncated(&self, n: usize) -> Trace {
        Trace::from_records(
            self.name.clone(),
            self.records.iter().take(n).copied().collect(),
        )
    }

    /// Computes summary statistics (Table 2 columns and more).
    #[must_use]
    pub fn stats(&self) -> TraceStats {
        TraceStats::measure(self)
    }

    /// Content digest of the record stream (see
    /// [`TraceDigest`](crate::TraceDigest)): every record's address,
    /// target, direction, and kind, in order. The provenance name is
    /// deliberately excluded — two traces with identical records are
    /// the same measurement input.
    ///
    /// The digest is memoised: the first call folds every record, later
    /// calls return the stored value, and
    /// [`PackedTrace::build`](crate::PackedTrace::build) seeds the memo
    /// from its own single pass. Every change to the records
    /// ([`push`](Self::push), [`Extend`]) empties the memo, so it can
    /// never go stale; a clone carries it, since its records are the
    /// same.
    #[must_use]
    pub fn digest(&self) -> u64 {
        *self.digest.get_or_init(|| {
            let mut d = crate::digest::TraceDigest::new();
            for r in &self.records {
                d.update(r);
            }
            d.finish()
        })
    }

    /// The memoised digest, if one has been computed.
    pub(crate) fn memoised_digest(&self) -> Option<u64> {
        self.digest.get().copied()
    }

    /// Fills the memo with `digest`, which the caller folded over
    /// exactly these records. A memo already present is kept.
    pub(crate) fn seed_digest(&self, digest: u64) {
        debug_assert!(self.memoised_digest().is_none_or(|d| d == digest));
        // An `Err` means the memo was already filled with this value.
        let _ = self.digest.set(digest);
    }
}

impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.records == other.records
    }
}

impl Eq for Trace {}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Trace")
            .field("name", &self.name)
            .field("records", &self.records)
            .finish()
    }
}

impl FromIterator<BranchRecord> for Trace {
    fn from_iter<I: IntoIterator<Item = BranchRecord>>(iter: I) -> Self {
        Trace::from_records(String::new(), iter.into_iter().collect())
    }
}

impl Extend<BranchRecord> for Trace {
    fn extend<I: IntoIterator<Item = BranchRecord>>(&mut self, iter: I) {
        self.digest.take();
        self.records.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a BranchRecord;
    type IntoIter = std::slice::Iter<'a, BranchRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

impl IntoIterator for Trace {
    type Item = BranchRecord;
    type IntoIter = std::vec::IntoIter<BranchRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.into_iter()
    }
}

/// Unit tests, and the random-trace generator and digest oracle the
/// packed-trace tests share.
#[cfg(test)]
pub mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Trace {
        let mut t = Trace::new("sample");
        t.push(BranchRecord::conditional(0x100, 0x80, true));
        t.push(BranchRecord::unconditional(0x104, 0x200));
        t.push(BranchRecord::conditional(0x200, 0x300, false));
        t
    }

    #[test]
    fn push_and_len() {
        let t = sample();
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.name(), "sample");
    }

    #[test]
    fn conditional_filter_drops_jumps() {
        let t = sample();
        assert_eq!(t.conditional().count(), 2);
        let only = t.conditional_only();
        assert_eq!(only.len(), 2);
        assert!(only.iter().all(|r| r.kind == BranchKind::Conditional));
        assert_eq!(only.name(), "sample");
    }

    #[test]
    fn truncated_takes_prefix() {
        let t = sample();
        let head = t.truncated(2);
        assert_eq!(head.len(), 2);
        assert_eq!(head.records()[0], t.records()[0]);
        assert_eq!(t.truncated(100).len(), 3);
    }

    #[test]
    fn collect_and_extend() {
        let mut t: Trace = (0..5)
            .map(|i| BranchRecord::conditional(i * 4, 0, true))
            .collect();
        t.extend((0..3).map(|i| BranchRecord::conditional(i * 4, 0, false)));
        assert_eq!(t.len(), 8);
    }

    /// Records drawn from 16 sites, three in four of them conditional.
    pub fn record() -> impl Strategy<Value = BranchRecord> {
        (0u64..16, any::<bool>(), 0usize..8, any::<bool>()).prop_map(
            |(site, taken, kind, backward)| {
                let pc = 0x1000 + site * 4;
                BranchRecord {
                    pc,
                    target: if backward { pc - 0x40 } else { pc + 0x40 },
                    taken,
                    kind: BranchKind::ALL
                        .get(kind)
                        .copied()
                        .unwrap_or(BranchKind::Conditional),
                }
            },
        )
    }

    /// The oracle: a fresh digest fold, no memo involved.
    #[must_use]
    pub fn fold(records: &[BranchRecord]) -> u64 {
        let mut d = crate::digest::TraceDigest::new();
        for r in records {
            d.update(r);
        }
        d.finish()
    }

    proptest! {
        #[test]
        fn the_memo_never_goes_stale(
            ops in prop::collection::vec(
                (0u8..7, prop::collection::vec(record(), 0..5)),
                0..24,
            ),
        ) {
            let mut trace = Trace::new("memo");
            let mut shadow: Vec<BranchRecord> = Vec::new();
            for (op, records) in ops {
                match op {
                    0 => {
                        for r in &records {
                            trace.push(*r);
                        }
                        shadow.extend(&records);
                    }
                    1 => {
                        trace.extend(records.iter().copied());
                        shadow.extend(&records);
                    }
                    2 => {
                        // A clone shares the memo; growing the clone
                        // must neither stale its memo nor touch ours.
                        let mut copy = trace.clone();
                        prop_assert_eq!(copy.digest(), fold(&shadow));
                        copy.extend(records.iter().copied());
                        let mut grown = shadow.clone();
                        grown.extend(&records);
                        prop_assert_eq!(copy.digest(), fold(&grown));
                        prop_assert_eq!(copy == trace, records.is_empty());
                    }
                    3 => {
                        // Equality and Debug see records and name only.
                        let fresh = Trace::from_records("memo", shadow.clone());
                        prop_assert_eq!(&fresh, &trace);
                        prop_assert_eq!(format!("{fresh:?}"), format!("{trace:?}"));
                        let _ = fresh.digest();
                        prop_assert_eq!(&fresh, &trace);
                        prop_assert_eq!(format!("{fresh:?}"), format!("{trace:?}"));
                    }
                    4 | 5 => prop_assert_eq!(trace.digest(), fold(&shadow)),
                    _ => {
                        let packed = crate::PackedTrace::build(&trace).unwrap();
                        prop_assert_eq!(packed.digest(), fold(&shadow));
                    }
                }
                prop_assert_eq!(trace.records(), &shadow[..]);
                if let Some(memo) = trace.memoised_digest() {
                    prop_assert_eq!(memo, fold(&shadow));
                }
            }
            prop_assert_eq!(trace.digest(), fold(&shadow));
        }

        #[test]
        fn derived_traces_start_without_a_memo(
            records in prop::collection::vec(record(), 0..40),
            n in 0usize..48,
        ) {
            let source = Trace::from_records("source", records.clone());
            prop_assert_eq!(source.digest(), fold(&records));
            let mut bytes = Vec::new();
            crate::write_binary(&source, &mut bytes).unwrap();
            let conditional: Vec<BranchRecord> = source.conditional().copied().collect();
            let derived = [
                (Trace::from_records("copy", records.clone()), records.clone()),
                (records.iter().copied().collect(), records.clone()),
                (source.truncated(n), records[..n.min(records.len())].to_vec()),
                (source.conditional_only(), conditional),
                (crate::read_binary(bytes.as_slice()).unwrap(), records.clone()),
            ];
            for (trace, want) in &derived {
                prop_assert_eq!(trace.memoised_digest(), None);
                prop_assert_eq!(trace.digest(), fold(want));
            }
        }
    }

    #[test]
    fn borrowing_iteration() {
        let t = sample();
        let pcs: Vec<u64> = (&t).into_iter().map(|r| r.pc).collect();
        assert_eq!(pcs, [0x100, 0x104, 0x200]);
        let owned: Vec<BranchRecord> = t.clone().into_iter().collect();
        assert_eq!(owned.len(), 3);
    }
}
