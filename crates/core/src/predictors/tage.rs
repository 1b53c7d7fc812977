//! TAGE — TAgged GEometric-history predictor (Seznec & Michaud, 2006):
//! the de-aliasing lineage's endpoint. Where bi-mode splits one PHT by
//! bias and YAGS caches exceptions, TAGE keeps a bimodal base and a
//! series of *tagged* tables indexed with geometrically growing
//! history lengths; a tag match makes a table a candidate, the longest
//! matching history provides the prediction, and per-entry useful
//! counters ration allocation on mispredictions.
//!
//! The reproduction question this serves (`repro zoo.cost`): does
//! bi-mode's de-aliasing still buy anything at equal cost once tagging
//! filters the destructive aliases directly?
//!
//! Each table's index and tag hashes fold up to 63 history bits into
//! `entry_bits` and `tag_bits` bits. Rather than re-folding on every
//! lookup, every table keeps its three folds as circular shift
//! registers ([`FoldedHistory`]) advanced once per history push, as in
//! Seznec's TAGE; [`fold_xor`](crate::index::fold_xor) is the oracle
//! they are tested against. A lookup is allocation-free, and
//! [`Predictor::step`] trains from the lookup it predicted with.

use crate::cost::Cost;
use crate::counter::Counter2;
use crate::history::{GlobalHistory, MAX_HISTORY_BITS};
use crate::index::{low_bits, pc_word, to_index};
use crate::predictor::{CounterId, Predictor};
use crate::table::CounterTable;

/// Prediction-counter width of a tagged entry (canonical TAGE uses 3).
const CTR_BITS: u32 = 3;
/// Useful-counter width of a tagged entry.
const USEFUL_BITS: u32 = 2;
/// Saturation ceiling of the prediction counter.
const CTR_MAX: u8 = (1 << CTR_BITS) - 1;
/// Weakly-taken midpoint: predictions are taken at or above this.
const CTR_WEAK_TAKEN: u8 = 1 << (CTR_BITS - 1);
/// Saturation ceiling of the useful counter.
const USEFUL_MAX: u8 = (1 << USEFUL_BITS) - 1;
/// Most tagged tables a TAGE may have; sizes the per-lookup arrays.
const MAX_TABLES: usize = 16;

/// One entry of a tagged component table.
#[derive(Debug, Clone, Copy)]
struct TagEntry {
    ctr: u8,
    tag: u16,
    useful: u8,
    valid: bool,
}

impl TagEntry {
    fn empty() -> Self {
        Self {
            ctr: CTR_WEAK_TAKEN,
            tag: 0,
            useful: 0,
            valid: false,
        }
    }

    fn predict(self) -> bool {
        self.ctr >= CTR_WEAK_TAKEN
    }

    /// A newly-allocated (weak counter, never-useful) entry, whose
    /// prediction the altpred overrides.
    fn is_weak(self) -> bool {
        (self.ctr == CTR_WEAK_TAKEN || self.ctr == CTR_WEAK_TAKEN - 1) && self.useful == 0
    }

    fn train(&mut self, taken: bool) {
        if taken {
            if self.ctr < CTR_MAX {
                self.ctr += 1;
            }
        } else if self.ctr > 0 {
            self.ctr -= 1;
        }
    }
}

/// The low `len` history bits XOR-folded into `width` bits, kept equal
/// to `fold_xor(history.low(len), width)` one push at a time: shift the
/// new outcome in, cancel the outcome that leaves the `len`-bit window
/// (it sits at fold bit `len % width` after the shift), and wrap the
/// bit shifted out at the top back into bit 0. A zero `width` is the
/// empty fold: its wrap step `v ^= v >> 0` clears it, so it stays 0.
#[derive(Debug, Clone, Copy)]
struct FoldedHistory {
    value: u64,
    width: u32,
    /// `len % width`: where the leaving outcome lands after the shift.
    leave: u32,
}

impl FoldedHistory {
    fn new(len: u32, width: u32) -> Self {
        Self {
            value: 0,
            width,
            leave: len.checked_rem(width).unwrap_or(0),
        }
    }

    /// Advances the fold by one history push: `new` enters the window,
    /// `old` (the window's oldest outcome before the push) leaves it.
    fn push(&mut self, new: bool, old: bool) {
        let mut v = (self.value << 1) | u64::from(new);
        v ^= u64::from(old) << self.leave;
        v ^= v >> self.width;
        self.value = low_bits(v, self.width);
    }
}

/// One tagged component: `2^entry_bits` entries consulted with a fixed
/// slice of the global history, plus that slice folded for the index
/// hash and for the two tag hashes.
#[derive(Debug, Clone)]
struct TaggedTable {
    entries: Vec<TagEntry>,
    history_len: u32,
    /// The history slice folded to `entry_bits`.
    index_fold: FoldedHistory,
    /// The history slice folded to `tag_bits`.
    tag_fold: FoldedHistory,
    /// The history slice folded to `tag_bits - 1` (empty at one tag bit).
    tag_fold_short: FoldedHistory,
}

/// What one prediction consulted: per-table indices and tags, the
/// provider (longest-history tag match), and what the provider, its
/// alternate and the predictor as a whole predicted. Only the first
/// `tables` slots of each array are meaningful.
struct Lookup {
    indices: [usize; MAX_TABLES],
    tags: [u16; MAX_TABLES],
    provider: Option<usize>,
    base_index: usize,
    /// The provider entry's own direction (the base's without one).
    provider_prediction: bool,
    /// The alternate's direction: the next-longest match, else the base.
    alt_prediction: bool,
    /// The final prediction.
    prediction: bool,
}

/// A TAGE predictor: a `2^entry_bits` bimodal base plus `tables`
/// tagged components of `2^entry_bits` entries each, with history
/// lengths halving geometrically down from `max_history`.
#[derive(Debug, Clone)]
pub struct Tage {
    base: CounterTable,
    tables: Vec<TaggedTable>,
    history: GlobalHistory,
    num_tables: u32,
    max_history: u32,
    tag_bits: u32,
    entry_bits: u32,
}

impl Tage {
    /// Creates a TAGE predictor with `tables` tagged components,
    /// `max_history` bits of history on the longest one, `tag_bits`-bit
    /// partial tags and `2^entry_bits` entries per table (base
    /// included).
    ///
    /// # Panics
    ///
    /// Panics if `tables` is not 1..=16, `entry_bits` not 1..=20,
    /// `tag_bits` not 1..=16, or `max_history` not 1..=63.
    #[must_use]
    pub fn new(tables: u32, max_history: u32, tag_bits: u32, entry_bits: u32) -> Self {
        assert!(
            (1..=MAX_TABLES).contains(&(tables as usize)),
            "tage wants 1..={MAX_TABLES} tagged tables, got {tables}"
        );
        assert!(
            (1..=20).contains(&entry_bits),
            "tage entry index must be 1..=20 bits, got {entry_bits}"
        );
        assert!(
            (1..=16).contains(&tag_bits),
            "partial tags are 1..=16 bits, got {tag_bits}"
        );
        assert!(
            (1..=MAX_HISTORY_BITS).contains(&max_history),
            "tage history must be 1..=63 bits, got {max_history}"
        );
        let component = |i: u32| {
            let history_len = (max_history >> (tables - 1 - i)).max(1);
            TaggedTable {
                entries: vec![TagEntry::empty(); 1usize << entry_bits],
                history_len,
                index_fold: FoldedHistory::new(history_len, entry_bits),
                tag_fold: FoldedHistory::new(history_len, tag_bits),
                tag_fold_short: FoldedHistory::new(history_len, tag_bits - 1),
            }
        };
        Self {
            base: CounterTable::new(entry_bits, Counter2::WEAKLY_TAKEN),
            tables: (0..tables).map(component).collect(),
            history: GlobalHistory::new(max_history),
            num_tables: tables,
            max_history,
            tag_bits,
            entry_bits,
        }
    }

    /// The geometric history lengths, shortest table first.
    #[must_use]
    pub fn history_lengths(&self) -> Vec<u32> {
        self.tables.iter().map(|t| t.history_len).collect()
    }

    fn index_of(&self, table: &TaggedTable, pc: u64) -> usize {
        let w = pc_word(pc);
        to_index(low_bits(
            w ^ (w >> self.entry_bits) ^ table.index_fold.value ^ u64::from(table.history_len),
            self.entry_bits,
        ))
    }

    fn tag_of(&self, table: &TaggedTable, pc: u64) -> u16 {
        // Two differently-folded history hashes, the canonical
        // CSR1 ^ (CSR2 << 1) construction, so index-aliasing branches
        // rarely tag-alias too.
        let w = pc_word(pc);
        low_bits(
            w ^ (w >> self.tag_bits) ^ table.tag_fold.value ^ (table.tag_fold_short.value << 1),
            self.tag_bits,
        ) as u16
    }

    fn lookup(&self, pc: u64) -> Lookup {
        let mut indices = [0; MAX_TABLES];
        let mut tags = [0; MAX_TABLES];
        // Bit i set: table i tag-matches. Collected without a branch per
        // table, then the two highest set bits are the provider and alt.
        let mut hits = 0u32;
        for (i, table) in self.tables.iter().enumerate() {
            indices[i] = self.index_of(table, pc);
            tags[i] = self.tag_of(table, pc);
            let e = table.entries[indices[i]];
            hits |= u32::from(e.valid & (e.tag == tags[i])) << i;
        }
        let highest = |bits: u32| bits.checked_ilog2().map(|i| i as usize);
        let provider = highest(hits);
        let alt = provider.and_then(|i| highest(hits & !(1 << i)));
        let base_index = to_index(low_bits(pc_word(pc), self.entry_bits));
        let entry = |i: usize| self.tables[i].entries[indices[i]];
        let base_prediction = self.base.predict(base_index);
        let alt_prediction = alt.map_or(base_prediction, |j| entry(j).predict());
        let (provider_prediction, prediction) = match provider {
            Some(i) => {
                let e = entry(i);
                // use-alt-on-newly-allocated: a weak provider defers to
                // the alternate prediction until it has proven useful.
                let prediction = if e.is_weak() {
                    alt_prediction
                } else {
                    e.predict()
                };
                (e.predict(), prediction)
            }
            None => (base_prediction, base_prediction),
        };
        Lookup {
            indices,
            tags,
            provider,
            base_index,
            provider_prediction,
            alt_prediction,
            prediction,
        }
    }

    /// Trains on the outcome of the branch `l` looked up, then
    /// advances the history.
    fn train(&mut self, l: &Lookup, taken: bool) {
        match l.provider {
            Some(i) => {
                let e = &mut self.tables[i].entries[l.indices[i]];
                e.train(taken);
                // The useful counter moves only when the provider and
                // its alternate disagreed — that is when the provider's
                // existence changed the prediction.
                if l.provider_prediction != l.alt_prediction {
                    if l.provider_prediction == taken {
                        if e.useful < USEFUL_MAX {
                            e.useful += 1;
                        }
                    } else if e.useful > 0 {
                        e.useful -= 1;
                    }
                }
            }
            None => self.base.update(l.base_index, taken),
        }

        // Allocation on a final misprediction: claim the first
        // not-useful entry in a longer-history table; if every
        // candidate is defending its slot, decay them all instead
        // (the canonical age-on-failed-allocation rule).
        let first_candidate = l.provider.map_or(0, |i| i + 1);
        if l.prediction != taken && first_candidate < self.tables.len() {
            let mut allocated = false;
            for j in first_candidate..self.tables.len() {
                let e = &mut self.tables[j].entries[l.indices[j]];
                if !e.valid || e.useful == 0 {
                    *e = TagEntry {
                        ctr: if taken {
                            CTR_WEAK_TAKEN
                        } else {
                            CTR_WEAK_TAKEN - 1
                        },
                        tag: l.tags[j],
                        useful: 0,
                        valid: true,
                    };
                    allocated = true;
                    break;
                }
            }
            if !allocated {
                for j in first_candidate..self.tables.len() {
                    let e = &mut self.tables[j].entries[l.indices[j]];
                    if e.useful > 0 {
                        e.useful -= 1;
                    }
                }
            }
        }

        self.push_history(taken);
    }

    /// Shifts an outcome into the history and advances every table's
    /// folds past it.
    fn push_history(&mut self, taken: bool) {
        let h = self.history.value();
        for t in &mut self.tables {
            let old = (h >> (t.history_len - 1)) & 1 == 1;
            t.index_fold.push(taken, old);
            t.tag_fold.push(taken, old);
            t.tag_fold_short.push(taken, old);
        }
        self.history.push(taken);
    }
}

impl Predictor for Tage {
    fn clone_box(&self) -> Box<dyn Predictor> {
        Box::new(self.clone())
    }

    fn name(&self) -> String {
        format!(
            "tage(t={},h={},tag={},e={})",
            self.num_tables, self.max_history, self.tag_bits, self.entry_bits
        )
    }

    fn predict(&self, pc: u64) -> bool {
        self.lookup(pc).prediction
    }

    fn update(&mut self, pc: u64, taken: bool) {
        let l = self.lookup(pc);
        self.train(&l, taken);
    }

    fn step(&mut self, pc: u64, _target: Option<u64>, taken: bool) -> bool {
        let l = self.lookup(pc);
        self.train(&l, taken);
        l.prediction
    }

    fn cost(&self) -> Cost {
        let entries = 1u64 << self.entry_bits;
        Cost {
            // The paper's metric: prediction counters only — the base's
            // two-bit counters plus each tagged entry's 3-bit counter.
            state_bits: self.base.storage_bits()
                + u64::from(self.num_tables) * u64::from(CTR_BITS) * entries,
            // Tags, useful counters, valid bits and the history
            // register are bookkeeping, reported separately.
            metadata_bits: u64::from(self.num_tables)
                * entries
                * u64::from(self.tag_bits + USEFUL_BITS + 1)
                + u64::from(self.max_history),
        }
    }

    fn reset(&mut self) {
        self.base.reset();
        for t in &mut self.tables {
            t.entries.iter_mut().for_each(|e| *e = TagEntry::empty());
            t.index_fold.value = 0;
            t.tag_fold.value = 0;
            t.tag_fold_short.value = 0;
        }
        self.history.reset();
    }

    fn counter_id(&self, pc: u64) -> Option<CounterId> {
        // Ids: base first, then each tagged table's entries in order.
        let l = self.lookup(pc);
        Some(match l.provider {
            Some(i) => self.base.len() + i * self.tables[i].entries.len() + l.indices[i],
            None => l.base_index,
        })
    }

    fn num_counters(&self) -> usize {
        self.base.len() + self.tables.iter().map(|t| t.entries.len()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::fold_xor;

    /// Checks every table's incremental folds against the `fold_xor`
    /// oracle over the table's current history window.
    fn assert_folds_match_oracle(p: &Tage) {
        for (i, t) in p.tables.iter().enumerate() {
            let h = p.history.low(t.history_len);
            assert_eq!(
                t.index_fold.value,
                fold_xor(h, p.entry_bits),
                "table {i} index fold"
            );
            assert_eq!(
                t.tag_fold.value,
                fold_xor(h, p.tag_bits),
                "table {i} tag fold"
            );
            let short = if p.tag_bits > 1 {
                fold_xor(h, p.tag_bits - 1)
            } else {
                0
            };
            assert_eq!(t.tag_fold_short.value, short, "table {i} short tag fold");
        }
    }

    #[test]
    fn folded_histories_track_the_fold_xor_oracle() {
        // (tables, max_history, tag_bits, entry_bits): one tag bit (the
        // short fold is empty), windows shorter than every fold width,
        // the full 63-bit register, and the widest 20-bit index.
        for (tables, max_history, tag_bits, entry_bits) in [
            (3, 12, 1, 6),
            (2, 4, 9, 12),
            (1, 1, 2, 1),
            (4, 63, 8, 10),
            (2, 63, 16, 20),
        ] {
            let mut p = Tage::new(tables, max_history, tag_bits, entry_bits);
            assert_folds_match_oracle(&p);
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for i in 0..400u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let (pc, taken) = (0x1000 + (x % 29) * 4, x & 0x100 != 0);
                if i % 2 == 0 {
                    p.update(pc, taken);
                } else {
                    p.step(pc, None, taken);
                }
                assert_folds_match_oracle(&p);
            }
            p.reset();
            assert_folds_match_oracle(&p);
        }
    }

    #[test]
    fn history_lengths_halve_geometrically() {
        let p = Tage::new(4, 32, 8, 6);
        assert_eq!(p.history_lengths(), [4, 8, 16, 32]);
        // Short maxima clamp at one bit rather than degenerating to 0.
        let p = Tage::new(3, 2, 4, 2);
        assert_eq!(p.history_lengths(), [1, 1, 2]);
    }

    #[test]
    fn cost_counts_counters_as_state_and_tags_as_metadata() {
        let p = Tage::new(4, 32, 8, 10);
        // base 2*1024 + 4 tables * 3*1024 prediction bits
        assert_eq!(p.cost().state_bits, 2 * 1024 + 4 * 3 * 1024);
        // 4 tables * 1024 entries * (8 tag + 2 useful + 1 valid) + 32 history
        assert_eq!(p.cost().metadata_bits, 4 * 1024 * 11 + 32);
    }

    #[test]
    fn fresh_predictor_consults_the_base() {
        let p = Tage::new(4, 16, 8, 6);
        // No tagged entry is valid yet, so the bimodal base (weakly
        // taken) decides.
        assert!(p.predict(0x1000));
        assert!(p.counter_id(0x1000).expect("tage reports counters") < p.base.len());
    }

    #[test]
    fn history_pattern_allocates_and_provides() {
        // A branch alternating on a 2-period pattern defeats the base
        // bimodal but is perfectly predictable from one history bit:
        // TAGE must allocate a tagged entry and converge.
        let mut p = Tage::new(3, 8, 8, 6);
        let pc = 0x2000;
        let mut late_miss = 0;
        for i in 0..2000u32 {
            let taken = i % 2 == 0;
            if i >= 500 && p.predict(pc) != taken {
                late_miss += 1;
            }
            p.update(pc, taken);
        }
        assert!(late_miss <= 4, "tage lost a trivial pattern ({late_miss})");
        assert!(
            p.tables
                .iter()
                .any(|t| t.entries.iter().any(|e| e.valid && e.useful > 0)),
            "the providing entry must have proven useful"
        );
    }

    #[test]
    fn failed_allocation_decays_useful_counters() {
        let mut p = Tage::new(2, 4, 4, 1);
        // Pin every entry above the provider as useful, then force a
        // misprediction with no provider: the allocator must decay.
        for t in &mut p.tables {
            for e in &mut t.entries {
                *e = TagEntry {
                    ctr: CTR_MAX,
                    tag: 0x7, // never matches tag_of under empty history by construction below
                    useful: USEFUL_MAX,
                    valid: true,
                };
            }
        }
        let pc = 0x3000;
        // tag 0x7 must genuinely miss for the decay path to be the one
        // exercised.
        for t in &p.tables {
            assert_ne!(p.tag_of(t, pc), 0x7, "test wants tag misses");
        }
        p.update(pc, false); // base predicts taken -> mispredict, no u==0 slot
        let dropped = p
            .tables
            .iter()
            .any(|t| t.entries.iter().any(|e| e.useful < USEFUL_MAX));
        assert!(dropped, "failed allocation must decay useful counters");
    }

    #[test]
    fn tags_filter_index_aliases() {
        let p = Tage::new(1, 4, 8, 4);
        let table = &p.tables[0];
        // Find two PCs that share an index but differ in tag: the
        // filter the cfa tiering models.
        let pcs: Vec<u64> = (0..512u64).map(|i| 0x1000 + i * 4).collect();
        let mut found = false;
        'outer: for (ai, &a) in pcs.iter().enumerate() {
            for &b in &pcs[ai + 1..] {
                if p.index_of(table, a) == p.index_of(table, b)
                    && p.tag_of(table, a) != p.tag_of(table, b)
                {
                    found = true;
                    break 'outer;
                }
            }
        }
        assert!(found, "index aliases must be separable by tag");
    }

    #[test]
    fn reset_restores_power_on() {
        let mut p = Tage::new(3, 12, 6, 4);
        for i in 0..500u64 {
            p.update(0x1000 + (i % 13) * 4, i % 3 == 0);
        }
        p.reset();
        let fresh = Tage::new(3, 12, 6, 4);
        for pc in (0..64u64).map(|i| 0x1000 + i * 4) {
            assert_eq!(p.predict(pc), fresh.predict(pc));
        }
        assert!(p.tables.iter().all(|t| t.entries.iter().all(|e| !e.valid)));
    }

    #[test]
    fn counter_ids_stay_in_range() {
        let mut p = Tage::new(3, 8, 5, 4);
        for i in 0..800u64 {
            let pc = 0x1000 + (i % 37) * 4;
            let id = p.counter_id(pc).expect("tage reports counters");
            assert!(id < p.num_counters());
            p.update(pc, i % 5 != 0);
        }
    }
}
