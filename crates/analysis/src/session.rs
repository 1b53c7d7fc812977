//! Incremental engine sessions: the `feed(chunk)` / `checkpoint()` /
//! `finish()` seam under every measurement loop.
//!
//! The one-shot `measure_*` entry points take a whole [`PackedTrace`]
//! and return finished results, which caps trace size at memory and
//! rules out long-running service use. A *session* is the same engine
//! with its state made explicit and resumable between chunks:
//!
//! * [`PackedSession`] — one predictor ([`crate::measure_packed`]'s
//!   loop); the resumable state is the predictor itself (its history
//!   register and counter tables) plus the running mispredict tally.
//! * [`BatchSession`] — N predictors in the records-outer /
//!   predictors-inner schedule of [`crate::measure_batch`]; state is
//!   the predictor batch plus one tally per configuration.
//! * [`SlicedSession`] — up to [`MAX_LANES`](crate::MAX_LANES)
//!   gshare-family lanes over [`PlaneTable`] bit-planes
//!   ([`crate::measure_sliced`]'s loop); state is the per-lane planes
//!   and masks, the per-lane tallies, and the single **shared unmasked
//!   history register** that must survive chunk boundaries for results
//!   to stay bit-identical.
//!
//! The packed and batch sessions advance a predictor with one fused
//! [`Predictor::step`] per branch — predict and train from the same
//! lookup — and nothing else. The scalar [`crate::measure`] loop keeps
//! the reference `predict` + `update` pair, so the engine-equivalence
//! checks prove every `step` override exact.
//!
//! `feed` accepts any chunk of replayed [`PackedRecord`]s — a slice of
//! a packed trace, a freshly streamed network chunk, a
//! [`PackedTraceBuilder`](bpred_trace::PackedTraceBuilder) tail — and
//! chunk boundaries are *not observable*: feeding a trace in chunks of
//! 1, 63, 64, 65, or all at once produces bit-identical results (the
//! session property test drives every grammar spec through exactly
//! those splits). The `measure_*` one-shots are thin wrappers that
//! open a session, feed the whole trace, and finish.
//!
//! `checkpoint` reads the results accumulated so far without
//! disturbing the session — the live-metrics surface of the serving
//! path. `finish` consumes the session, records the engine drive in
//! [`crate::metrics`] (busy time is the sum of `feed` times, so
//! throughput accounting matches the one-shot paths), and returns the
//! final results.
//!
//! Sessions deliberately do **not** change what is measured — the
//! result store's `ENGINE_EPOCH` stays at 1 because every stored
//! result is reproduced bit-for-bit by the chunked paths.

use std::borrow::BorrowMut;
use std::marker::PhantomData;
use std::time::{Duration, Instant};

use bpred_core::index::{low_bits, pc_word, to_index};
use bpred_core::{PlaneTable, Predictor};
use bpred_trace::PackedRecord;

use crate::metrics::{self, Engine};
use crate::simulate::RunResult;
use crate::sites::SiteTally;
use crate::sliced::{LaneSpec, MAX_LANES};

/// Incremental form of the packed single-predictor engine.
///
/// Generic over predictor ownership: `B` may be `&mut P` (the one-shot
/// wrapper borrows the caller's predictor) or an owning handle like
/// `Box<dyn Predictor>` (a long-lived tenant session).
///
/// ```
/// use bpred_analysis::session::PackedSession;
/// use bpred_core::{Gshare, Predictor};
/// use bpred_trace::{BranchRecord, PackedTrace, Trace};
///
/// let mut t = Trace::new("s");
/// for i in 0..100u64 {
///     t.push(BranchRecord::conditional(0x40 + (i % 3) * 4, 0, i % 2 == 0));
/// }
/// let packed = PackedTrace::build(&t).unwrap();
/// let mut session =
///     PackedSession::<_, dyn Predictor>::new(Box::new(Gshare::new(6, 6)) as Box<dyn Predictor>);
/// for start in (0..packed.len()).step_by(7) {
///     let end = (start + 7).min(packed.len());
///     session.feed((start..end).map(|i| packed.record(i)));
/// }
/// let chunked = session.finish();
/// let whole = bpred_analysis::measure_packed(&packed, &mut Gshare::new(6, 6));
/// assert_eq!(chunked, whole);
/// ```
#[derive(Debug)]
pub struct PackedSession<B, P: ?Sized> {
    predictor: B,
    branches: u64,
    mispredictions: u64,
    tally: Option<SiteTally>,
    busy: Duration,
    _predictor: PhantomData<fn() -> *const P>,
}

impl<P, B> PackedSession<B, P>
where
    P: Predictor + ?Sized,
    B: BorrowMut<P>,
{
    /// Opens a session over a predictor in whatever state the caller
    /// wants to resume from (normally power-on fresh).
    pub fn new(predictor: B) -> Self {
        Self {
            predictor,
            branches: 0,
            mispredictions: 0,
            tally: None,
            busy: Duration::ZERO,
            _predictor: PhantomData,
        }
    }

    /// Turns on per-site misprediction attribution for every record
    /// fed from here on. Off by default — the aggregate hot path pays
    /// nothing for the feature when unused.
    pub fn track_sites(&mut self) {
        self.tally.get_or_insert_with(SiteTally::new);
    }

    /// The per-site tally accumulated so far, when [`Self::track_sites`]
    /// was called.
    #[must_use]
    pub fn site_tally(&self) -> Option<&SiteTally> {
        self.tally.as_ref()
    }

    /// Feeds one chunk of replayed records, in program order.
    pub fn feed<I>(&mut self, chunk: I)
    where
        I: IntoIterator<Item = PackedRecord>,
    {
        let started = Instant::now();
        let predictor = self.predictor.borrow_mut();
        for r in chunk {
            self.branches += 1;
            let miss = predictor.step(r.pc, Some(r.target()), r.taken) != r.taken;
            self.mispredictions += u64::from(miss);
            if let Some(tally) = self.tally.as_mut() {
                tally.record(r.pc, miss);
            }
        }
        self.busy += started.elapsed();
    }

    /// The result over everything fed so far, without disturbing the
    /// session.
    #[must_use]
    pub fn checkpoint(&self) -> RunResult {
        RunResult {
            branches: self.branches,
            mispredictions: self.mispredictions,
        }
    }

    /// Closes the session: records the engine drive (one lane, busy
    /// time summed over every `feed`) and returns the final result.
    #[must_use]
    pub fn finish(self) -> RunResult {
        metrics::record_engine_drive(Engine::Packed, self.branches, 1, self.busy);
        RunResult {
            branches: self.branches,
            mispredictions: self.mispredictions,
        }
    }
}

/// Incremental form of the batched engine: N independent predictors
/// advanced records-outer / predictors-inner, exactly the schedule of
/// [`crate::measure_batch`].
///
/// `B` may be `&mut [P]` (borrowing wrapper) or `Vec<P>` (owning
/// session); homogeneous batches monomorphise the inner loop just like
/// the one-shot path.
#[derive(Debug)]
pub struct BatchSession<B, P> {
    batch: B,
    missed: Vec<u64>,
    tallies: Option<Vec<SiteTally>>,
    branches: u64,
    busy: Duration,
    _predictor: PhantomData<fn() -> *const P>,
}

impl<P, B> BatchSession<B, P>
where
    P: Predictor,
    B: AsMut<[P]>,
{
    /// Opens a session over a predictor batch; each predictor resumes
    /// from whatever state it holds (normally power-on fresh).
    pub fn new(mut batch: B) -> Self {
        let configs = batch.as_mut().len();
        Self {
            batch,
            missed: vec![0; configs],
            tallies: None,
            branches: 0,
            busy: Duration::ZERO,
            _predictor: PhantomData,
        }
    }

    /// Turns on per-site misprediction attribution (one tally per
    /// configuration) for every record fed from here on.
    pub fn track_sites(&mut self) {
        let configs = self.missed.len();
        self.tallies
            .get_or_insert_with(|| vec![SiteTally::new(); configs]);
    }

    /// The per-configuration tallies accumulated so far, in input
    /// order, when [`Self::track_sites`] was called.
    #[must_use]
    pub fn site_tallies(&self) -> Option<&[SiteTally]> {
        self.tallies.as_deref()
    }

    /// Feeds one chunk of replayed records to every predictor, in
    /// program order.
    pub fn feed<I>(&mut self, chunk: I)
    where
        I: IntoIterator<Item = PackedRecord>,
    {
        let started = Instant::now();
        let predictors = self.batch.as_mut();
        for r in chunk {
            let (pc, target, taken) = (r.pc, r.target(), r.taken);
            for (i, (predictor, missed)) in predictors.iter_mut().zip(&mut self.missed).enumerate()
            {
                let miss = predictor.step(pc, Some(target), taken) != taken;
                *missed += u64::from(miss);
                if let Some(tallies) = self.tallies.as_mut() {
                    tallies[i].record(pc, miss);
                }
            }
            self.branches += 1;
        }
        self.busy += started.elapsed();
    }

    /// Resets every predictor of the batch to its power-on state, as
    /// a context-switch flush does between measurement windows. The
    /// tallies run on across the reset.
    pub fn reset(&mut self) {
        for predictor in self.batch.as_mut() {
            predictor.reset();
        }
    }

    /// Per-configuration results over everything fed so far, without
    /// disturbing the session.
    #[must_use]
    pub fn checkpoint(&self) -> Vec<RunResult> {
        self.missed
            .iter()
            .map(|&mispredictions| RunResult {
                branches: self.branches,
                mispredictions,
            })
            .collect()
    }

    /// Closes the session: records the engine drive (branches ×
    /// configurations retired, busy time summed over every `feed`) and
    /// returns the final per-configuration results in input order.
    #[must_use]
    pub fn finish(mut self) -> Vec<RunResult> {
        let configs = self.batch.as_mut().len() as u64;
        metrics::record_engine_drive(Engine::Batch, self.branches * configs, configs, self.busy);
        self.checkpoint()
    }
}

/// Incremental form of the bit-sliced engine: the per-lane
/// [`PlaneTable`]s, index masks, and mispredict tallies, plus the one
/// **shared unmasked history register** every lane reads through its
/// own mask — made explicit here so it survives chunk boundaries.
#[derive(Debug)]
pub struct SlicedSession {
    lanes: usize,
    tables: Vec<PlaneTable>,
    pc_masks: Vec<u64>,
    hist_masks: Vec<u64>,
    missed: Vec<u64>,
    tallies: Option<Vec<SiteTally>>,
    shared: u64,
    branches: u64,
    busy: Duration,
}

impl SlicedSession {
    /// Opens a session over a lane group, every lane's planes
    /// initialised weakly taken and the shared history register empty.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` exceeds [`MAX_LANES`] entries, or a lane has
    /// `history_bits > table_bits` — the same contract as
    /// [`crate::measure_sliced`].
    #[must_use]
    pub fn new(lanes: &[LaneSpec]) -> Self {
        assert!(
            lanes.len() <= MAX_LANES,
            "a sliced group holds at most {MAX_LANES} lanes, got {}",
            lanes.len()
        );
        for lane in lanes {
            assert!(
                lane.history_bits <= lane.table_bits,
                "history length {} exceeds index width {}",
                lane.history_bits,
                lane.table_bits
            );
        }
        Self {
            lanes: lanes.len(),
            tables: lanes
                .iter()
                .map(|l| PlaneTable::weakly_taken(l.table_bits))
                .collect(),
            pc_masks: lanes
                .iter()
                .map(|l| low_bits(u64::MAX, l.table_bits))
                .collect(),
            hist_masks: lanes
                .iter()
                .map(|l| low_bits(u64::MAX, l.history_bits))
                .collect(),
            missed: vec![0; lanes.len()],
            tallies: None,
            shared: 0,
            branches: 0,
            busy: Duration::ZERO,
        }
    }

    /// Turns on per-site misprediction attribution (one tally per
    /// lane) for every record fed from here on.
    pub fn track_sites(&mut self) {
        let lanes = self.lanes;
        self.tallies
            .get_or_insert_with(|| vec![SiteTally::new(); lanes]);
    }

    /// The per-lane tallies accumulated so far, in input order, when
    /// [`Self::track_sites`] was called.
    #[must_use]
    pub fn site_tallies(&self) -> Option<&[SiteTally]> {
        self.tallies.as_deref()
    }

    /// Feeds one chunk of replayed records to every lane, in program
    /// order. The shared history register advances once per record and
    /// carries over to the next chunk unchanged.
    pub fn feed<I>(&mut self, chunk: I)
    where
        I: IntoIterator<Item = PackedRecord>,
    {
        let started = Instant::now();
        for r in chunk {
            let pcw = pc_word(r.pc);
            let taken = r.taken;
            for (i, (((table, &pc_mask), &hist_mask), missed)) in self
                .tables
                .iter_mut()
                .zip(&self.pc_masks)
                .zip(&self.hist_masks)
                .zip(&mut self.missed)
                .enumerate()
            {
                let index = to_index((pcw & pc_mask) ^ (self.shared & hist_mask));
                let predicted = table.retire(index, taken);
                let miss = predicted != taken;
                *missed += u64::from(miss);
                if let Some(tallies) = self.tallies.as_mut() {
                    tallies[i].record(r.pc, miss);
                }
            }
            self.shared = (self.shared << 1) | u64::from(taken);
            self.branches += 1;
        }
        self.busy += started.elapsed();
    }

    /// The shared history register's current value — the checkpoint
    /// state a resumed session would need alongside the plane tables.
    #[must_use]
    pub fn shared_history(&self) -> u64 {
        self.shared
    }

    /// Per-lane results over everything fed so far, without disturbing
    /// the session.
    #[must_use]
    pub fn checkpoint(&self) -> Vec<RunResult> {
        self.missed
            .iter()
            .map(|&mispredictions| RunResult {
                branches: self.branches,
                mispredictions,
            })
            .collect()
    }

    /// Closes the session: records the engine drive (branches × lanes
    /// retired, busy time summed over every `feed`) and returns the
    /// final per-lane results in input order.
    #[must_use]
    pub fn finish(self) -> Vec<RunResult> {
        let lanes = self.lanes as u64;
        metrics::record_engine_drive(Engine::Sliced, self.branches * lanes, lanes, self.busy);
        self.checkpoint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{measure_batch, measure_packed};
    use crate::sliced::measure_sliced;
    use bpred_core::{Gshare, PredictorSpec};
    use bpred_trace::{BranchRecord, PackedTrace, Trace};

    fn lcg_packed(seed: u64, len: u64, sites: u64) -> PackedTrace {
        let mut t = Trace::new("session");
        let mut x = seed | 1;
        for _ in 0..len {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pc = 0x2000 + (x % sites) * 4;
            let target = if x.is_multiple_of(5) {
                pc - 0x80
            } else {
                pc + 0x80
            };
            t.push(BranchRecord::conditional(pc, target, (x >> 19) & 1 == 1));
        }
        PackedTrace::build(&t).expect("sites fit")
    }

    fn feed_in_chunks<F: FnMut(usize, usize)>(len: usize, chunk: usize, mut feed: F) {
        let mut start = 0;
        while start < len {
            let end = (start + chunk).min(len);
            feed(start, end);
            start = end;
        }
    }

    #[test]
    fn packed_session_is_chunking_invariant() {
        let packed = lcg_packed(9, 3000, 23);
        let spec: PredictorSpec = "bimode:d=6".parse().expect("parses");
        let want = measure_packed(&packed, spec.build().as_mut());
        for chunk in [1usize, 63, 64, 65, 700] {
            let mut session = PackedSession::<_, dyn bpred_core::Predictor>::new(spec.build());
            feed_in_chunks(packed.len(), chunk, |s, e| {
                session.feed((s..e).map(|i| packed.record(i)));
            });
            assert_eq!(session.finish(), want, "chunk {chunk}");
        }
    }

    #[test]
    fn batch_session_is_chunking_invariant() {
        let packed = lcg_packed(11, 4500, 31);
        let mut reference = [Gshare::new(8, 8), Gshare::new(8, 2), Gshare::new(5, 0)];
        let want = measure_batch(&packed, &mut reference);
        for chunk in [1usize, 64, 65, 4096, 4097] {
            let mut session = BatchSession::new(vec![
                Gshare::new(8, 8),
                Gshare::new(8, 2),
                Gshare::new(5, 0),
            ]);
            feed_in_chunks(packed.len(), chunk, |s, e| {
                session.feed((s..e).map(|i| packed.record(i)));
            });
            assert_eq!(session.finish(), want, "chunk {chunk}");
        }
    }

    #[test]
    fn sliced_session_history_survives_chunk_boundaries() {
        let packed = lcg_packed(13, 2000, 17);
        let lanes: Vec<LaneSpec> = (0..8u32)
            .map(|m| LaneSpec {
                table_bits: 8,
                history_bits: m,
            })
            .collect();
        let want = measure_sliced(&packed, &lanes);
        for chunk in [1usize, 63, 64, 65] {
            let mut session = SlicedSession::new(&lanes);
            feed_in_chunks(packed.len(), chunk, |s, e| {
                session.feed((s..e).map(|i| packed.record(i)));
            });
            // The explicit checkpoint state: an n-record prefix leaves
            // the low bits of the shared register holding the last
            // outcomes, exactly like a per-predictor register would.
            assert_eq!(session.finish(), want, "chunk {chunk}");
        }
    }

    #[test]
    fn checkpoints_read_prefix_results_without_disturbing_the_stream() {
        let packed = lcg_packed(17, 1000, 9);
        let lanes = [LaneSpec {
            table_bits: 6,
            history_bits: 6,
        }];
        let mut session = SlicedSession::new(&lanes);
        session.feed((0..500).map(|i| packed.record(i)));
        let mid = session.checkpoint();
        assert_eq!(mid[0].branches, 500);
        // The checkpoint must equal a one-shot run over the prefix.
        let mut prefix = Trace::new("prefix");
        for i in 0..500 {
            let r = packed.record(i);
            prefix.push(BranchRecord::conditional(r.pc, r.target(), r.taken));
        }
        let prefix = PackedTrace::build(&prefix).expect("builds");
        assert_eq!(mid, measure_sliced(&prefix, &lanes));
        // ... and reading it must not perturb the rest of the stream.
        session.feed((500..packed.len()).map(|i| packed.record(i)));
        assert_eq!(session.finish(), measure_sliced(&packed, &lanes));
    }

    #[test]
    fn sessions_record_engine_drives_on_finish() {
        let packed = lcg_packed(23, 600, 7);
        let before = metrics::engine_snapshot();
        let mut s = BatchSession::new(vec![Gshare::new(5, 5), Gshare::new(5, 0)]);
        s.feed(packed.records());
        let _ = s.finish();
        let delta = metrics::engine_snapshot().since(&before).get(Engine::Batch);
        assert!(delta.branches >= 1200, "got {delta:?}");
        assert!(delta.lanes >= 2, "got {delta:?}");
    }

    #[test]
    fn empty_sessions_finish_cleanly() {
        let session: BatchSession<Vec<Gshare>, Gshare> = BatchSession::new(Vec::new());
        assert!(session.finish().is_empty());
        let session = SlicedSession::new(&[]);
        assert!(session.finish().is_empty());
        let mut session = PackedSession::new(Gshare::new(4, 4));
        session.feed(std::iter::empty());
        assert_eq!(session.finish(), RunResult::default());
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn sliced_session_rejects_oversized_groups() {
        let lanes = vec![
            LaneSpec {
                table_bits: 4,
                history_bits: 0
            };
            MAX_LANES + 1
        ];
        let _ = SlicedSession::new(&lanes);
    }
}
