//! Trace generation and caching for the experiment suites.
//!
//! Workload traces are deterministic, so they are generated once per
//! (workload, scale) and cached — in memory within a `TraceSet`, and
//! optionally on disk in the binary codec so repeated `repro`
//! invocations skip regeneration. Each `TraceSet` also lazily builds
//! the packed (SoA) view of every trace, shared by all the batched
//! experiments of a run. A set is a view of a shared pool:
//! [`TraceSet::restrict`] narrows it to some suites without copying a
//! trace or a packed view.

use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Write};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use crate::sync::{AtomicU64, AtomicUsize, Ordering};

use bpred_trace::{PackedTrace, Trace};
use bpred_workloads::{Scale, Suite, Workload};

use crate::parallel;

/// Cache-format version; bump on binary-codec changes. Generator
/// changes need no bump: cache files are also keyed by
/// [`bpred_workloads::source_digest`], so editing any workload kernel
/// (or the tracer or scale table) re-keys every cached trace
/// automatically.
const CACHE_VERSION: u32 = 5;

static CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static CACHE_MISSES: AtomicU64 = AtomicU64::new(0);
static PACKS_BUILT: AtomicU64 = AtomicU64::new(0);

/// A point-in-time reading of the process-wide trace-cache counters.
///
/// A *hit* is a trace served from the on-disk cache; a *miss* is a
/// trace generated from its workload kernel (whether or not a cache
/// write followed); a *pack* is one SoA packed view built from a
/// trace. Counters are monotone; attribute work to a stage by
/// differencing two snapshots with [`CacheCounters::since`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounters {
    /// Traces loaded from the on-disk cache.
    pub hits: u64,
    /// Traces regenerated from their workload kernels.
    pub misses: u64,
    /// Packed (SoA) trace views built.
    pub packs_built: u64,
}

impl CacheCounters {
    /// The activity recorded between `earlier` and `self`.
    #[must_use]
    pub fn since(&self, earlier: &CacheCounters) -> CacheCounters {
        CacheCounters {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            packs_built: self.packs_built.saturating_sub(earlier.packs_built),
        }
    }
}

/// Reads the current trace-cache counters.
#[must_use]
pub fn cache_counters() -> CacheCounters {
    // Independently monotone statistics; snapshots are differenced,
    // never used to synchronize other memory, so Relaxed suffices
    // (model-checked in race/metrics, which covers this counter shape).
    CacheCounters {
        hits: CACHE_HITS.load(Ordering::Relaxed), // ordering-audited: statistic, see above
        misses: CACHE_MISSES.load(Ordering::Relaxed), // ordering-audited: statistic, see above
        packs_built: PACKS_BUILT.load(Ordering::Relaxed), // ordering-audited: statistic, see above
    }
}

/// The traces of a set of workloads at one scale: a view of some of
/// the entries of a shared pool, in the view's own order.
#[derive(Debug)]
pub struct TraceSet {
    scale: Scale,
    pool: Arc<Pool>,
    /// Pool indices of the entries this view shows, in order.
    visible: Vec<usize>,
}

/// The generated traces behind one or more [`TraceSet`] views, with
/// their lazily built packed views.
#[derive(Debug)]
struct Pool {
    entries: Vec<(Workload, Trace)>,
    packed: Vec<OnceLock<PackedTrace>>,
}

/// Where on-disk trace caching lives, if enabled.
fn cache_dir() -> Option<PathBuf> {
    if std::env::var_os("BPRED_NO_TRACE_CACHE").is_some() {
        return None;
    }
    static DIR: OnceLock<Option<PathBuf>> = OnceLock::new();
    DIR.get_or_init(|| {
        let base = std::env::var_os("BPRED_TRACE_CACHE")
            .map(PathBuf::from)
            .unwrap_or_else(|| std::env::temp_dir().join("bpred-trace-cache"));
        fs::create_dir_all(&base).ok().map(|()| base)
    })
    .clone()
}

/// The on-disk trace cache directory, or `None` when caching is
/// disabled (`BPRED_NO_TRACE_CACHE`) or the directory can't be made.
/// Exposed so run manifests can record cache provenance.
#[must_use]
pub fn cache_location() -> Option<PathBuf> {
    cache_dir()
}

fn cached_path(workload: &Workload, scale: Scale) -> Option<PathBuf> {
    cache_dir().map(|d| {
        d.join(format!(
            "v{CACHE_VERSION}-{:016x}-{}-{scale}.bptr",
            bpred_workloads::source_digest(),
            workload.name()
        ))
    })
}

/// Writes `trace` to `path` atomically: serialise into a uniquely named
/// temp file in the same directory, then rename into place. Readers
/// never observe a half-written file (a crash mid-write leaves only the
/// temp file behind) and concurrent writers of the same trace race
/// harmlessly — renames are atomic and both sides wrote identical
/// bytes.
fn write_cache_atomically(trace: &Trace, path: &PathBuf) {
    static TMP_SEQ: AtomicUsize = AtomicUsize::new(0);
    let tmp = path.with_extension(format!(
        "tmp.{}.{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed) // ordering-audited: uniqueness needs only RMW atomicity; nothing is published through the counter
    ));
    let written = File::create(&tmp).is_ok_and(|file| {
        let mut writer = BufWriter::new(file);
        bpred_trace::write_binary(trace, &mut writer).is_ok() && writer.flush().is_ok()
    });
    // Best-effort cache write; failure only costs regeneration.
    if !written || fs::rename(&tmp, path).is_err() {
        fs::remove_file(&tmp).ok();
    }
}

/// Generates (or loads from cache) one workload trace.
#[must_use]
pub fn load_trace(workload: &Workload, scale: Scale) -> Trace {
    if let Some(path) = cached_path(workload, scale) {
        if let Ok(file) = File::open(&path) {
            if let Ok(trace) = bpred_trace::read_binary(BufReader::new(file)) {
                CACHE_HITS.fetch_add(1, Ordering::Relaxed); // ordering-audited: statistic, see `cache_counters`
                return trace;
            }
            // Corrupt cache entry: fall through and regenerate.
            fs::remove_file(&path).ok();
        }
        CACHE_MISSES.fetch_add(1, Ordering::Relaxed); // ordering-audited: statistic, see `cache_counters`
        let trace = workload.trace(scale);
        write_cache_atomically(&trace, &path);
        return trace;
    }
    CACHE_MISSES.fetch_add(1, Ordering::Relaxed); // ordering-audited: statistic, see `cache_counters`
    workload.trace(scale)
}

impl TraceSet {
    /// Generates the traces of both paper suites (SPEC CINT95 and
    /// IBS-Ultrix) in parallel.
    #[must_use]
    pub fn paper_suites(scale: Scale, jobs: Option<usize>) -> Self {
        let mut workloads = Workload::suite_workloads(Suite::SpecInt95);
        workloads.extend(Workload::suite_workloads(Suite::IbsUltrix));
        Self::of(workloads, scale, jobs)
    }

    /// Generates the traces of the given workloads in parallel.
    #[must_use]
    pub fn of(workloads: Vec<Workload>, scale: Scale, jobs: Option<usize>) -> Self {
        let entries = parallel::map(workloads, jobs, |w| (*w, load_trace(w, scale)));
        let packed = entries.iter().map(|_| OnceLock::new()).collect();
        Self {
            scale,
            visible: (0..entries.len()).collect(),
            pool: Arc::new(Pool { entries, packed }),
        }
    }

    /// The view of this set's entries that belong to `suites`: suite by
    /// suite in the order given, each suite's entries in set order.
    /// Shares the traces and packed views; nothing is copied.
    #[must_use]
    pub fn restrict(&self, suites: &[Suite]) -> TraceSet {
        let visible = suites
            .iter()
            .flat_map(|&suite| {
                self.visible
                    .iter()
                    .copied()
                    .filter(move |&i| self.pool.entries[i].0.suite() == suite)
            })
            .collect();
        TraceSet {
            scale: self.scale,
            pool: Arc::clone(&self.pool),
            visible,
        }
    }

    /// The scale the traces were generated at.
    #[must_use]
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// All (workload, trace) pairs, in set order.
    pub fn entries(&self) -> impl Iterator<Item = &(Workload, Trace)> {
        self.visible.iter().map(|&i| &self.pool.entries[i])
    }

    /// The entries belonging to one suite.
    pub fn suite(&self, suite: Suite) -> impl Iterator<Item = &(Workload, Trace)> {
        self.entries().filter(move |(w, _)| w.suite() == suite)
    }

    /// Looks up one workload's trace by name.
    #[must_use]
    pub fn trace(&self, name: &str) -> Option<&Trace> {
        self.entries()
            .find(|(w, _)| w.name() == name)
            .map(|(_, t)| t)
    }

    /// The packed view of pool entry `index`, built on first use and
    /// shared by every view of the pool.
    fn packed_at(&self, index: usize) -> &PackedTrace {
        self.pool.packed[index].get_or_init(|| {
            PACKS_BUILT.fetch_add(1, Ordering::Relaxed); // ordering-audited: statistic, see `cache_counters`
            PackedTrace::build(&self.pool.entries[index].1)
                .expect("workload site tables fit 32-bit ids")
            // panic-audited: synthetic workloads have far fewer than 2^32 branch sites
        })
    }

    /// Packed views of the entries `keep` selects, in set order.
    fn packed_where(&self, keep: impl Fn(&Workload) -> bool) -> Vec<&PackedTrace> {
        self.visible
            .iter()
            .filter(|&&i| keep(&self.pool.entries[i].0))
            .map(|&i| self.packed_at(i))
            .collect()
    }

    /// The packed (SoA) view of one workload's trace, built on first
    /// use and shared for the lifetime of the set.
    #[must_use]
    pub fn packed(&self, name: &str) -> Option<&PackedTrace> {
        self.visible
            .iter()
            .find(|&&i| self.pool.entries[i].0.name() == name)
            .map(|&i| self.packed_at(i))
    }

    /// Packed views of one suite's traces, in set order.
    #[must_use]
    pub fn suite_packed(&self, suite: Suite) -> Vec<&PackedTrace> {
        self.packed_where(|w| w.suite() == suite)
    }

    /// Packed views of every trace, in set order.
    #[must_use]
    pub fn all_packed(&self) -> Vec<&PackedTrace> {
        self.packed_where(|_| true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_and_caches_a_trace() {
        let dir = std::env::temp_dir().join(format!("bpred-tc-test-{}", std::process::id()));
        // Isolate the cache via the env var; tests in this process run
        // the OnceLock once, so set it before the first call.
        std::env::set_var("BPRED_TRACE_CACHE", &dir);
        let w = Workload::by_name("compress").expect("registered");
        let a = load_trace(&w, Scale::Smoke);
        let b = load_trace(&w, Scale::Smoke);
        assert_eq!(a, b, "cache round-trip must be lossless");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cache_files_are_keyed_by_the_generator_source_digest() {
        let w = Workload::by_name("compress").expect("registered");
        let path = cached_path(&w, Scale::Smoke).expect("cache enabled in tests");
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("utf-8 file name");
        assert!(
            name.contains(&format!("{:016x}", bpred_workloads::source_digest())),
            "editing a workload kernel must re-key the cache: {name}"
        );
        assert!(
            name.contains("compress") && name.contains("smoke"),
            "{name}"
        );
    }

    #[test]
    fn concurrent_loads_agree_and_leave_no_temp_files() {
        let w = Workload::by_name("groff").expect("registered");
        let traces: Vec<Trace> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| load_trace(&w, Scale::Smoke)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("no panic"))
                .collect()
        });
        for t in &traces[1..] {
            assert_eq!(
                *t, traces[0],
                "every concurrent load must see the same trace"
            );
        }
        if let Some(dir) = cache_dir() {
            let leftovers: Vec<PathBuf> = fs::read_dir(dir)
                .map(|it| {
                    it.filter_map(Result::ok)
                        .map(|e| e.path())
                        // Scope to this test's workload: other tests
                        // write the shared dir concurrently.
                        .filter(|p| {
                            let name = p.to_string_lossy().into_owned();
                            name.contains("groff") && name.contains(".tmp.")
                        })
                        .collect()
                })
                .unwrap_or_default();
            assert!(
                leftovers.is_empty(),
                "temp files must not survive: {leftovers:?}"
            );
        }
    }

    #[test]
    fn stale_temp_files_do_not_break_cache_reads() {
        let w = Workload::by_name("compress").expect("registered");
        let a = load_trace(&w, Scale::Smoke);
        let dead = cached_path(&w, Scale::Smoke).map(|p| p.with_extension("tmp.dead.0"));
        if let Some(dead) = &dead {
            // Simulate a crashed writer: a half-written temp neighbour.
            fs::write(dead, b"partial garbage").ok();
        }
        let b = load_trace(&w, Scale::Smoke);
        assert_eq!(a, b);
        if let Some(dead) = &dead {
            fs::remove_file(dead).ok();
        }
    }

    #[test]
    fn cache_counters_track_loads_and_packs() {
        let w = Workload::by_name("compress").expect("registered");
        let before = cache_counters();
        let _ = load_trace(&w, Scale::Smoke);
        let set = TraceSet::of(vec![w], Scale::Smoke, Some(1));
        let _ = set.packed("compress");
        let _ = set.packed("compress"); // lazy: second use builds nothing
        let delta = cache_counters().since(&before);
        // Other tests share the process-wide counters, so assert floors.
        assert!(
            delta.hits + delta.misses >= 2,
            "two loads must be counted: {delta:?}"
        );
        assert!(delta.packs_built >= 1, "one pack built: {delta:?}");
    }

    #[test]
    fn trace_set_indexes_by_name_and_suite() {
        let set = TraceSet::of(
            vec![
                Workload::by_name("compress").unwrap(),
                Workload::by_name("groff").unwrap(),
            ],
            Scale::Smoke,
            Some(2),
        );
        assert!(set.trace("compress").is_some());
        assert!(set.trace("nope").is_none());
        assert_eq!(set.suite(Suite::SpecInt95).count(), 1);
        assert_eq!(set.suite(Suite::IbsUltrix).count(), 1);
        assert_eq!(set.scale(), Scale::Smoke);
    }

    #[test]
    fn packed_views_mirror_the_traces() {
        let set = TraceSet::of(
            vec![
                Workload::by_name("compress").unwrap(),
                Workload::by_name("groff").unwrap(),
            ],
            Scale::Smoke,
            Some(2),
        );
        let p = set.packed("compress").expect("present");
        let t = set.trace("compress").expect("present");
        assert_eq!(p.len() as u64, t.stats().dynamic_conditional);
        // The lazy cell hands back the same instance on reuse.
        assert!(std::ptr::eq(p, set.packed("compress").unwrap()));
        assert!(set.packed("nope").is_none());
        assert_eq!(set.all_packed().len(), 2);
        assert_eq!(set.suite_packed(Suite::SpecInt95).len(), 1);
    }

    #[test]
    fn restricted_views_share_the_pool_in_suite_order() {
        let set = TraceSet::of(
            vec![
                Workload::by_name("groff").unwrap(),
                Workload::by_name("compress").unwrap(),
                Workload::by_name("gcc").unwrap(),
            ],
            Scale::Smoke,
            Some(2),
        );
        let names = |s: &TraceSet| s.entries().map(|(w, _)| w.name()).collect::<Vec<_>>();
        let view = set.restrict(&[Suite::SpecInt95, Suite::IbsUltrix]);
        assert_eq!(names(&view), ["compress", "gcc", "groff"]);
        assert_eq!(names(&view.restrict(&[Suite::IbsUltrix])), ["groff"]);
        assert!(set
            .restrict(&[Suite::SimKernels])
            .entries()
            .next()
            .is_none());
        assert!(view.restrict(&[Suite::SpecInt95]).trace("groff").is_none());
        // Views hand out the pool's own traces and packed views.
        assert!(std::ptr::eq(
            set.trace("gcc").unwrap(),
            view.trace("gcc").unwrap()
        ));
        assert!(std::ptr::eq(
            set.packed("gcc").unwrap(),
            view.packed("gcc").unwrap()
        ));
        assert_eq!(view.scale(), Scale::Smoke);
    }
}
