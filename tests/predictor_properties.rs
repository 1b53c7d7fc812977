//! Property-based tests over the predictor models, index functions and
//! trace codecs.

use std::io::Cursor;

use bimode_repro::core::index::{fold_xor, gselect_index, gshare_index, low_bits, skew_index};
use bimode_repro::core::spec::GRAMMAR;
use bimode_repro::core::{
    BiMode, BiModeConfig, Bimodal, Counter2, DelayedUpdate, GlobalHistory, Gshare, Predictor,
    PredictorSpec, SatCounter,
};
use bimode_repro::trace::{read_binary, write_binary, BranchKind, BranchRecord, Trace};
use proptest::prelude::*;

/// An arbitrary short branch stream over a small PC set.
fn branch_stream() -> impl Strategy<Value = Vec<(u64, bool)>> {
    prop::collection::vec((0u64..64, any::<bool>()), 1..400)
        .prop_map(|v| v.into_iter().map(|(pc, t)| (0x1000 + pc * 4, t)).collect())
}

fn predictor_specs() -> impl Strategy<Value = PredictorSpec> {
    prop::sample::select(vec![
        "bimodal:s=6",
        "gshare:s=8,h=8",
        "gshare:s=8,h=3",
        "gselect:a=3,h=4",
        "gag:h=8",
        "pas:i=4,a=2,h=5",
        "bimode:d=6",
        "bimode:d=6,choice=always,init=uniform",
        "bimode:d=7,c=5,h=4,index=skewed",
        "agree:s=7,h=5,b=7",
        "gskew:s=6,h=6",
        "yags:c=7,e=5,h=5,t=6",
        "tournament:s=6",
        "trimode:d=6,c=7,h=5",
        "2bcgskew:s=7,h=6",
        "tage:t=3,h=8,tag=5,e=5",
        "perceptron:n=5,h=8,theta=23",
        "cascade:bimodal:s=5;gshare:s=6,h=6",
        "btfnt",
    ])
    .prop_map(|s| s.parse().expect("fixed specs parse"))
}

/// Specs the fused-step property drives: every grammar name at least
/// once, plus the configurations whose `step` overrides take distinct
/// paths (one-bit TAGE tags, the full 63-bit history, total-update
/// gskew, and cascades with btfnt and tage stages).
const STEP_SPECS: &[&str] = &[
    "always-taken",
    "always-not-taken",
    "btfnt",
    "bimodal:s=6",
    "gshare:s=8,h=8",
    "gselect:a=3,h=4",
    "gag:h=8",
    "gas:a=2,h=5",
    "pag:i=4,h=5",
    "pas:i=4,a=2,h=5",
    "sag:i=4,k=2,h=5",
    "sas:i=4,k=2,a=2,h=4",
    "bimode:d=6",
    "agree:s=7,h=5,b=7",
    "gskew:s=6,h=6",
    "gskew:s=6,h=6,update=total",
    "yags:c=7,e=5,h=5,t=6",
    "tournament:s=6",
    "2bcgskew:s=7,h=6",
    "trimode:d=6,c=7,h=5",
    "tage:t=3,h=8,tag=5,e=5",
    "tage:t=4,h=63,tag=1,e=4",
    "perceptron:n=5,h=8,theta=23",
    "cascade:btfnt;tage:t=2,h=8,tag=4,e=4",
    "cascade:bimodal:s=5;perceptron:n=3,h=6;tage:t=3,h=16,tag=6,e=5",
];

/// A fresh predictor for `spec`, behind a delayed-update wrapper of
/// `delay` branches when `delay` is nonzero.
fn step_subject(spec: &str, delay: usize) -> Box<dyn Predictor> {
    let p = spec
        .parse::<PredictorSpec>()
        .expect("fixed specs parse")
        .build();
    if delay == 0 {
        p
    } else {
        Box::new(DelayedUpdate::new(p, delay))
    }
}

/// An arbitrary short branch stream with decoded targets on both sides
/// of each branch.
fn targeted_stream() -> impl Strategy<Value = Vec<(u64, u64, bool)>> {
    prop::collection::vec((0u64..64, 0u64..128, any::<bool>()), 1..200).prop_map(|v| {
        v.into_iter()
            .map(|(pc, t, taken)| (0x1000 + pc * 4, 0x1000 + t * 4, taken))
            .collect()
    })
}

#[test]
fn step_specs_cover_the_grammar() {
    for (name, _) in GRAMMAR {
        assert!(
            STEP_SPECS
                .iter()
                .any(|s| s.split(':').next() == Some(*name)),
            "no step spec for grammar name `{name}`"
        );
    }
}

proptest! {
    /// The fused step is the reference pair: for every spec, `step`
    /// with a target returns `predict_with_target`, without one
    /// `predict`, and leaves the state `update` would — down to the
    /// full `Debug` rendering after every branch.
    #[test]
    fn step_equals_predict_then_update(
        delay in prop::sample::select(vec![0usize, 1, 3]),
        with_target in any::<bool>(),
        stream in targeted_stream(),
    ) {
        for spec in STEP_SPECS {
            let mut stepped = step_subject(spec, delay);
            let mut reference = step_subject(spec, delay);
            for &(pc, target, taken) in &stream {
                let expected = if with_target {
                    reference.predict_with_target(pc, target)
                } else {
                    reference.predict(pc)
                };
                let got = stepped.step(pc, with_target.then_some(target), taken);
                prop_assert_eq!(got, expected, "{}", spec);
                reference.update(pc, taken);
                prop_assert_eq!(format!("{stepped:?}"), format!("{reference:?}"));
            }
        }
    }
}

proptest! {
    /// Determinism: two instances fed the same stream always agree.
    #[test]
    fn predictors_are_deterministic(spec in predictor_specs(), stream in branch_stream()) {
        let mut a = spec.build();
        let mut b = spec.build();
        for (pc, taken) in stream {
            prop_assert_eq!(a.predict(pc), b.predict(pc));
            a.update(pc, taken);
            b.update(pc, taken);
        }
    }

    /// Reset restores power-on behaviour exactly.
    #[test]
    fn reset_equals_fresh(spec in predictor_specs(), stream in branch_stream()) {
        let mut used = spec.build();
        for (pc, taken) in &stream {
            used.update(*pc, *taken);
        }
        used.reset();
        let mut fresh = spec.build();
        for (pc, taken) in stream {
            prop_assert_eq!(used.predict(pc), fresh.predict(pc));
            used.update(pc, taken);
            fresh.update(pc, taken);
        }
    }

    /// predict() is pure: calling it any number of times between
    /// updates changes nothing.
    #[test]
    fn predict_is_pure(spec in predictor_specs(), stream in branch_stream()) {
        let mut a = spec.build();
        let mut b = spec.build();
        for (pc, taken) in stream {
            for _ in 0..3 {
                let _ = a.predict(pc);
            }
            prop_assert_eq!(a.predict(pc), b.predict(pc));
            a.update(pc, taken);
            b.update(pc, taken);
        }
    }

    /// counter_id stays within num_counters over any stream.
    #[test]
    fn counter_ids_in_range(spec in predictor_specs(), stream in branch_stream()) {
        let mut p = spec.build();
        let n = p.num_counters();
        for (pc, taken) in stream {
            if let Some(id) = p.counter_id(pc) {
                prop_assert!(n > 0 && id < n, "id {id} out of {n}");
            }
            p.update(pc, taken);
        }
    }

    /// gshare with zero history bits is exactly a bimodal table.
    #[test]
    fn gshare_m0_equals_bimodal(stream in branch_stream()) {
        let mut g = Gshare::new(7, 0);
        let mut b = Bimodal::new(7);
        for (pc, taken) in stream {
            prop_assert_eq!(g.predict(pc), b.predict(pc));
            g.update(pc, taken);
            b.update(pc, taken);
        }
    }

    /// The bi-mode predictor with an all-taken stream never trains its
    /// not-taken bank (selection isolation).
    #[test]
    fn bimode_taken_streams_leave_bank0_untouched(pcs in prop::collection::vec(0u64..256, 1..200)) {
        let mut p = BiMode::new(BiModeConfig::paper_default(6));
        let reference = BiMode::new(BiModeConfig::paper_default(6));
        for pc in pcs {
            p.update(0x1000 + pc * 4, true);
        }
        // Bank 0 is only reachable once some choice entry turns
        // not-taken, which an all-taken stream cannot cause; behaviour
        // on bank 0's init state must equal a fresh predictor's bank 0.
        // Observable proxy: selected bank is always 1.
        for pc in 0u64..256 {
            prop_assert_eq!(p.selected_bank(0x1000 + pc * 4), 1);
        }
        let _ = reference;
    }

    /// Counter2 never leaves its 4 states and saturates.
    #[test]
    fn counter2_stays_in_range(updates in prop::collection::vec(any::<bool>(), 0..64), init in 0u8..4) {
        let mut c = Counter2::from_state(init);
        for t in updates {
            c.update(t);
            prop_assert!(c.state() <= 3);
        }
    }

    /// SatCounter prediction flips require crossing the midpoint.
    #[test]
    fn sat_counter_midpoint_rule(bits in 1u32..9, updates in prop::collection::vec(any::<bool>(), 0..200)) {
        let mid = 1u16 << (bits - 1);
        let mut c = SatCounter::new(bits, mid);
        for t in updates {
            c.update(t);
            prop_assert_eq!(c.predict(), c.value() >= mid);
        }
    }

    /// Global history keeps exactly `bits` of state.
    #[test]
    fn history_window(bits in 0u32..24, pushes in prop::collection::vec(any::<bool>(), 0..100)) {
        let mut h = GlobalHistory::new(bits);
        let mut model: Vec<bool> = Vec::new();
        for t in pushes {
            h.push(t);
            model.push(t);
        }
        let window: u64 = model
            .iter()
            .rev()
            .take(bits as usize)
            .rev()
            .fold(0, |acc, &b| (acc << 1) | u64::from(b));
        prop_assert_eq!(h.value(), window);
    }

    /// Index functions stay within their tables.
    #[test]
    fn index_functions_in_range(pc in any::<u64>(), hist in any::<u64>(), s in 1u32..20) {
        let m = s / 2;
        prop_assert!(gshare_index(pc, hist, s, m) < (1 << s));
        prop_assert!(gselect_index(pc, hist, s.min(15), m.min(10)) < (1 << (s.min(15) + m.min(10))));
        for bank in 0..3 {
            prop_assert!(skew_index(pc, hist, s, m, bank) < (1 << s));
        }
        prop_assert_eq!(low_bits(pc, 0), 0);
        prop_assert!(fold_xor(pc, s) < (1 << s));
    }

    /// Binary trace codec round-trips arbitrary records.
    #[test]
    fn binary_codec_roundtrips(records in prop::collection::vec(
        (any::<u64>(), any::<u64>(), any::<bool>(), 0u8..5),
        0..200,
    )) {
        let mut trace = Trace::new("prop");
        for (pc, target, taken, kind) in records {
            let kind = BranchKind::from_tag(kind).expect("tag in range");
            let taken = taken || kind != BranchKind::Conditional;
            trace.push(BranchRecord { pc, target, taken, kind });
        }
        let mut buf = Vec::new();
        write_binary(&trace, &mut buf).expect("write");
        let back = read_binary(Cursor::new(&buf)).expect("read");
        prop_assert_eq!(trace, back);
    }

    /// Spec display/parse round-trips for generated configurations.
    #[test]
    fn spec_roundtrips(spec in predictor_specs()) {
        let shown = spec.to_string();
        let parsed: PredictorSpec = shown.parse().expect("display output parses");
        prop_assert_eq!(spec, parsed);
    }
}

proptest! {
    /// The spec parser never panics on arbitrary input: it returns
    /// Ok or a descriptive error for any string.
    #[test]
    fn spec_parser_is_total(input in "\\PC{0,60}") {
        let _ = input.parse::<PredictorSpec>();
    }

    /// Spec-shaped noise (plausible names with random parameters) also
    /// never panics at parse time; building may panic (documented), so
    /// only parse.
    #[test]
    fn spec_parser_handles_plausible_noise(
        name in prop::sample::select(vec![
            "gshare", "bimode", "trimode", "yags", "agree", "gskew", "2bcgskew",
            "bimodal", "gselect", "gag", "gas", "pag", "pas", "tournament",
            "tage", "perceptron", "cascade",
        ]),
        params in prop::collection::vec(("[a-z]{1,2}", 0u32..40), 0..4),
    ) {
        let body: Vec<String> = params.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let s = format!("{name}:{}", body.join(","));
        let _ = s.parse::<PredictorSpec>();
    }
}
