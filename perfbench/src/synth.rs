//! Seeded synthetic traces for the serve-mixed workload, and the fixed
//! predictor list its requests draw from.

use bpred_core::PredictorSpec;
use bpred_trace::{BranchRecord, Trace};
use bpred_workloads::Rng;

/// Conditional branches per trace.
pub const BRANCHES: usize = 300_000;

/// Static branch sites per trace: more than the 1024 entries of the
/// smallest tables below, so they alias.
pub const SITES: usize = 4096;

/// One spec per grammar name, at about the paper's 2 KB budget.
pub const SPECS: [&str; 22] = [
    "always-taken",
    "always-not-taken",
    "btfnt",
    "bimodal:s=10",
    "gshare:s=13,h=13",
    "gselect:a=7,h=6",
    "gag:h=12",
    "gas:a=3,h=10",
    "pag:i=10,h=10",
    "pas:i=10,a=3,h=8",
    "sag:i=10,k=6,h=10",
    "sas:i=10,k=6,a=3,h=8",
    "bimode:d=11,c=12,h=11",
    "agree:s=12,h=12,b=10",
    "gskew:s=11,h=11",
    "yags:c=11,e=9,h=9,t=6",
    "tournament:s=11",
    "2bcgskew:s=11,h=11",
    "trimode:d=11,c=12,h=11",
    "tage:t=4,h=32,tag=8,e=10",
    "perceptron:n=8,h=16",
    "cascade:bimodal:s=10;tage:t=4,h=32,tag=8,e=10",
];

/// The parsed [`SPECS`].
pub fn specs() -> Result<Vec<PredictorSpec>, String> {
    SPECS
        .iter()
        .map(|s| s.parse().map_err(|e| format!("spec `{s}`: {e}")))
        .collect()
}

/// A generator seeded from the run seed and a stream number, so every
/// stream of a run is independent and reproducible.
pub fn rng(seed: u64, stream: u64) -> Rng {
    Rng::new(seed ^ stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// How one site behaves: the paper's strongly-taken, strongly-not-taken
/// and weakly-biased classes; some weak sites follow a loop pattern
/// that history can learn.
#[derive(Clone, Copy)]
enum Class {
    StronglyTaken,
    StronglyNotTaken,
    Weak(f64),
    Loop(u32),
}

/// The class of the site with popularity rank `rank`. Fixed per rank,
/// so every seed gets the same class mix at every popularity and runs
/// of different seeds do comparable work.
fn class(rank: usize) -> Class {
    let tier = rank / 10;
    match rank % 10 {
        0 | 2 | 4 | 7 => Class::StronglyTaken,
        1 | 5 | 8 => Class::StronglyNotTaken,
        3 | 9 => Class::Weak(0.3 + 0.1 * (tier % 5) as f64),
        _ => Class::Loop(2 + (tier % 7) as u32),
    }
}

/// The trace of round `round`: [`BRANCHES`] conditional branches over
/// [`SITES`] sites drawn by a Zipf law over their rank. The seed and
/// round choose every random outcome; the site layout is fixed, so
/// runs of different seeds alias alike.
pub fn trace(seed: u64, round: u64) -> Trace {
    let mut rng = rng(seed, round);
    // An odd multiplier is a bijection mod 2^20: distinct sites get
    // distinct word-aligned PCs, scattered over the address space.
    let sites: Vec<(u64, Class)> = (0..SITES)
        .map(|rank| {
            let pc = 0x0040_0000 + ((rank as u64).wrapping_mul(0x9E37_79B1) & 0xF_FFFF) * 4;
            (pc, class(rank))
        })
        .collect();
    let mut visits = vec![0u32; SITES];
    let mut trace = Trace::new(format!("serve-{seed}-{round}"));
    for _ in 0..BRANCHES {
        let rank = rng.zipf(SITES);
        let (pc, class) = sites[rank];
        let (taken, backward) = match class {
            Class::StronglyTaken => (rng.chance(0.97), true),
            Class::StronglyNotTaken => (rng.chance(0.03), false),
            Class::Weak(p) => (rng.chance(p), false),
            Class::Loop(period) => {
                visits[rank] = (visits[rank] + 1) % period;
                (visits[rank] != 0, true)
            }
        };
        let target = if backward { pc - 0x40 } else { pc + 0x40 };
        trace.push(BranchRecord::conditional(pc, target, taken));
    }
    trace
}
