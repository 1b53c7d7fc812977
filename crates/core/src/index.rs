//! Index functions mapping (branch address, history) pairs onto
//! pattern-history-table entries.
//!
//! The paper's whole analysis (Section 4) is about how these functions
//! partition the dynamic branch stream into per-counter substreams, so
//! they live in one place with explicit semantics:
//!
//! * [`gshare_index`] — XOR of address and history, the low `m` history
//!   bits zero-extended into an `s`-bit index. With `m < s` the top
//!   `s - m` bits are pure address, which is exactly the paper's
//!   "multiple PHTs" view of gshare (Section 3.1, footnote 1).
//! * [`gselect_index`] — concatenation of address and history bits
//!   (McFarling's gselect, also the GAs second-level index).
//! * [`skew_index`] — a family of distinct per-bank hash functions for the
//!   skewed predictor, substituting Seznec's inter-bank dispersion
//!   functions with odd-multiplier folding (documented in DESIGN.md).

/// Converts a byte PC to a word index by dropping the two alignment bits.
///
/// All predictors index with word-aligned PCs so that adjacent
/// instructions occupy adjacent table entries, as on the 32-bit RISC
/// machines the paper traced.
#[must_use]
pub fn pc_word(pc: u64) -> u64 {
    pc >> 2
}

/// The single audited `u64 -> usize` truncation site for table indices.
///
/// Every index function funnels through here after masking its result to
/// at most 30 bits, so the conversion is provably lossless; the repo
/// lint pass (`bpred-check`) denies any other narrowing `as` cast in
/// this module's hot paths.
///
/// # Panics
///
/// Debug builds panic if `value` does not fit the 30-bit index budget
/// (which would indicate a masking bug upstream, not a caller error).
#[inline]
#[must_use]
pub fn to_index(value: u64) -> usize {
    debug_assert!(
        value < (1 << 30),
        "table index {value:#x} exceeds the 30-bit index budget"
    );
    value as usize // cast-audited: masked to <= 30 bits by every caller
}

/// Masks a value to its low `bits` bits (`bits == 0` yields `0`).
///
/// # Panics
///
/// Panics if `bits > 63`.
#[must_use]
pub fn low_bits(value: u64, bits: u32) -> u64 {
    assert!(bits <= 63, "low_bits supports at most 63 bits, got {bits}");
    if bits == 0 {
        0
    } else {
        value & ((1u64 << bits) - 1)
    }
}

/// Folds a 64-bit value into `bits` bits by XOR-ing `bits`-wide chunks.
///
/// Used where a full history/address must be compressed rather than
/// truncated (skewed hashing). TAGE's tag and index hashes use the same
/// fold, but keep it incrementally instead of calling this per lookup;
/// this is the oracle its folded histories are tested against.
///
/// # Panics
///
/// Panics if `bits` is zero or greater than 63.
#[must_use]
pub fn fold_xor(value: u64, bits: u32) -> u64 {
    assert!(
        (1..=63).contains(&bits),
        "fold width must be 1..=63, got {bits}"
    );
    let mask = (1u64 << bits) - 1;
    let mut v = value;
    let mut acc = 0u64;
    while v != 0 {
        acc ^= v & mask;
        v >>= bits;
    }
    acc
}

/// The gshare index: `s`-bit table index from word PC XOR the low `m`
/// history bits.
///
/// `m <= s` is required; the `s - m` top bits then come purely from the
/// address, so the table behaves as `2^(s-m)` PHTs of `2^m` entries each.
/// `m == s` is the single-PHT configuration (`gshare.1PHT` in the paper),
/// `m == 0` degenerates to a bimodal table.
///
/// # Panics
///
/// Panics if `s > 30` or `m > s`.
///
/// ```
/// use bpred_core::index::gshare_index;
///
/// // 8 address bits XOR 2 history bits: the paper's "address-indexed"
/// // scheme from Figure 5 (bottom).
/// let idx = gshare_index(0x40_0123 << 2, 0b11, 8, 2);
/// assert_eq!(idx, (0x23 ^ 0b11) as usize);
/// ```
#[must_use]
pub fn gshare_index(pc: u64, history: u64, s: u32, m: u32) -> usize {
    assert!(s <= 30, "table index must be <= 30 bits, got {s}");
    assert!(
        m <= s,
        "history bits ({m}) must not exceed table index bits ({s})"
    );
    let index = to_index(low_bits(pc_word(pc), s) ^ low_bits(history, m));
    debug_assert!(index < (1usize << s), "gshare index escaped its table");
    index
}

/// The gselect index: `a` address bits concatenated above `m` history
/// bits, giving an `(a + m)`-bit index. The address selects the PHT, the
/// history the entry — the Yeh–Patt GAs organisation.
///
/// # Panics
///
/// Panics if `a + m > 30`.
#[must_use]
pub fn gselect_index(pc: u64, history: u64, a: u32, m: u32) -> usize {
    assert!(
        a + m <= 30,
        "gselect index must be <= 30 bits, got {}",
        a + m
    );
    let index = to_index((low_bits(pc_word(pc), a) << m) | low_bits(history, m));
    debug_assert!(
        index < (1usize << (a + m)),
        "gselect index escaped its table"
    );
    index
}

/// Per-bank skewing hash for the gskew predictor.
///
/// Bank `bank` (0..3) mixes the word PC and history with a distinct odd
/// multiplier before folding to `s` bits, so that two branches aliasing in
/// one bank are overwhelmingly likely to map apart in the others — the
/// property Seznec's dispersion functions provide in hardware.
///
/// # Panics
///
/// Panics if `bank >= 3`, `s` is zero or greater than 30.
#[must_use]
pub fn skew_index(pc: u64, history: u64, s: u32, m: u32, bank: usize) -> usize {
    assert!(bank < 3, "gskew has 3 banks, got bank {bank}");
    assert!(
        (1..=30).contains(&s),
        "table index must be 1..=30 bits, got {s}"
    );
    // Odd multipliers derived from the golden ratio, one per bank.
    const MULTIPLIERS: [u64; 3] = [
        0x9E37_79B9_7F4A_7C15,
        0xC2B2_AE3D_27D4_EB4F,
        0x1656_67B1_9E37_79F9,
    ];
    let key = (pc_word(pc) << 32) ^ low_bits(history, m);
    let mixed = key.wrapping_mul(MULTIPLIERS[bank]);
    let rotation = match bank {
        0 => 0,
        1 => 7,
        _ => 14,
    };
    let index = to_index(fold_xor(mixed.rotate_left(rotation), s));
    debug_assert!(index < (1usize << s), "skew index escaped its bank");
    index
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn to_index_is_identity_within_budget() {
        assert_eq!(to_index(0), 0);
        assert_eq!(to_index((1 << 30) - 1), (1 << 30) - 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "30-bit index budget")]
    fn to_index_rejects_oversized_values_in_debug() {
        let _ = to_index(1 << 30);
    }

    #[test]
    fn pc_word_drops_alignment_bits() {
        assert_eq!(pc_word(0x1000), 0x400);
        assert_eq!(pc_word(0x1004), 0x401);
    }

    #[test]
    fn low_bits_edges() {
        assert_eq!(low_bits(u64::MAX, 0), 0);
        assert_eq!(low_bits(u64::MAX, 5), 0b11111);
        assert_eq!(low_bits(0b1010, 3), 0b010);
    }

    #[test]
    fn fold_xor_known_values() {
        assert_eq!(fold_xor(0, 8), 0);
        assert_eq!(fold_xor(0xFF, 8), 0xFF);
        assert_eq!(fold_xor(0x0101, 8), 0x00); // 0x01 ^ 0x01
        assert_eq!(fold_xor(0xABCD, 8), 0xAB ^ 0xCD);
    }

    #[test]
    fn gshare_full_history_is_pure_xor() {
        // m == s: every index bit mixes address and history.
        let idx = gshare_index(0b1111 << 2, 0b1010, 4, 4);
        assert_eq!(idx, 0b0101);
    }

    #[test]
    fn gshare_zero_history_is_bimodal() {
        for pc in [0u64, 0x40, 0x1234 << 2] {
            assert_eq!(
                gshare_index(pc, 0xFFFF, 8, 0),
                (pc_word(pc) & 0xFF) as usize
            );
        }
    }

    #[test]
    fn gshare_partial_history_leaves_pure_address_bits() {
        // s=8, m=2: bits 2..8 of the index must come only from the PC.
        let pc = 0b1011_0100u64 << 2;
        for hist in 0..4u64 {
            let idx = gshare_index(pc, hist, 8, 2);
            assert_eq!(idx >> 2, 0b10_1101, "hist={hist}");
        }
    }

    #[test]
    #[should_panic(expected = "must not exceed")]
    fn gshare_rejects_history_longer_than_index() {
        let _ = gshare_index(0, 0, 4, 5);
    }

    #[test]
    fn gselect_concatenates() {
        let idx = gselect_index(0b101 << 2, 0b11, 3, 2);
        assert_eq!(idx, 0b1_0111);
    }

    #[test]
    fn gselect_distinguishes_what_gshare_aliases() {
        // Two (pc, history) pairs that collide under XOR but not under
        // concatenation - the classic gselect/gshare contrast.
        let a = (0b01u64 << 2, 0b10u64);
        let b = (0b10u64 << 2, 0b01u64);
        assert_eq!(gshare_index(a.0, a.1, 2, 2), gshare_index(b.0, b.1, 2, 2));
        assert_ne!(gselect_index(a.0, a.1, 2, 2), gselect_index(b.0, b.1, 2, 2));
    }

    #[test]
    fn skew_banks_disperse_collisions() {
        // Pairs that collide in bank 0 should essentially never collide in
        // both other banks too.
        let s = 8;
        let m = 8;
        let mut bank0_collisions = 0u32;
        let mut full_collisions = 0u32;
        for i in 0..200u64 {
            for j in (i + 1)..200u64 {
                let (pa, pb) = (0x1000 + i * 4, 0x1000 + j * 4);
                if skew_index(pa, i, s, m, 0) == skew_index(pb, j, s, m, 0) {
                    bank0_collisions += 1;
                    if skew_index(pa, i, s, m, 1) == skew_index(pb, j, s, m, 1)
                        && skew_index(pa, i, s, m, 2) == skew_index(pb, j, s, m, 2)
                    {
                        full_collisions += 1;
                    }
                }
            }
        }
        assert!(bank0_collisions > 0, "expected some single-bank collisions");
        assert_eq!(
            full_collisions, 0,
            "no pair should collide in all three banks"
        );
    }

    #[test]
    fn skew_index_in_range() {
        for bank in 0..3 {
            for pc in (0..4096u64).step_by(4) {
                let idx = skew_index(pc, pc * 3, 6, 10, bank);
                assert!(idx < 64);
            }
        }
    }
}
