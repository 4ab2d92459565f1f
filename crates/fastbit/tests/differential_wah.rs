//! Differential tests: the uncompressed [`BitVec`] is the reference oracle
//! for every [`Wah`] operation.
//!
//! Patterns are adversarial for a run-length scheme: all-zero, all-one, long
//! uniform runs, literal-dense noise, sparse stride patterns, and lengths
//! chosen to straddle the 31-bit WAH group boundary.

use fastbit::{BitVec, Wah};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Lengths around the 31-bit group boundary, multi-group fills and a couple
/// of larger sizes.
const LENGTHS: [usize; 14] = [
    1,
    7,
    30,
    31,
    32,
    61,
    62,
    63,
    93,
    124,
    310,
    1000,
    31 * 100,
    4097,
];

/// Build matched (BitVec, Wah) pairs for one adversarial family.
fn pattern_pairs(len: usize, rng: &mut StdRng) -> Vec<(&'static str, BitVec, Wah)> {
    let mut out = Vec::new();

    let families: Vec<(&'static str, Vec<bool>)> = vec![
        ("all-zero", vec![false; len]),
        ("all-one", vec![true; len]),
        ("long-runs", (0..len).map(|i| (i / 97) % 2 == 0).collect()),
        (
            "literal-dense",
            (0..len).map(|_| rng.gen_range(0..2u32) == 1).collect(),
        ),
        ("sparse", (0..len).map(|i| i % 37 == 0).collect()),
        (
            "head-tail",
            (0..len).map(|i| i == 0 || i == len - 1).collect(),
        ),
    ];

    for (name, bits) in families {
        let bv = BitVec::from_bools(&bits);
        let wah = Wah::from_bools(&bits);
        out.push((name, bv, wah));
    }
    out
}

#[test]
fn wah_roundtrip_matches_bitvec() {
    let mut rng = StdRng::seed_from_u64(101);
    for &len in &LENGTHS {
        for (name, bv, wah) in pattern_pairs(len, &mut rng) {
            assert_eq!(wah.len(), bv.len() as u64, "{name}/{len}");
            assert_eq!(wah.to_bitvec(), bv, "{name}/{len}: to_bitvec");
            assert_eq!(
                Wah::from_bitvec(&bv),
                wah,
                "{name}/{len}: from_bitvec disagrees with from_bools"
            );
            let wah_ones: Vec<usize> = wah.iter_ones().map(|i| i as usize).collect();
            let bv_ones: Vec<usize> = bv.iter_ones().collect();
            assert_eq!(wah_ones, bv_ones, "{name}/{len}: iter_ones");
        }
    }
}

#[test]
fn wah_popcount_matches_bitvec() {
    let mut rng = StdRng::seed_from_u64(202);
    for &len in &LENGTHS {
        for (name, bv, wah) in pattern_pairs(len, &mut rng) {
            assert_eq!(wah.count_ones(), bv.count_ones(), "{name}/{len}");
        }
    }
}

#[test]
fn wah_and_matches_bitvec() {
    let mut rng = StdRng::seed_from_u64(303);
    for &len in &LENGTHS {
        let pairs = pattern_pairs(len, &mut rng);
        for (na, bva, wa) in &pairs {
            for (nb, bvb, wb) in &pairs {
                let mut expect = bva.clone();
                expect.and_assign(bvb);
                let got = wa.and(wb).unwrap();
                assert_eq!(got.to_bitvec(), expect, "{na} AND {nb} at len {len}");
                assert_eq!(got.count_ones(), expect.count_ones());
            }
        }
    }
}

#[test]
fn wah_or_matches_bitvec() {
    let mut rng = StdRng::seed_from_u64(404);
    for &len in &LENGTHS {
        let pairs = pattern_pairs(len, &mut rng);
        for (na, bva, wa) in &pairs {
            for (nb, bvb, wb) in &pairs {
                let mut expect = bva.clone();
                expect.or_assign(bvb);
                let got = wa.or(wb).unwrap();
                assert_eq!(got.to_bitvec(), expect, "{na} OR {nb} at len {len}");
                assert_eq!(got.count_ones(), expect.count_ones());
            }
        }
    }
}

#[test]
fn wah_not_matches_bitvec() {
    let mut rng = StdRng::seed_from_u64(505);
    for &len in &LENGTHS {
        for (name, bv, wah) in pattern_pairs(len, &mut rng) {
            let mut expect = bv.clone();
            expect.not_assign();
            let got = wah.not();
            assert_eq!(got.to_bitvec(), expect, "NOT {name} at len {len}");
            assert_eq!(got.len(), wah.len(), "NOT must preserve logical length");
            assert_eq!(
                got.count_ones() + wah.count_ones(),
                len as u64,
                "NOT {name} at len {len}: popcount complement"
            );
        }
    }
}

#[test]
fn wah_random_sparse_stride_patterns_match_bitvec() {
    // The shape produced by a binned index: one set bit every `stride` rows,
    // with two operands at the same stride but shifted phase (so fills
    // interleave adversarially).
    for &n in &[2_000usize, 62_000, 200_001] {
        for &stride in &[3usize, 31, 256, 1024] {
            let a_idx: Vec<usize> = (0..n).step_by(stride).collect();
            let b_idx: Vec<usize> = (stride / 2..n).step_by(stride).collect();
            let bva = BitVec::from_indices(n, a_idx.iter().copied());
            let bvb = BitVec::from_indices(n, b_idx.iter().copied());
            let wa = Wah::from_sorted_indices(n as u64, a_idx.iter().map(|&i| i as u64));
            let wb = Wah::from_sorted_indices(n as u64, b_idx.iter().map(|&i| i as u64));

            assert_eq!(wa.count_ones(), bva.count_ones());

            let mut expect_and = bva.clone();
            expect_and.and_assign(&bvb);
            assert_eq!(
                wa.and(&wb).unwrap().to_bitvec(),
                expect_and,
                "n={n} stride={stride}"
            );

            let mut expect_or = bva.clone();
            expect_or.or_assign(&bvb);
            assert_eq!(
                wa.or(&wb).unwrap().to_bitvec(),
                expect_or,
                "n={n} stride={stride}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// `Wah::is_or_of`: the streamed cumulative check must accept exactly the
// vectors that equal the materialised OR word for word.
// ---------------------------------------------------------------------------

const FILL_FLAG: u32 = 0x8000_0000;
const FILL_ONE_FLAG: u32 = 0x4000_0000;
const FILL_COUNT_MASK: u32 = 0x3FFF_FFFF;
const LITERAL_MASK: u32 = 0x7FFF_FFFF;

/// Bit lengths around the group boundary plus a large, odd one.
const OR_LENGTHS: [u64; 8] = [0, 1, 30, 31, 32, 62, 1000, 100_003];

fn bits_with(len: u64, rng: &mut StdRng, kind: &str) -> Vec<bool> {
    match kind {
        "sparse" => (0..len).map(|_| rng.gen_range(0.0..1.0) < 0.01).collect(),
        "dense" => (0..len).map(|_| rng.gen_range(0.0..1.0) < 0.99).collect(),
        _ => {
            // Runny: alternating runs of up to a few hundred bits.
            let mut bits = Vec::with_capacity(len as usize);
            let mut bit = rng.gen_range(0..2u32) == 1;
            while (bits.len() as u64) < len {
                let run = rng.gen_range(1..400u64).min(len - bits.len() as u64);
                bits.extend(std::iter::repeat_n(bit, run as usize));
                bit = !bit;
            }
            bits
        }
    }
}

/// `c.is_or_of(a, b)` must agree with the materialised comparison
/// `a.or(b).unwrap() == c` (`or` is that OR, computed once).
fn assert_is_or_of_agrees(c: &Wah, a: &Wah, b: &Wah, or: &Wah, what: &str) -> bool {
    let expected = *or == *c;
    assert_eq!(c.is_or_of(a, b), expected, "{what}");
    expected
}

/// Every single-word mutation of `c`: each word with bit 0, bit 30 (fill
/// value) or bit 31 (fill flag) flipped, plus a dropped and an extra word.
fn single_word_mutations(c: &Wah) -> Vec<Wah> {
    let words = c.as_words();
    let mut out = Vec::new();
    for i in 0..words.len() {
        for flip in [1u32, FILL_ONE_FLAG, FILL_FLAG] {
            let mut w = words.to_vec();
            w[i] ^= flip;
            out.push(Wah::from_raw_parts(w, c.len()));
        }
    }
    if let Some((_, head)) = words.split_last() {
        out.push(Wah::from_raw_parts(head.to_vec(), c.len()));
    }
    let mut longer = words.to_vec();
    longer.push(FILL_FLAG | 1);
    out.push(Wah::from_raw_parts(longer, c.len()));
    out
}

/// Re-encodings of `c` with the same bits that `checked_from_raw_parts`
/// accepts but that are not canonical: a fill split in two, or one group of
/// a fill spelled as an all-zero / all-one literal. At most `limit` fill
/// words are rewritten.
fn non_canonical_reencodings(c: &Wah, limit: usize) -> Vec<Wah> {
    let words = c.as_words();
    let fills: Vec<usize> = (0..words.len())
        .filter(|&i| words[i] & FILL_FLAG != 0)
        .collect();
    let step = fills.len().div_ceil(limit.max(1)).max(1);
    let mut out = Vec::new();
    for &i in fills.iter().step_by(step) {
        let w = words[i];
        let (flag, count) = (w & !FILL_COUNT_MASK, w & FILL_COUNT_MASK);
        let literal = if w & FILL_ONE_FLAG != 0 {
            LITERAL_MASK
        } else {
            0
        };
        let mut spellings: Vec<Vec<u32>> = vec![vec![literal], vec![literal; 2]];
        if count >= 2 {
            spellings.push(vec![flag | 1, flag | (count - 1)]);
            spellings.push(vec![literal, flag | (count - 1)]);
            spellings.push(vec![flag | (count - 1), literal]);
        }
        for spelling in spellings {
            let mut re = words[..i].to_vec();
            re.extend(spelling);
            re.extend(&words[i + 1..]);
            if let Ok(wah) = Wah::checked_from_raw_parts(re, c.len()) {
                assert_eq!(wah.xor(c).unwrap().count_ones(), 0, "same bits");
                out.push(wah);
            }
        }
    }
    out
}

fn check_or_candidates(a: &Wah, b: &Wah, what: &str) {
    let or = a.or(b).unwrap();
    assert!(or.is_or_of(a, b), "{what}: the true OR");
    assert!(or.is_or_of(b, a), "{what}: the true OR, operands swapped");
    for (k, m) in single_word_mutations(&or).iter().enumerate() {
        assert_is_or_of_agrees(m, a, b, &or, &format!("{what}: mutation {k}"));
    }
    let reencoded = non_canonical_reencodings(&or, 64);
    for (k, re) in reencoded.iter().enumerate() {
        assert!(
            !assert_is_or_of_agrees(re, a, b, &or, &format!("{what}: re-encoding {k}")),
            "{what}: a non-canonical re-encoding is not the OR"
        );
    }
    if or.as_words().iter().any(|w| w & FILL_FLAG != 0) {
        assert!(!reencoded.is_empty(), "{what}: fills have re-encodings");
    }
    let mismatch = Wah::from_raw_parts(or.as_words().to_vec(), or.len() + 1);
    assert_is_or_of_agrees(&mismatch, a, b, &or, &format!("{what}: length mismatch"));
    assert!(
        !or.is_or_of(a, &Wah::zeros(a.len() + 1)),
        "{what}: operand lengths differ"
    );
}

#[test]
fn is_or_of_agrees_with_materialised_or() {
    let mut rng = StdRng::seed_from_u64(0x150F);
    let kinds = ["sparse", "dense", "runny"];
    for &len in &OR_LENGTHS {
        for (i, ka) in kinds.iter().enumerate() {
            for kb in &kinds[i..] {
                let a = Wah::from_bools(&bits_with(len, &mut rng, ka));
                let b = Wah::from_bools(&bits_with(len, &mut rng, kb));
                check_or_candidates(&a, &b, &format!("{ka} | {kb} at {len} bits"));
            }
        }
    }
}

#[test]
fn is_or_of_follows_fill_coalescing_across_the_count_limit() {
    // Fill-only operands spanning more groups than one fill word can count:
    // the OR coalesces runs from both sides and must split at the limit.
    let groups = FILL_COUNT_MASK as u64 + 12;
    let nbits = groups * 31 - 5;
    let a = Wah::checked_from_raw_parts(
        vec![
            FILL_FLAG | FILL_COUNT_MASK,
            FILL_FLAG | 7,
            FILL_FLAG | FILL_ONE_FLAG | 4,
            0x5,
        ],
        nbits,
    )
    .unwrap();
    let b = Wah::checked_from_raw_parts(
        vec![
            FILL_FLAG | 3,
            FILL_FLAG | FILL_COUNT_MASK,
            FILL_FLAG | 8,
            0x3FF,
        ],
        nbits,
    )
    .unwrap();
    let or = a.or(&b).unwrap();
    assert!(or.as_words().len() >= 2);
    check_or_candidates(&a, &b, "fills past the count limit");
}

// ---------------------------------------------------------------------------
// Dense <-> WAH codec
// ---------------------------------------------------------------------------

/// Lengths around the 31-bit group and 64-bit word boundaries plus a large,
/// odd one.
const DENSE_LENGTHS: [u64; 11] = [0, 1, 30, 31, 32, 62, 63, 64, 65, 1000, 100_003];

/// Seeded bit patterns from empty through sparse, half, dense and full,
/// plus runs.
fn dense_patterns(len: u64, rng: &mut StdRng) -> Vec<(String, Vec<bool>)> {
    let mut out: Vec<(String, Vec<bool>)> = [0.0, 0.01, 0.5, 0.99, 1.0]
        .iter()
        .map(|&density| {
            let bits = (0..len).map(|_| rng.gen_range(0.0..1.0) < density);
            (format!("density {density}"), bits.collect())
        })
        .collect();
    out.push(("runny".to_string(), bits_with(len, rng, "runny")));
    out
}

/// `bits` as dense little-endian words, with `extra` more words than needed
/// and every bit from `bits.len()` on drawn at random.
fn dense_with_garbage(bits: &[bool], extra: usize, rng: &mut StdRng) -> Vec<u64> {
    let mut words: Vec<u64> = (0..bits.len().div_ceil(64) + extra)
        .map(|_| rng.gen::<u64>())
        .collect();
    for (i, &bit) in bits.iter().enumerate() {
        if bit {
            words[i / 64] |= 1 << (i % 64);
        } else {
            words[i / 64] &= !(1 << (i % 64));
        }
    }
    words
}

#[test]
fn from_dense_words_emits_the_canonical_or_form() {
    let mut rng = StdRng::seed_from_u64(0xDE45);
    for &len in &DENSE_LENGTHS {
        for (name, bits) in dense_patterns(len, &mut rng) {
            let built = Wah::from_bools(&bits);
            let canonical = Wah::zeros(len).or(&built).unwrap();
            for extra in [0, 1] {
                let dense = dense_with_garbage(&bits, extra, &mut rng);
                let got = Wah::from_dense_words(&dense, len);
                assert_eq!(got, canonical, "{name} at {len} bits, {extra} extra words");
            }
        }
    }
}

#[test]
fn from_dense_words_as_built_matches_the_builder() {
    let mut rng = StdRng::seed_from_u64(0xB11D);
    for &len in &DENSE_LENGTHS {
        for (name, bits) in dense_patterns(len, &mut rng) {
            let built = Wah::from_bools(&bits);
            for extra in [0, 1] {
                let dense = dense_with_garbage(&bits, extra, &mut rng);
                let got = Wah::from_dense_words_as_built(&dense, len);
                assert_eq!(got, built, "{name} at {len} bits, {extra} extra words");
            }
        }
    }
}

#[test]
fn write_dense_words_ors_the_bitwise_expansion() {
    let mut rng = StdRng::seed_from_u64(0x0D5E);
    for &len in &DENSE_LENGTHS {
        for (name, bits) in dense_patterns(len, &mut rng) {
            let wah = Wah::from_bools(&bits);
            let mut spellings = vec![wah.clone()];
            spellings.extend(non_canonical_reencodings(&wah, 16));
            // Unchecked words whose final partial group has its padding
            // bits set: still nothing at `len` and above may change.
            if len % 31 != 0 {
                let mut words = wah.as_words().to_vec();
                let last = words.last_mut().expect("a partial group is a literal");
                *last |= LITERAL_MASK & !((1u32 << (len % 31)) - 1);
                spellings.push(Wah::from_raw_parts(words, len));
            }
            for (k, spelling) in spellings.iter().enumerate() {
                // Into a zeroed buffer: exactly the bitwise expansion.
                let mut zeroed = vec![0u64; bits.len().div_ceil(64) + 1];
                spelling.write_dense_words(&mut zeroed);
                let mut expansion = vec![0u64; zeroed.len()];
                for (i, _) in bits.iter().enumerate().filter(|(_, &b)| b) {
                    expansion[i / 64] |= 1 << (i % 64);
                }
                assert_eq!(zeroed, expansion, "{name} at {len} bits, spelling {k}");

                // Into a pre-filled buffer: an OR, and every bit at `len`
                // and above keeps its old value.
                let prefilled: Vec<u64> = (0..zeroed.len()).map(|_| rng.gen::<u64>()).collect();
                let mut out = prefilled.clone();
                spelling.write_dense_words(&mut out);
                let expected: Vec<u64> = prefilled
                    .iter()
                    .zip(&expansion)
                    .map(|(p, e)| p | e)
                    .collect();
                assert_eq!(out, expected, "{name} at {len} bits, spelling {k}");
            }
        }
    }
}
