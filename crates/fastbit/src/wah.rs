//! Word-Aligned Hybrid (WAH) compressed bit vectors.
//!
//! WAH is the compression scheme used by FastBit. Bits are grouped into
//! 31-bit groups stored in 32-bit words:
//!
//! * a **literal word** has its most significant bit clear and carries one
//!   31-bit group verbatim;
//! * a **fill word** has its most significant bit set; bit 30 carries the
//!   fill value and the low 30 bits the number of consecutive identical
//!   31-bit groups it represents.
//!
//! Logical operations walk the two operands run-by-run, so a long fill is
//! processed in constant time rather than group-by-group. This is what makes
//! compound Boolean range queries over binned bitmap indexes cheap.

use crate::error::{FastBitError, Result};
use crate::BitVec;

/// Number of payload bits per WAH group.
pub const GROUP_BITS: u64 = 31;
const LITERAL_MASK: u32 = 0x7FFF_FFFF;
const FILL_FLAG: u32 = 0x8000_0000;
const FILL_ONE_FLAG: u32 = 0x4000_0000;
const FILL_COUNT_MASK: u32 = 0x3FFF_FFFF;

/// A WAH-compressed bit vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Wah {
    words: Vec<u32>,
    nbits: u64,
}

/// Incremental builder for [`Wah`] vectors.
#[derive(Debug, Default)]
pub struct WahBuilder {
    words: Vec<u32>,
    current: u32,
    filled: u64,
    nbits: u64,
}

impl WahBuilder {
    /// Start an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a single bit.
    #[inline]
    pub fn push_bit(&mut self, bit: bool) {
        if bit {
            self.current |= 1 << self.filled;
        }
        self.filled += 1;
        self.nbits += 1;
        if self.filled == GROUP_BITS {
            let g = self.current;
            self.current = 0;
            self.filled = 0;
            append_group(&mut self.words, g);
        }
    }

    /// Append `count` copies of `bit`. Runs that span whole groups are
    /// appended as fill words without touching individual bits.
    pub fn push_run(&mut self, bit: bool, mut count: u64) {
        // Finish the partial group bit-by-bit first.
        while self.filled != 0 && count > 0 {
            self.push_bit(bit);
            count -= 1;
        }
        let full_groups = count / GROUP_BITS;
        if full_groups > 0 {
            append_fill(&mut self.words, bit, full_groups);
            self.nbits += full_groups * GROUP_BITS;
            count -= full_groups * GROUP_BITS;
        }
        for _ in 0..count {
            self.push_bit(bit);
        }
    }

    /// Finish building. A trailing partial group is stored as a literal with
    /// zero padding bits; the logical length excludes the padding.
    pub fn finish(mut self) -> Wah {
        if self.filled > 0 {
            // The partial group is stored literally even when all-zero so the
            // logical length bookkeeping stays simple; it still compresses
            // fine because it is a single word.
            self.words.push(self.current & LITERAL_MASK);
        }
        Wah {
            words: self.words,
            nbits: self.nbits,
        }
    }
}

/// Where a stream of WAH words goes: a vector being built, or a
/// [`WordCheck`] comparing the stream with an existing vector as it is
/// produced. Both see exactly the same pushes and in-place fill extensions.
trait WordSink {
    /// The most recently pushed word, which a following fill may extend.
    fn last_mut(&mut self) -> Option<&mut u32>;
    fn push(&mut self, word: u32);
    /// False once the outcome is settled (a checker's first mismatch), so
    /// producers can stop early.
    fn wants_more(&self) -> bool {
        true
    }
}

impl WordSink for Vec<u32> {
    fn last_mut(&mut self) -> Option<&mut u32> {
        self.as_mut_slice().last_mut()
    }

    fn push(&mut self, word: u32) {
        Vec::push(self, word);
    }
}

/// Compares a produced word stream with `expected` without storing it.
/// Only the last produced word can still change (a fill may be extended),
/// so a word is compared as soon as its successor is pushed.
struct WordCheck<'a> {
    expected: &'a [u32],
    compared: usize,
    last: Option<u32>,
    equal: bool,
}

impl<'a> WordCheck<'a> {
    fn new(expected: &'a [u32]) -> Self {
        Self {
            expected,
            compared: 0,
            last: None,
            equal: true,
        }
    }

    /// True when the whole produced stream equals `expected`.
    fn matches(self) -> bool {
        self.equal
            && match self.last {
                None => self.expected.is_empty(),
                Some(w) => {
                    self.expected.len() == self.compared + 1 && self.expected[self.compared] == w
                }
            }
    }
}

impl WordSink for WordCheck<'_> {
    fn last_mut(&mut self) -> Option<&mut u32> {
        self.last.as_mut()
    }

    fn push(&mut self, word: u32) {
        if let Some(done) = self.last.replace(word) {
            self.equal &= self.expected.get(self.compared) == Some(&done);
            self.compared += 1;
        }
    }

    fn wants_more(&self) -> bool {
        self.equal
    }
}

/// Append `groups` fill groups of `bit`, coalescing with a trailing fill of
/// the same value and splitting counts at [`FILL_COUNT_MASK`].
/// The 31-bit group of dense bits `[start, start + 31)`, clipped at `nbits`.
fn dense_group(words: &[u64], start: u64, nbits: u64) -> u32 {
    let (w, shift) = (start as usize / 64, start % 64);
    let mut bits = words[w] >> shift;
    if shift > 64 - GROUP_BITS {
        if let Some(&next) = words.get(w + 1) {
            bits |= next << (64 - shift);
        }
    }
    let valid = (nbits - start).min(GROUP_BITS);
    (bits & ((1u64 << valid) - 1)) as u32
}

fn append_fill(sink: &mut impl WordSink, bit: bool, mut groups: u64) {
    let value_flag = if bit { FILL_ONE_FLAG } else { 0 };
    while groups > 0 {
        let chunk = groups.min(FILL_COUNT_MASK as u64) as u32;
        // Coalesce with an existing trailing fill of the same value.
        if let Some(last) = sink.last_mut() {
            if *last & FILL_FLAG != 0 && (*last & FILL_ONE_FLAG) == value_flag {
                let existing = *last & FILL_COUNT_MASK;
                let add = chunk.min(FILL_COUNT_MASK - existing);
                *last += add;
                groups -= add as u64;
                let rest = chunk - add;
                if rest > 0 {
                    sink.push(FILL_FLAG | value_flag | rest);
                    groups -= rest as u64;
                }
                continue;
            }
        }
        sink.push(FILL_FLAG | value_flag | chunk);
        groups -= chunk as u64;
    }
}

/// Append one 31-bit group: all-zero and all-one groups become fills.
fn append_group(sink: &mut impl WordSink, group: u32) {
    if group == 0 {
        append_fill(sink, false, 1);
    } else if group == LITERAL_MASK {
        append_fill(sink, true, 1);
    } else {
        sink.push(group);
    }
}

/// Combine two word streams run by run with `op`, writing the canonical
/// result words to `sink`. Stops early when the sink no longer wants words.
fn combine_into(a: &[u32], b: &[u32], op: fn(u32, u32) -> u32, sink: &mut impl WordSink) {
    let mut a = RunCursor::new(a);
    let mut b = RunCursor::new(b);
    while sink.wants_more() {
        let (ga, gb) = match (a.peek_groups(), b.peek_groups()) {
            (Some(ga), Some(gb)) => (ga, gb),
            // Both operands cover the same number of groups; stop as soon
            // as either side runs out.
            _ => break,
        };
        let n = ga.min(gb);
        let (pa, _, fa) = a.take(n).expect("peeked");
        let (pb, _, fb) = b.take(n).expect("peeked");
        let combined = op(pa, pb) & LITERAL_MASK;
        if fa && fb && (combined == 0 || combined == LITERAL_MASK) {
            // Both sides are fills: emit the whole run at once. (A bitwise
            // op of all-zero/all-one patterns is itself one of the two.)
            append_fill(sink, combined != 0, n);
        } else {
            for _ in 0..n {
                append_group(sink, combined);
            }
        }
    }
}

/// One decoded run: `groups` consecutive 31-bit groups all equal to `pattern`.
#[derive(Debug, Clone, Copy)]
struct Run {
    pattern: u32,
    groups: u64,
    is_fill: bool,
}

/// Cursor over the runs of a WAH vector.
struct RunCursor<'a> {
    words: &'a [u32],
    pos: usize,
    current: Option<Run>,
}

impl<'a> RunCursor<'a> {
    fn new(words: &'a [u32]) -> Self {
        let mut c = Self {
            words,
            pos: 0,
            current: None,
        };
        c.advance_word();
        c
    }

    fn advance_word(&mut self) {
        if self.pos >= self.words.len() {
            self.current = None;
            return;
        }
        let w = self.words[self.pos];
        self.pos += 1;
        self.current = Some(if w & FILL_FLAG != 0 {
            Run {
                pattern: if w & FILL_ONE_FLAG != 0 {
                    LITERAL_MASK
                } else {
                    0
                },
                groups: (w & FILL_COUNT_MASK) as u64,
                is_fill: true,
            }
        } else {
            Run {
                pattern: w,
                groups: 1,
                is_fill: false,
            }
        });
    }

    /// Consume up to `n` groups from the current run, returning how many were
    /// consumed together with the pattern.
    fn take(&mut self, n: u64) -> Option<(u32, u64, bool)> {
        let run = self.current?;
        let take = run.groups.min(n);
        let result = (run.pattern, take, run.is_fill);
        if take == run.groups {
            self.advance_word();
        } else {
            self.current = Some(Run {
                groups: run.groups - take,
                ..run
            });
        }
        Some(result)
    }

    fn peek_groups(&self) -> Option<u64> {
        self.current.map(|r| r.groups)
    }
}

impl Wah {
    /// An all-zero vector of `nbits` bits.
    pub fn zeros(nbits: u64) -> Self {
        let mut b = WahBuilder::new();
        b.push_run(false, nbits);
        b.finish()
    }

    /// An all-one vector of `nbits` bits.
    pub fn ones(nbits: u64) -> Self {
        let mut b = WahBuilder::new();
        b.push_run(true, nbits);
        b.finish()
    }

    /// Build from sorted, unique set-bit positions.
    ///
    /// # Panics
    /// Panics when positions are unsorted, repeated, or `>= nbits`.
    pub fn from_sorted_indices(nbits: u64, indices: impl IntoIterator<Item = u64>) -> Self {
        let mut b = WahBuilder::new();
        let mut next = 0u64;
        for i in indices {
            assert!(i >= next, "indices must be strictly increasing");
            assert!(i < nbits, "index {i} out of range {nbits}");
            b.push_run(false, i - next);
            b.push_bit(true);
            next = i + 1;
        }
        b.push_run(false, nbits - next);
        b.finish()
    }

    /// Build from a boolean slice.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut b = WahBuilder::new();
        for &bit in bits {
            b.push_bit(bit);
        }
        b.finish()
    }

    /// Compress an uncompressed [`BitVec`].
    pub fn from_bitvec(bv: &BitVec) -> Self {
        let mut b = WahBuilder::new();
        let mut prev_end = 0usize;
        for i in bv.iter_ones() {
            b.push_run(false, (i - prev_end) as u64);
            b.push_bit(true);
            prev_end = i + 1;
        }
        b.push_run(false, (bv.len() - prev_end) as u64);
        b.finish()
    }

    /// Expand to an uncompressed [`BitVec`].
    pub fn to_bitvec(&self) -> BitVec {
        let mut bv = BitVec::zeros(self.nbits as usize);
        for i in self.iter_ones() {
            bv.set(i as usize, true);
        }
        bv
    }

    /// Logical length in bits.
    #[inline]
    pub fn len(&self) -> u64 {
        self.nbits
    }

    /// True when the vector holds zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nbits == 0
    }

    /// Number of 32-bit words in the compressed representation.
    pub fn num_words(&self) -> usize {
        self.words.len()
    }

    /// Approximate heap size in bytes.
    pub fn size_in_bytes(&self) -> usize {
        self.words.len() * 4
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u64 {
        let mut total = 0u64;
        let mut cursor = RunCursor::new(&self.words);
        while let Some((pattern, groups, is_fill)) = cursor.take(u64::MAX) {
            if is_fill {
                if pattern != 0 {
                    total += groups * GROUP_BITS;
                }
            } else {
                total += pattern.count_ones() as u64;
            }
        }
        total
    }

    /// Iterate over set-bit positions in increasing order.
    pub fn iter_ones(&self) -> WahOnesIter<'_> {
        WahOnesIter {
            cursor: RunCursor::new(&self.words),
            bit_offset: 0,
            pending: None,
            nbits: self.nbits,
        }
    }

    /// Bitwise AND with `other`.
    pub fn and(&self, other: &Wah) -> Result<Wah> {
        self.binary_op(other, |a, b| a & b)
    }

    /// Bitwise OR with `other`.
    pub fn or(&self, other: &Wah) -> Result<Wah> {
        self.binary_op(other, |a, b| a | b)
    }

    /// Bitwise AND-NOT (`self & !other`).
    pub fn and_not(&self, other: &Wah) -> Result<Wah> {
        self.binary_op(other, |a, b| a & !b & LITERAL_MASK)
    }

    /// Bitwise XOR with `other`.
    pub fn xor(&self, other: &Wah) -> Result<Wah> {
        self.binary_op(other, |a, b| (a ^ b) & LITERAL_MASK)
    }

    /// Bitwise complement over the logical length.
    pub fn not(&self) -> Wah {
        let total_groups = self.nbits.div_ceil(GROUP_BITS);
        let mut builder = WahBuilder::new();
        let mut cursor = RunCursor::new(&self.words);
        let mut groups_done = 0u64;
        while let Some((pattern, groups, _)) = cursor.take(u64::MAX) {
            let flipped = !pattern & LITERAL_MASK;
            for _ in 0..groups {
                groups_done += 1;
                let g = if groups_done == total_groups {
                    // Mask padding bits beyond the logical length.
                    let valid = self.nbits - (total_groups - 1) * GROUP_BITS;
                    if valid == GROUP_BITS {
                        flipped
                    } else {
                        flipped & ((1u32 << valid) - 1)
                    }
                } else {
                    flipped
                };
                append_group(&mut builder.words, g);
            }
        }
        builder.nbits = self.nbits;
        let mut result = builder.finish();
        result.nbits = self.nbits;
        result
    }

    fn binary_op(&self, other: &Wah, op: fn(u32, u32) -> u32) -> Result<Wah> {
        if self.nbits != other.nbits {
            return Err(FastBitError::LengthMismatch {
                left: self.nbits,
                right: other.nbits,
            });
        }
        let mut words = Vec::new();
        combine_into(&self.words, &other.words, op, &mut words);
        Ok(Wah {
            words,
            nbits: self.nbits,
        })
    }

    /// True exactly when `a.or(b)` succeeds and equals `self` word for word.
    ///
    /// The OR's word stream is produced as [`Wah::or`] produces it and
    /// compared with `self` on the fly: nothing is allocated, and the walk
    /// stops at the first differing word.
    pub fn is_or_of(&self, a: &Wah, b: &Wah) -> bool {
        if a.nbits != b.nbits || self.nbits != a.nbits {
            return false;
        }
        let mut check = WordCheck::new(&self.words);
        combine_into(&a.words, &b.words, |x, y| x | y, &mut check);
        check.matches()
    }

    /// OR this vector into a dense little-endian `u64` word bitmap: bit `i`
    /// of the output (word `i / 64`, bit `i % 64`) is set when bit `i` of
    /// this vector is, and every bit already set in `out` stays set. `out`
    /// must hold at least `len().div_ceil(64)` words; bits at `len()` and
    /// above are never touched, even for non-canonical words.
    ///
    /// Runs are emitted in bulk — a fill of ones becomes whole `!0` words,
    /// a literal one shifted mask over one or two words — so the cost is
    /// proportional to the compressed words plus the ones-fill output, not
    /// to the number of set bits. The chunked engine uses this to turn one
    /// index answer into sliceable chunk masks, and the equality-encoded
    /// index path to union many bins into one accumulator.
    pub fn write_dense_words(&self, out: &mut [u64]) {
        fn set_bit_range(out: &mut [u64], start: u64, end: u64) {
            if start >= end {
                return;
            }
            let (first, last) = (start as usize / 64, (end as usize - 1) / 64);
            let head = !0u64 << (start % 64);
            let tail = !0u64 >> (63 - ((end - 1) % 64));
            if first == last {
                out[first] |= head & tail;
                return;
            }
            out[first] |= head;
            for w in &mut out[first + 1..last] {
                *w = !0;
            }
            out[last] |= tail;
        }

        let mut bit = 0u64;
        for &word in &self.words {
            if bit >= self.nbits {
                break;
            }
            if word & FILL_FLAG != 0 {
                let span = u64::from(word & FILL_COUNT_MASK) * GROUP_BITS;
                if word & FILL_ONE_FLAG != 0 {
                    set_bit_range(out, bit, (bit + span).min(self.nbits));
                }
                bit += span;
            } else {
                let valid = (self.nbits - bit).min(GROUP_BITS);
                let p = u64::from(word) & ((1u64 << valid) - 1);
                if p != 0 {
                    let (w, shift) = (bit as usize / 64, bit % 64);
                    out[w] |= p << shift;
                    // A group starting past bit 33 of a word spills into
                    // the next one; `valid` keeps the spill below `len()`.
                    if shift > 64 - GROUP_BITS {
                        let spill = p >> (64 - shift);
                        if spill != 0 {
                            out[w + 1] |= spill;
                        }
                    }
                }
                bit += GROUP_BITS;
            }
        }
    }

    /// Compress the first `nbits` bits of a dense little-endian `u64` word
    /// bitmap (the layout [`Wah::write_dense_words`] writes). Bits at
    /// `nbits` and above are ignored.
    ///
    /// The words are the canonical stream the logical operations emit —
    /// equal to `Wah::zeros(nbits).or(&v)` for the vector `v` holding the
    /// same bits — because every 31-bit group passes through the same
    /// group/fill appender. Runs of all-zero or all-one groups are measured
    /// a `u64` word at a time and appended as one fill.
    ///
    /// # Panics
    /// Panics when `words` holds fewer than `nbits.div_ceil(64)` words.
    pub fn from_dense_words(words: &[u64], nbits: u64) -> Wah {
        assert!(
            words.len() as u64 >= nbits.div_ceil(64),
            "{} dense words cannot hold {nbits} bits",
            words.len()
        );
        let group_at = |start: u64| dense_group(words, start, nbits);
        // How many bits from `start` on equal `bit`, clipped at nbits.
        let run_len = |start: u64, bit: bool| -> u64 {
            let flip = if bit { !0u64 } else { 0 };
            let mut pos = start;
            while pos < nbits {
                let differ = (words[pos as usize / 64] ^ flip) >> (pos % 64);
                if differ != 0 {
                    return (pos + u64::from(differ.trailing_zeros())).min(nbits) - start;
                }
                pos += 64 - pos % 64;
            }
            nbits - start
        };

        let total_groups = nbits.div_ceil(GROUP_BITS);
        let mut out = Vec::new();
        let mut g = 0u64;
        while g < total_groups {
            let start = g * GROUP_BITS;
            let group = group_at(start);
            let whole = if group == 0 || group == LITERAL_MASK {
                run_len(start, group != 0) / GROUP_BITS
            } else {
                0
            };
            if whole > 0 {
                append_fill(&mut out, group != 0, whole);
                g += whole;
            } else {
                // A literal, or a final partial group of zeros.
                append_group(&mut out, group);
                g += 1;
            }
        }
        Wah { words: out, nbits }
    }

    /// [`Wah::from_dense_words`] in the form a [`WahBuilder`] produces from
    /// the same bits pushed one at a time: a trailing partial group is kept
    /// as a literal word even when it is all zero, instead of extending a
    /// zero fill.
    ///
    /// # Panics
    /// Panics when `words` holds fewer than `nbits.div_ceil(64)` words.
    pub fn from_dense_words_as_built(words: &[u64], nbits: u64) -> Wah {
        let whole = nbits - nbits % GROUP_BITS;
        let mut wah = Wah::from_dense_words(words, whole);
        if whole < nbits {
            wah.words.push(dense_group(words, whole, nbits));
            wah.nbits = nbits;
        }
        wah
    }

    /// The raw compressed words, for serialization.
    pub fn as_words(&self) -> &[u32] {
        &self.words
    }

    /// Reconstruct a vector from serialized parts. The caller must supply
    /// words produced by [`Wah::as_words`] together with the original logical
    /// length.
    pub fn from_raw_parts(words: Vec<u32>, nbits: u64) -> Self {
        Self { words, nbits }
    }

    /// Validating variant of [`Wah::from_raw_parts`] for words read from
    /// untrusted bytes: the words must cover exactly `nbits` bits (fill
    /// words with a zero group count are rejected) and the padding bits of a
    /// final partial group must be clear — the invariants every vector
    /// produced by this crate upholds and that the logical operations and
    /// population counts rely on. Returns a description of the violation.
    pub fn checked_from_raw_parts(words: Vec<u32>, nbits: u64) -> std::result::Result<Wah, String> {
        let expected_groups = nbits.div_ceil(GROUP_BITS);
        let mut groups = 0u64;
        let mut last_pattern = 0u32;
        for &w in &words {
            if w & FILL_FLAG != 0 {
                let count = (w & FILL_COUNT_MASK) as u64;
                if count == 0 {
                    return Err("fill word with zero group count".to_string());
                }
                groups += count;
                last_pattern = if w & FILL_ONE_FLAG != 0 {
                    LITERAL_MASK
                } else {
                    0
                };
            } else {
                groups += 1;
                last_pattern = w;
            }
            if groups > expected_groups {
                return Err(format!(
                    "words cover more than the expected {expected_groups} group(s)"
                ));
            }
        }
        if groups != expected_groups {
            return Err(format!(
                "words cover {groups} group(s), expected {expected_groups}"
            ));
        }
        let tail = nbits % GROUP_BITS;
        if tail != 0 && last_pattern & !((1u32 << tail) - 1) != 0 {
            return Err("padding bits beyond the logical length are set".to_string());
        }
        Ok(Self { words, nbits })
    }

    /// Compression ratio relative to the uncompressed representation
    /// (uncompressed bytes divided by compressed bytes).
    pub fn compression_ratio(&self) -> f64 {
        let uncompressed = (self.nbits as f64 / 8.0).max(1.0);
        uncompressed / self.size_in_bytes().max(1) as f64
    }
}

/// Iterator over the set-bit positions of a [`Wah`] vector.
pub struct WahOnesIter<'a> {
    cursor: RunCursor<'a>,
    bit_offset: u64,
    pending: Option<(u32, u64)>,
    nbits: u64,
}

impl<'a> Iterator for WahOnesIter<'a> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        loop {
            if let Some((mut pattern, base)) = self.pending.take() {
                if pattern != 0 {
                    let tz = pattern.trailing_zeros() as u64;
                    pattern &= pattern - 1;
                    self.pending = Some((pattern, base));
                    let pos = base + tz;
                    if pos < self.nbits {
                        return Some(pos);
                    }
                    // Padding bit: keep scanning (there will be none set, but
                    // stay defensive).
                    continue;
                }
            }
            let (pattern, groups, is_fill) = self.cursor.take(1)?;
            debug_assert!(groups == 1 || is_fill);
            if is_fill {
                // take(1) always returns a single group even for fills.
                if pattern != 0 {
                    self.pending = Some((pattern, self.bit_offset));
                }
            } else if pattern != 0 {
                self.pending = Some((pattern, self.bit_offset));
            }
            self.bit_offset += GROUP_BITS;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn zeros_and_ones() {
        let z = Wah::zeros(1000);
        assert_eq!(z.len(), 1000);
        assert_eq!(z.count_ones(), 0);
        let o = Wah::ones(1000);
        assert_eq!(o.count_ones(), 1000);
        assert_eq!(o.iter_ones().count(), 1000);
        // Long uniform runs compress to a handful of words.
        assert!(
            z.num_words() <= 2,
            "zeros should compress: {} words",
            z.num_words()
        );
        assert!(
            o.num_words() <= 2,
            "ones should compress: {} words",
            o.num_words()
        );
    }

    #[test]
    fn from_sorted_indices_roundtrip() {
        let idx = vec![0u64, 3, 31, 32, 62, 63, 500, 999];
        let w = Wah::from_sorted_indices(1000, idx.clone());
        assert_eq!(w.count_ones(), idx.len() as u64);
        assert_eq!(w.iter_ones().collect::<Vec<_>>(), idx);
    }

    #[test]
    fn bitvec_roundtrip() {
        let bv = BitVec::from_indices(250, [0, 1, 2, 100, 248, 249]);
        let w = Wah::from_bitvec(&bv);
        assert_eq!(w.to_bitvec(), bv);
        assert_eq!(w.count_ones(), bv.count_ones());
    }

    #[test]
    fn and_or_not_small() {
        let a = Wah::from_sorted_indices(100, vec![1, 5, 50, 99]);
        let b = Wah::from_sorted_indices(100, vec![5, 50, 60]);
        assert_eq!(
            a.and(&b).unwrap().iter_ones().collect::<Vec<_>>(),
            vec![5, 50]
        );
        assert_eq!(
            a.or(&b).unwrap().iter_ones().collect::<Vec<_>>(),
            vec![1, 5, 50, 60, 99]
        );
        assert_eq!(
            a.and_not(&b).unwrap().iter_ones().collect::<Vec<_>>(),
            vec![1, 99]
        );
        let n = a.not();
        assert_eq!(n.count_ones(), 96);
        assert_eq!(n.len(), 100);
        assert!(!n.iter_ones().any(|i| i == 5));
        assert!(n.iter_ones().all(|i| i < 100));
    }

    #[test]
    fn not_of_all_ones_is_empty() {
        let o = Wah::ones(310);
        let n = o.not();
        assert_eq!(n.count_ones(), 0);
        assert_eq!(n.len(), 310);
    }

    #[test]
    fn length_mismatch_is_error() {
        let a = Wah::zeros(10);
        let b = Wah::zeros(11);
        assert!(matches!(
            a.and(&b),
            Err(FastBitError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn sparse_bitmaps_compress_well() {
        // One set bit per 10_000 rows over a million rows: the compressed
        // form must be dramatically smaller than the 125 kB uncompressed one.
        let n = 1_000_000u64;
        let idx: Vec<u64> = (0..n).step_by(10_000).collect();
        let w = Wah::from_sorted_indices(n, idx);
        assert!(
            w.size_in_bytes() < 4096,
            "compressed size {}",
            w.size_in_bytes()
        );
        assert!(w.compression_ratio() > 30.0);
    }

    #[test]
    fn fill_run_coalescing_survives_builder_boundaries() {
        let mut b = WahBuilder::new();
        b.push_run(false, 31 * 3);
        b.push_run(false, 31 * 5);
        b.push_run(true, 31 * 2);
        let w = b.finish();
        assert_eq!(w.len(), 31 * 10);
        assert_eq!(w.count_ones(), 31 * 2);
        assert_eq!(w.num_words(), 2, "adjacent same-value fills must coalesce");
    }

    fn reference_op(a: &[bool], b: &[bool], op: fn(bool, bool) -> bool) -> Vec<u64> {
        a.iter()
            .zip(b.iter())
            .enumerate()
            .filter(|(_, (&x, &y))| op(x, y))
            .map(|(i, _)| i as u64)
            .collect()
    }

    // Randomized property tests. proptest is not available in the offline
    // build environment, so these drive the same properties from a seeded
    // generator: lengths are drawn to straddle the 31-bit group boundaries
    // and densities sweep from all-zero through literal-dense to all-one.

    /// Densities covering the adversarial regimes: empty, ultra-sparse (long
    /// 0-fills), mixed literal, dense (long 1-fills with holes), and full.
    const DENSITIES: [f64; 5] = [0.0, 0.02, 0.5, 0.98, 1.0];

    fn random_bools(rng: &mut StdRng, len: usize, density: f64) -> Vec<bool> {
        (0..len)
            .map(|_| rng.gen_range(0.0..1.0) < density)
            .collect()
    }

    /// Lengths that straddle the 31-bit WAH group boundary and multi-group
    /// fills, plus a few arbitrary ones.
    fn interesting_length(rng: &mut StdRng, case: usize) -> usize {
        let boundaries = [1, 30, 31, 32, 61, 62, 63, 93, 310, 311, 400];
        if case.is_multiple_of(2) {
            boundaries[case / 2 % boundaries.len()]
        } else {
            rng.gen_range(1..500)
        }
    }

    #[test]
    fn write_dense_words_matches_iter_ones() {
        let mut rng = StdRng::seed_from_u64(0xDE45E);
        for case in 0..200 {
            let len = if case == 0 {
                0
            } else {
                interesting_length(&mut rng, case)
            };
            let bits = random_bools(&mut rng, len, DENSITIES[case % DENSITIES.len()]);
            let w = Wah::from_bools(&bits);
            let mut dense = vec![0u64; len.div_ceil(64)];
            w.write_dense_words(&mut dense);
            for (i, &b) in bits.iter().enumerate() {
                let got = dense[i / 64] >> (i % 64) & 1 == 1;
                assert_eq!(got, b, "case {case} len {len} bit {i}");
            }
            // Bits beyond the logical length stay clear.
            if len % 64 != 0 {
                assert_eq!(
                    dense[len / 64] & !((1u64 << (len % 64)) - 1),
                    0,
                    "case {case}"
                );
            }
        }
        // Long fills exercise the whole-word bulk path.
        let ones = Wah::ones(100_000);
        let mut dense = vec![0u64; 100_000usize.div_ceil(64)];
        ones.write_dense_words(&mut dense);
        assert_eq!(
            dense.iter().map(|w| w.count_ones() as u64).sum::<u64>(),
            100_000
        );
    }

    #[test]
    fn randomized_roundtrip_matches_reference() {
        let mut rng = StdRng::seed_from_u64(0xA11CE);
        for case in 0..200 {
            let len = if case == 0 {
                0
            } else {
                interesting_length(&mut rng, case)
            };
            let density = DENSITIES[case % DENSITIES.len()];
            let bits = random_bools(&mut rng, len, density);
            let w = Wah::from_bools(&bits);
            assert_eq!(w.len(), bits.len() as u64);
            let expected: Vec<u64> = bits
                .iter()
                .enumerate()
                .filter(|(_, &b)| b)
                .map(|(i, _)| i as u64)
                .collect();
            assert_eq!(
                w.iter_ones().collect::<Vec<_>>(),
                expected,
                "case {case} len {len}"
            );
            assert_eq!(w.count_ones(), expected.len() as u64);
        }
    }

    #[test]
    fn randomized_logical_ops_match_reference() {
        let mut rng = StdRng::seed_from_u64(0xB0B5);
        for case in 0..200 {
            let len = interesting_length(&mut rng, case);
            let da = DENSITIES[case % DENSITIES.len()];
            let db = DENSITIES[(case / DENSITIES.len()) % DENSITIES.len()];
            let a_bits = random_bools(&mut rng, len, da);
            let b_bits = random_bools(&mut rng, len, db);
            let a = Wah::from_bools(&a_bits);
            let b = Wah::from_bools(&b_bits);
            assert_eq!(
                a.and(&b).unwrap().iter_ones().collect::<Vec<_>>(),
                reference_op(&a_bits, &b_bits, |x, y| x && y),
                "AND case {case} len {len} densities {da}/{db}"
            );
            assert_eq!(
                a.or(&b).unwrap().iter_ones().collect::<Vec<_>>(),
                reference_op(&a_bits, &b_bits, |x, y| x || y),
                "OR case {case} len {len} densities {da}/{db}"
            );
            assert_eq!(
                a.and_not(&b).unwrap().iter_ones().collect::<Vec<_>>(),
                reference_op(&a_bits, &b_bits, |x, y| x && !y),
                "AND-NOT case {case} len {len} densities {da}/{db}"
            );
            assert_eq!(
                a.xor(&b).unwrap().iter_ones().collect::<Vec<_>>(),
                reference_op(&a_bits, &b_bits, |x, y| x ^ y),
                "XOR case {case} len {len} densities {da}/{db}"
            );
        }
    }

    #[test]
    fn randomized_not_is_involution() {
        let mut rng = StdRng::seed_from_u64(0xCAFE);
        for case in 0..200 {
            let len = interesting_length(&mut rng, case);
            let bits = random_bools(&mut rng, len, DENSITIES[case % DENSITIES.len()]);
            let w = Wah::from_bools(&bits);
            let back = w.not().not();
            assert_eq!(
                back.iter_ones().collect::<Vec<_>>(),
                w.iter_ones().collect::<Vec<_>>(),
                "case {case} len {len}"
            );
            assert_eq!(w.count_ones() + w.not().count_ones(), bits.len() as u64);
        }
    }

    #[test]
    fn randomized_runs_compress() {
        let mut rng = StdRng::seed_from_u64(0xD00D);
        for case in 0..100 {
            let num_runs = rng.gen_range(1..20usize);
            let mut builder = WahBuilder::new();
            let mut reference: Vec<bool> = Vec::new();
            for _ in 0..num_runs {
                let bit = rng.gen_range(0..2u32) == 1;
                // Run lengths biased toward group-boundary multiples.
                let count = match rng.gen_range(0..3u32) {
                    0 => rng.gen_range(1..2000u64),
                    1 => 31 * rng.gen_range(1..64u64),
                    _ => 31 * rng.gen_range(1..64u64) + rng.gen_range(0..31u64),
                };
                builder.push_run(bit, count);
                reference.extend(std::iter::repeat_n(bit, count as usize));
            }
            let w = builder.finish();
            assert_eq!(w.len(), reference.len() as u64, "case {case}");
            let expected: Vec<u64> = reference
                .iter()
                .enumerate()
                .filter(|(_, &b)| b)
                .map(|(i, _)| i as u64)
                .collect();
            assert_eq!(w.iter_ones().collect::<Vec<_>>(), expected, "case {case}");
        }
    }
}
