//! Binned bitmap indexes over floating-point columns and the identifier
//! index used for particle tracking.
//!
//! Two FastBit bitmap encodings are supported side by side:
//!
//! * **Equality encoding** (always present): bit `r` of bitmap `i` is set
//!   when row `r` falls in bin `i`. A range query unions the bins fully
//!   inside the range in one pass: each bitmap is OR-ed into one dense
//!   accumulator that is compressed once, and when the covered bins hold
//!   more compressed bytes than the rest of the index, the rest is
//!   accumulated and inverted instead (FastBit's complement trick). The
//!   cost is the smaller side's bytes plus one pass over `rows / 64` words.
//! * **Range encoding** (optional, see
//!   [`BitmapIndex::build_range_encoding`]): cumulative bitmap `i` covers
//!   all rows with value at most the upper edge of bin `i`. Any contiguous
//!   bin span `[a, b]` then resolves as `C[b] AND NOT C[a-1]` — at most two
//!   WAH operations regardless of how many bins the range spans.
//!
//! When both encodings are present, [`BitmapIndex::choose_encoding`] picks
//! one per query from the compressed bitmap sizes involved (the spanned
//! bins' bytes against the two cumulative bitmaps' bytes). Whichever
//! encoding answers, the resulting WAH selection words are bit-identical —
//! both paths emit the canonical word stream of the logical operations — a
//! property pinned by `tests/encoding_differential.rs`.

use std::sync::atomic::{AtomicU64, Ordering};

use histogram::{BinEdges, Binning};

use crate::error::{FastBitError, Result};
use crate::query::ValueRange;
use crate::selection::Selection;
use crate::wah::Wah;

/// Which bitmap encoding answers a range predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexEncoding {
    /// One bitmap per bin; range queries union the bins inside the range.
    Equality,
    /// Cumulative bitmaps (`C[i]` = rows in bins `0..=i`); range queries
    /// combine at most two bitmaps with `AND NOT`.
    Range,
}

/// Process-wide counters of which encoding answered index-backed range
/// predicates (the auto-choosing paths only; forced-encoding evaluations in
/// differential tests are not counted). Served by the server's `STATS` verb
/// as `enc_equality_queries` / `enc_range_queries`.
static ENC_EQUALITY_QUERIES: AtomicU64 = AtomicU64::new(0);
static ENC_RANGE_QUERIES: AtomicU64 = AtomicU64::new(0);

/// A point-in-time snapshot of the process-wide encoding-selection counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EncodingStatsSnapshot {
    /// Index-backed predicate evaluations answered via the equality encoding.
    pub equality_queries: u64,
    /// Index-backed predicate evaluations answered via the range encoding.
    pub range_queries: u64,
}

/// Snapshot the process-wide encoding-selection counters. Monotonic: the
/// counters only ever grow, so deltas between two snapshots taken around a
/// workload are meaningful even when other threads query concurrently.
pub fn encoding_stats() -> EncodingStatsSnapshot {
    EncodingStatsSnapshot {
        equality_queries: ENC_EQUALITY_QUERIES.load(Ordering::Relaxed),
        range_queries: ENC_RANGE_QUERIES.load(Ordering::Relaxed),
    }
}

/// Register the process-wide encoding-selection counters into a metrics
/// registry as `vdx_index_encoding_queries_total{encoding=…}`.
pub fn register_encoding_metrics(registry: &obs::Registry) {
    registry.counter_fn(
        "vdx_index_encoding_queries_total",
        "Index-backed predicate evaluations by chosen bitmap encoding.",
        &[("encoding", "equality")],
        || ENC_EQUALITY_QUERIES.load(Ordering::Relaxed),
    );
    registry.counter_fn(
        "vdx_index_encoding_queries_total",
        "Index-backed predicate evaluations by chosen bitmap encoding.",
        &[("encoding", "range")],
        || ENC_RANGE_QUERIES.load(Ordering::Relaxed),
    );
}

/// Count one index-backed predicate evaluation under `encoding`. The auto
/// paths ([`BitmapIndex::evaluate`] / [`BitmapIndex::evaluate_index_only`])
/// count internally; the compiled engine forces the plan-recorded encoding
/// through the `*_with` paths and notes it here so the `enc_*` STATS keep
/// moving identically.
pub(crate) fn note_encoding_query(encoding: IndexEncoding) {
    match encoding {
        IndexEncoding::Equality => &ENC_EQUALITY_QUERIES,
        IndexEncoding::Range => &ENC_RANGE_QUERIES,
    }
    .fetch_add(1, Ordering::Relaxed);
}

/// A binned, WAH-compressed bitmap index over one floating-point column.
///
/// Construction picks bin boundaries according to a [`Binning`] strategy and
/// stores one compressed bitmap per bin; bit `r` of bitmap `i` is set when
/// row `r` falls in bin `i`. Range queries union the bitmaps of bins
/// fully inside the range and perform a *candidate check* against the raw
/// column for the (at most two) partially covered boundary bins, exactly as
/// FastBit does for binned indexes. An optional second, range (cumulative)
/// encoding answers wide spans with at most two WAH operations; see
/// [`BitmapIndex::build_range_encoding`] and the module documentation.
///
/// ```
/// use fastbit::{BitmapIndex, IndexEncoding, ValueRange};
/// use histogram::Binning;
///
/// let data: Vec<f64> = (0..1000).map(|i| i as f64 / 10.0).collect();
/// let idx = BitmapIndex::build(&data, &Binning::EqualWidth { bins: 64 })
///     .unwrap()
///     .with_range_encoding()
///     .unwrap();
///
/// // A wide range spans many bins: the cost model picks the cumulative
/// // (range) encoding, which needs at most two bitmaps.
/// let wide = ValueRange::between(5.0, 95.0);
/// assert_eq!(idx.choose_encoding(&wide), IndexEncoding::Range);
///
/// // Whichever encoding answers, the selected rows are identical.
/// let hits = idx.evaluate(&wide, &data).unwrap();
/// let expected = data.iter().filter(|v| wide.contains(**v)).count() as u64;
/// assert_eq!(hits.count(), expected);
/// ```
#[derive(Debug, Clone)]
pub struct BitmapIndex {
    edges: BinEdges,
    bitmaps: Vec<Wah>,
    num_rows: usize,
    /// Rows whose value fell outside the binned range (NaN or out of bounds).
    unbinned: Vec<u32>,
    /// Whether any unbinned row holds a non-NaN value (±∞ or an out-of-span
    /// finite value). Only those can ever satisfy a range predicate, so a
    /// NaN-only unbinned set never forces a candidate check. Conservatively
    /// `true` for indexes reassembled from persisted parts, where the raw
    /// values are not available to inspect.
    unbinned_matchable: bool,
    /// Cumulative (range-encoded) bitmaps: `range_bitmaps[i]` covers every
    /// row of bins `0..=i`. `None` until [`BitmapIndex::build_range_encoding`]
    /// (or a persisted v2 segment) attaches them.
    range_bitmaps: Option<Vec<Wah>>,
}

impl BitmapIndex {
    /// Build an index over `data` using the given binning strategy.
    pub fn build(data: &[f64], binning: &Binning) -> Result<Self> {
        let edges = BinEdges::from_strategy(data, binning)?;
        Self::build_with_edges(data, edges)
    }

    /// Build an index over `data` using pre-computed bin boundaries.
    pub fn build_with_edges(data: &[f64], edges: BinEdges) -> Result<Self> {
        let nbins = edges.num_bins();
        let mut rows_per_bin: Vec<Vec<u64>> = vec![Vec::new(); nbins];
        let mut unbinned = Vec::new();
        let mut unbinned_matchable = false;
        for (row, &v) in data.iter().enumerate() {
            match edges.locate(v) {
                Some(bin) => rows_per_bin[bin].push(row as u64),
                None => {
                    unbinned.push(row as u32);
                    unbinned_matchable |= !v.is_nan();
                }
            }
        }
        let n = data.len() as u64;
        let bitmaps = rows_per_bin
            .into_iter()
            .map(|rows| Wah::from_sorted_indices(n, rows))
            .collect();
        Ok(Self {
            edges,
            bitmaps,
            num_rows: data.len(),
            unbinned,
            unbinned_matchable,
            range_bitmaps: None,
        })
    }

    /// Reassemble an index from persisted parts (bin edges, one bitmap per
    /// bin, the indexed row count and the rows left unbinned). Used by the
    /// datastore layer when loading a sidecar index file. Whether any
    /// unbinned row could match a range predicate is unknown without the raw
    /// values, so the reassembled index is conservatively marked matchable
    /// whenever the unbinned set is non-empty.
    pub fn from_parts(
        edges: BinEdges,
        bitmaps: Vec<Wah>,
        num_rows: usize,
        unbinned: Vec<u32>,
    ) -> Result<Self> {
        let matchable = !unbinned.is_empty();
        Self::from_parts_with_matchable(edges, bitmaps, num_rows, unbinned, matchable)
    }

    /// [`BitmapIndex::from_parts`] with an explicit unbinned-matchable flag,
    /// for persistence formats that recorded the flag the original index was
    /// built with (keeping `answers_exactly` and the pure-index fast paths
    /// byte-identical across a save/load cycle).
    ///
    /// All structural invariants are validated — bitmap count versus bins,
    /// bitmap lengths versus `num_rows`, and the unbinned rows strictly
    /// increasing and in range — so hostile persisted bytes cannot construct
    /// an index whose evaluation would later panic.
    pub fn from_parts_with_matchable(
        edges: BinEdges,
        bitmaps: Vec<Wah>,
        num_rows: usize,
        unbinned: Vec<u32>,
        unbinned_matchable: bool,
    ) -> Result<Self> {
        if bitmaps.len() != edges.num_bins() {
            return Err(FastBitError::Binning(
                histogram::BinningError::ShapeMismatch {
                    expected: edges.num_bins(),
                    found: bitmaps.len(),
                },
            ));
        }
        for b in &bitmaps {
            if b.len() != num_rows as u64 {
                return Err(FastBitError::LengthMismatch {
                    left: num_rows as u64,
                    right: b.len(),
                });
            }
        }
        let in_range = unbinned.iter().all(|&r| (r as usize) < num_rows);
        let increasing = unbinned.windows(2).all(|w| w[0] < w[1]);
        if !in_range || !increasing {
            return Err(FastBitError::Execution(
                "unbinned rows must be strictly increasing and within the row count".to_string(),
            ));
        }
        Ok(Self {
            edges,
            bitmaps,
            num_rows,
            unbinned,
            unbinned_matchable,
            range_bitmaps: None,
        })
    }

    /// Bin boundaries used by the index.
    pub fn edges(&self) -> &BinEdges {
        &self.edges
    }

    /// Number of indexed rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of bins.
    pub fn num_bins(&self) -> usize {
        self.bitmaps.len()
    }

    /// Per-bin record counts, obtained from the bitmaps alone. This is the
    /// fast path for unconditional 1D histograms whose bins coincide with
    /// (or merge) the index bins.
    pub fn bin_counts(&self) -> Vec<u64> {
        self.bitmaps.iter().map(|b| b.count_ones()).collect()
    }

    /// Rows that could not be assigned to any bin (NaN values).
    pub fn unbinned_rows(&self) -> &[u32] {
        &self.unbinned
    }

    /// Whether any unbinned row holds a non-NaN value and could therefore
    /// satisfy a range predicate (see the field documentation). Persisted by
    /// the [`crate::persist`] layer so a reloaded index keeps the exact
    /// candidate-check behaviour of the original.
    pub fn unbinned_matchable(&self) -> bool {
        self.unbinned_matchable
    }

    /// The compressed bitmap of bin `i`.
    pub fn bitmap(&self, i: usize) -> &Wah {
        &self.bitmaps[i]
    }

    /// Build the cumulative (range-encoded) bitmaps from the equality
    /// bitmaps: `C[i] = C[i-1] OR bitmap(i)`. Idempotent. The extra memory
    /// is the price of answering any bin span with at most two WAH
    /// operations; [`BitmapIndex::choose_encoding`] only picks the range
    /// encoding when its bitmaps are actually cheaper for the query at hand.
    pub fn build_range_encoding(&mut self) -> Result<()> {
        self.build_cumulative(None)?;
        Ok(())
    }

    /// [`BitmapIndex::build_range_encoding`] under a size budget: the
    /// cumulative bitmaps are kept only when their total compressed size is
    /// at most `max_ratio` times the equality bitmaps' size, and the build
    /// aborts early once the running total exceeds the budget. Returns
    /// whether the encoding was materialized.
    ///
    /// Cumulative bitmaps over *scattered* (high-entropy) columns compress
    /// poorly — the mid-range `C[i]` are literal-dense — so materializing
    /// them can cost several times the equality encoding in bytes for a
    /// win that only applies to wide ranges. Clustered or low-cardinality
    /// columns compress near 1:1 and always qualify. This is the build-time
    /// half of cost-based encoding selection; the per-query half is
    /// [`BitmapIndex::choose_encoding`].
    pub fn build_range_encoding_budgeted(&mut self, max_ratio: f64) -> Result<bool> {
        let (equality_bytes, _) = self.encoding_size_bytes();
        let budget = (equality_bytes as f64 * max_ratio.max(0.0)) as usize;
        self.build_cumulative(Some(budget))
    }

    /// Shared builder: `budget` is the maximum total compressed byte size
    /// the cumulative set may reach; `None` means unbounded.
    fn build_cumulative(&mut self, budget: Option<usize>) -> Result<bool> {
        if self.range_bitmaps.is_some() {
            return Ok(true);
        }
        let mut cumulative: Vec<Wah> = Vec::with_capacity(self.bitmaps.len());
        let mut total_bytes = 0usize;
        for (i, bitmap) in self.bitmaps.iter().enumerate() {
            let c = if i == 0 {
                // OR with an empty vector canonicalizes the words even when
                // the equality bitmap came from a persisted, potentially
                // non-canonical source.
                Wah::zeros(self.num_rows as u64).or(bitmap)?
            } else {
                cumulative[i - 1].or(bitmap)?
            };
            total_bytes += c.size_in_bytes();
            if let Some(budget) = budget {
                if total_bytes > budget {
                    return Ok(false);
                }
            }
            cumulative.push(c);
        }
        self.range_bitmaps = Some(cumulative);
        Ok(true)
    }

    /// Builder-style [`BitmapIndex::build_range_encoding`].
    pub fn with_range_encoding(mut self) -> Result<Self> {
        self.build_range_encoding()?;
        Ok(self)
    }

    /// Whether the cumulative (range) encoding is present.
    pub fn has_range_encoding(&self) -> bool {
        self.range_bitmaps.is_some()
    }

    /// The cumulative bitmaps, when the range encoding has been built.
    pub fn range_bitmaps(&self) -> Option<&[Wah]> {
        self.range_bitmaps.as_deref()
    }

    /// Attach cumulative bitmaps decoded from a persisted segment.
    ///
    /// Validation is **exact**: beyond the structural invariants (one
    /// bitmap per bin, every length equal to the row count), each supplied
    /// `C[i]` must equal `C[i-1] OR bitmap(i)` word-for-word — the same
    /// canonical form [`BitmapIndex::build_range_encoding`] produces — so a
    /// checksum-valid but semantically wrong section can never silently
    /// change query answers; it is rejected here with a typed error. The
    /// check streams each OR through [`Wah::is_or_of`]: one run-by-run walk
    /// per bin, stopping at the first wrong word and allocating no OR.
    pub fn attach_range_bitmaps(&mut self, cumulative: Vec<Wah>) -> Result<()> {
        if cumulative.len() != self.bitmaps.len() {
            return Err(FastBitError::Binning(
                histogram::BinningError::ShapeMismatch {
                    expected: self.bitmaps.len(),
                    found: cumulative.len(),
                },
            ));
        }
        for (i, c) in cumulative.iter().enumerate() {
            if c.len() != self.num_rows as u64 {
                return Err(FastBitError::LengthMismatch {
                    left: self.num_rows as u64,
                    right: c.len(),
                });
            }
            let canonical = if i == 0 {
                c.is_or_of(&Wah::zeros(self.num_rows as u64), &self.bitmaps[0])
            } else {
                c.is_or_of(&cumulative[i - 1], &self.bitmaps[i])
            };
            if !canonical {
                return Err(FastBitError::Execution(format!(
                    "range bitmap {i} does not equal the canonical cumulative OR of bins 0..={i}"
                )));
            }
        }
        self.range_bitmaps = Some(cumulative);
        Ok(())
    }

    /// Total compressed index size in bytes (bitmaps of both encodings plus
    /// boundaries).
    pub fn size_in_bytes(&self) -> usize {
        let (equality, range) = self.encoding_size_bytes();
        equality + range + self.edges.boundaries().len() * 8 + self.unbinned.len() * 4
    }

    /// Compressed bitmap bytes per encoding: `(equality, range)`. The range
    /// component is zero until the cumulative bitmaps are built.
    pub fn encoding_size_bytes(&self) -> (usize, usize) {
        let equality = self.bitmaps.iter().map(Wah::size_in_bytes).sum::<usize>();
        let range = self
            .range_bitmaps
            .as_deref()
            .map_or(0, |c| c.iter().map(Wah::size_in_bytes).sum());
        (equality, range)
    }

    /// Classify the index bins against a value range.
    ///
    /// Returns `(full, partial)` where `full` are bins entirely inside the
    /// range and `partial` are bins that straddle a range endpoint and
    /// therefore require a candidate check.
    fn classify_bins(&self, range: &ValueRange) -> (Vec<usize>, Vec<usize>) {
        let mut full = Vec::new();
        let mut partial = Vec::new();
        for i in 0..self.num_bins() {
            let (lo, hi) = self.edges.bin_range(i);
            let last = i + 1 == self.num_bins();
            // The bin covers values in [lo, hi) except the last bin which is
            // [lo, hi].
            let bin_min = lo;
            let bin_max = if last { hi } else { prev_toward(hi, lo) };
            let min_in = range.contains(bin_min);
            let max_in = range.contains(bin_max);
            if min_in && max_in && range.contains_interval(bin_min, bin_max) {
                full.push(i);
            } else if range.overlaps_interval(bin_min, bin_max) {
                partial.push(i);
            }
        }
        (full, partial)
    }

    /// Whether `range` could match a value that fell outside the binned
    /// range. Unbinned rows hold NaN (never matches) or values below/above
    /// the boundary span (e.g. ±∞ under data-derived edges); those can only
    /// match when the range extends past the corresponding outer boundary.
    fn range_may_match_unbinned(&self, range: &ValueRange) -> bool {
        if !self.unbinned_matchable {
            return false;
        }
        let below = match range.min {
            None => true,
            Some(m) => m < self.edges.lo(),
        };
        let above = match range.max {
            None => true,
            Some(m) => m > self.edges.hi(),
        };
        below || above
    }

    /// Pick the encoding for `range` from compressed bitmap sizes: the
    /// equality side is charged the summed bytes of the fully covered bins'
    /// bitmaps, the range side the bytes of the at most two cumulative
    /// bitmaps it combines (`C[b] AND NOT C[a-1]`). The boundary candidate
    /// bins cost the same either way (both paths read the per-bin equality
    /// bitmaps), so they cancel out of the comparison. Always
    /// [`IndexEncoding::Equality`] when the cumulative bitmaps are absent.
    ///
    /// The equality charge is conservative: the one-pass union reads the
    /// smaller of the covered bins and their complement (see
    /// `union_of_bins`), so a wide span costs the equality path less than
    /// charged here. The model is kept as it is so plans, `explain()` output
    /// and the encoding counters stay the same.
    pub fn choose_encoding(&self, range: &ValueRange) -> IndexEncoding {
        let (full, _) = self.classify_bins(range);
        self.choose_encoding_classified(&full)
    }

    /// [`BitmapIndex::choose_encoding`] over an already computed full-bin
    /// classification, so the auto evaluation paths classify once per query.
    fn choose_encoding_classified(&self, full: &[usize]) -> IndexEncoding {
        let Some(cumulative) = self.range_bitmaps.as_deref() else {
            return IndexEncoding::Equality;
        };
        let (Some(&a), Some(&b)) = (full.first(), full.last()) else {
            return IndexEncoding::Equality;
        };
        if b - a + 1 != full.len() {
            // Full bins of an interval range are always contiguous; fall
            // back to the encoding that handles any shape, defensively.
            return IndexEncoding::Equality;
        }
        let equality_cost: usize = full.iter().map(|&i| self.bitmaps[i].size_in_bytes()).sum();
        let range_cost = cumulative[b].size_in_bytes()
            + if a > 0 {
                cumulative[a - 1].size_in_bytes()
            } else {
                0
            };
        if range_cost < equality_cost {
            IndexEncoding::Range
        } else {
            IndexEncoding::Equality
        }
    }

    /// Evaluate a range condition using only the index, without access to the
    /// raw column. Returns `(hits, candidates)`: `hits` are rows guaranteed
    /// to satisfy the condition; `candidates` are rows that may or may not
    /// satisfy it — boundary-bin rows, plus the unbinned rows whenever the
    /// range reaches beyond the binned span (the differential suite caught
    /// ±∞ rows being silently dropped here). The encoding is chosen by
    /// [`BitmapIndex::choose_encoding`] and recorded in the process-wide
    /// [`encoding_stats`] counters.
    pub fn evaluate_index_only(&self, range: &ValueRange) -> Result<(Selection, Selection)> {
        let (full, partial) = self.classify_bins(range);
        let encoding = self.choose_encoding_classified(&full);
        match encoding {
            IndexEncoding::Equality => &ENC_EQUALITY_QUERIES,
            IndexEncoding::Range => &ENC_RANGE_QUERIES,
        }
        .fetch_add(1, Ordering::Relaxed);
        self.evaluate_classified(range, encoding, full, partial)
    }

    /// [`BitmapIndex::evaluate_index_only`] with the encoding forced — the
    /// handle the differential suites and benchmarks use to pin both paths
    /// against each other. Forcing [`IndexEncoding::Range`] without built
    /// cumulative bitmaps is an error. The returned selections are
    /// bit-identical across encodings: both emit the canonical word stream
    /// of the WAH logical operations, and the logical row sets are equal by
    /// construction.
    pub fn evaluate_index_only_with(
        &self,
        range: &ValueRange,
        encoding: IndexEncoding,
    ) -> Result<(Selection, Selection)> {
        let (full, partial) = self.classify_bins(range);
        self.evaluate_classified(range, encoding, full, partial)
    }

    /// The OR of the bitmaps of the bins in `full` (sorted, as
    /// [`BitmapIndex::classify_bins`] returns them), read in one pass.
    ///
    /// Every bitmap needed is OR-ed into one dense accumulator of
    /// `num_rows` bits, which is compressed once. When the full bins'
    /// bitmaps hold more compressed bytes than the rest of the index — the
    /// other bins plus the unbinned rows — the rest is accumulated instead
    /// and inverted: the bins and the unbinned rows partition the rows, so
    /// the complement of the rest is exactly the union of the full bins.
    /// The output words are those of `Wah::zeros(n).or(bin_0).or(bin_1)…`,
    /// and an empty `full` returns the builder-form `Wah::zeros(n)` that
    /// the range encoding's empty span returns too.
    fn union_of_bins(&self, full: &[usize]) -> Wah {
        let n = self.num_rows as u64;
        if full.is_empty() {
            return Wah::zeros(n);
        }
        let full_bytes: usize = full.iter().map(|&i| self.bitmaps[i].size_in_bytes()).sum();
        let (equality_bytes, _) = self.encoding_size_bytes();
        // Unbinned rows are stored as `u32`s, as `size_in_bytes` counts them.
        let rest_bytes = equality_bytes - full_bytes + self.unbinned.len() * 4;
        let mut dense = vec![0u64; self.num_rows.div_ceil(64)];
        if full_bytes > rest_bytes {
            let mut full = full.iter().copied().peekable();
            for (i, bitmap) in self.bitmaps.iter().enumerate() {
                if full.next_if_eq(&i).is_none() {
                    bitmap.write_dense_words(&mut dense);
                }
            }
            for &row in &self.unbinned {
                dense[row as usize / 64] |= 1u64 << (row % 64);
            }
            // Inverting sets the padding bits past `n` too;
            // `from_dense_words` ignores them.
            for word in &mut dense {
                *word = !*word;
            }
        } else {
            for &i in full {
                self.bitmaps[i].write_dense_words(&mut dense);
            }
        }
        Wah::from_dense_words(&dense, n)
    }

    /// Shared evaluation body over an already computed bin classification.
    fn evaluate_classified(
        &self,
        range: &ValueRange,
        encoding: IndexEncoding,
        full: Vec<usize>,
        partial: Vec<usize>,
    ) -> Result<(Selection, Selection)> {
        let n = self.num_rows as u64;
        let hits = match encoding {
            IndexEncoding::Equality => self.union_of_bins(&full),
            IndexEncoding::Range => {
                let cumulative = self.range_bitmaps.as_deref().ok_or_else(|| {
                    FastBitError::Execution(
                        "range encoding requested but not built for this index".to_string(),
                    )
                })?;
                match (full.first().copied(), full.last().copied()) {
                    (Some(a), Some(b)) if b - a + 1 == full.len() => {
                        if a == 0 {
                            // OR with zeros canonicalizes persisted words, so
                            // the output equals the equality path bit-for-bit.
                            Wah::zeros(n).or(&cumulative[b])?
                        } else {
                            cumulative[b].and_not(&cumulative[a - 1])?
                        }
                    }
                    // No fully covered bin (or a non-contiguous span, which
                    // interval ranges cannot produce): nothing to subtract —
                    // same hit set as the equality path.
                    _ => self.union_of_bins(&full),
                }
            }
        };
        // Boundary-bin candidates come from the per-bin equality bitmaps in
        // both encodings (at most two bins), so the candidate set — and the
        // unbinned-row handling — is shared verbatim.
        let mut candidates = Wah::zeros(n);
        for i in partial {
            candidates = candidates.or(&self.bitmaps[i])?;
        }
        if !self.unbinned.is_empty() && self.range_may_match_unbinned(range) {
            let unbinned = Wah::from_sorted_indices(n, self.unbinned.iter().map(|&r| r as u64));
            candidates = candidates.or(&unbinned)?;
        }
        Ok((Selection::from_wah(hits), Selection::from_wah(candidates)))
    }

    /// Evaluate a range condition exactly, using the raw column for the
    /// candidate check on boundary bins. The encoding is cost-selected per
    /// query; see [`BitmapIndex::choose_encoding`].
    pub fn evaluate(&self, range: &ValueRange, data: &[f64]) -> Result<Selection> {
        if data.len() != self.num_rows {
            return Err(FastBitError::RowCountMismatch {
                index_rows: self.num_rows,
                data_rows: data.len(),
            });
        }
        let (hits, candidates) = self.evaluate_index_only(range)?;
        self.resolve_candidates(hits, candidates, range, data)
    }

    /// [`BitmapIndex::evaluate`] with the encoding forced (not counted in
    /// [`encoding_stats`]); the differential and benchmark harness entry.
    pub fn evaluate_with(
        &self,
        range: &ValueRange,
        data: &[f64],
        encoding: IndexEncoding,
    ) -> Result<Selection> {
        if data.len() != self.num_rows {
            return Err(FastBitError::RowCountMismatch {
                index_rows: self.num_rows,
                data_rows: data.len(),
            });
        }
        let (hits, candidates) = self.evaluate_index_only_with(range, encoding)?;
        self.resolve_candidates(hits, candidates, range, data)
    }

    /// Confirm candidate rows against the raw column and fold them into the
    /// guaranteed hits.
    fn resolve_candidates(
        &self,
        hits: Selection,
        candidates: Selection,
        range: &ValueRange,
        data: &[f64],
    ) -> Result<Selection> {
        if candidates.is_none_selected() {
            return Ok(hits);
        }
        let confirmed: Vec<usize> = candidates
            .iter_rows()
            .filter(|&r| range.contains(data[r]))
            .collect();
        let confirmed = Selection::from_sorted_rows(self.num_rows, confirmed);
        hits.or(&confirmed)
    }

    /// True when the range endpoints coincide with bin boundaries, i.e. the
    /// query can be answered exactly from the index alone (the reason the
    /// paper builds indexes with low-precision bin boundaries). A range that
    /// could match unbinned (out-of-span) rows needs the raw column too.
    pub fn answers_exactly(&self, range: &ValueRange) -> bool {
        let (_, partial) = self.classify_bins(range);
        partial.is_empty() && (self.unbinned.is_empty() || !self.range_may_match_unbinned(range))
    }
}

/// Largest representable f64 strictly less than `x` (bounded below by `lo`).
///
/// Must use [`f64::next_down`]: naively decrementing the bit pattern moves
/// *toward zero* for negative values, which would make a bin's computed
/// maximum exceed its upper boundary and misclassify boundary bins on
/// columns with negative values.
fn prev_toward(x: f64, lo: f64) -> f64 {
    x.next_down().max(lo)
}

/// An index over the particle-identifier column.
///
/// Answers `ID IN (id_1 … id_n)` queries — the backbone of particle tracking
/// across timesteps — in time proportional to the size of the query set and
/// the number of rows found, rather than to the dataset size.
#[derive(Debug, Clone)]
pub struct IdIndex {
    /// `(id, row)` pairs sorted by id.
    sorted: Vec<(u64, u32)>,
    num_rows: usize,
}

impl IdIndex {
    /// Build an identifier index over `ids` (one entry per row).
    pub fn build(ids: &[u64]) -> Self {
        let mut sorted: Vec<(u64, u32)> = ids
            .iter()
            .enumerate()
            .map(|(row, &id)| (id, row as u32))
            .collect();
        sorted.sort_unstable();
        Self {
            sorted,
            num_rows: ids.len(),
        }
    }

    /// Number of indexed rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Rows whose identifier equals `id` (usually zero or one).
    pub fn rows_for(&self, id: u64) -> impl Iterator<Item = usize> + '_ {
        let start = self.sorted.partition_point(|&(v, _)| v < id);
        self.sorted[start..]
            .iter()
            .take_while(move |&&(v, _)| v == id)
            .map(|&(_, row)| row as usize)
    }

    /// The sorted `(id, row)` pairs backing the index, for serialization.
    pub fn pairs(&self) -> &[(u64, u32)] {
        &self.sorted
    }

    /// Reconstruct an index from pairs previously obtained via
    /// [`IdIndex::pairs`]. The pairs must be sorted by id.
    pub fn from_sorted_pairs(sorted: Vec<(u64, u32)>, num_rows: usize) -> Self {
        debug_assert!(sorted.windows(2).all(|w| w[0].0 <= w[1].0));
        Self { sorted, num_rows }
    }

    /// Evaluate `ID IN (query_ids)` and return the matching rows.
    pub fn select(&self, query_ids: &[u64]) -> Selection {
        let mut rows: Vec<usize> = query_ids.iter().flat_map(|&id| self.rows_for(id)).collect();
        rows.sort_unstable();
        rows.dedup();
        Selection::from_sorted_rows(self.num_rows, rows)
    }

    /// Approximate index size in bytes.
    pub fn size_in_bytes(&self) -> usize {
        self.sorted.len() * std::mem::size_of::<(u64, u32)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::ValueRange;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn sample_column(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(-100.0..100.0)).collect()
    }

    #[test]
    fn bin_counts_sum_to_rows() {
        let data = sample_column(10_000, 1);
        let idx = BitmapIndex::build(&data, &Binning::EqualWidth { bins: 64 }).unwrap();
        assert_eq!(idx.num_bins(), 64);
        assert_eq!(idx.bin_counts().iter().sum::<u64>(), 10_000);
        assert!(idx.unbinned_rows().is_empty());
    }

    #[test]
    fn nan_rows_are_unbinned() {
        let mut data = sample_column(100, 2);
        data[10] = f64::NAN;
        data[20] = f64::NAN;
        let idx = BitmapIndex::build(&data, &Binning::EqualWidth { bins: 8 }).unwrap();
        assert_eq!(idx.unbinned_rows(), &[10, 20]);
        assert_eq!(idx.bin_counts().iter().sum::<u64>(), 98);
    }

    #[test]
    fn range_query_matches_scan() {
        let data = sample_column(20_000, 3);
        let idx = BitmapIndex::build(&data, &Binning::EqualWidth { bins: 100 }).unwrap();
        for range in [
            ValueRange::gt(12.3),
            ValueRange::lt(-55.5),
            ValueRange::ge(0.0),
            ValueRange::le(99.99),
            ValueRange::between(-10.0, 10.0),
        ] {
            let from_index = idx.evaluate(&range, &data).unwrap();
            let from_scan: Vec<usize> = data
                .iter()
                .enumerate()
                .filter(|(_, &v)| range.contains(v))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(from_index.to_rows(), from_scan, "range {range:?}");
        }
    }

    #[test]
    fn index_only_evaluation_brackets_exact_answer() {
        let data = sample_column(5_000, 4);
        let idx = BitmapIndex::build(&data, &Binning::EqualWidth { bins: 32 }).unwrap();
        let range = ValueRange::gt(7.77);
        let (hits, candidates) = idx.evaluate_index_only(&range).unwrap();
        let exact = idx.evaluate(&range, &data).unwrap();
        // hits ⊆ exact ⊆ hits ∪ candidates
        assert!(hits.and_not(&exact).unwrap().is_none_selected());
        let upper = hits.or(&candidates).unwrap();
        assert!(exact.and_not(&upper).unwrap().is_none_selected());
        assert!(!idx.answers_exactly(&range));
    }

    #[test]
    fn boundary_aligned_query_is_answered_exactly_from_index() {
        let data: Vec<f64> = (0..1000).map(|i| i as f64 / 10.0).collect();
        let edges = BinEdges::uniform(0.0, 100.0, 10).unwrap();
        let idx = BitmapIndex::build_with_edges(&data, edges).unwrap();
        let range = ValueRange::ge(30.0);
        assert!(idx.answers_exactly(&range));
        let (hits, candidates) = idx.evaluate_index_only(&range).unwrap();
        assert!(candidates.is_none_selected());
        assert_eq!(hits.count(), 700);
    }

    #[test]
    fn equal_weight_index_also_answers_correctly() {
        let data = sample_column(8_000, 5);
        let idx = BitmapIndex::build(&data, &Binning::EqualWeight { bins: 50 }).unwrap();
        let range = ValueRange::between(-20.0, 35.0);
        let got = idx.evaluate(&range, &data).unwrap();
        let expected = data.iter().filter(|&&v| range.contains(v)).count() as u64;
        assert_eq!(got.count(), expected);
    }

    #[test]
    fn index_size_is_reported() {
        let data = sample_column(10_000, 6);
        let idx = BitmapIndex::build(&data, &Binning::EqualWidth { bins: 128 }).unwrap();
        assert!(idx.size_in_bytes() > 0);
    }

    #[test]
    fn empty_range_selects_nothing() {
        let data = sample_column(1_000, 7);
        let idx = BitmapIndex::build(&data, &Binning::EqualWidth { bins: 16 }).unwrap();
        let got = idx.evaluate(&ValueRange::gt(1e9), &data).unwrap();
        assert!(got.is_none_selected());
    }

    #[test]
    fn unbinned_infinities_are_candidate_checked() {
        // Regression: ±∞ rows fall outside data-derived edges and land in
        // the unbinned list; range queries that extend past the boundary
        // span must still find them (the par differential suite caught the
        // indexed path silently dropping them).
        let mut data = sample_column(2_000, 8);
        data[3] = f64::INFINITY;
        data[7] = f64::NEG_INFINITY;
        data[11] = f64::NAN;
        let idx = BitmapIndex::build(&data, &Binning::EqualWidth { bins: 32 }).unwrap();
        assert_eq!(idx.unbinned_rows(), &[3, 7, 11]);
        for range in [
            ValueRange::gt(50.0),             // must include row 3 (+inf)
            ValueRange::lt(-50.0),            // must include row 7 (-inf)
            ValueRange::all(),                // both, never the NaN row
            ValueRange::between(-10.0, 10.0), // neither
        ] {
            let from_index = idx.evaluate(&range, &data).unwrap();
            let from_scan: Vec<usize> = data
                .iter()
                .enumerate()
                .filter(|(_, &v)| range.contains(v))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(from_index.to_rows(), from_scan, "range {range:?}");
        }
        // Unbounded ranges can match unbinned rows → not answerable from the
        // index alone; a range fully inside the span still is (when aligned).
        assert!(!idx.answers_exactly(&ValueRange::all()));
        let (lo, hi) = (idx.edges().lo(), idx.edges().hi());
        assert!(idx.answers_exactly(&ValueRange::between_inclusive(lo, hi)));

        // A NaN-only unbinned set can never match, so it keeps the
        // pure-index paths: no candidate check even for unbounded ranges.
        let mut nan_only = sample_column(500, 9);
        nan_only[42] = f64::NAN;
        let idx = BitmapIndex::build(&nan_only, &Binning::EqualWidth { bins: 8 }).unwrap();
        assert_eq!(idx.unbinned_rows(), &[42]);
        assert!(idx.answers_exactly(&ValueRange::all()));
        let (_, candidates) = idx.evaluate_index_only(&ValueRange::all()).unwrap();
        assert!(candidates.is_none_selected());
    }

    #[test]
    fn range_encoding_answers_identically_to_equality() {
        let mut data = sample_column(5_000, 11);
        data[7] = f64::NAN;
        data[13] = f64::INFINITY;
        data[17] = f64::NEG_INFINITY;
        let idx = BitmapIndex::build(&data, &Binning::EqualWidth { bins: 64 })
            .unwrap()
            .with_range_encoding()
            .unwrap();
        assert!(idx.has_range_encoding());
        for range in [
            ValueRange::all(),
            ValueRange::gt(-90.0),
            ValueRange::lt(90.0),
            ValueRange::between(-80.0, 80.0),
            ValueRange::between_inclusive(-1.0, 1.0),
            ValueRange::gt(1e9),
        ] {
            let (eq_hits, eq_cand) = idx
                .evaluate_index_only_with(&range, IndexEncoding::Equality)
                .unwrap();
            let (rg_hits, rg_cand) = idx
                .evaluate_index_only_with(&range, IndexEncoding::Range)
                .unwrap();
            // Bit-identical WAH words, not just equal row sets.
            assert_eq!(eq_hits.as_wah(), rg_hits.as_wah(), "hits for {range:?}");
            assert_eq!(eq_cand.as_wah(), rg_cand.as_wah(), "candidates {range:?}");
            let exact_eq = idx
                .evaluate_with(&range, &data, IndexEncoding::Equality)
                .unwrap();
            let exact_rg = idx
                .evaluate_with(&range, &data, IndexEncoding::Range)
                .unwrap();
            assert_eq!(exact_eq.as_wah(), exact_rg.as_wah(), "exact for {range:?}");
            let from_scan: Vec<usize> = data
                .iter()
                .enumerate()
                .filter(|(_, &v)| range.contains(v))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(exact_rg.to_rows(), from_scan, "scan oracle for {range:?}");
        }
    }

    #[test]
    fn cost_model_prefers_range_on_wide_spans() {
        let data: Vec<f64> = (0..20_000).map(|i| (i % 1000) as f64).collect();
        let idx = BitmapIndex::build(&data, &Binning::EqualWidth { bins: 256 })
            .unwrap()
            .with_range_encoding()
            .unwrap();
        // Spans hundreds of bins: two cumulative bitmaps beat ~250 ORs.
        assert_eq!(
            idx.choose_encoding(&ValueRange::gt(10.0)),
            IndexEncoding::Range
        );
        // Spans at most a couple of bins: the per-bin bitmaps are cheaper.
        assert_eq!(
            idx.choose_encoding(&ValueRange::between(500.0, 501.0)),
            IndexEncoding::Equality
        );
        // Without the cumulative bitmaps there is nothing to choose.
        let plain = BitmapIndex::build(&data, &Binning::EqualWidth { bins: 256 }).unwrap();
        assert_eq!(
            plain.choose_encoding(&ValueRange::gt(10.0)),
            IndexEncoding::Equality
        );
        assert!(matches!(
            plain.evaluate_index_only_with(&ValueRange::gt(10.0), IndexEncoding::Range),
            Err(FastBitError::Execution(_))
        ));
    }

    #[test]
    fn auto_evaluation_moves_the_encoding_counters() {
        let data: Vec<f64> = (0..5_000).map(|i| (i % 500) as f64).collect();
        let idx = BitmapIndex::build(&data, &Binning::EqualWidth { bins: 128 })
            .unwrap()
            .with_range_encoding()
            .unwrap();
        let before = encoding_stats();
        idx.evaluate(&ValueRange::gt(1.0), &data).unwrap(); // wide -> range
        idx.evaluate(&ValueRange::between(250.0, 251.0), &data) // narrow -> equality
            .unwrap();
        let after = encoding_stats();
        assert!(after.range_queries > before.range_queries);
        assert!(after.equality_queries > before.equality_queries);
    }

    #[test]
    fn budgeted_range_build_skips_incompressible_columns() {
        // A clustered ramp: cumulative bitmaps are prefix fills, near 1:1.
        let ramp: Vec<f64> = (0..4_000).map(|i| i as f64).collect();
        let mut clustered = BitmapIndex::build(&ramp, &Binning::EqualWidth { bins: 64 }).unwrap();
        assert!(clustered.build_range_encoding_budgeted(2.0).unwrap());
        assert!(clustered.has_range_encoding());

        // Scattered random data at fine binning (the store's regime): the
        // per-bin equality bitmaps are sparse and compress well, but the
        // mid-range cumulative bitmaps are literal-dense — several times
        // the equality bytes, over budget.
        let scattered = sample_column(4_000, 13);
        let mut idx = BitmapIndex::build(&scattered, &Binning::EqualWidth { bins: 256 }).unwrap();
        assert!(!idx.build_range_encoding_budgeted(2.0).unwrap());
        assert!(!idx.has_range_encoding());
        // The unbudgeted build still materializes it on request.
        idx.build_range_encoding().unwrap();
        assert!(idx.has_range_encoding());
        let (eq, rg) = idx.encoding_size_bytes();
        assert!(rg as f64 > eq as f64 * 2.0, "eq {eq} rg {rg}");
        // Idempotence: a budgeted call on an already-built index keeps it.
        assert!(idx.build_range_encoding_budgeted(0.1).unwrap());
        assert!(idx.has_range_encoding());
    }

    #[test]
    fn attach_range_bitmaps_validates_structure() {
        let data = sample_column(600, 12);
        let dual = BitmapIndex::build(&data, &Binning::EqualWidth { bins: 8 })
            .unwrap()
            .with_range_encoding()
            .unwrap();
        let cumulative: Vec<Wah> = dual.range_bitmaps().unwrap().to_vec();

        // A fresh index accepts the genuine cumulative set.
        let mut idx = BitmapIndex::build(&data, &Binning::EqualWidth { bins: 8 }).unwrap();
        idx.attach_range_bitmaps(cumulative.clone()).unwrap();
        assert!(idx.has_range_encoding());
        let (eq_bytes, rg_bytes) = idx.encoding_size_bytes();
        assert!(eq_bytes > 0 && rg_bytes > 0);
        assert!(idx.size_in_bytes() >= eq_bytes + rg_bytes);

        // Wrong count, wrong length, and a broken cumulative tally all fail.
        let mut idx = BitmapIndex::build(&data, &Binning::EqualWidth { bins: 8 }).unwrap();
        assert!(idx.attach_range_bitmaps(cumulative[..3].to_vec()).is_err());
        let mut short = cumulative.clone();
        short[2] = Wah::zeros(10);
        assert!(idx.attach_range_bitmaps(short).is_err());
        let mut non_cumulative = cumulative.clone();
        non_cumulative[3] = non_cumulative[2].clone();
        assert!(idx.attach_range_bitmaps(non_cumulative).is_err());

        // Same popcounts, wrong bit positions: move one set row of C[2] to a
        // row that is not set. A count-only tally would accept this; the
        // exact word-level validation must reject it.
        let mut moved = cumulative.clone();
        let rows: Vec<u64> = moved[2].iter_ones().collect();
        let absent = (0..moved[2].len())
            .find(|r| !rows.contains(r))
            .expect("some row outside C[2]");
        let mut new_rows: Vec<u64> = rows[1..].to_vec();
        new_rows.push(absent);
        new_rows.sort_unstable();
        moved[2] = Wah::from_sorted_indices(moved[2].len(), new_rows);
        assert!(idx.attach_range_bitmaps(moved).is_err());
        assert!(!idx.has_range_encoding());
    }

    #[test]
    fn id_index_finds_rows_proportional_to_query() {
        let ids: Vec<u64> = (0..50_000u64).map(|i| i * 7 + 13).collect();
        let idx = IdIndex::build(&ids);
        let query: Vec<u64> = vec![13, 21, 7 * 100 + 13, 7 * 49_999 + 13];
        let sel = idx.select(&query);
        // id 21 does not exist; the others map to rows 0, 100, 49_999.
        assert_eq!(sel.to_rows(), vec![0, 100, 49_999]);
    }

    #[test]
    fn id_index_handles_duplicates_and_empty_query() {
        let ids = vec![5u64, 9, 5, 7, 9];
        let idx = IdIndex::build(&ids);
        assert_eq!(idx.rows_for(5).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(idx.rows_for(9).collect::<Vec<_>>(), vec![1, 4]);
        assert_eq!(idx.rows_for(6).count(), 0);
        assert!(idx.select(&[]).is_none_selected());
        assert_eq!(idx.select(&[5, 5, 9]).to_rows(), vec![0, 1, 2, 4]);
    }
}
