//! Zone maps and the chunk executor of the compiled query engine.
//!
//! The paper's headline numbers come from *parallel* index evaluation and
//! histogram computation; this module supplies the intra-query half of that
//! story. Columns are partitioned into fixed-size row chunks, each carrying a
//! [`Zone`] (min / max / NaN count). The compiled engine
//! ([`crate::compile::execute_with`]) fills a scanned predicate's dense words
//! chunk by chunk through [`ParExec::run_chunks`]:
//!
//! * a chunk whose zone proves the predicate can match **nothing** is left
//!   empty without touching a single row;
//! * a chunk whose zone proves **every** row matches (no NaNs, value interval
//!   fully inside the query range) is filled without reading its rows;
//! * only the remaining chunks are scanned row-by-row.
//!
//! Histogram binning splits the same way ([`crate::HistogramEngine`]): each
//! chunk bins its selected rows into a private histogram and the partials
//! merge in chunk order. The thread count and chunk size decide only how the
//! work is split, never the answer: the differential suites in
//! `tests/par_differential.rs`, `tests/zone_map_adversarial.rs` and
//! `tests/encoding_differential.rs` pin the selected rows and histogram
//! counts to the sequential oracle at every setting.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::error::{FastBitError, Result};
use crate::query::ValueRange;

/// Default number of rows per evaluation chunk. Small enough that zone-map
/// pruning has real resolution on clustered data, large enough that the
/// per-chunk bookkeeping (a few hundred mask words) is noise.
pub const DEFAULT_CHUNK_ROWS: usize = 4096;

// ---------------------------------------------------------------------------
// Zone maps
// ---------------------------------------------------------------------------

/// Summary statistics of one chunk of one column: the minimum and maximum
/// over the non-NaN values (±∞ participate) and the number of NaNs.
///
/// A chunk containing only NaNs has `min = +∞ > max = -∞`; every interval
/// test against such an inverted interval is vacuously false, which is
/// exactly the right answer because NaN never satisfies a range predicate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Zone {
    /// Minimum non-NaN value (`+∞` when the chunk is all NaN).
    pub min: f64,
    /// Maximum non-NaN value (`-∞` when the chunk is all NaN).
    pub max: f64,
    /// Number of NaN values in the chunk.
    pub nan_count: u32,
    /// Number of rows in the chunk.
    pub len: u32,
}

/// What a zone proves about a range predicate over its chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZoneVerdict {
    /// No row of the chunk can satisfy the range.
    Empty,
    /// Every row of the chunk satisfies the range.
    Full,
    /// The chunk must be scanned row-by-row.
    Scan,
}

impl Zone {
    /// Compute the zone of a value slice.
    pub fn from_slice(values: &[f64]) -> Zone {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut nan_count = 0u32;
        for &v in values {
            if v.is_nan() {
                nan_count += 1;
            } else {
                if v < min {
                    min = v;
                }
                if v > max {
                    max = v;
                }
            }
        }
        Zone {
            min,
            max,
            nan_count,
            len: values.len() as u32,
        }
    }

    /// True when the chunk holds no non-NaN value.
    pub fn all_nan(&self) -> bool {
        self.nan_count as usize == self.len as usize
    }

    /// Classify `range` against this zone.
    ///
    /// `Full` requires a NaN-free chunk whose closed value interval lies
    /// entirely inside the range; `Empty` requires that the interval not
    /// intersect the range at all (an all-NaN chunk has an inverted, hence
    /// empty, interval and is always `Empty`). Everything else must scan.
    pub fn classify(&self, range: &ValueRange) -> ZoneVerdict {
        if self.all_nan() || !range.overlaps_interval(self.min, self.max) {
            return ZoneVerdict::Empty;
        }
        if self.nan_count == 0 && range.contains_interval(self.min, self.max) {
            return ZoneVerdict::Full;
        }
        ZoneVerdict::Scan
    }
}

/// Per-chunk zones of one column at one chunk size.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneMaps {
    chunk_rows: usize,
    num_rows: usize,
    zones: Vec<Zone>,
}

impl ZoneMaps {
    /// Build zone maps over `data` with `chunk_rows` rows per chunk (the
    /// final chunk may be shorter). One sequential pass; columns are built
    /// once and cached by their provider, not per query.
    pub fn build(data: &[f64], chunk_rows: usize) -> ZoneMaps {
        let chunk_rows = chunk_rows.max(1);
        let zones = data.chunks(chunk_rows).map(Zone::from_slice).collect();
        ZoneMaps {
            chunk_rows,
            num_rows: data.len(),
            zones,
        }
    }

    /// Rows per chunk this map was built with.
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// Total rows covered.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of chunks.
    pub fn num_chunks(&self) -> usize {
        self.zones.len()
    }

    /// The zone of chunk `i`.
    pub fn zone(&self, i: usize) -> &Zone {
        &self.zones[i]
    }

    /// Reassemble a zone map from persisted parts. The caller (the persist
    /// layer) must have validated that `zones` covers `num_rows` rows in
    /// `chunk_rows`-sized chunks.
    pub(crate) fn from_raw_parts(chunk_rows: usize, num_rows: usize, zones: Vec<Zone>) -> ZoneMaps {
        ZoneMaps {
            chunk_rows,
            num_rows,
            zones,
        }
    }

    /// Approximate heap size in bytes.
    pub fn size_in_bytes(&self) -> usize {
        self.zones.len() * std::mem::size_of::<Zone>()
    }
}

// ---------------------------------------------------------------------------
// Execution configuration and statistics
// ---------------------------------------------------------------------------

/// Lifetime counters of a [`ParExec`]: how many evaluations ran and how much
/// work the zone maps saved. Exposed by the server's `STATS` verb.
#[derive(Debug, Default)]
pub struct ParStats {
    queries: AtomicU64,
    chunks_pruned_empty: AtomicU64,
    chunks_pruned_full: AtomicU64,
    chunks_scanned: AtomicU64,
    chunks_indexed: AtomicU64,
}

/// A point-in-time snapshot of [`ParStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParStatsSnapshot {
    /// Query evaluations performed (every compiled-program execution).
    pub queries: u64,
    /// Predicate-chunks proven empty by a zone map (no rows touched).
    pub chunks_pruned_empty: u64,
    /// Predicate-chunks proven full by a zone map (no rows touched).
    pub chunks_pruned_full: u64,
    /// Predicate-chunks that had to be scanned row-by-row.
    pub chunks_scanned: u64,
    /// Predicate-chunks covered by a bitmap-index answer (the index answers
    /// the whole predicate once; every chunk it covers is counted).
    pub chunks_indexed: u64,
}

impl ParStats {
    fn snapshot(&self) -> ParStatsSnapshot {
        ParStatsSnapshot {
            queries: self.queries.load(Ordering::Relaxed),
            chunks_pruned_empty: self.chunks_pruned_empty.load(Ordering::Relaxed),
            chunks_pruned_full: self.chunks_pruned_full.load(Ordering::Relaxed),
            chunks_scanned: self.chunks_scanned.load(Ordering::Relaxed),
            chunks_indexed: self.chunks_indexed.load(Ordering::Relaxed),
        }
    }
}

/// Chunk tallies of one evaluation. Each chunk task returns its own, the
/// coordinator sums them and [`ParExec::record`] flushes the total into the
/// lifetime [`ParStats`] and onto the active trace.
#[derive(Debug, Default)]
pub(crate) struct ChunkTally {
    pub(crate) pruned_empty: u64,
    pub(crate) pruned_full: u64,
    pub(crate) scanned: u64,
    pub(crate) indexed: u64,
}

impl ChunkTally {
    pub(crate) fn add(&mut self, other: &ChunkTally) {
        self.pruned_empty += other.pruned_empty;
        self.pruned_full += other.pruned_full;
        self.scanned += other.scanned;
        self.indexed += other.indexed;
    }
}

/// How the compiled engine splits one evaluation: the worker-thread count
/// and the rows per chunk. Clones share one set of lifetime [`ParStats`].
#[derive(Debug, Clone)]
pub struct ParExec {
    threads: usize,
    chunk_rows: usize,
    stats: Arc<ParStats>,
}

impl Default for ParExec {
    fn default() -> Self {
        Self::sequential()
    }
}

impl ParExec {
    /// An executor with `threads` workers and `chunk_rows` rows per chunk
    /// (both clamped to at least 1).
    pub fn new(threads: usize, chunk_rows: usize) -> Self {
        Self {
            threads: threads.max(1),
            chunk_rows: chunk_rows.max(1),
            stats: Arc::new(ParStats::default()),
        }
    }

    /// A single-threaded executor at [`DEFAULT_CHUNK_ROWS`]: every chunk
    /// runs inline on the caller's thread.
    pub fn sequential() -> Self {
        Self::new(1, DEFAULT_CHUNK_ROWS)
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Rows per evaluation chunk.
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// Snapshot of the lifetime counters.
    pub fn stats(&self) -> ParStatsSnapshot {
        self.stats.snapshot()
    }

    /// Count one evaluation and its chunk tallies, in the lifetime counters
    /// and on the active trace.
    pub(crate) fn record(&self, tally: &ChunkTally) {
        let s = &self.stats;
        s.queries.fetch_add(1, Ordering::Relaxed);
        for (counter, v, name) in [
            (&s.chunks_pruned_empty, tally.pruned_empty, "pruned_empty"),
            (&s.chunks_pruned_full, tally.pruned_full, "pruned_full"),
            (&s.chunks_scanned, tally.scanned, "scanned"),
            (&s.chunks_indexed, tally.indexed, "indexed"),
        ] {
            if v > 0 {
                counter.fetch_add(v, Ordering::Relaxed);
                obs::count(name, v);
            }
        }
    }

    /// Register this executor's lifetime counters into a metrics registry:
    /// `vdx_par_queries_total` and `vdx_par_chunks_total` by outcome. The
    /// collectors hold a reference to the shared stats, so clones of this
    /// executor keep feeding them.
    pub fn register_metrics(&self, registry: &obs::Registry) {
        let stats = Arc::clone(&self.stats);
        registry.counter_fn(
            "vdx_par_queries_total",
            "Query evaluations performed by the compiled engine.",
            &[],
            move || stats.queries.load(Ordering::Relaxed),
        );
        for (outcome, pick) in [
            ("pruned_empty", 0usize),
            ("pruned_full", 1),
            ("scanned", 2),
            ("indexed", 3),
        ] {
            let stats = Arc::clone(&self.stats);
            registry.counter_fn(
                "vdx_par_chunks_total",
                "Predicate-chunks processed by the compiled engine, by outcome.",
                &[("outcome", outcome)],
                move || {
                    let s = stats.snapshot();
                    [
                        s.chunks_pruned_empty,
                        s.chunks_pruned_full,
                        s.chunks_scanned,
                        s.chunks_indexed,
                    ][pick]
                },
            );
        }
    }

    /// Run `work(chunk_index)` for every chunk in `0..num_chunks` over the
    /// work-queue pool and return the results in chunk order. With one
    /// thread the work runs inline on the caller's thread.
    pub fn run_chunks<T, F>(&self, num_chunks: usize, work: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(usize) -> Result<T> + Sync,
    {
        let threads = self.threads.min(num_chunks.max(1));
        if threads <= 1 {
            return (0..num_chunks).map(work).collect();
        }
        let next = AtomicUsize::new(0);
        let work = &work;
        let next = &next;
        let per_thread = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(move || -> Result<Vec<(usize, T)>> {
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= num_chunks {
                                return Ok(out);
                            }
                            out.push((i, work(i)?));
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        Err(FastBitError::Execution("chunk worker panicked".into()))
                    })
                })
                .collect::<Vec<_>>()
        });
        let mut tagged = Vec::with_capacity(num_chunks);
        for r in per_thread {
            tagged.extend(r?);
        }
        tagged.sort_by_key(|(i, _)| *i);
        Ok(tagged.into_iter().map(|(_, v)| v).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::evaluate_with;
    use crate::query::{
        evaluate_with_strategy, ColumnProvider, ExecStrategy, Predicate, QueryExpr,
    };
    use crate::scan;
    use crate::selection::Selection;
    use std::collections::HashMap;

    struct MemProvider {
        columns: HashMap<String, Vec<f64>>,
        rows: usize,
        zones: bool,
    }

    impl MemProvider {
        fn new(columns: Vec<(&str, Vec<f64>)>) -> Self {
            let rows = columns[0].1.len();
            Self {
                columns: columns
                    .into_iter()
                    .map(|(n, d)| (n.to_string(), d))
                    .collect(),
                rows,
                zones: true,
            }
        }

        fn without_zones(mut self) -> Self {
            self.zones = false;
            self
        }
    }

    impl ColumnProvider for MemProvider {
        fn num_rows(&self) -> usize {
            self.rows
        }
        fn column(&self, name: &str) -> Option<&[f64]> {
            self.columns.get(name).map(|v| v.as_slice())
        }
        fn index(&self, _name: &str) -> Option<&crate::index::BitmapIndex> {
            None
        }
        fn zone_maps(&self, name: &str, chunk_rows: usize) -> Option<Arc<ZoneMaps>> {
            let data = self.column(name).filter(|_| self.zones)?;
            Some(Arc::new(ZoneMaps::build(data, chunk_rows)))
        }
    }

    fn ramp(n: usize) -> MemProvider {
        MemProvider::new(vec![("x", (0..n).map(|i| i as f64).collect::<Vec<f64>>())])
    }

    /// The compiled engine on `exec`, scanning every predicate.
    fn chunked(expr: &QueryExpr, p: &impl ColumnProvider, exec: &ParExec) -> Result<Selection> {
        evaluate_with(expr, p, ExecStrategy::ScanOnly, exec)
    }

    #[test]
    fn zone_classify_covers_all_cases() {
        let z = Zone::from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(z.classify(&ValueRange::gt(3.0)), ZoneVerdict::Empty);
        assert_eq!(z.classify(&ValueRange::ge(1.0)), ZoneVerdict::Full);
        assert_eq!(z.classify(&ValueRange::gt(1.0)), ZoneVerdict::Scan);
        assert_eq!(z.classify(&ValueRange::lt(0.0)), ZoneVerdict::Empty);
        let nanz = Zone::from_slice(&[f64::NAN, f64::NAN]);
        assert!(nanz.all_nan());
        assert_eq!(nanz.classify(&ValueRange::all()), ZoneVerdict::Empty);
        let mixed = Zone::from_slice(&[1.0, f64::NAN]);
        // The NaN row forces a scan even though [1,1] ⊆ range.
        assert_eq!(mixed.classify(&ValueRange::ge(0.0)), ZoneVerdict::Scan);
    }

    #[test]
    fn zone_maps_partition_the_column() {
        let data: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let maps = ZoneMaps::build(&data, 4);
        assert_eq!(maps.num_chunks(), 3);
        assert_eq!(maps.zone(0).min, 0.0);
        assert_eq!(maps.zone(0).max, 3.0);
        assert_eq!(maps.zone(2).len, 2);
        assert!(maps.size_in_bytes() > 0);
    }

    #[test]
    fn chunked_matches_scan_on_simple_ramp() {
        let p = ramp(1000);
        let expr = QueryExpr::Pred(Predicate::new("x", ValueRange::between(100.0, 900.0)));
        let oracle = scan::scan_query(&expr, &p).unwrap();
        for chunk_rows in [1usize, 31, 64, 1000, 5000] {
            for threads in [1usize, 2, 8] {
                let exec = ParExec::new(threads, chunk_rows);
                let got = chunked(&expr, &p, &exec).unwrap();
                assert_eq!(got.to_rows(), oracle.to_rows(), "{chunk_rows}/{threads}");
            }
        }
    }

    #[test]
    fn chunked_result_is_independent_of_threads_and_pruning() {
        let p = ramp(10_000);
        let expr = QueryExpr::pred("x", ValueRange::lt(2500.0)).or(QueryExpr::pred(
            "x",
            ValueRange::ge(7500.0),
        )
        .not());
        let unzoned = ramp(10_000).without_zones();
        let reference = chunked(&expr, &p, &ParExec::new(1, 512)).unwrap();
        for (provider, exec) in [
            (&p, ParExec::new(4, 512)),
            (&p, ParExec::new(8, 512)),
            (&unzoned, ParExec::new(4, 512)),
        ] {
            let got = chunked(&expr, provider, &exec).unwrap();
            // Same chunk size ⇒ the WAH words are bit-for-bit identical.
            assert_eq!(got, reference);
        }
    }

    #[test]
    fn pruning_counters_move() {
        let p = ramp(10_000);
        let exec = ParExec::new(2, 100);
        // Matches everything: every chunk is a full-prune.
        chunked(&QueryExpr::pred("x", ValueRange::ge(0.0)), &p, &exec).unwrap();
        // Matches nothing: every chunk is an empty-prune.
        chunked(&QueryExpr::pred("x", ValueRange::gt(1e12)), &p, &exec).unwrap();
        let s = exec.stats();
        assert_eq!(s.queries, 2);
        assert_eq!(s.chunks_pruned_full, 100);
        assert_eq!(s.chunks_pruned_empty, 100);
        assert_eq!(s.chunks_scanned, 0);
    }

    #[test]
    fn unknown_column_errors_even_in_later_operands() {
        let p = ramp(100);
        let exec = ParExec::new(2, 10);
        let expr = QueryExpr::pred("x", ValueRange::gt(1e12))
            .and(QueryExpr::pred("nope", ValueRange::gt(0.0)));
        assert!(matches!(
            chunked(&expr, &p, &exec),
            Err(FastBitError::UnknownColumn(_))
        ));
    }

    #[test]
    fn empty_dataset_yields_empty_selection() {
        let p = MemProvider::new(vec![("x", Vec::new())]);
        let expr = QueryExpr::pred("x", ValueRange::gt(0.0));
        let got = chunked(&expr, &p, &ParExec::new(4, 16)).unwrap();
        assert_eq!(got.num_rows(), 0);
        assert!(got.is_none_selected());
    }

    #[test]
    fn index_acceleration_matches_scan_byte_for_byte() {
        use crate::index::BitmapIndex;
        use histogram::Binning;

        struct IndexedProvider {
            inner: MemProvider,
            indexes: HashMap<String, BitmapIndex>,
        }
        impl ColumnProvider for IndexedProvider {
            fn num_rows(&self) -> usize {
                self.inner.num_rows()
            }
            fn column(&self, name: &str) -> Option<&[f64]> {
                self.inner.column(name)
            }
            fn index(&self, name: &str) -> Option<&BitmapIndex> {
                self.indexes.get(name)
            }
            fn zone_maps(&self, name: &str, chunk_rows: usize) -> Option<Arc<ZoneMaps>> {
                self.inner.zone_maps(name, chunk_rows)
            }
        }

        let mut x: Vec<f64> = (0..3000).map(|i| ((i * 37) % 500) as f64).collect();
        x[5] = f64::NAN;
        x[9] = f64::INFINITY;
        let index = BitmapIndex::build(&x, &Binning::EqualWidth { bins: 32 })
            .unwrap()
            .with_range_encoding()
            .unwrap();
        let p = IndexedProvider {
            inner: MemProvider::new(vec![("x", x)]),
            indexes: HashMap::from([("x".to_string(), index)]),
        };
        let expr = QueryExpr::pred("x", ValueRange::between(30.0, 470.0))
            .and(QueryExpr::pred("x", ValueRange::le(400.0)).not());
        let plain = ParExec::new(2, 97);
        let reference = chunked(&expr, &p, &plain).unwrap();
        for threads in [1usize, 4] {
            let accel = ParExec::new(threads, 97);
            let got = evaluate_with(&expr, &p, ExecStrategy::Auto, &accel).unwrap();
            // Identical WAH selection words, not merely the same rows.
            assert_eq!(got.as_wah(), reference.as_wah(), "threads {threads}");
            let stats = accel.stats();
            assert!(stats.chunks_indexed > 0, "index path actually ran");
            assert_eq!(stats.chunks_scanned, 0, "no chunk fell back to a scan");
        }
        assert_eq!(plain.stats().chunks_indexed, 0);
    }

    #[test]
    fn matches_sequential_evaluator_with_nans_and_infs() {
        let mut x: Vec<f64> = (0..500).map(|i| (i as f64) - 250.0).collect();
        x[10] = f64::NAN;
        x[490] = f64::INFINITY;
        x[491] = f64::NEG_INFINITY;
        let p = MemProvider::new(vec![("x", x)]);
        for expr in [
            QueryExpr::pred("x", ValueRange::gt(-10.0)),
            QueryExpr::pred("x", ValueRange::le(0.0)).not(),
            QueryExpr::pred("x", ValueRange::all()),
        ] {
            let oracle = evaluate_with_strategy(&expr, &p, ExecStrategy::ScanOnly).unwrap();
            let got = chunked(&expr, &p, &ParExec::new(3, 37)).unwrap();
            assert_eq!(got.to_rows(), oracle.to_rows(), "{expr}");
        }
    }
}
