//! Single-threaded equality-encoding union kernels: the bin union behind a
//! wide range on an index without cumulative bitmaps, and the dense → WAH
//! encoder it ends with.
//!
//! The column is scattered (uniform random values, 30 000 rows) under 256
//! equal-width bins — the shape whose range encoding the store's size
//! budget skips, so every range is answered from the per-bin bitmaps.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fastbit::{BitmapIndex, IndexEncoding, ValueRange, Wah};
use histogram::Binning;
use rand::{rngs::StdRng, Rng, SeedableRng};
use vdx_bench::INDEX_BINS;

const ROWS: usize = 30_000;

fn bench_index_union(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0x0B1A5);
    let data: Vec<f64> = (0..ROWS).map(|_| rng.gen_range(-100.0..100.0)).collect();
    let idx = BitmapIndex::build(&data, &Binning::EqualWidth { bins: INDEX_BINS }).unwrap();
    assert!(!idx.has_range_encoding());
    let bounds = idx.edges().boundaries();
    // `>= b[k]` covers bins k.. exactly: no partial bin, no candidate check.
    let wide = ValueRange::ge(bounds[INDEX_BINS - 240]);
    let half = ValueRange::ge(bounds[INDEX_BINS / 2]);

    let mut group = c.benchmark_group("index_union");
    for (name, range) in [("240_of_256_bins", &wide), ("128_of_256_bins", &half)] {
        group.bench_function(BenchmarkId::new("equality", name), |bench| {
            bench.iter(|| {
                idx.evaluate_index_only_with(range, IndexEncoding::Equality)
                    .expect("equality encoding is always present")
            })
        });
    }

    // The wide range's answer as the dense words the compiled engine ends
    // its register ops with.
    let (hits, _) = idx
        .evaluate_index_only_with(&wide, IndexEncoding::Equality)
        .unwrap();
    let mut dense = vec![0u64; ROWS.div_ceil(64)];
    hits.as_wah().write_dense_words(&mut dense);
    group.bench_function(BenchmarkId::new("from_dense_words", ROWS), |bench| {
        bench.iter(|| Wah::from_dense_words(&dense, ROWS as u64))
    });
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1200))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_index_union
}
criterion_main!(benches);
