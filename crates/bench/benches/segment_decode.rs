//! Single-threaded segment-load kernels: the CRC-32 every section passes
//! through, a whole `decode_segment` of a format-v2 segment, and the
//! cumulative-bitmap check `attach_range_bitmaps` runs on each range
//! section.
//!
//! The segment is the one the store writes back for a 16 000-particle
//! timestep: 256-bin equality indexes, range encodings under the store's
//! size budget, and the identifier index.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datastore::store::{crc32, decode_segment, encode_segment, STORE_RANGE_ENCODING_MAX_RATIO};
use datastore::Dataset;
use histogram::Binning;
use lwfa::{SimConfig, Simulation};
use vdx_bench::INDEX_BINS;

/// One late timestep of the scaling simulation, prepared as the store's
/// write-back path prepares it.
fn store_dataset(particles: usize) -> Dataset {
    let config = SimConfig::scaling(particles, 8);
    let step = config.num_timesteps - 1;
    let (tables, _) = Simulation::new(config).run_to_tables();
    let table = tables.into_iter().last().expect("at least one timestep");
    let mut dataset = Dataset::from_table(table, step);
    dataset
        .build_indexes(&Binning::EqualWidth { bins: INDEX_BINS })
        .expect("index construction");
    dataset.build_range_encodings_budgeted(STORE_RANGE_ENCODING_MAX_RATIO);
    dataset.build_id_index().expect("id index construction");
    dataset
}

fn bench_segment_decode(c: &mut Criterion) {
    let buffer: Vec<u8> = (0..2u32 << 20)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect();
    let dataset = store_dataset(16_000);
    let segment = encode_segment(&dataset);
    assert_eq!(segment[4], 2, "the bench segment must be format v2");
    // Each index with a range encoding, paired with its cumulative bitmaps.
    let range_indexes: Vec<_> = dataset
        .index_entries()
        .into_iter()
        .filter_map(|(_, idx)| Some((idx.clone(), idx.range_bitmaps()?.to_vec())))
        .collect();
    assert!(
        !range_indexes.is_empty(),
        "no column qualified for range encoding"
    );

    let mut group = c.benchmark_group("segment_decode");
    group.bench_function(BenchmarkId::new("crc32", "2MiB"), |bench| {
        bench.iter(|| crc32(&buffer))
    });
    group.bench_function(
        BenchmarkId::new("decode_segment", format!("{}B", segment.len())),
        |bench| bench.iter(|| decode_segment(&segment).expect("valid segment")),
    );
    // Includes cloning the cumulative bitmaps the attach takes ownership of.
    group.bench_function(
        BenchmarkId::new(
            "attach_range_bitmaps",
            format!("{}idx", range_indexes.len()),
        ),
        |bench| {
            let mut indexes = range_indexes.clone();
            bench.iter(|| {
                for (idx, cumulative) in &mut indexes {
                    idx.attach_range_bitmaps(cumulative.clone())
                        .expect("canonical cumulative bitmaps");
                }
            })
        },
    );
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
    targets = bench_segment_decode
}
criterion_main!(benches);
