//! Corruption/fuzz suite for the `vdx` segment store.
//!
//! A valid segment is mutilated every way we can think of — truncated at
//! every byte (so every section boundary included), every single byte
//! flipped, hostile lengths and counts declared *with recomputed checksums*
//! (so the structural validators are exercised, not just the CRCs), bogus
//! versions and section kinds — and every case must come back as a typed
//! [`StoreError`], never a panic, never an unbounded allocation, never
//! silently wrong data. Plus the crash-atomicity contract: leftover `.tmp`
//! files are ignored as data and swept on open.

use datastore::store::{
    crc32, decode_segment, encode_segment, Store, StoreError, HEADER_LEN, SEGMENT_VERSION,
    SEGMENT_VERSION_RANGE, TABLE_ENTRY_LEN,
};
use datastore::{Column, Dataset, ParticleTable};
use histogram::Binning;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn sample_dataset() -> Dataset {
    let mut x: Vec<f64> = (0..48).map(|i| (i as f64) * 0.5 - 12.0).collect();
    x[3] = f64::NAN;
    x[11] = f64::INFINITY;
    x[17] = f64::NEG_INFINITY;
    let px: Vec<f64> = (0..48).map(|i| ((i * 29) % 17) as f64 - 8.0).collect();
    let id: Vec<u64> = (0..48u64).map(|i| i * 5 + 2).collect();
    let table = ParticleTable::from_columns(vec![
        Column::float("x", x),
        Column::float("px", px),
        Column::id("id", id),
    ])
    .unwrap();
    let mut ds = Dataset::from_table(table, 7);
    ds.build_indexes(&Binning::EqualWidth { bins: 4 }).unwrap();
    ds.build_id_index().unwrap();
    ds
}

/// The same dataset with both index encodings, which encodes as format v2
/// (adds the kind-6 range-bitmap sections and the meta tally).
fn sample_dataset_v2() -> Dataset {
    let mut ds = sample_dataset();
    assert_eq!(ds.build_range_encodings(), 2);
    ds
}

fn segment_bytes() -> Vec<u8> {
    encode_segment(&sample_dataset())
}

fn segment_bytes_v2() -> Vec<u8> {
    let bytes = encode_segment(&sample_dataset_v2());
    assert_eq!(bytes[4], 2, "dual-encoding dataset must encode as v2");
    bytes
}

/// Parsed `(kind, offset, len)` triples from a (valid) segment's table.
fn section_table(bytes: &[u8]) -> Vec<(u32, u64, u64)> {
    let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    (0..count)
        .map(|i| {
            let at = HEADER_LEN + i * TABLE_ENTRY_LEN;
            (
                u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()),
                u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap()),
                u64::from_le_bytes(bytes[at + 12..at + 20].try_into().unwrap()),
            )
        })
        .collect()
}

/// Recompute the header CRC over the section table (after a table patch).
fn fix_table_crc(bytes: &mut [u8]) {
    let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let table = &bytes[HEADER_LEN..HEADER_LEN + count * TABLE_ENTRY_LEN];
    let crc = crc32(table).to_le_bytes();
    bytes[12..16].copy_from_slice(&crc);
}

/// Recompute section `i`'s CRC over its (patched) payload, then the table
/// CRC that covers the entry.
fn fix_section_crc(bytes: &mut [u8], i: usize) {
    let (_, offset, len) = section_table(bytes)[i];
    let payload = bytes[offset as usize..(offset + len) as usize].to_vec();
    let at = HEADER_LEN + i * TABLE_ENTRY_LEN + 20;
    let crc = crc32(&payload).to_le_bytes();
    bytes[at..at + 4].copy_from_slice(&crc);
    fix_table_crc(bytes);
}

#[test]
fn truncation_at_every_byte_is_a_typed_error() {
    for bytes in [segment_bytes(), segment_bytes_v2()] {
        // Every prefix — which necessarily includes every section boundary —
        // must fail loudly with a displayable, typed error.
        for cut in 0..bytes.len() {
            let err = decode_segment(&bytes[..cut])
                .map(|_| ())
                .expect_err(&format!("prefix of {cut} bytes must not decode"));
            assert!(!err.to_string().is_empty());
        }
        decode_segment(&bytes).expect("the untouched segment still decodes");
    }
}

#[test]
fn every_single_byte_flip_is_detected() {
    for bytes in [segment_bytes(), segment_bytes_v2()] {
        for at in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[at] ^= 0xFF;
            assert!(
                decode_segment(&corrupt).is_err(),
                "flipping byte {at} of {} must be detected",
                bytes.len()
            );
        }
    }
}

#[test]
fn random_mutations_never_panic_or_succeed_silently() {
    for bytes in [segment_bytes(), segment_bytes_v2()] {
        let mut rng = StdRng::seed_from_u64(0xDEAD);
        for round in 0..600 {
            let mut corrupt = bytes.clone();
            for _ in 0..rng.gen_range(1..16usize) {
                let at = rng.gen_range(0..corrupt.len());
                corrupt[at] = rng.gen_range(0..256usize) as u8;
            }
            // Any mutation that does not faithfully recompute the checksums
            // must be rejected (the chance of a random 32-bit CRC collision
            // across 600 rounds is negligible, and a collision would still
            // have to pass every structural validator).
            if corrupt != bytes {
                assert!(decode_segment(&corrupt).is_err(), "round {round}");
            }
        }
    }
}

#[test]
fn bogus_versions_are_rejected_by_value() {
    let bytes = segment_bytes();
    for version in [0u32, 3, 7, u32::MAX] {
        let mut patched = bytes.clone();
        patched[4..8].copy_from_slice(&version.to_le_bytes());
        match decode_segment(&patched) {
            Err(StoreError::UnsupportedVersion(v)) => assert_eq!(v, version),
            other => panic!("version {version}: expected UnsupportedVersion, got {other:?}"),
        }
    }
    assert_eq!(SEGMENT_VERSION, 1, "bump the bogus list when v3 lands");
    assert_eq!(SEGMENT_VERSION_RANGE, 2);

    // Version 2 is structurally accepted, but a v1 body relabeled v2 still
    // fails a typed check: the v2 meta requires the range-index tally that a
    // v1 meta payload does not carry.
    let mut relabeled = bytes.clone();
    relabeled[4..8].copy_from_slice(&SEGMENT_VERSION_RANGE.to_le_bytes());
    match decode_segment(&relabeled) {
        Err(StoreError::Truncated { what, .. }) => assert!(what.contains("range-index tally")),
        other => panic!("relabeled v2: expected truncated meta, got {other:?}"),
    }

    // And the converse: a genuine v2 body relabeled v1 trips over its own
    // kind-6 sections (unknown to v1) before any payload is interpreted.
    let mut downgraded = segment_bytes_v2();
    downgraded[4..8].copy_from_slice(&SEGMENT_VERSION.to_le_bytes());
    assert!(matches!(
        decode_segment(&downgraded),
        Err(StoreError::BadSectionKind(6))
    ));
}

#[test]
fn hostile_lengths_with_recomputed_checksums_hit_the_validators() {
    // Fixing up the CRCs after each patch proves rejection comes from the
    // structural validators, not just checksum mismatches — a hostile writer
    // can compute CRCs too.
    let bytes = segment_bytes();

    // Section length beyond the file (also an allocation guard: u64::MAX
    // must fail bounds checking, not try to slice or allocate).
    for hostile_len in [u64::MAX, bytes.len() as u64 + 1] {
        let mut patched = bytes.clone();
        patched[HEADER_LEN + 12..HEADER_LEN + 20].copy_from_slice(&hostile_len.to_le_bytes());
        fix_table_crc(&mut patched);
        assert!(
            matches!(
                decode_segment(&patched),
                Err(StoreError::SectionBounds { .. })
            ),
            "declared len {hostile_len}"
        );
    }

    // Section offset overlapping the header.
    let mut patched = bytes.clone();
    patched[HEADER_LEN + 4..HEADER_LEN + 12].copy_from_slice(&0u64.to_le_bytes());
    fix_table_crc(&mut patched);
    assert!(matches!(
        decode_segment(&patched),
        Err(StoreError::SectionBounds { .. })
    ));

    // Unknown section kind.
    let mut patched = bytes.clone();
    patched[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&99u32.to_le_bytes());
    fix_table_crc(&mut patched);
    assert!(matches!(
        decode_segment(&patched),
        Err(StoreError::BadSectionKind(99))
    ));

    // Two meta sections (retag a column entry as meta).
    let table = section_table(&bytes);
    let column_idx = table.iter().position(|&(kind, _, _)| kind == 2).unwrap();
    let mut patched = bytes.clone();
    let at = HEADER_LEN + column_idx * TABLE_ENTRY_LEN;
    patched[at..at + 4].copy_from_slice(&1u32.to_le_bytes());
    fix_table_crc(&mut patched);
    assert!(matches!(
        decode_segment(&patched),
        Err(StoreError::SectionCount { found: 2, .. })
    ));

    // A section count that claims more table entries than the file holds:
    // must fail before allocating space for them.
    let mut patched = bytes.clone();
    patched[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        decode_segment(&patched),
        Err(StoreError::Truncated { .. })
    ));
}

#[test]
fn hostile_payload_counts_with_recomputed_checksums_hit_the_validators() {
    let bytes = segment_bytes();
    let table = section_table(&bytes);

    // Meta row count contradicting the columns.
    let meta_idx = table.iter().position(|&(kind, _, _)| kind == 1).unwrap();
    let (_, meta_off, _) = table[meta_idx];
    let mut patched = bytes.clone();
    let rows_at = meta_off as usize + 8;
    patched[rows_at..rows_at + 8].copy_from_slice(&12_345u64.to_le_bytes());
    fix_section_crc(&mut patched, meta_idx);
    assert!(matches!(
        decode_segment(&patched),
        Err(StoreError::Corrupt(_))
    ));

    // A column declaring an absurd row count inside its payload: the
    // bounded reader must refuse before allocating the claimed rows.
    let column_idx = table.iter().position(|&(kind, _, _)| kind == 2).unwrap();
    let (_, col_off, _) = table[column_idx];
    let mut patched = bytes.clone();
    // Payload layout: name len u32 + name + dtype u8, then the row count.
    let name_len = u32::from_le_bytes(
        patched[col_off as usize..col_off as usize + 4]
            .try_into()
            .unwrap(),
    ) as usize;
    let rows_at = col_off as usize + 4 + name_len + 1;
    patched[rows_at..rows_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    fix_section_crc(&mut patched, column_idx);
    let err = decode_segment(&patched).expect_err("absurd row count");
    assert!(
        matches!(err, StoreError::Corrupt(_) | StoreError::Truncated { .. }),
        "got {err:?}"
    );

    // An index section whose unbinned rows are unsorted: the persist layer
    // must reject it (an unsorted list would panic WAH assembly later).
    let index_idx = table.iter().position(|&(kind, _, _)| kind == 3).unwrap();
    let (_, idx_off, idx_len) = table[index_idx];
    let payload = bytes[idx_off as usize..(idx_off + idx_len) as usize].to_vec();
    // The unbinned list is the payload tail: count u32, then count u32 rows.
    // The x index has 3 unbinned rows (NaN, +inf, -inf); swap the last two.
    let tail = payload.len() - 8;
    let mut patched = bytes.clone();
    let (a, b) = (idx_off as usize + tail, idx_off as usize + tail + 4);
    let row_a: [u8; 4] = patched[a..a + 4].try_into().unwrap();
    let row_b: [u8; 4] = patched[b..b + 4].try_into().unwrap();
    patched[a..a + 4].copy_from_slice(&row_b);
    patched[b..b + 4].copy_from_slice(&row_a);
    fix_section_crc(&mut patched, index_idx);
    assert!(matches!(
        decode_segment(&patched),
        Err(StoreError::Corrupt(_))
    ));
}

#[test]
fn hostile_range_sections_with_recomputed_checksums_hit_the_validators() {
    let bytes = segment_bytes_v2();
    let table = section_table(&bytes);
    let range_idx = table.iter().position(|&(kind, _, _)| kind == 6).unwrap();
    let (_, off, len) = table[range_idx];

    // Rename the section to a column that has no index: every range section
    // must attach to an existing bitmap index.
    let mut patched = bytes.clone();
    let name_len =
        u32::from_le_bytes(patched[off as usize..off as usize + 4].try_into().unwrap()) as usize;
    assert!(name_len >= 1);
    patched[off as usize + 4] = b'q'; // "x"/"px" -> no such index
    fix_section_crc(&mut patched, range_idx);
    match decode_segment(&patched) {
        Err(StoreError::Corrupt(msg)) => assert!(msg.contains("no matching bitmap index")),
        other => panic!("expected Corrupt, got {other:?}"),
    }

    // Zero out the last WAH word of the cumulative payload and recompute the
    // CRC: structurally valid words whose population tallies cannot be
    // cumulative must be rejected by the attach validator, not served.
    let mut patched = bytes.clone();
    let tail = (off + len) as usize - 4;
    let original: [u8; 4] = patched[tail..tail + 4].try_into().unwrap();
    let zero_fill = 0x8000_0001u32.to_le_bytes(); // one all-zero WAH group
    if original != zero_fill {
        patched[tail..tail + 4].copy_from_slice(&zero_fill);
        fix_section_crc(&mut patched, range_idx);
        let err = decode_segment(&patched).expect_err("broken cumulative tally");
        assert!(
            matches!(err, StoreError::Corrupt(_)),
            "expected Corrupt, got {err:?}"
        );
    }

    // A popcount-preserving bit move (rotate one literal WAH word's 31-bit
    // payload), CRCs recomputed: only the exact word-level validation in
    // `attach_range_bitmaps` can reject it — a count-only tally would have
    // silently served wrong query answers. Walk the payload structure
    // (name, bitmap count, then per-bitmap header + words) to be sure we
    // mutate a words array and nothing else.
    let read_u32 = |b: &[u8], at: usize| u32::from_le_bytes(b[at..at + 4].try_into().unwrap());
    let mut patched = bytes.clone();
    let base = off as usize;
    let name_len = read_u32(&patched, base) as usize;
    let mut at = base + 4 + name_len;
    let bitmap_count = read_u32(&patched, at);
    at += 4;
    let mut mutated = false;
    'bitmaps: for _ in 0..bitmap_count {
        at += 8; // wah bit length (u64)
        let word_count = read_u32(&patched, at) as usize;
        at += 4;
        for w in 0..word_count {
            let pos = at + w * 4;
            let v = read_u32(&patched, pos);
            // A literal (MSB clear) that stays a proper literal after a
            // 31-bit rotation and actually changes value.
            if v & 0x8000_0000 == 0 && (2..=29).contains(&v.count_ones()) {
                let rotated = ((v << 1) | (v >> 30)) & 0x7FFF_FFFF;
                if rotated != v {
                    patched[pos..pos + 4].copy_from_slice(&rotated.to_le_bytes());
                    mutated = true;
                    break 'bitmaps;
                }
            }
        }
        at += word_count * 4;
    }
    assert!(mutated, "no mutable literal word in the range payload");
    fix_section_crc(&mut patched, range_idx);
    let err = decode_segment(&patched).expect_err("popcount-preserving bit move");
    assert!(
        matches!(err, StoreError::Corrupt(_)),
        "expected Corrupt, got {err:?}"
    );
}

#[test]
fn non_canonical_range_bitmaps_with_recomputed_checksums_are_rejected() {
    // Re-encode one one-group fill word of the range payload as the
    // equivalent literal (all-zero or all-one), CRCs recomputed: the
    // section still decodes to the true cumulative bits and passes the
    // structural WAH checks, but it is not the canonical word stream, and
    // the word-exact attach check rejects it.
    let bytes = segment_bytes_v2();
    let table = section_table(&bytes);
    let range_idx = table.iter().position(|&(kind, _, _)| kind == 6).unwrap();
    let (_, off, len) = table[range_idx];
    let (start, end) = (off as usize, (off + len) as usize);
    let read_u32 = |b: &[u8], at: usize| u32::from_le_bytes(b[at..at + 4].try_into().unwrap());
    let bitmaps_at = start + 4 + read_u32(&bytes, start) as usize;

    let mut patched = bytes.clone();
    let mut at = bitmaps_at + 4;
    let mut mutated = false;
    'bitmaps: for _ in 0..read_u32(&bytes, bitmaps_at) {
        at += 8; // wah bit length (u64)
        let word_count = read_u32(&patched, at) as usize;
        at += 4;
        for w in 0..word_count {
            let pos = at + w * 4;
            let literal = match read_u32(&patched, pos) {
                0x8000_0001 => 0u32,
                0xC000_0001 => 0x7FFF_FFFF,
                _ => continue,
            };
            patched[pos..pos + 4].copy_from_slice(&literal.to_le_bytes());
            mutated = true;
            break 'bitmaps;
        }
        at += word_count * 4;
    }
    assert!(mutated, "no one-group fill word in the range payload");

    let original = fastbit::persist::decode_range_bitmaps(&bytes[bitmaps_at..end]).unwrap();
    let reencoded = fastbit::persist::decode_range_bitmaps(&patched[bitmaps_at..end])
        .expect("the re-encoding is structurally valid");
    assert_ne!(original, reencoded, "the words changed");
    for (o, r) in original.iter().zip(&reencoded) {
        assert_eq!(o.len(), r.len());
        assert!(o.iter_ones().eq(r.iter_ones()), "the bits did not change");
    }

    fix_section_crc(&mut patched, range_idx);
    match decode_segment(&patched) {
        Err(StoreError::Corrupt(msg)) => assert!(msg.contains("canonical cumulative OR"), "{msg}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn v2_segments_roundtrip_with_range_encodings_attached() {
    let bytes = segment_bytes_v2();
    let decoded = decode_segment(&bytes).expect("v2 decodes");
    use fastbit::ColumnProvider;
    for name in ["x", "px"] {
        let idx = decoded.index(name).expect("index present");
        assert!(
            idx.has_range_encoding(),
            "range encoding for '{name}' survived the roundtrip"
        );
    }
    // Queries through the reloaded dual-encoding indexes match a fresh one.
    let fresh = sample_dataset_v2();
    for query in ["x > -5 && px < 4", "x >= -12", "px <= -8 || x > 11"] {
        assert_eq!(
            decoded.query_str(query).unwrap().to_rows(),
            fresh.query_str(query).unwrap().to_rows(),
            "{query}"
        );
    }
}

#[test]
fn store_level_corruption_is_typed_and_self_contained() {
    let dir = std::env::temp_dir().join(format!("vdx_corrupt_store_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = Store::open(&dir).unwrap();
    let ds = sample_dataset();
    store.save(&ds).unwrap();
    let path = store.segment_path(7);

    // Truncate the on-disk file at a few strides (including 0) and at the
    // exact header/table boundaries.
    let bytes = std::fs::read(&path).unwrap();
    let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let mut cuts = vec![0usize, 3, HEADER_LEN, HEADER_LEN + count * TABLE_ENTRY_LEN];
    cuts.extend((0..bytes.len()).step_by(293));
    for cut in cuts {
        std::fs::write(&path, &bytes[..cut.min(bytes.len())]).unwrap();
        if cut < bytes.len() {
            let err = store.load(7).expect_err(&format!("cut at {cut}"));
            assert!(!err.to_string().is_empty());
        }
    }
    std::fs::write(&path, &bytes).unwrap();
    assert!(
        store.load(7).unwrap().is_some(),
        "restored file loads again"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn leftover_tmp_files_are_ignored_and_cleaned() {
    let dir = std::env::temp_dir().join(format!("vdx_tmp_sweep_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = Store::open(&dir).unwrap();
    let ds = sample_dataset();
    store.save(&ds).unwrap();

    // A crashed writer's torn temp files: one garbage, one holding a fully
    // valid segment that simply never got renamed into place.
    let torn = dir.join("segment_00009.4242.0.tmp");
    std::fs::write(&torn, b"half a segm").unwrap();
    let unrenamed = dir.join("segment_00009.4242.1.tmp");
    std::fs::write(&unrenamed, encode_segment(&ds)).unwrap();

    let reopened = Store::open(&dir).unwrap();
    assert!(!torn.exists(), "garbage tmp swept");
    assert!(!unrenamed.exists(), "valid-but-unrenamed tmp swept too");
    assert!(
        reopened.load(9).unwrap().is_none(),
        "tmp content is never served as a segment"
    );
    assert!(
        reopened.load(7).unwrap().is_some(),
        "the properly renamed segment is untouched"
    );
    std::fs::remove_dir_all(&dir).ok();
}
