//! The `vdx` store: checksummed, versioned persistence for whole datasets.
//!
//! The paper's FastBit indexes are *built once and reused* across
//! exploration sessions; the store is the layer that makes our in-memory
//! [`Dataset`]s (columns, bitmap indexes, identifier index, zone maps)
//! survive a process restart, so a warm `vdx-server` start never re-ingests
//! raw data or rebuilds a single index.
//!
//! # Segment layout (formats v1 and v2, all integers little-endian)
//!
//! ```text
//! offset  size  field
//!      0     4  magic  "VDXS"
//!      4     4  format version (u32, 1 or 2)
//!      8     4  section count (u32)
//!     12     4  CRC-32 of the section table bytes
//!     16  24*n  section table: { kind u32 | offset u64 | len u64 | crc u32 }
//!   ....        section payloads (each at its declared offset/len)
//! ```
//!
//! Section kinds: `1` meta (step, row count, section tallies), `2` column
//! (name, dtype, raw values), `3` bitmap index (name + `fastbit::persist`
//! encoding), `4` identifier index, `5` zone maps (name + chunk size), and —
//! format v2 only — `6` range-encoded (cumulative) bitmaps of one index
//! (name + `fastbit::persist::encode_range_bitmaps` encoding). A v2 meta
//! payload appends a `u32` tally of the range-index sections; everything
//! else is byte-identical to v1. The writer emits v2 **only when** a dataset
//! actually carries range encodings, so datasets without them keep producing
//! v1 segments bit-for-bit (the golden v1 fixture pins this), and the reader
//! accepts both versions.
//!
//! Every payload carries its own CRC-32 in the table, and the table itself
//! is covered by the header CRC, so *any* single-byte corruption anywhere in
//! a segment is detected before a `Dataset` is constructed. [`crc32`] is the
//! standard IEEE CRC-32, computed slicing-by-16 (std-only, no `unsafe`); the
//! values, and so the format, are those of the bytewise algorithm. Range
//! sections are then checked word for word against the canonical
//! cumulative OR of the equality bitmaps, streamed through
//! [`fastbit::Wah::is_or_of`] without materialising the OR.
//!
//! Writes go to a uniquely named `<segment>.<n>.tmp` file first and are
//! renamed into place, so a crash mid-write can never leave a truncated
//! segment under the real name; leftover temp files are swept on
//! [`Store::open`]. Reads validate before constructing: hostile bytes
//! produce a typed [`StoreError`], never a panic or an unbounded
//! allocation.

use std::fmt;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fastbit::persist::{
    self, encode_id_index, encode_index, encode_zone_maps, put_str, put_u32, put_u64, PersistError,
    Reader,
};
use histogram::Binning;

use crate::column::{Column, ColumnData};
use crate::dataset::Dataset;
use crate::table::ParticleTable;

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: &[u8; 4] = b"VDXS";
/// Baseline segment format version, written for datasets without
/// range-encoded bitmaps. Byte-for-byte stable (golden-fixture pinned).
pub const SEGMENT_VERSION: u32 = 1;
/// Segment format version written when any index carries the range
/// (cumulative) encoding: adds section kind 6 and a range-section tally in
/// the meta payload, and is otherwise identical to v1. The reader accepts
/// both versions.
pub const SEGMENT_VERSION_RANGE: u32 = 2;
/// Fixed header length: magic + version + section count + table CRC.
pub const HEADER_LEN: usize = 16;
/// Bytes per section-table entry: kind + offset + len + crc.
pub const TABLE_ENTRY_LEN: usize = 24;

const KIND_META: u32 = 1;
const KIND_COLUMN: u32 = 2;
const KIND_INDEX: u32 = 3;
const KIND_ID_INDEX: u32 = 4;
const KIND_ZONE_MAPS: u32 = 5;
/// Format v2 only: one index's cumulative (range-encoded) bitmaps.
const KIND_RANGE_INDEX: u32 = 6;

const DTYPE_FLOAT: u8 = 0;
const DTYPE_ID: u8 = 1;

// ---------------------------------------------------------------------------
// CRC-32
// ---------------------------------------------------------------------------

/// Slicing-by-16 lookup tables for the reflected IEEE polynomial:
/// `table[0]` is the classic bytewise table, and `table[k][b]` is the CRC
/// contribution of byte `b` followed by `k` zero bytes.
const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 16] = crc32_tables();

/// CRC-32 (IEEE 802.3 polynomial) of `bytes`.
///
/// Slicing-by-16: each 16-byte block costs sixteen table lookups combined
/// by XOR instead of sixteen dependent bytewise steps; the tail of fewer
/// than 16 bytes runs bytewise. The value is the standard IEEE CRC-32.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        let word =
            |i: usize| u32::from_le_bytes([block[i], block[i + 1], block[i + 2], block[i + 3]]);
        let (w0, w1, w2, w3) = (word(0) ^ crc, word(4), word(8), word(12));
        let lane = |w: u32, k: usize| {
            t[k][(w & 0xFF) as usize]
                ^ t[k - 1][((w >> 8) & 0xFF) as usize]
                ^ t[k - 2][((w >> 16) & 0xFF) as usize]
                ^ t[k - 3][(w >> 24) as usize]
        };
        crc = lane(w0, 15) ^ lane(w1, 11) ^ lane(w2, 7) ^ lane(w3, 3);
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// A typed store failure. Corrupt or hostile segment bytes always map to one
/// of these — never a panic, never an unbounded allocation.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying file I/O failure.
    Io(io::Error),
    /// The file does not start with the segment magic.
    BadMagic([u8; 4]),
    /// The file declares a format version this reader does not understand.
    UnsupportedVersion(u32),
    /// The file ended before a declared structure was complete.
    Truncated {
        /// What was being read.
        what: &'static str,
        /// Bytes the structure needed.
        needed: u64,
        /// Bytes actually available.
        available: u64,
    },
    /// A section's declared `[offset, offset+len)` does not lie within the
    /// file (or overlaps the header).
    SectionBounds {
        /// Declared section kind.
        kind: u32,
        /// Declared payload offset.
        offset: u64,
        /// Declared payload length.
        len: u64,
        /// Actual file length.
        file_len: u64,
    },
    /// A checksum did not match: the named region was corrupted on disk.
    ChecksumMismatch {
        /// Which region failed ("section table" or a section kind name).
        region: &'static str,
        /// Checksum recorded in the file.
        expected: u32,
        /// Checksum of the bytes actually present.
        found: u32,
    },
    /// The section table names a kind this version does not define.
    BadSectionKind(u32),
    /// A required section is missing or appears more than once.
    SectionCount {
        /// Section kind name.
        section: &'static str,
        /// How many were found.
        found: usize,
        /// How many are allowed/required.
        expected: usize,
    },
    /// A payload decoded structurally but contradicts the segment's own
    /// metadata (row-count mismatches, tally mismatches, duplicate names).
    Corrupt(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::BadMagic(m) => write!(f, "bad magic {m:?}, not a vdx segment"),
            StoreError::UnsupportedVersion(v) => write!(f, "unsupported segment version {v}"),
            StoreError::Truncated {
                what,
                needed,
                available,
            } => write!(
                f,
                "truncated {what}: needed {needed} byte(s), only {available} available"
            ),
            StoreError::SectionBounds {
                kind,
                offset,
                len,
                file_len,
            } => write!(
                f,
                "section kind {kind} declares [{offset}, {offset}+{len}) outside the {file_len}-byte file"
            ),
            StoreError::ChecksumMismatch {
                region,
                expected,
                found,
            } => write!(
                f,
                "checksum mismatch in {region}: file says {expected:#010x}, bytes hash to {found:#010x}"
            ),
            StoreError::BadSectionKind(k) => write!(f, "unknown section kind {k}"),
            StoreError::SectionCount {
                section,
                found,
                expected,
            } => write!(f, "expected {expected} {section} section(s), found {found}"),
            StoreError::Corrupt(msg) => write!(f, "corrupt segment: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<PersistError> for StoreError {
    fn from(e: PersistError) -> Self {
        match e {
            PersistError::Truncated {
                what,
                needed,
                available,
            } => StoreError::Truncated {
                what,
                needed,
                available,
            },
            other => StoreError::Corrupt(other.to_string()),
        }
    }
}

/// Result alias for store operations.
pub type StoreResult<T> = std::result::Result<T, StoreError>;

// ---------------------------------------------------------------------------
// Segment encoding
// ---------------------------------------------------------------------------

/// Chunk size the store persists zone maps at. Deliberately an independent
/// format constant — it matches the chunked engine's current default (so
/// warm-started servers prune without a build scan), but retuning
/// `fastbit::par::DEFAULT_CHUNK_ROWS` must not change the bytes the writer
/// emits for format v1 (the golden-file test pins them).
pub const STORE_ZONE_CHUNK_ROWS: usize = 4096;

/// Materialization budget for the range (cumulative) encoding on the store
/// write-back path: an index keeps its cumulative bitmaps only when their
/// total compressed size is at most this many times the equality bitmaps'.
/// Clustered / low-cardinality columns compress near 1:1 and qualify;
/// scattered high-entropy columns (whose mid-range cumulative bitmaps are
/// literal-dense, approaching `bins × rows / 31` words) do not — for those,
/// persisting the encoding would multiply segment size and warm-restart
/// time for a win that only applies to wide ranges. This is a policy
/// constant, not a format constant: changing it changes *which* sections a
/// segment carries, never how any section is laid out.
pub const STORE_RANGE_ENCODING_MAX_RATIO: f64 = 2.0;

fn meta_payload(
    dataset: &Dataset,
    tallies: (u32, u32, u32, bool),
    range_tally: Option<u32>,
) -> Vec<u8> {
    let (columns, indexes, zone_maps, has_id_index) = tallies;
    let mut out = Vec::with_capacity(36);
    put_u64(&mut out, dataset.step() as u64);
    put_u64(&mut out, dataset.num_particles() as u64);
    put_u32(&mut out, columns);
    put_u32(&mut out, indexes);
    put_u32(&mut out, zone_maps);
    out.push(has_id_index as u8);
    // Format v2 appends the range-index section tally; v1 metas stop here so
    // v1 bytes stay pinned.
    if let Some(range) = range_tally {
        put_u32(&mut out, range);
    }
    out
}

fn column_payload(column: &Column) -> Vec<u8> {
    let mut out = Vec::with_capacity(column.name.len() + 16 + column.data.byte_len());
    put_str(&mut out, &column.name);
    match &column.data {
        ColumnData::Float(values) => {
            out.push(DTYPE_FLOAT);
            put_u64(&mut out, values.len() as u64);
            for v in values {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        ColumnData::Id(values) => {
            out.push(DTYPE_ID);
            put_u64(&mut out, values.len() as u64);
            for v in values {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
    out
}

/// Serialize a dataset into segment bytes. Sections are emitted in a fixed,
/// deterministic order (meta, columns in table order, indexes by name, range
/// bitmaps by name, the identifier index, zone maps in table order), so
/// identical datasets always produce identical bytes — the property the
/// golden-file tests pin. The format version is v1 unless some index carries
/// the range encoding, in which case v2 is written (extra meta tally plus
/// one kind-6 section per range-encoded index).
pub fn encode_segment(dataset: &Dataset) -> Vec<u8> {
    use fastbit::persist::encode_range_bitmaps;
    use fastbit::ColumnProvider;

    let table = dataset.table();
    let index_entries = dataset.index_entries();
    let float_columns: Vec<&Column> = table
        .columns()
        .iter()
        .filter(|c| c.data.as_float().is_some())
        .collect();
    let range_entries: Vec<(&str, &[fastbit::Wah])> = index_entries
        .iter()
        .filter_map(|(name, idx)| idx.range_bitmaps().map(|c| (*name, c)))
        .collect();
    let version = if range_entries.is_empty() {
        SEGMENT_VERSION
    } else {
        SEGMENT_VERSION_RANGE
    };

    let mut sections: Vec<(u32, Vec<u8>)> = Vec::new();
    sections.push((
        KIND_META,
        meta_payload(
            dataset,
            (
                table.num_columns() as u32,
                index_entries.len() as u32,
                float_columns.len() as u32,
                dataset.id_index().is_some(),
            ),
            (version == SEGMENT_VERSION_RANGE).then_some(range_entries.len() as u32),
        ),
    ));
    for column in table.columns() {
        sections.push((KIND_COLUMN, column_payload(column)));
    }
    for (name, idx) in &index_entries {
        let mut payload = Vec::new();
        put_str(&mut payload, name);
        encode_index(idx, &mut payload);
        sections.push((KIND_INDEX, payload));
    }
    for (name, cumulative) in &range_entries {
        let mut payload = Vec::new();
        put_str(&mut payload, name);
        encode_range_bitmaps(cumulative, &mut payload);
        sections.push((KIND_RANGE_INDEX, payload));
    }
    if let Some(id_index) = dataset.id_index() {
        let mut payload = Vec::new();
        encode_id_index(id_index, &mut payload);
        sections.push((KIND_ID_INDEX, payload));
    }
    for column in &float_columns {
        // Built through the dataset's cache, so a save after queries reuses
        // the maps those queries already built (and vice versa on load).
        if let Some(maps) = dataset.zone_maps(&column.name, STORE_ZONE_CHUNK_ROWS) {
            let mut payload = Vec::new();
            put_str(&mut payload, &column.name);
            encode_zone_maps(&maps, &mut payload);
            sections.push((KIND_ZONE_MAPS, payload));
        }
    }

    let table_len = sections.len() * TABLE_ENTRY_LEN;
    let mut section_table = Vec::with_capacity(table_len);
    let mut offset = (HEADER_LEN + table_len) as u64;
    for (kind, payload) in &sections {
        put_u32(&mut section_table, *kind);
        put_u64(&mut section_table, offset);
        put_u64(&mut section_table, payload.len() as u64);
        put_u32(&mut section_table, crc32(payload));
        offset += payload.len() as u64;
    }

    let mut out = Vec::with_capacity(offset as usize);
    out.extend_from_slice(SEGMENT_MAGIC);
    put_u32(&mut out, version);
    put_u32(&mut out, sections.len() as u32);
    put_u32(&mut out, crc32(&section_table));
    out.extend_from_slice(&section_table);
    for (_, payload) in &sections {
        out.extend_from_slice(payload);
    }
    out
}

// ---------------------------------------------------------------------------
// Segment decoding
// ---------------------------------------------------------------------------

struct SectionEntry {
    kind: u32,
    offset: u64,
    len: u64,
    crc: u32,
}

fn kind_name(kind: u32) -> &'static str {
    match kind {
        KIND_META => "meta",
        KIND_COLUMN => "column",
        KIND_INDEX => "index",
        KIND_ID_INDEX => "id index",
        KIND_ZONE_MAPS => "zone maps",
        KIND_RANGE_INDEX => "range index",
        _ => "unknown",
    }
}

fn decode_column(payload: &[u8], expected_rows: u64) -> StoreResult<Column> {
    let mut r = Reader::new(payload);
    let name = r.str("column name")?;
    let dtype = r.u8("column dtype")?;
    let rows = r.u64("column row count")?;
    if rows != expected_rows {
        return Err(StoreError::Corrupt(format!(
            "column '{name}' declares {rows} row(s), segment meta says {expected_rows}"
        )));
    }
    let rows = r.check_count(rows, 8, "column values")?;
    let raw = r.take(rows * 8, "column values")?;
    let data = match dtype {
        DTYPE_FLOAT => ColumnData::Float(
            raw.chunks_exact(8)
                .map(|b| f64::from_le_bytes(b.try_into().expect("8-byte chunk")))
                .collect(),
        ),
        DTYPE_ID => ColumnData::Id(
            raw.chunks_exact(8)
                .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte chunk")))
                .collect(),
        ),
        other => {
            return Err(StoreError::Corrupt(format!(
                "column '{name}' has unknown dtype tag {other}"
            )))
        }
    };
    r.expect_end("column")?;
    Ok(Column { name, data })
}

/// Parse and validate segment bytes into a [`Dataset`]. Every check —
/// magic, version, section-table CRC, per-section bounds and CRCs, payload
/// structure, cross-section consistency — happens before construction.
pub fn decode_segment(bytes: &[u8]) -> StoreResult<Dataset> {
    if bytes.len() < HEADER_LEN {
        return Err(StoreError::Truncated {
            what: "segment header",
            needed: HEADER_LEN as u64,
            available: bytes.len() as u64,
        });
    }
    let magic: [u8; 4] = bytes[0..4].try_into().expect("4 bytes");
    if &magic != SEGMENT_MAGIC {
        return Err(StoreError::BadMagic(magic));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != SEGMENT_VERSION && version != SEGMENT_VERSION_RANGE {
        return Err(StoreError::UnsupportedVersion(version));
    }
    let has_range_sections = version == SEGMENT_VERSION_RANGE;
    let section_count = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
    let table_crc = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
    let table_len = section_count
        .checked_mul(TABLE_ENTRY_LEN)
        .ok_or(StoreError::Truncated {
            what: "section table",
            needed: u64::MAX,
            available: (bytes.len() - HEADER_LEN) as u64,
        })?;
    if bytes.len() - HEADER_LEN < table_len {
        return Err(StoreError::Truncated {
            what: "section table",
            needed: table_len as u64,
            available: (bytes.len() - HEADER_LEN) as u64,
        });
    }
    let table_bytes = &bytes[HEADER_LEN..HEADER_LEN + table_len];
    let found = crc32(table_bytes);
    if found != table_crc {
        return Err(StoreError::ChecksumMismatch {
            region: "section table",
            expected: table_crc,
            found,
        });
    }

    let payload_start = (HEADER_LEN + table_len) as u64;
    let file_len = bytes.len() as u64;
    let mut entries = Vec::with_capacity(section_count);
    for chunk in table_bytes.chunks_exact(TABLE_ENTRY_LEN) {
        let entry = SectionEntry {
            kind: u32::from_le_bytes(chunk[0..4].try_into().expect("4 bytes")),
            offset: u64::from_le_bytes(chunk[4..12].try_into().expect("8 bytes")),
            len: u64::from_le_bytes(chunk[12..20].try_into().expect("8 bytes")),
            crc: u32::from_le_bytes(chunk[20..24].try_into().expect("4 bytes")),
        };
        let end = entry.offset.checked_add(entry.len);
        if entry.offset < payload_start || end.is_none() || end.expect("checked") > file_len {
            return Err(StoreError::SectionBounds {
                kind: entry.kind,
                offset: entry.offset,
                len: entry.len,
                file_len,
            });
        }
        let kind_ok = matches!(
            entry.kind,
            KIND_META | KIND_COLUMN | KIND_INDEX | KIND_ID_INDEX | KIND_ZONE_MAPS
        ) || (entry.kind == KIND_RANGE_INDEX && has_range_sections);
        if !kind_ok {
            return Err(StoreError::BadSectionKind(entry.kind));
        }
        entries.push(entry);
    }

    let payload_of = |e: &SectionEntry| -> StoreResult<&[u8]> {
        let payload = &bytes[e.offset as usize..(e.offset + e.len) as usize];
        let found = crc32(payload);
        if found != e.crc {
            return Err(StoreError::ChecksumMismatch {
                region: kind_name(e.kind),
                expected: e.crc,
                found,
            });
        }
        Ok(payload)
    };

    // Meta first: exactly one, and it anchors every cross-check.
    let metas: Vec<&SectionEntry> = entries.iter().filter(|e| e.kind == KIND_META).collect();
    if metas.len() != 1 {
        return Err(StoreError::SectionCount {
            section: "meta",
            found: metas.len(),
            expected: 1,
        });
    }
    let meta = payload_of(metas[0])?;
    let mut r = Reader::new(meta);
    let step = r.u64("meta step")?;
    let num_rows = r.u64("meta row count")?;
    let column_tally = r.u32("meta column tally")?;
    let index_tally = r.u32("meta index tally")?;
    let zone_tally = r.u32("meta zone-map tally")?;
    let has_id_index = match r.u8("meta id-index flag")? {
        0 => false,
        1 => true,
        other => {
            return Err(StoreError::Corrupt(format!(
                "meta id-index flag must be 0 or 1, found {other}"
            )))
        }
    };
    let range_tally = if has_range_sections {
        r.u32("meta range-index tally")?
    } else {
        0
    };
    r.expect_end("meta")?;

    let mut columns = Vec::new();
    let mut indexes: Vec<(String, fastbit::BitmapIndex)> = Vec::new();
    let mut id_index = None;
    let mut zone_maps: Vec<(String, fastbit::ZoneMaps)> = Vec::new();
    let mut range_sections: Vec<(String, Vec<fastbit::Wah>)> = Vec::new();
    for entry in &entries {
        match entry.kind {
            KIND_META => {}
            KIND_COLUMN => columns.push(decode_column(payload_of(entry)?, num_rows)?),
            KIND_INDEX => {
                let mut r = Reader::new(payload_of(entry)?);
                let name = r.str("index name")?;
                let idx = persist::read_index(&mut r)?;
                r.expect_end("index")?;
                if idx.num_rows() as u64 != num_rows {
                    return Err(StoreError::Corrupt(format!(
                        "index '{name}' covers {} row(s), segment meta says {num_rows}",
                        idx.num_rows()
                    )));
                }
                if indexes.iter().any(|(n, _)| *n == name) {
                    return Err(StoreError::Corrupt(format!("duplicate index '{name}'")));
                }
                indexes.push((name, idx));
            }
            KIND_ID_INDEX => {
                let mut r = Reader::new(payload_of(entry)?);
                let idx = persist::read_id_index(&mut r)?;
                r.expect_end("id index")?;
                if idx.num_rows() as u64 != num_rows {
                    return Err(StoreError::Corrupt(format!(
                        "id index covers {} row(s), segment meta says {num_rows}",
                        idx.num_rows()
                    )));
                }
                if id_index.replace(idx).is_some() {
                    return Err(StoreError::SectionCount {
                        section: "id index",
                        found: 2,
                        expected: 1,
                    });
                }
            }
            KIND_ZONE_MAPS => {
                let mut r = Reader::new(payload_of(entry)?);
                let name = r.str("zone map name")?;
                let maps = persist::read_zone_maps(&mut r)?;
                r.expect_end("zone maps")?;
                if maps.num_rows() as u64 != num_rows {
                    return Err(StoreError::Corrupt(format!(
                        "zone maps '{name}' cover {} row(s), segment meta says {num_rows}",
                        maps.num_rows()
                    )));
                }
                zone_maps.push((name, maps));
            }
            KIND_RANGE_INDEX => {
                let mut r = Reader::new(payload_of(entry)?);
                let name = r.str("range index name")?;
                let cumulative = persist::read_range_bitmaps(&mut r)?;
                r.expect_end("range index")?;
                if range_sections.iter().any(|(n, _)| *n == name) {
                    return Err(StoreError::Corrupt(format!(
                        "duplicate range index '{name}'"
                    )));
                }
                range_sections.push((name, cumulative));
            }
            other => return Err(StoreError::BadSectionKind(other)),
        }
    }

    if columns.len() as u32 != column_tally
        || indexes.len() as u32 != index_tally
        || zone_maps.len() as u32 != zone_tally
        || range_sections.len() as u32 != range_tally
        || id_index.is_some() != has_id_index
    {
        return Err(StoreError::Corrupt(format!(
            "section tallies disagree with meta: {} column(s) (meta {column_tally}), \
             {} index(es) (meta {index_tally}), {} zone map(s) (meta {zone_tally}), \
             {} range index(es) (meta {range_tally}), id index {} (meta {})",
            columns.len(),
            indexes.len(),
            zone_maps.len(),
            range_sections.len(),
            id_index.is_some(),
            has_id_index
        )));
    }

    // Attach the cumulative bitmaps to their owning indexes; the attach
    // validates lengths, counts and the cumulative population tallies, so a
    // structurally valid but semantically impossible section is rejected
    // here rather than corrupting query answers later.
    for (name, cumulative) in range_sections {
        let Some((_, idx)) = indexes.iter_mut().find(|(n, _)| *n == name) else {
            return Err(StoreError::Corrupt(format!(
                "range index '{name}' has no matching bitmap index"
            )));
        };
        idx.attach_range_bitmaps(cumulative).map_err(|e| {
            StoreError::Corrupt(format!("range index '{name}' is inconsistent: {e}"))
        })?;
    }

    let table = ParticleTable::from_columns(columns)
        .map_err(|e| StoreError::Corrupt(format!("column set does not form a table: {e}")))?;
    if table.num_rows() as u64 != num_rows {
        return Err(StoreError::Corrupt(format!(
            "table holds {} row(s), segment meta says {num_rows}",
            table.num_rows()
        )));
    }
    for (name, _) in &indexes {
        if table.column(name).and_then(|c| c.data.as_float()).is_none() {
            return Err(StoreError::Corrupt(format!(
                "index '{name}' has no matching float column"
            )));
        }
    }
    let mut dataset = Dataset::from_table(table, step as usize);
    dataset.attach_indexes(indexes);
    if let Some(idx) = id_index {
        dataset.attach_id_index(idx);
    }
    for (name, maps) in zone_maps {
        dataset.attach_zone_maps(name, Arc::new(maps));
    }
    Ok(dataset)
}

// ---------------------------------------------------------------------------
// The store directory
// ---------------------------------------------------------------------------

/// Point-in-time snapshot of store effectiveness counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Loads answered from a valid segment file.
    pub hits: u64,
    /// Loads that found no (valid) segment and fell back to raw ingestion.
    pub misses: u64,
    /// Total segment bytes written over the store's lifetime.
    pub bytes_written: u64,
    /// Bitmap indexes built because a cold load found none to reuse —
    /// exactly zero across a fully warm restart.
    pub indexes_built: u64,
}

/// A directory of per-timestep segment files (`segment_*.vdx`).
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    binning: Binning,
    tmp_seq: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    bytes_written: AtomicU64,
    indexes_built: AtomicU64,
}

impl Store {
    /// Open (creating if needed) a store directory, sweeping any `*.tmp`
    /// files a crashed writer left behind — temp files are never read, so a
    /// torn write can only ever cost a re-save, never a corrupt load.
    pub fn open(dir: impl Into<PathBuf>) -> StoreResult<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        for item in std::fs::read_dir(&dir)? {
            let path = item?.path();
            if path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(".tmp"))
            {
                std::fs::remove_file(&path).ok();
            }
        }
        Ok(Self {
            dir,
            binning: Binning::EqualWidth { bins: 256 },
            tmp_seq: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            indexes_built: AtomicU64::new(0),
        })
    }

    /// Binning used when a cold load has to build indexes before write-back.
    pub fn with_binning(mut self, binning: Binning) -> Self {
        self.binning = binning;
        self
    }

    /// The index-build binning strategy.
    pub fn binning(&self) -> &Binning {
        &self.binning
    }

    /// Directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the segment file for `step`.
    pub fn segment_path(&self, step: usize) -> PathBuf {
        self.dir.join(format!("segment_{step:05}.vdx"))
    }

    /// Whether a segment file exists for `step` (without validating it).
    pub fn contains(&self, step: usize) -> bool {
        self.segment_path(step).exists()
    }

    /// Persist a dataset as the segment for its step. The bytes are written
    /// to a uniquely named temp file and renamed into place, so concurrent
    /// saves and crashes can never tear the visible segment. Returns the
    /// number of bytes written.
    pub fn save(&self, dataset: &Dataset) -> StoreResult<u64> {
        let bytes = encode_segment(dataset);
        let final_path = self.segment_path(dataset.step());
        let seq = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let tmp_path = self.dir.join(format!(
            "segment_{:05}.{}.{seq}.tmp",
            dataset.step(),
            std::process::id()
        ));
        let mut file = std::fs::File::create(&tmp_path)?;
        let write = file.write_all(&bytes).and_then(|()| file.flush());
        drop(file);
        if let Err(e) = write.and_then(|()| std::fs::rename(&tmp_path, &final_path)) {
            std::fs::remove_file(&tmp_path).ok();
            return Err(e.into());
        }
        self.bytes_written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(bytes.len() as u64)
    }

    /// Load the segment for `step`, if one exists. `Ok(None)` (a miss) when
    /// no segment file is present; a typed [`StoreError`] when a file exists
    /// but fails any validation check.
    pub fn load(&self, step: usize) -> StoreResult<Option<Dataset>> {
        let path = self.segment_path(step);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return Ok(None);
            }
            Err(e) => return Err(e.into()),
        };
        match decode_segment(&bytes) {
            // A segment whose recorded step disagrees with its file name
            // (a misplaced backup/restore) is corrupt for this slot: serving
            // it would silently answer step `step` with another step's data.
            Ok(dataset) if dataset.step() != step => Err(StoreError::Corrupt(format!(
                "segment for step {step} holds step {}",
                dataset.step()
            ))),
            Ok(dataset) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Ok(Some(dataset))
            }
            Err(e) => Err(e),
        }
    }

    /// Drop the segment for `step`, if any — called when the underlying raw
    /// timestep is rewritten, so the store can never serve stale data.
    pub fn invalidate(&self, step: usize) {
        std::fs::remove_file(self.segment_path(step)).ok();
    }

    /// Record `n` indexes built by a cold load on the way to write-back.
    pub fn note_indexes_built(&self, n: u64) {
        self.indexes_built.fetch_add(n, Ordering::Relaxed);
    }

    /// Record a load that had to fall back to raw ingestion.
    pub fn note_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Effectiveness counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            indexes_built: self.indexes_built.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histogram::Binning;

    fn sample_dataset(n: usize, step: usize) -> Dataset {
        let mut x: Vec<f64> = (0..n).map(|i| (i as f64) * 0.25 - 10.0).collect();
        if n > 8 {
            x[2] = f64::NAN;
            x[5] = f64::INFINITY;
            x[7] = f64::NEG_INFINITY;
        }
        let px: Vec<f64> = (0..n).map(|i| ((i * 37) % 101) as f64).collect();
        let id: Vec<u64> = (0..n as u64).map(|i| i * 3 + 1).collect();
        let table = ParticleTable::from_columns(vec![
            Column::float("x", x),
            Column::float("px", px),
            Column::id("id", id),
        ])
        .unwrap();
        let mut ds = Dataset::from_table(table, step);
        ds.build_indexes(&Binning::EqualWidth { bins: 8 }).unwrap();
        ds.build_id_index().unwrap();
        ds
    }

    fn temp_store(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vdx_store_unit_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// Bit-at-a-time CRC-32 straight from the polynomial definition.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn crc32_equals_bitwise_reference_at_every_length_and_offset() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xC0C3_2016);
        let buf: Vec<u8> = (0..316).map(|_| rng.gen_range(0..256u32) as u8).collect();
        for start in 0..16 {
            for len in 0..=300 {
                let slice = &buf[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bitwise(slice),
                    "start {start} len {len}"
                );
            }
        }
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn segment_roundtrip_preserves_everything() {
        let ds = sample_dataset(64, 9);
        let bytes = encode_segment(&ds);
        let back = decode_segment(&bytes).unwrap();
        assert_eq!(back.step(), 9);
        assert_eq!(back.num_particles(), 64);
        assert_eq!(back.indexed_columns(), ds.indexed_columns());
        assert_eq!(
            back.table().id_column("id").unwrap(),
            ds.table().id_column("id").unwrap()
        );
        // Float columns bit-exact, NaN included.
        for name in ["x", "px"] {
            let a = back.table().float_column(name).unwrap();
            let b = ds.table().float_column(name).unwrap();
            assert_eq!(a.len(), b.len());
            assert!(a
                .iter()
                .zip(b.iter())
                .all(|(x, y)| x.to_bits() == y.to_bits()));
        }
        // Query results identical.
        let sel_a = back.query_str("x > -5 && px < 60").unwrap();
        let sel_b = ds.query_str("x > -5 && px < 60").unwrap();
        assert_eq!(sel_a.to_rows(), sel_b.to_rows());
        // Zone maps came back attached at the store chunk size.
        use fastbit::ColumnProvider;
        let maps = back.zone_maps("x", STORE_ZONE_CHUNK_ROWS).unwrap();
        assert_eq!(maps.num_rows(), 64);
        // Id index survived.
        assert!(back.id_index().is_some());
        assert_eq!(
            back.select_ids(&[1, 4, 190]).unwrap().to_rows(),
            ds.select_ids(&[1, 4, 190]).unwrap().to_rows()
        );
    }

    #[test]
    fn save_load_through_directory_counts_stats() {
        let dir = temp_store("saveload");
        let store = Store::open(&dir).unwrap();
        let ds = sample_dataset(32, 4);
        let bytes = store.save(&ds).unwrap();
        assert!(bytes > 0);
        assert!(store.contains(4));
        assert!(!store.contains(5));
        let loaded = store.load(4).unwrap().unwrap();
        assert_eq!(loaded.num_particles(), 32);
        assert!(store.load(5).unwrap().is_none());
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.bytes_written, bytes);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn misplaced_segment_is_rejected_not_served() {
        let dir = temp_store("misplaced");
        let store = Store::open(&dir).unwrap();
        let ds = sample_dataset(24, 1);
        store.save(&ds).unwrap();
        // A backup/restore mishap: step 1's segment lands under step 2.
        std::fs::copy(store.segment_path(1), store.segment_path(2)).unwrap();
        let err = store.load(2).expect_err("wrong-step segment must not load");
        assert!(matches!(err, StoreError::Corrupt(_)), "{err:?}");
        assert!(
            store.load(1).unwrap().is_some(),
            "the real slot still works"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn leftover_tmp_files_are_swept_on_open() {
        let dir = temp_store("sweep");
        std::fs::create_dir_all(&dir).unwrap();
        let tmp = dir.join("segment_00002.123.0.tmp");
        std::fs::write(&tmp, b"torn write").unwrap();
        let store = Store::open(&dir).unwrap();
        assert!(!tmp.exists(), "crashed writer's temp file removed");
        assert!(store.load(2).unwrap().is_none(), "tmp never read as data");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_bytes_yield_typed_errors() {
        let ds = sample_dataset(16, 0);
        let bytes = encode_segment(&ds);
        assert!(matches!(
            decode_segment(b"NOPE"),
            Err(StoreError::Truncated { .. })
        ));
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            decode_segment(&bad_magic),
            Err(StoreError::BadMagic(_))
        ));
        let mut bad_version = bytes.clone();
        bad_version[4] = 99;
        assert!(matches!(
            decode_segment(&bad_version),
            Err(StoreError::UnsupportedVersion(99))
        ));
        let mut flipped_payload = bytes.clone();
        let last = flipped_payload.len() - 1;
        flipped_payload[last] ^= 0xFF;
        assert!(matches!(
            decode_segment(&flipped_payload),
            Err(StoreError::ChecksumMismatch { .. })
        ));
    }
}
