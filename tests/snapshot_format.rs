//! The snapshot and WAL wire formats, pinned: the encoders must reproduce
//! committed golden files byte for byte, and snapshots written in format
//! version 1 must still restore and recover exactly.
//!
//! Fixtures (`tests/fixtures/`), all of the paper's running example
//! (Table II: five binary series, three instants per granule):
//!
//! * `miner_v2_paper_golden.snap` — a current-format miner snapshot after
//!   the first 10 granules.
//! * `pipeline_v2_paper_golden.snap` + `pipeline_v2_paper_golden.wal` — a
//!   current-format pipeline snapshot taken after instants `0..18`, and the
//!   write-ahead log of the two appends that followed it (instants `18..24`
//!   and `24..31`).
//! * `miner_v1_paper.snap` — the same state, written by the version-1
//!   encoder.
//! * `pipeline_v1.snap` + `pipeline_v1.wal` — a version-1 pipeline snapshot
//!   taken after instants `0..18`, and the write-ahead log of the two
//!   appends that followed it (instants `18..24` and `24..31`).

use freqstpfts::core::canonical_result_set as canonical;
use freqstpfts::core::snapshot;
use freqstpfts::prelude::*;
use std::path::{Path, PathBuf};

const ROWS: &[(&str, &str)] = &[
    ("C", "110100110000000000111111000000100110000110"),
    ("D", "100100110110000000111111000000100100110110"),
    ("F", "001011001001111000000000111111001001001001"),
    ("M", "111100111110111111000111111111111000111000"),
    ("N", "110111111110111111000000111111111111111000"),
];

fn paper_config() -> StpmConfig {
    StpmConfig {
        max_period: Threshold::Absolute(2),
        min_density: Threshold::Absolute(2),
        dist_interval: (3, 10),
        min_season: 2,
        max_pattern_len: 3,
        ..StpmConfig::default()
    }
}

fn paper_dseq() -> SequenceDatabase {
    let alphabet = Alphabet::from_strs(&["0", "1"]).unwrap();
    let series: Vec<SymbolicSeries> = ROWS
        .iter()
        .map(|(name, bits)| {
            let labels: Vec<&str> = bits
                .chars()
                .map(|c| if c == '1' { "1" } else { "0" })
                .collect();
            SymbolicSeries::from_labels(name, &labels, alphabet.clone()).unwrap()
        })
        .collect();
    SymbolicDatabase::new(series)
        .unwrap()
        .to_sequence_database(3)
        .unwrap()
}

/// Instants `from..to` of every series as raw readings.
fn chunk(from: usize, to: usize) -> Vec<TimeSeries> {
    ROWS.iter()
        .map(|(name, bits)| {
            let values = bits[from..to]
                .chars()
                .map(|c| if c == '1' { 1.2 } else { 0.0 })
                .collect();
            TimeSeries::new(*name, values)
        })
        .collect()
}

fn stream_pipeline() -> StreamingPipeline {
    Pipeline::builder()
        .symbolizer(ThresholdSymbolizer::binary(0.1, "0", "1"))
        .mapping_factor(3)
        .thresholds(paper_config())
        .into_streaming()
}

/// A miner that absorbed the first `granules` granules in one batch.
fn paper_miner(granules: usize) -> StreamingMiner {
    let dseq = paper_dseq();
    let mut miner = StreamingMiner::new(&paper_config(), dseq.registry()).unwrap();
    miner.append_batch(&dseq.sequences()[..granules]).unwrap();
    miner
}

fn snapshot_bytes(miner: &mut StreamingMiner) -> Vec<u8> {
    let mut bytes = Vec::new();
    miner.snapshot(&mut bytes).unwrap();
    bytes
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(name)
}

fn version_of(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes[8..12].try_into().unwrap())
}

fn assert_same_results(a: &EngineReport, b: &EngineReport) {
    assert_eq!(
        canonical(a.events(), a.patterns()),
        canonical(b.events(), b.patterns())
    );
}

/// Fails unless `bytes` equal the golden fixture `name`, leaving the new
/// bytes in the temp dir for a deliberate format change.
fn assert_golden(name: &str, bytes: &[u8]) {
    let golden = fixture(name);
    if std::fs::read(&golden).ok().as_deref() != Some(bytes) {
        let actual = std::env::temp_dir().join(name);
        std::fs::write(&actual, bytes).unwrap();
        panic!(
            "the encoder no longer reproduces {} byte for byte (the new bytes are in {}). \
             Files already on disk must keep decoding: if the wire format changed on purpose, \
             bump SNAPSHOT_VERSION or WAL_VERSION in crates/core/src/snapshot.rs, keep the \
             previous version readable, and replace the golden file with the new bytes",
            golden.display(),
            actual.display()
        );
    }
}

/// The pipeline the `pipeline_v2_paper_golden` files are written by, on an
/// in-memory filesystem: instants `0..18` snapshotted to `golden.snap`,
/// then two appends logged to `golden.wal`.
fn golden_pipeline(fs: &FaultyFs) -> StreamingPipeline {
    let mut live = stream_pipeline();
    live.set_storage(fs.clone());
    live.attach_wal("golden.wal").unwrap();
    live.append(&chunk(0, 18)).unwrap();
    live.snapshot_to("golden.snap").unwrap();
    live.append(&chunk(18, 24)).unwrap();
    live.append(&chunk(24, 31)).unwrap();
    live
}

#[test]
fn the_encoder_reproduces_the_golden_snapshot() {
    let bytes = snapshot_bytes(&mut paper_miner(10));
    assert_golden("miner_v2_paper_golden.snap", &bytes);
    assert_eq!(version_of(&bytes), snapshot::SNAPSHOT_VERSION);
}

#[test]
fn the_encoder_reproduces_the_golden_pipeline_snapshot() {
    let fs = FaultyFs::new();
    golden_pipeline(&fs);
    let bytes = fs.peek(Path::new("golden.snap")).unwrap();
    assert_golden("pipeline_v2_paper_golden.snap", &bytes);
    assert_eq!(version_of(&bytes), snapshot::SNAPSHOT_VERSION);
}

#[test]
fn the_encoder_reproduces_the_golden_wal() {
    let fs = FaultyFs::new();
    golden_pipeline(&fs);
    let bytes = fs.peek(Path::new("golden.wal")).unwrap();
    assert_golden("pipeline_v2_paper_golden.wal", &bytes);
    assert_eq!(bytes[..12], snapshot::wal_header());
    assert_eq!(snapshot::wal_read(&bytes).unwrap().records.len(), 2);
}

#[test]
fn the_golden_pipeline_files_recover_exactly() {
    let fs = FaultyFs::new();
    for name in [
        "pipeline_v2_paper_golden.snap",
        "pipeline_v2_paper_golden.wal",
    ] {
        let mut file = fs.create("test.setup", Path::new(name)).unwrap();
        file.write_all("test.setup", &std::fs::read(fixture(name)).unwrap())
            .unwrap();
    }
    let mut recovered = stream_pipeline();
    recovered.set_storage(fs.clone());
    let report = recovered
        .recover(
            Some(Path::new("pipeline_v2_paper_golden.snap")),
            Path::new("pipeline_v2_paper_golden.wal"),
        )
        .unwrap();
    assert_eq!(report.restored_granules, 6);
    assert_eq!(report.replayed_records, 2);
    let live = golden_pipeline(&FaultyFs::new());
    assert_eq!(recovered.num_granules(), live.num_granules());
    assert_eq!(recovered.pending_instants(), live.pending_instants());
    assert_eq!(recovered.checkpoint_meta(), live.checkpoint_meta());
    assert_same_results(
        &recovered.checkpoint().unwrap(),
        &live.checkpoint().unwrap(),
    );
}

#[test]
fn a_version_1_miner_snapshot_restores_exactly() {
    let v1 = std::fs::read(fixture("miner_v1_paper.snap")).unwrap();
    assert_eq!(version_of(&v1), 1);
    let mut restored = StreamingMiner::restore(&mut &v1[..]).unwrap();

    // The in-memory miner the fixture was taken of: same granules, and one
    // snapshot taken, so the checkpoint ids line up.
    let mut live = paper_miner(10);
    let _ = snapshot_bytes(&mut live);
    assert_eq!(restored.checkpoint_meta(), live.checkpoint_meta());
    assert_same_results(&restored.checkpoint().unwrap(), &live.checkpoint().unwrap());

    // The next snapshot is written in the current format and equals a fresh
    // one of the same state.
    let next = snapshot_bytes(&mut restored);
    assert_eq!(version_of(&next), snapshot::SNAPSHOT_VERSION);
    assert_eq!(next, snapshot_bytes(&mut live));
    assert!(next.len() < v1.len());

    // Later appends agree too.
    let dseq = paper_dseq();
    restored.append_batch(&dseq.sequences()[10..]).unwrap();
    live.append_batch(&dseq.sequences()[10..]).unwrap();
    assert_same_results(&restored.checkpoint().unwrap(), &live.checkpoint().unwrap());
    assert_eq!(snapshot_bytes(&mut restored), snapshot_bytes(&mut live));
}

#[test]
fn a_version_1_pipeline_snapshot_and_wal_recover_exactly() {
    // Recovery re-attaches the WAL for appending, so work on copies.
    let dir = std::env::temp_dir().join(format!("stpm_snapshot_format_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("pipeline.snap");
    let wal = dir.join("pipeline.wal");
    std::fs::copy(fixture("pipeline_v1.snap"), &snap).unwrap();
    std::fs::copy(fixture("pipeline_v1.wal"), &wal).unwrap();
    assert_eq!(version_of(&std::fs::read(&snap).unwrap()), 1);

    let mut recovered = stream_pipeline();
    let report = recovered.recover(Some(&snap), &wal).unwrap();
    assert_eq!(report.restored_granules, 6);
    assert_eq!(report.replayed_records, 2);
    assert!(report.wal_was_clean);

    // The live pipeline the fixtures were written by.
    let live_fs = FaultyFs::new();
    let mut live = golden_pipeline(&live_fs);
    assert_eq!(recovered.num_granules(), live.num_granules());
    assert_eq!(recovered.pending_instants(), live.pending_instants());
    assert_eq!(recovered.checkpoint_meta(), live.checkpoint_meta());
    assert_same_results(
        &recovered.checkpoint().unwrap(),
        &live.checkpoint().unwrap(),
    );

    // The next snapshot_to writes the current format, identical to a fresh
    // snapshot of the live state.
    recovered.snapshot_to(&snap).unwrap();
    let next = std::fs::read(&snap).unwrap();
    live.snapshot_to("golden.snap").unwrap();
    let fresh = live_fs.peek(Path::new("golden.snap")).unwrap();
    assert_eq!(version_of(&next), snapshot::SNAPSHOT_VERSION);
    assert_eq!(next, fresh);

    recovered.append(&chunk(31, 42)).unwrap();
    live.append(&chunk(31, 42)).unwrap();
    assert_same_results(
        &recovered.checkpoint().unwrap(),
        &live.checkpoint().unwrap(),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_pipeline_header_must_match_its_embedded_miner_version() {
    let mut bytes = std::fs::read(fixture("pipeline_v1.snap")).unwrap();
    bytes[8..12].copy_from_slice(&snapshot::SNAPSHOT_VERSION.to_le_bytes());
    let fs = FaultyFs::new();
    let mut file = fs.create("test.setup", Path::new("p.snap")).unwrap();
    file.write_all("test.setup", &bytes).unwrap();
    let mut pipeline = stream_pipeline();
    pipeline.set_storage(fs);
    assert!(matches!(
        pipeline.recover(Some(Path::new("p.snap")), Path::new("p.wal")),
        Err(PipelineError::Persistence(
            freqstpfts::core::Error::SnapshotCorrupt { .. }
        ))
    ));
}

#[test]
fn versions_past_the_current_one_are_version_errors() {
    let mut bytes = std::fs::read(fixture("miner_v1_paper.snap")).unwrap();
    for found in [snapshot::SNAPSHOT_VERSION + 1, u32::MAX] {
        bytes[8..12].copy_from_slice(&found.to_le_bytes());
        assert!(matches!(
            StreamingMiner::restore(&mut &bytes[..]),
            Err(freqstpfts::core::Error::SnapshotVersion { found: f, .. }) if f == found
        ));
    }
}

/// One item of a v2 `LEVEL` payload, in order: a varint or a tag byte.
#[derive(Clone, Copy)]
enum Item {
    Varint(u64),
    Tag(u8),
}

/// Splits a v2 `LEVEL` payload into its items, returning them with the
/// item indexes of every key word.
fn level_items(payload: &[u8]) -> (Vec<Item>, Vec<usize>) {
    let mut r = snapshot::ByteReader::new(payload, "level");
    let mut items = Vec::new();
    let mut key_words = Vec::new();
    let varint = |r: &mut snapshot::ByteReader<'_>, items: &mut Vec<Item>| {
        let v = r.take_varint().unwrap();
        items.push(Item::Varint(v));
        v
    };
    let tag = |r: &mut snapshot::ByteReader<'_>, items: &mut Vec<Item>| {
        let t = r.take_u8().unwrap();
        items.push(Item::Tag(t));
        t
    };
    let k = varint(&mut r, &mut items) as usize;
    let count = varint(&mut r, &mut items);
    for _ in 0..count {
        for _ in 0..k + k * (k - 1) / 2 {
            key_words.push(items.len());
            varint(&mut r, &mut items);
        }
        let support = varint(&mut r, &mut items);
        for _ in 0..support {
            varint(&mut r, &mut items);
        }
        let spans = varint(&mut r, &mut items);
        for _ in 0..2 * spans + 2 {
            varint(&mut r, &mut items);
        }
        if tag(&mut r, &mut items) == 1 {
            varint(&mut r, &mut items);
        }
        if tag(&mut r, &mut items) == 1 {
            if tag(&mut r, &mut items) == 1 {
                varint(&mut r, &mut items);
            }
            varint(&mut r, &mut items);
            varint(&mut r, &mut items);
        }
    }
    r.finish().unwrap();
    (items, key_words)
}

fn encode_items(items: &[Item]) -> Vec<u8> {
    let mut w = snapshot::ByteWriter::new();
    for item in items {
        match *item {
            Item::Varint(v) => w.put_varint(v),
            Item::Tag(t) => w.put_u8(t),
        }
    }
    w.into_bytes()
}

/// The sections of a snapshot after its 16-byte header, as (tag, payload).
fn sections(bytes: &[u8]) -> Vec<(u32, Vec<u8>)> {
    let mut rest = &bytes[16..];
    let mut out = Vec::new();
    while !rest.is_empty() {
        let tag = u32::from_le_bytes(rest[..4].try_into().unwrap());
        let len = u64::from_le_bytes(rest[4..12].try_into().unwrap()) as usize;
        out.push((tag, rest[12..12 + len].to_vec()));
        rest = &rest[12 + len + 4..];
    }
    out
}

/// Reassembles a snapshot from its header and sections, sealing each
/// section with its CRC.
fn seal(header: &[u8], sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let mut out = header.to_vec();
    for (tag, payload) in sections {
        out.extend_from_slice(&tag.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(payload);
        out.extend_from_slice(&snapshot::crc32(payload).to_le_bytes());
    }
    out
}

#[test]
fn mutated_pattern_key_words_are_typed_errors_or_canonical_states() {
    // Every key word of the golden snapshot's LEVEL sections is replaced by
    // nearby and foreign values, and each section is resealed with a valid
    // CRC, so the decoder's word-level key checks are all that stand
    // between the bytes and the restored state. Each mutation must end in
    // a typed error, or in a miner that validates, reports without
    // panicking and re-encodes its levels to exactly the mutated bytes.
    const LEVEL: u32 = 5;
    let bytes = std::fs::read(fixture("miner_v2_paper_golden.snap")).unwrap();
    let header = &bytes[..16];
    let original = sections(&bytes);
    let (mut rejected, mut accepted) = (0_u32, 0_u32);
    for (index, (tag, payload)) in original.iter().enumerate() {
        if *tag != LEVEL {
            continue;
        }
        let (items, key_words) = level_items(payload);
        // Debug builds mutate every fifth key word (5 is coprime to both
        // key lengths, 3 and 6, so every word position is still hit);
        // release builds, where the validators are folded away, all.
        let stride = if cfg!(debug_assertions) { 5 } else { 1 };
        for (n, &at) in key_words.iter().enumerate().step_by(stride) {
            let Item::Varint(word) = items[at] else {
                unreachable!("key words are varints")
            };
            let neighbour = |offset: usize| match items[key_words[(n + offset) % key_words.len()]] {
                Item::Varint(w) => w,
                Item::Tag(_) => unreachable!("key words are varints"),
            };
            // Flips of a label's symbol and series bits, of a triple's
            // indexes and relation code, and past the 48-bit label packing.
            let mut values: Vec<u64> = [0, 1, 8, 16, 17, 48]
                .iter()
                .map(|bit| word ^ (1 << bit))
                .collect();
            values.extend([word.wrapping_add(1), neighbour(1), neighbour(7)]);
            for value in values {
                if value == word {
                    continue;
                }
                let mut mutated_items = items.clone();
                mutated_items[at] = Item::Varint(value);
                let mut mutated = original.clone();
                mutated[index].1 = encode_items(&mutated_items);
                let mutated_bytes = seal(header, &mutated);
                match StreamingMiner::restore(&mut mutated_bytes.as_slice()) {
                    Err(freqstpfts::core::Error::SnapshotCorrupt { .. }) => rejected += 1,
                    Err(other) => panic!("an untyped error for word {n} = {value:#x}: {other}"),
                    Ok(miner) => {
                        miner.validate().unwrap_or_else(|violation| {
                            panic!("word {n} = {value:#x} restored an invalid miner: {violation}")
                        });
                        miner.checkpoint().unwrap();
                        let again = sections(&miner.encode_snapshot());
                        for ((tag, before), (_, after)) in mutated.iter().zip(&again) {
                            if *tag == LEVEL {
                                assert_eq!(before, after, "word {n} = {value:#x} re-encodes");
                            }
                        }
                        accepted += 1;
                    }
                }
            }
        }
    }
    assert!(
        rejected > 0 && accepted > 0,
        "{rejected} rejected, {accepted} accepted"
    );
}
