//! Durable snapshots and write-ahead logging for the streaming miner.
//!
//! This module turns a [`StreamingMiner`] into something a long-running
//! service can evict, rehydrate and crash-recover: the full persistent state
//! — event supports, the interned pattern arenas keyed by the packed-u64
//! encodings of [`crate::pattern`], and every [`SeasonTracker`]'s loop state
//! — serializes to a versioned, length-prefixed binary format with
//! per-section CRCs, and a write-ahead log batches the granule appends that
//! arrive between snapshots so a crash loses nothing durable.
//!
//! # Snapshot format (version 2)
//!
//! The header, the section framing and the `CONFIG`, `REGISTRY` and `STATE`
//! payloads use **little-endian**, fixed-width integers. A snapshot is:
//!
//! ```text
//! header   := magic "STPMSNAP" (8 bytes) · version u32 · kind u32
//! section  := tag u32 · len u64 · payload (len bytes) · crc32(payload) u32
//! ```
//!
//! A miner snapshot (`kind = 1`) holds, in strict order: one `CONFIG`
//! section, one `REGISTRY` section, one `STATE` section, one `EVENTS`
//! section, then `maxPatternLen − 1` `LEVEL` sections (k = 2, 3, …).
//! Trailing bytes after the last section are rejected. The CRC is the
//! standard IEEE CRC-32 (polynomial `0xEDB88320`).
//!
//! Inside the `EVENTS` and `LEVEL` payloads — nearly all of a snapshot's
//! bytes — every integer is an unsigned **LEB128 varint** (7 bits per byte,
//! low group first, high bit = "more bytes follow", at most 10 bytes, always
//! the shortest form), and each ascending list is stored as gaps
//! (`u8` below is a single tag byte):
//!
//! ```text
//! events   := count · (label · support · tracker)*       labels ascending
//! level    := k · count · (key-word{k + k(k−1)/2} · support · tracker)*
//! support  := count · gap*          granule = previous granule (from 0) + gap
//! tracker  := spans · best · current · prev_end? · pending?
//! spans    := count · (gap · length)*     start = previous end (from 0) + gap
//! prev_end := u8 0 | u8 1 · granule
//! pending  := u8 0 | u8 1 · (u8 0 | u8 1 · kept_from) · first_kept · last
//! ```
//!
//! Decoding keeps every structural check: a support gap of 0 (granules must
//! ascend strictly), a support longer than the absorbed granule count or
//! reaching past it, a span of length 0 or ending past its support, and a
//! non-canonical or duplicate pattern key are all
//! [`Error::SnapshotCorrupt`]. Gap sums are checked, so no input overflows.
//! A pattern key is checked on its words as read, with no pattern built:
//! its labels must be registered, its triple words valid with indexes
//! below `k`, and its triples non-decreasing under the order
//! [`TemporalPattern::from_parts`](crate::pattern::TemporalPattern::from_parts)
//! sorts them by — exactly the keys a decode and re-encode reproduce.
//!
//! **Version 1** wrote the same fields as fixed-width integers (`u32`
//! counts, span bounds and `kept_from`; `u64` granules, labels, key words
//! and tracker fields) with supports as absolute granules. It stays
//! readable — the field readers branch on the header's version — but is
//! never written: the next snapshot of a restored v1 state is version 2.
//!
//! Derived state is *not* serialized: the per-level pattern index and group
//! set are rebuilt from the interning keys, and the resolved configuration is
//! re-resolved against the restored granule count. Wall-clock timing counters
//! are observability-only and reset to zero on restore — this is what makes
//! `snapshot → restore → append` *byte-identical* to an uninterrupted run.
//!
//! # Pipeline snapshots
//!
//! A streaming-pipeline snapshot (`kind = 2`, [`encode_pipeline`]) shares
//! the header, the framing and the version of a miner snapshot:
//!
//! ```text
//! pipeline := header · PIPE · (DSYB · MINER)?     DSYB and MINER iff has_state
//! PIPE     := mapping_factor u64 · has_state u8
//! DSYB     := series-list
//! MINER    := a whole miner snapshot (kind 1, the same version)
//! series-list := count u32 · (name · labels · symbols)*
//! labels   := count u32 (at most 65 536) · str*       str := len u32 · UTF-8
//! symbols  := count u64 · u16*                        ids below the label count
//! ```
//!
//! # WAL format (version 1)
//!
//! ```text
//! wal      := magic "STPMWAL1" (8 bytes) · version u32 · record*
//! record   := len u64 · crc32(payload) u32 · payload (len bytes)
//! payload  := start_instants u64 · series-list        (encode_symbolic_batch)
//! ```
//!
//! [`wal_read`] recovers the longest durable prefix: it stops at the first
//! truncated or corrupt record and reports how many bytes were durable, so a
//! crash mid-write costs at most the interrupted record. The service
//! protocol's append frames carry their batch as the same `series-list`.
//!
//! # Recovery contract
//!
//! * Restoring from corrupt bytes (truncated, bit-flipped, structurally
//!   invalid) **never panics** — it returns [`Error::SnapshotCorrupt`] (or
//!   [`Error::SnapshotVersion`] for a future format version).
//! * Parameters that shaped the absorbed state itself — ε, `d_o`,
//!   `maxPatternLen` — cannot change across a restore;
//!   [`StreamingMiner::restore_with`] rejects such requests with
//!   [`Error::SnapshotConfigMismatch`]. Seasonality thresholds (`maxPeriod`,
//!   `minDensity`, `distInterval`, `minSeason`) *can* change: every tracker
//!   is replayed from its stored support under the new thresholds, the same
//!   exactness fallback the miner uses when a fractional threshold crosses a
//!   granule-count boundary.
//!
//! # Format freeze & decode hygiene
//!
//! * **Golden files** freeze the formats: the workspace tests must
//!   reproduce a committed miner snapshot, pipeline snapshot and WAL byte
//!   for byte (`tests/snapshot_format.rs`), so any change of a magic, a
//!   version, a tag or a field encoding fails them. A deliberate change
//!   bumps [`SNAPSHOT_VERSION`] or [`WAL_VERSION`], keeps the previous
//!   version readable, and replaces the golden file.
//! * **No panicking decode path.** The module denies clippy's
//!   `indexing_slicing`, `unwrap_used`, `expect_used`, `panic`,
//!   `unreachable`, `todo`, `unimplemented` and `disallowed_macros` (the
//!   `assert!` family, listed in the crate's `clippy.toml`), so arbitrary
//!   input bytes can only ever produce a typed [`Error::SnapshotCorrupt`],
//!   never a panic. [`ByteReader`]'s bounds-checked cursor is the only way
//!   decode code touches the buffer. The few sites that cannot panic (the
//!   CRC tables, encoders of in-memory state) carry an `#[expect]` with
//!   the reason.

#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::disallowed_macros
)]

use crate::config::{PruningMode, StpmConfig, Threshold};
use crate::error::{Error, Result};
use crate::fxhash::FxHashMap;
use crate::pattern::{check_key_triples, KeyDefect};
use crate::season::{PendingRun, SeasonTracker};
use crate::streaming::{StreamEventEntry, StreamLevel, StreamPatternEntry, StreamingMiner};
use crate::support::SupportSet;
use std::io::{Read, Write};
use std::time::Duration;
use stpm_timeseries::{
    Alphabet, EventLabel, EventRegistry, SeriesId, SymbolId, SymbolicDatabase, SymbolicSeries,
};

/// Magic bytes opening every snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"STPMSNAP";
/// Newest snapshot format version this build reads and writes.
pub const SNAPSHOT_VERSION: u32 = 2;
/// Oldest snapshot format version this build still reads (it is never
/// written).
const OLDEST_SNAPSHOT_VERSION: u32 = 1;
/// Header `kind` of a [`StreamingMiner`] snapshot.
const KIND_MINER: u32 = 1;
/// Header `kind` of a streaming-pipeline snapshot, which embeds a miner
/// snapshot.
const KIND_PIPELINE: u32 = 2;
/// Magic bytes opening every write-ahead log.
pub const WAL_MAGIC: [u8; 8] = *b"STPMWAL1";
/// Newest WAL format version this build reads and writes.
pub const WAL_VERSION: u32 = 1;

const SEC_CONFIG: u32 = 1;
const SEC_REGISTRY: u32 = 2;
const SEC_STATE: u32 = 3;
const SEC_EVENTS: u32 = 4;
const SEC_LEVEL: u32 = 5;
const SEC_PIPE: u32 = 0x10;
const SEC_DSYB: u32 = 0x11;
const SEC_MINER: u32 = 0x12;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE)
// ---------------------------------------------------------------------------

// Slicing-by-8 tables: `TABLES[0]` is the classic byte-at-a-time table,
// `TABLES[t][i]` advances the CRC of byte `i` by `t` further zero bytes, so
// eight input bytes fold into the state with eight independent lookups.
#[expect(
    clippy::indexing_slicing,
    reason = "const evaluation: `i < 256` and `t < 8` bound every index"
)]
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// IEEE CRC-32 (the checksum of zip/PNG/Ethernet) over `bytes`.
///
/// Uses slicing-by-8 so checksumming is far from the bottleneck when
/// snapshots grow to megabytes; the result is bit-identical to the
/// byte-at-a-time definition.
#[must_use]
#[expect(
    clippy::indexing_slicing,
    reason = "`chunks_exact(8)` yields 8-byte chunks, and every table index \
              is masked to 0..=255 or shifted down to 8 bits"
)]
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

fn corrupt(reason: impl Into<String>) -> Error {
    Error::SnapshotCorrupt {
        reason: reason.into(),
    }
}

// ---------------------------------------------------------------------------
// Little-endian byte cursor primitives
// ---------------------------------------------------------------------------

/// Append-only little-endian byte buffer — the encoding half of the wire
/// format. Public so the service protocol encodes its frames with the same
/// primitives.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern, little-endian.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends an unsigned LEB128 varint: 7 bits per byte, low group first,
    /// the high bit set on every byte but the last (1 to 10 bytes).
    pub fn put_varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push((v as u8) | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Appends a length-prefixed UTF-8 string (`u32` byte length + bytes).
    #[expect(clippy::expect_used, reason = "encoder, not a decode path")]
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(u32::try_from(s.len()).expect("string fits u32"));
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// The bytes written so far.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning its buffer.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian cursor over untrusted bytes — the decoding
/// half of the wire format. Every overrun surfaces as
/// [`Error::SnapshotCorrupt`] naming the section and offset; nothing panics.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    context: &'static str,
}

impl<'a> ByteReader<'a> {
    /// Wraps `buf`; `context` names the section in error messages.
    #[must_use]
    pub fn new(buf: &'a [u8], context: &'static str) -> Self {
        Self {
            buf,
            pos: 0,
            context,
        }
    }

    fn fail(&self, detail: impl std::fmt::Display) -> Error {
        corrupt(format!("{} (offset {}): {detail}", self.context, self.pos))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let slice = self
            .pos
            .checked_add(n)
            .and_then(|end| self.buf.get(self.pos..end));
        match slice {
            Some(slice) => {
                self.pos += n;
                Ok(slice)
            }
            None => {
                let remaining = self.buf.len().saturating_sub(self.pos);
                Err(self.fail(format_args!("needed {n} bytes but only {remaining} remain")))
            }
        }
    }

    /// Reads exactly `N` bytes into an array. The length mismatch arm is
    /// unreachable (`take` returned an `N`-byte slice) but kept as a typed
    /// error so no decode path can panic.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let bytes = self.take(N)?;
        bytes
            .try_into()
            .map_err(|_| self.fail("internal length mismatch"))
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8> {
        let [byte] = self.take_array::<1>()?;
        Ok(byte)
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// Reads an `f64` from its little-endian IEEE-754 bit pattern.
    pub fn take_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads an unsigned LEB128 varint written by [`ByteWriter::put_varint`].
    /// Truncation, a varint longer than 10 bytes, a 10th byte that overflows
    /// `u64` and a non-shortest encoding (a trailing zero group) are typed
    /// errors.
    #[inline]
    pub fn take_varint(&mut self) -> Result<u64> {
        // Fast paths, inlined into the decode loops: nearly every support
        // gap and span field fits one or two bytes.
        match *self.rest() {
            [low, ..] if low < 0x80 => {
                self.pos += 1;
                Ok(u64::from(low))
            }
            [low, high, ..] if high < 0x80 && high != 0 => {
                self.pos += 2;
                Ok(u64::from(low & 0x7F) | (u64::from(high) << 7))
            }
            _ => self.take_long_varint(),
        }
    }

    /// The general case of [`ByteReader::take_varint`], with every error.
    #[inline(never)]
    fn take_long_varint(&mut self) -> Result<u64> {
        let mut value = 0u64;
        for (i, &byte) in self.rest().iter().take(10).enumerate() {
            let group = u64::from(byte & 0x7F);
            if i == 9 && byte > 1 {
                return Err(self.fail(if byte & 0x80 == 0 {
                    "varint overflows u64"
                } else {
                    "varint is longer than 10 bytes"
                }));
            }
            value |= group << (7 * i);
            if byte & 0x80 == 0 {
                if byte == 0 && i > 0 {
                    return Err(self.fail("varint is not in its shortest form"));
                }
                self.pos += i + 1;
                return Ok(value);
            }
        }
        Err(self.fail(format_args!(
            "varint truncated after {} bytes",
            self.remaining()
        )))
    }

    /// Reads a varint that must fit a `u32`.
    #[inline]
    pub fn take_varint_u32(&mut self) -> Result<u32> {
        let v = self.take_varint()?;
        u32::try_from(v).map_err(|_| self.fail(format_args!("varint {v} overflows u32")))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<String> {
        let len = self.take_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.fail("string is not valid UTF-8"))
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// The unconsumed tail of the buffer (empty once exhausted).
    fn rest(&self) -> &'a [u8] {
        self.buf.get(self.pos..).unwrap_or(&[])
    }

    /// Asserts the reader consumed its buffer exactly.
    pub fn finish(self) -> Result<()> {
        if self.pos != self.buf.len() {
            return Err(self.fail(format_args!("{} trailing bytes", self.buf.len() - self.pos)));
        }
        Ok(())
    }
}

/// Caps a length-prefix-driven pre-allocation by what the input could
/// possibly hold (`elem_size` = the fewest bytes one element encodes to),
/// so a corrupt count cannot trigger a huge allocation.
fn capped(count: u64, remaining: usize, elem_size: usize) -> usize {
    let cap = remaining / elem_size + 1;
    usize::try_from(count).map_or(cap, |count| count.min(cap))
}

/// How a snapshot format version writes the integers of the `EVENTS` and
/// `LEVEL` sections: fixed-width (version 1) or as LEB128 varints with
/// ascending lists stored as gaps (version 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ints {
    Fixed,
    Varint,
}

impl Ints {
    fn of(version: u32) -> Self {
        if version == 1 {
            Self::Fixed
        } else {
            Self::Varint
        }
    }

    /// The fewest bytes one element encodes to, for [`capped`].
    fn min_bytes(self, fixed: usize, varint: usize) -> usize {
        match self {
            Self::Fixed => fixed,
            Self::Varint => varint,
        }
    }

    /// Reads a field that version 1 wrote as a `u32`.
    fn take_u32(self, r: &mut ByteReader<'_>) -> Result<u32> {
        match self {
            Self::Fixed => r.take_u32(),
            Self::Varint => r.take_varint_u32(),
        }
    }

    /// Reads a field that version 1 wrote as a `u64`.
    fn take_u64(self, r: &mut ByteReader<'_>) -> Result<u64> {
        match self {
            Self::Fixed => r.take_u64(),
            Self::Varint => r.take_varint(),
        }
    }
}

// ---------------------------------------------------------------------------
// Header and section framing
// ---------------------------------------------------------------------------

/// Writes the 16-byte snapshot header (magic, version, kind) to `out`.
fn write_header(out: &mut Vec<u8>, kind: u32) {
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&kind.to_le_bytes());
}

/// Validates the snapshot header and returns its format version
/// (`OLDEST_SNAPSHOT_VERSION..=SNAPSHOT_VERSION`) and the body after it.
///
/// # Errors
/// [`Error::SnapshotCorrupt`] on a short or foreign header or a `kind`
/// mismatch; [`Error::SnapshotVersion`] on an unknown format version.
fn parse_header(bytes: &[u8], expected_kind: u32) -> Result<(u32, &[u8])> {
    if bytes.len() < 16 {
        return Err(corrupt(format!(
            "header truncated: {} bytes, need 16",
            bytes.len()
        )));
    }
    let mut r = ByteReader::new(bytes, "snapshot header");
    let magic: [u8; 8] = r.take_array()?;
    if magic != SNAPSHOT_MAGIC {
        return Err(corrupt("magic bytes do not spell STPMSNAP"));
    }
    let version = r.take_u32()?;
    if !(OLDEST_SNAPSHOT_VERSION..=SNAPSHOT_VERSION).contains(&version) {
        return Err(Error::SnapshotVersion {
            found: version,
            supported: SNAPSHOT_VERSION,
        });
    }
    let kind = r.take_u32()?;
    if kind != expected_kind {
        return Err(corrupt(format!(
            "snapshot kind {kind} where kind {expected_kind} was expected"
        )));
    }
    Ok((version, r.rest()))
}

/// Appends one framed section (`tag`, length, payload, CRC) to `out`.
fn write_section(out: &mut Vec<u8>, tag: u32, payload: &[u8]) {
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
}

/// Reads the next framed section from `cursor`, checking its tag and CRC,
/// and advances `cursor` past it.
///
/// # Errors
/// [`Error::SnapshotCorrupt`] on truncation, a tag mismatch, an impossible
/// length or a CRC failure.
fn read_section<'a>(cursor: &mut &'a [u8], expected_tag: u32) -> Result<&'a [u8]> {
    let buf = *cursor;
    if buf.len() < 12 {
        return Err(corrupt(format!(
            "section header truncated: {} bytes, need 12",
            buf.len()
        )));
    }
    let mut r = ByteReader::new(buf, "section header");
    let tag = r.take_u32()?;
    if tag != expected_tag {
        return Err(corrupt(format!(
            "section tag {tag} where tag {expected_tag} was expected"
        )));
    }
    let len = r.take_u64()?;
    if (r.remaining() as u64) < len.saturating_add(4) {
        return Err(corrupt(format!(
            "section {tag} claims {len} payload bytes but only {} remain",
            r.remaining()
        )));
    }
    let len = usize::try_from(len).map_err(|_| corrupt("section length exceeds address space"))?;
    let payload = r.take(len)?;
    let stored = r.take_u32()?;
    let actual = crc32(payload);
    if stored != actual {
        return Err(corrupt(format!(
            "section {tag} CRC mismatch: stored {stored:#010x}, computed {actual:#010x}"
        )));
    }
    *cursor = r.rest();
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Wire encodings of the miner's parts
// ---------------------------------------------------------------------------

fn write_threshold(w: &mut ByteWriter, t: Threshold) {
    match t {
        Threshold::Absolute(v) => {
            w.put_u8(0);
            w.put_u64(v);
        }
        Threshold::Fraction(f) => {
            w.put_u8(1);
            w.put_f64(f);
        }
    }
}

fn read_threshold(r: &mut ByteReader<'_>) -> Result<Threshold> {
    match r.take_u8()? {
        0 => Ok(Threshold::Absolute(r.take_u64()?)),
        1 => Ok(Threshold::Fraction(r.take_f64()?)),
        tag => Err(r.fail(format_args!("unknown threshold tag {tag}"))),
    }
}

fn encode_config(config: &StpmConfig) -> Vec<u8> {
    let mut w = ByteWriter::new();
    write_threshold(&mut w, config.max_period);
    write_threshold(&mut w, config.min_density);
    w.put_u64(config.dist_interval.0);
    w.put_u64(config.dist_interval.1);
    w.put_u64(config.min_season);
    w.put_u64(config.epsilon);
    w.put_u64(config.min_overlap);
    w.put_u64(config.max_pattern_len as u64);
    w.put_u8(match config.pruning {
        PruningMode::NoPrune => 0,
        PruningMode::Apriori => 1,
        PruningMode::Transitivity => 2,
        PruningMode::All => 3,
    });
    w.put_u64(config.threads as u64);
    w.into_bytes()
}

fn decode_config(payload: &[u8]) -> Result<StpmConfig> {
    let mut r = ByteReader::new(payload, "config section");
    let max_period = read_threshold(&mut r)?;
    let min_density = read_threshold(&mut r)?;
    let dist_interval = (r.take_u64()?, r.take_u64()?);
    let min_season = r.take_u64()?;
    let epsilon = r.take_u64()?;
    let min_overlap = r.take_u64()?;
    let max_pattern_len = r.take_u64()?;
    if !(1..=256).contains(&max_pattern_len) {
        return Err(r.fail(format_args!(
            "maxPatternLen {max_pattern_len} is outside 1..=256"
        )));
    }
    let pruning = match r.take_u8()? {
        0 => PruningMode::NoPrune,
        1 => PruningMode::Apriori,
        2 => PruningMode::Transitivity,
        3 => PruningMode::All,
        tag => return Err(r.fail(format_args!("unknown pruning mode tag {tag}"))),
    };
    let threads = usize::try_from(r.take_u64()?)
        .map_err(|_| corrupt("config section: thread count exceeds address space"))?;
    r.finish()?;
    let config = StpmConfig {
        max_period,
        min_density,
        dist_interval,
        min_season,
        epsilon,
        min_overlap,
        max_pattern_len: max_pattern_len as usize,
        pruning,
        threads,
    };
    // Surfaces structurally-valid-but-out-of-domain values (e.g. a fraction
    // beyond [0, 1]) as a typed error before any state is rebuilt.
    config.resolve(1)?;
    Ok(config)
}

#[expect(clippy::expect_used, reason = "encoder, not a decode path")]
fn encode_registry(registry: &EventRegistry) -> Vec<u8> {
    let mut w = ByteWriter::new();
    let num_series = u32::try_from(registry.num_series()).expect("series count fits u32");
    w.put_u32(num_series);
    for sid in 0..num_series {
        let id = SeriesId(sid);
        w.put_str(registry.series_name(id).expect("series id in range"));
        let alphabet = registry.alphabet(id).expect("series id in range");
        w.put_u32(u32::try_from(alphabet.len()).expect("alphabet fits u32"));
        for label in alphabet {
            w.put_str(label);
        }
    }
    w.into_bytes()
}

fn decode_registry(payload: &[u8]) -> Result<EventRegistry> {
    let mut r = ByteReader::new(payload, "registry section");
    let num_series = r.take_u32()?;
    let mut registry = EventRegistry::new();
    for expected in 0..num_series {
        let name = r.take_str()?;
        let alphabet_len = r.take_u32()?;
        if alphabet_len > 1 << 16 {
            return Err(r.fail(format_args!(
                "alphabet of {alphabet_len} symbols exceeds the u16 symbol space"
            )));
        }
        let mut alphabet = Vec::with_capacity(capped(u64::from(alphabet_len), r.remaining(), 4));
        for _ in 0..alphabet_len {
            alphabet.push(r.take_str()?);
        }
        let id = registry.register_series(&name, &alphabet);
        if id.0 != expected {
            return Err(r.fail(format_args!("duplicate series name `{name}`")));
        }
    }
    r.finish()?;
    Ok(registry)
}

fn write_support(w: &mut ByteWriter, support: &SupportSet) {
    w.put_varint(support.len() as u64);
    let mut prev = 0;
    for &granule in support {
        w.put_varint(granule - prev);
        prev = granule;
    }
}

fn read_support(r: &mut ByteReader<'_>, ints: Ints, num_granules: u64) -> Result<SupportSet> {
    let count = ints.take_u32(r)?;
    if u64::from(count) > num_granules {
        return Err(r.fail(format_args!(
            "support of {count} granules exceeds the {num_granules} absorbed"
        )));
    }
    let len = capped(u64::from(count), r.remaining(), ints.min_bytes(8, 1));
    // Room for the appends that follow a restore, as a support grown by
    // pushes would have: with the exact length, the first WAL record
    // replayed after a restore reallocated every support it touched.
    let mut support = Vec::with_capacity(len + len / 8 + 4);
    let mut prev = 0u64;
    for _ in 0..count {
        let granule = match ints {
            Ints::Fixed => r.take_u64()?,
            Ints::Varint => {
                let gap = r.take_varint()?;
                prev.checked_add(gap).ok_or_else(|| {
                    r.fail(format_args!(
                        "support gap {gap} after granule {prev} overflows u64"
                    ))
                })?
            }
        };
        if granule <= prev || granule > num_granules {
            return Err(r.fail(format_args!(
                "support granule {granule} after {prev} violates strict order in 1..={num_granules}"
            )));
        }
        support.push(granule);
        prev = granule;
    }
    Ok(support)
}

fn write_tracker(w: &mut ByteWriter, tracker: &SeasonTracker) {
    w.put_varint(tracker.spans.len() as u64);
    let mut prev_end = 0;
    for &(start, end) in &tracker.spans {
        w.put_varint(u64::from(start - prev_end));
        w.put_varint(u64::from(end - start));
        prev_end = end;
    }
    w.put_varint(tracker.best);
    w.put_varint(tracker.current);
    match tracker.prev_end {
        None => w.put_u8(0),
        Some(granule) => {
            w.put_u8(1);
            w.put_varint(granule);
        }
    }
    match tracker.pending {
        None => w.put_u8(0),
        Some(run) => {
            w.put_u8(1);
            match run.kept_from {
                None => w.put_u8(0),
                Some(idx) => {
                    w.put_u8(1);
                    w.put_varint(u64::from(idx));
                }
            }
            w.put_varint(run.first_kept);
            w.put_varint(run.last);
        }
    }
}

/// Reads one season span `[start, end)`: two `u32` bounds in version 1, the
/// gap from `prev_end` and the length in version 2.
fn read_span(r: &mut ByteReader<'_>, ints: Ints, prev_end: u32) -> Result<(u32, u32)> {
    if ints == Ints::Fixed {
        return Ok((r.take_u32()?, r.take_u32()?));
    }
    let gap = r.take_varint_u32()?;
    let len = r.take_varint_u32()?;
    prev_end
        .checked_add(gap)
        .and_then(|start| Some((start, start.checked_add(len)?)))
        .ok_or_else(|| {
            r.fail(format_args!(
                "season span of gap {gap} and length {len} after {prev_end} overflows u32"
            ))
        })
}

fn read_tracker(r: &mut ByteReader<'_>, ints: Ints, support_len: u32) -> Result<SeasonTracker> {
    let span_count = ints.take_u32(r)?;
    if span_count > support_len {
        return Err(r.fail(format_args!(
            "{span_count} season spans over a support of {support_len}"
        )));
    }
    let mut spans = Vec::with_capacity(capped(
        u64::from(span_count),
        r.remaining(),
        ints.min_bytes(8, 2),
    ));
    let mut prev_end = 0u32;
    for _ in 0..span_count {
        let (start, end) = read_span(r, ints, prev_end)?;
        if start < prev_end || start >= end || end > support_len {
            return Err(r.fail(format_args!(
                "season span [{start}, {end}) after {prev_end} is not an increasing \
                 in-bounds span"
            )));
        }
        spans.push((start, end));
        prev_end = end;
    }
    let best = ints.take_u64(r)?;
    let current = ints.take_u64(r)?;
    let prev_end = match r.take_u8()? {
        0 => None,
        1 => Some(ints.take_u64(r)?),
        tag => return Err(r.fail(format_args!("unknown prev-end tag {tag}"))),
    };
    let pending = match r.take_u8()? {
        0 => None,
        1 => {
            let kept_from = match r.take_u8()? {
                0 => None,
                1 => {
                    let idx = ints.take_u32(r)?;
                    if idx >= support_len {
                        return Err(r.fail(format_args!(
                            "pending-run index {idx} out of bounds for a support of {support_len}"
                        )));
                    }
                    Some(idx)
                }
                tag => return Err(r.fail(format_args!("unknown kept-from tag {tag}"))),
            };
            Some(PendingRun {
                kept_from,
                first_kept: ints.take_u64(r)?,
                last: ints.take_u64(r)?,
            })
        }
        tag => return Err(r.fail(format_args!("unknown pending-run tag {tag}"))),
    };
    Ok(SeasonTracker {
        spans,
        best,
        current,
        prev_end,
        pending,
    })
}

fn encode_events(miner: &StreamingMiner) -> Vec<u8> {
    // The event map iterates in hash order; sort by packed label so snapshot
    // bytes are a pure function of the state.
    #[expect(clippy::disallowed_methods, reason = "sorted before it is written")]
    let mut entries: Vec<(u64, &StreamEventEntry)> = miner
        .events
        .iter()
        .map(|(label, entry)| (label.packed(), entry))
        .collect();
    entries.sort_unstable_by_key(|&(packed, _)| packed);
    let mut w = ByteWriter::new();
    w.put_varint(entries.len() as u64);
    for (packed, entry) in entries {
        w.put_varint(packed);
        write_support(&mut w, &entry.support);
        write_tracker(&mut w, &entry.tracker);
    }
    w.into_bytes()
}

fn read_label(r: &ByteReader<'_>, word: u64, registry: &EventRegistry) -> Result<EventLabel> {
    if word >> 48 != 0 {
        return Err(r.fail(format_args!(
            "label word {word:#x} overflows the 48-bit packing"
        )));
    }
    let series = (word >> 16) as u32;
    let symbol = (word & 0xFFFF) as u16;
    let alphabet_len = registry
        .alphabet(SeriesId(series))
        .map(<[String]>::len)
        .ok_or_else(|| {
            r.fail(format_args!(
                "label references series {series} but only {} are registered",
                registry.num_series()
            ))
        })?;
    if usize::from(symbol) >= alphabet_len {
        return Err(r.fail(format_args!(
            "label references symbol {symbol} but series {series} has {alphabet_len} symbols"
        )));
    }
    Ok(EventLabel::new(SeriesId(series), SymbolId(symbol)))
}

fn decode_events(
    payload: &[u8],
    ints: Ints,
    registry: &EventRegistry,
    num_granules: u64,
) -> Result<FxHashMap<EventLabel, StreamEventEntry>> {
    let mut r = ByteReader::new(payload, "events section");
    let count = ints.take_u32(&mut r)?;
    let mut events = FxHashMap::default();
    events.reserve(capped(
        u64::from(count),
        r.remaining(),
        ints.min_bytes(16, 7),
    ));
    let mut prev_packed: Option<u64> = None;
    for _ in 0..count {
        let packed = ints.take_u64(&mut r)?;
        if prev_packed.is_some_and(|prev| packed <= prev) {
            return Err(r.fail(format_args!(
                "event label {packed:#x} is not strictly increasing"
            )));
        }
        prev_packed = Some(packed);
        let label = read_label(&r, packed, registry)?;
        let support = read_support(&mut r, ints, num_granules)?;
        let support_len =
            u32::try_from(support.len()).map_err(|_| r.fail("support length overflows u32"))?;
        let tracker = read_tracker(&mut r, ints, support_len)?;
        events.insert(label, StreamEventEntry { support, tracker });
    }
    r.finish()?;
    Ok(events)
}

fn encode_level(level: &StreamLevel) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_varint(level.k as u64);
    w.put_varint(level.entries.len() as u64);
    for (entry, key) in level.entries.iter().zip(level.entry_keys()) {
        // The interning key fully encodes the pattern; its length is fixed
        // by k, so no per-entry length prefix is needed.
        for &word in key {
            w.put_varint(word);
        }
        write_support(&mut w, &entry.support);
        write_tracker(&mut w, &entry.tracker);
    }
    w.into_bytes()
}

/// Checks one interning key read from a `LEVEL` section on its words: the
/// `k` labels against the registry, then the triples
/// ([`check_key_triples`]: valid words, indexes below `k`, canonical order).
fn check_key(r: &ByteReader<'_>, k: usize, key: &[u64], registry: &EventRegistry) -> Result<()> {
    let (event_words, triple_words) = key.split_at(k.min(key.len()));
    for &word in event_words {
        read_label(r, word, registry)?;
    }
    check_key_triples(k, triple_words).map_err(|defect| match defect {
        KeyDefect::NotATriple(word) => {
            r.fail(format_args!("key word {word:#x} is not a relation triple"))
        }
        KeyDefect::IndexOutOfRange(index) => r.fail(format_args!(
            "triple indexes event {index} of a {k}-pattern"
        )),
        KeyDefect::NotCanonical => r.fail("pattern key is not in canonical order"),
    })
}

fn decode_level(
    payload: &[u8],
    ints: Ints,
    k: usize,
    registry: &EventRegistry,
    num_granules: u64,
) -> Result<StreamLevel> {
    let mut r = ByteReader::new(payload, "level section");
    let stored_k = ints.take_u64(&mut r)?;
    if stored_k != k as u64 {
        return Err(r.fail(format_args!(
            "level k = {stored_k} where k = {k} was expected"
        )));
    }
    let count = ints.take_u32(&mut r)?;
    let mut level = StreamLevel::new(k);
    let key_len = level.key_len();
    let capacity = capped(
        u64::from(count),
        r.remaining(),
        ints.min_bytes(key_len * 8, key_len + 6),
    );
    level.entries.reserve(capacity);
    level.index.reserve(capacity);
    level.keys.reserve(capacity * key_len);
    // One key buffer for the whole section: each key is checked on its
    // words as read, and only the index copy of a new key is allocated.
    let mut key = vec![0u64; key_len];
    for _ in 0..count {
        for word in &mut key {
            *word = ints.take_u64(&mut r)?;
        }
        check_key(&r, k, &key, registry)?;
        let support = read_support(&mut r, ints, num_granules)?;
        let support_len =
            u32::try_from(support.len()).map_err(|_| r.fail("support length overflows u32"))?;
        let tracker = read_tracker(&mut r, ints, support_len)?;
        if u32::try_from(level.entries.len()).is_err() {
            return Err(r.fail("pattern count overflows u32"));
        }
        level
            .push_new(
                key.as_slice().into(),
                StreamPatternEntry { support, tracker },
            )
            .ok_or_else(|| r.fail("duplicate pattern key"))?;
    }
    r.finish()?;
    Ok(level)
}

// ---------------------------------------------------------------------------
// Whole-miner encode / decode
// ---------------------------------------------------------------------------

/// Encodes the whole miner under the *next* checkpoint id, which only
/// [`StreamingMiner::mark_snapshot_durable`] commits.
fn encode_miner(miner: &StreamingMiner) -> Vec<u8> {
    let mut out = Vec::new();
    write_header(&mut out, KIND_MINER);
    write_section(&mut out, SEC_CONFIG, &encode_config(&miner.config));
    write_section(&mut out, SEC_REGISTRY, &encode_registry(&miner.registry));
    let mut state = ByteWriter::new();
    state.put_u64(miner.num_granules);
    state.put_u64(miner.batches_absorbed);
    state.put_u64(miner.checkpoint_id + 1);
    write_section(&mut out, SEC_STATE, state.bytes());
    write_section(&mut out, SEC_EVENTS, &encode_events(miner));
    for level in &miner.levels {
        write_section(&mut out, SEC_LEVEL, &encode_level(level));
    }
    out
}

fn effective_config(stored: &StpmConfig, requested: Option<&StpmConfig>) -> Result<StpmConfig> {
    let Some(req) = requested else {
        return Ok(stored.clone());
    };
    if req.epsilon != stored.epsilon {
        return Err(Error::SnapshotConfigMismatch {
            parameter: "epsilon",
            reason: format!(
                "snapshot was absorbed with ε = {}, restore requested ε = {} — the relation \
                 classification baked into the interned patterns cannot be replayed",
                stored.epsilon, req.epsilon
            ),
        });
    }
    if req.min_overlap.max(1) != stored.min_overlap.max(1) {
        return Err(Error::SnapshotConfigMismatch {
            parameter: "minOverlap",
            reason: format!(
                "snapshot was absorbed with d_o = {}, restore requested d_o = {} — overlap \
                 verdicts baked into the interned patterns cannot be replayed",
                stored.min_overlap.max(1),
                req.min_overlap.max(1)
            ),
        });
    }
    if req.max_pattern_len != stored.max_pattern_len {
        return Err(Error::SnapshotConfigMismatch {
            parameter: "maxPatternLen",
            reason: format!(
                "snapshot holds levels up to k = {}, restore requested up to k = {}",
                stored.max_pattern_len, req.max_pattern_len
            ),
        });
    }
    Ok(req.clone())
}

fn decode_miner(bytes: &[u8], requested: Option<&StpmConfig>) -> Result<StreamingMiner> {
    let (version, mut cursor) = parse_header(bytes, KIND_MINER)?;
    let ints = Ints::of(version);
    let stored_config = decode_config(read_section(&mut cursor, SEC_CONFIG)?)?;
    let registry = decode_registry(read_section(&mut cursor, SEC_REGISTRY)?)?;
    let state = read_section(&mut cursor, SEC_STATE)?;
    let mut r = ByteReader::new(state, "state section");
    let num_granules = r.take_u64()?;
    let batches_absorbed = r.take_u64()?;
    let checkpoint_id = r.take_u64()?;
    r.finish()?;
    let config = effective_config(&stored_config, requested)?;
    config.resolve(1)?;
    let resolved = if num_granules > 0 {
        Some(config.resolve(num_granules)?)
    } else {
        None
    };
    let events = decode_events(
        read_section(&mut cursor, SEC_EVENTS)?,
        ints,
        &registry,
        num_granules,
    )?;
    let mut levels = Vec::with_capacity(config.max_pattern_len.saturating_sub(1));
    for k in 2..=config.max_pattern_len {
        levels.push(decode_level(
            read_section(&mut cursor, SEC_LEVEL)?,
            ints,
            k,
            &registry,
            num_granules,
        )?);
    }
    if !cursor.is_empty() {
        return Err(corrupt(format!(
            "{} trailing bytes after the last section",
            cursor.len()
        )));
    }
    let mut miner = StreamingMiner {
        config,
        registry,
        resolved,
        num_granules,
        events,
        levels,
        append_time: Duration::ZERO,
        batches_absorbed,
        checkpoint_id,
        granules_at_snapshot: num_granules,
    };
    // A restore may legally request different *seasonality* thresholds than
    // the snapshot was taken under; replay every tracker from its stored
    // support — the same exactness fallback as a fractional threshold
    // crossing a granule-count boundary mid-stream.
    if let (Some(new), true) = (miner.resolved, requested.is_some()) {
        let old = stored_config.resolve(num_granules)?;
        let seasonal_changed = old.max_period != new.max_period
            || old.min_density != new.min_density
            || old.dist_min != new.dist_min
            || old.dist_max != new.dist_max;
        if seasonal_changed {
            #[expect(
                clippy::disallowed_methods,
                clippy::iter_over_hash_type,
                reason = "each entry is rebuilt on its own; visit order is unobservable"
            )]
            for entry in miner.events.values_mut() {
                entry.tracker = SeasonTracker::rebuild(&entry.support, &new);
            }
            for level in &mut miner.levels {
                for entry in &mut level.entries {
                    entry.tracker = SeasonTracker::rebuild(&entry.support, &new);
                }
            }
        }
    }
    Ok(miner)
}

// ---------------------------------------------------------------------------
// Public miner API
// ---------------------------------------------------------------------------

/// Observability summary of a miner's durable-state position — what has been
/// absorbed, what has been snapshotted, and what a crash without a WAL would
/// lose. Obtained from [`StreamingMiner::checkpoint_meta`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// Id of the most recent snapshot taken of this state (0 = none yet).
    pub checkpoint_id: u64,
    /// Granules absorbed into the state so far.
    pub granules_absorbed: u64,
    /// Distinct patterns interned across every level.
    pub patterns_interned: u64,
    /// Granules absorbed since the most recent snapshot.
    pub pending_granules: u64,
    /// Transient I/O retries absorbed by the persistence layer so far.
    ///
    /// Always zero for a bare miner (which performs no I/O of its own);
    /// the streaming pipeline overlays its retry counter here. Not part of
    /// the wire format — the counter restarts at zero after a restore.
    pub io_retries: u64,
}

impl StreamingMiner {
    /// Serializes the full persistent state to `out` as one
    /// [`SNAPSHOT_VERSION`] snapshot carrying the *next* checkpoint id, so
    /// the written state (and a miner restored from it) continues the id
    /// sequence. The id bump and
    /// the pending-granule watermark are committed only once the writer
    /// accepted every byte: after a successful snapshot
    /// [`StreamingMiner::pending_granules`] is zero, while after a failed one
    /// [`StreamingMiner::checkpoint_meta`] still reports the truth (nothing
    /// was persisted), so a caller gating re-snapshots on `pending_granules`
    /// retries instead of skipping.
    ///
    /// # Errors
    /// [`Error::SnapshotIo`] when the writer fails.
    pub fn snapshot(&mut self, out: &mut impl Write) -> Result<()> {
        out.write_all(&self.encode_snapshot())
            .map_err(|e| Error::snapshot_io(&e))?;
        self.mark_snapshot_durable();
        Ok(())
    }

    /// Encodes the state exactly as [`StreamingMiner::snapshot`] would —
    /// under the next checkpoint id — without committing that id. Pair with
    /// [`StreamingMiner::mark_snapshot_durable`] once the bytes have
    /// verifiably reached durable storage; callers that write to fallible or
    /// non-durable sinks use this split so an I/O failure between the two
    /// calls leaves the checkpoint accounting untouched.
    #[must_use]
    pub fn encode_snapshot(&self) -> Vec<u8> {
        encode_miner(self)
    }

    /// Commits the checkpoint bump of the most recent
    /// [`StreamingMiner::encode_snapshot`]: the checkpoint id advances and
    /// [`StreamingMiner::pending_granules`] drops to zero. Call only after
    /// the encoded bytes are durable — committing earlier makes a crash
    /// window invisible to `pending_granules`-driven re-snapshot logic.
    pub fn mark_snapshot_durable(&mut self) {
        self.checkpoint_id += 1;
        self.granules_at_snapshot = self.num_granules;
    }

    /// Restores a miner from a snapshot produced by
    /// [`StreamingMiner::snapshot`] of any format version this build reads
    /// (1 to [`SNAPSHOT_VERSION`]), under the configuration stored in it.
    /// Wall-clock timing counters restart at zero; everything else — and
    /// every byte of every later snapshot — is identical to the miner the
    /// snapshot was taken from.
    ///
    /// # Errors
    /// [`Error::SnapshotIo`] when the reader fails; [`Error::SnapshotVersion`]
    /// for a future format version; [`Error::SnapshotCorrupt`] for truncated,
    /// bit-flipped or structurally invalid bytes (this function never
    /// panics on corrupt input).
    pub fn restore(input: &mut impl Read) -> Result<Self> {
        let mut bytes = Vec::new();
        input
            .read_to_end(&mut bytes)
            .map_err(|e| Error::snapshot_io(&e))?;
        decode_miner(&bytes, None)
    }

    /// Restores a miner from a snapshot under a *requested* configuration
    /// instead of the stored one. Parameters that shaped the absorbed state
    /// (ε, `d_o`, `maxPatternLen`) must match; seasonality thresholds may
    /// differ, in which case every season tracker is replayed from its
    /// stored support under the new thresholds.
    ///
    /// # Errors
    /// As [`StreamingMiner::restore`], plus
    /// [`Error::SnapshotConfigMismatch`] for an incompatible request.
    pub fn restore_with(config: &StpmConfig, input: &mut impl Read) -> Result<Self> {
        let mut bytes = Vec::new();
        input
            .read_to_end(&mut bytes)
            .map_err(|e| Error::snapshot_io(&e))?;
        decode_miner(&bytes, Some(config))
    }

    /// The miner's durable-state position: checkpoint id, granules absorbed,
    /// patterns interned, and granules pending since the last snapshot.
    #[must_use]
    pub fn checkpoint_meta(&self) -> CheckpointMeta {
        CheckpointMeta {
            checkpoint_id: self.checkpoint_id,
            granules_absorbed: self.num_granules,
            patterns_interned: self.patterns_interned(),
            pending_granules: self.pending_granules(),
            io_retries: 0,
        }
    }
}

// ---------------------------------------------------------------------------
// Symbolic databases and pipeline snapshots
// ---------------------------------------------------------------------------

/// Writes `db` as a series list: the series count, then per series its
/// name, its alphabet and its symbols. The `DSYB` section of a pipeline
/// snapshot, every WAL batch record and every service append frame carry
/// their symbolic data in this one encoding.
///
/// # Panics
/// When `db` holds more than `u32::MAX` series, or a series has more than
/// `u32::MAX` labels.
#[expect(clippy::expect_used, reason = "encoder, not a decode path")]
pub fn write_symbolic_database(w: &mut ByteWriter, db: &SymbolicDatabase) {
    w.put_u32(u32::try_from(db.num_series()).expect("series count fits u32"));
    for series in db.series() {
        w.put_str(series.name());
        let labels = series.alphabet().labels();
        w.put_u32(u32::try_from(labels.len()).expect("alphabet fits u32"));
        for label in labels {
            w.put_str(label);
        }
        w.put_u64(series.symbols().len() as u64);
        for &symbol in series.symbols() {
            w.put_u16(symbol.0);
        }
    }
}

/// Reads a series list written by [`write_symbolic_database`].
///
/// # Errors
/// [`Error::SnapshotCorrupt`] on truncation, on an alphabet larger than the
/// `u16` symbol space, on a symbol outside its alphabet, and on series that
/// do not form a database (different lengths, say).
pub fn read_symbolic_database(r: &mut ByteReader<'_>) -> Result<SymbolicDatabase> {
    let num_series = r.take_u32()?;
    let mut series = Vec::new();
    for _ in 0..num_series {
        let name = r.take_str()?;
        let label_count = r.take_u32()?;
        if label_count > 1 << 16 {
            return Err(corrupt(format!(
                "alphabet of {label_count} symbols exceeds the u16 symbol space"
            )));
        }
        let mut labels = Vec::new();
        for _ in 0..label_count {
            labels.push(r.take_str()?);
        }
        let alphabet = Alphabet::new(labels)
            .map_err(|e| corrupt(format!("series `{name}` carries an invalid alphabet: {e}")))?;
        let symbol_count = r.take_u64()?;
        // One bounds check for the whole series, then two bytes per symbol.
        let byte_len = usize::try_from(symbol_count)
            .ok()
            .and_then(|count| count.checked_mul(2))
            .ok_or_else(|| r.fail(format_args!("{symbol_count} symbols overflow usize")))?;
        let bytes = r.take(byte_len)?;
        let mut symbols = Vec::with_capacity(byte_len / 2);
        for pair in bytes.chunks_exact(2) {
            let &[lo, hi] = pair else {
                return Err(r.fail("internal length mismatch"));
            };
            let symbol = u16::from_le_bytes([lo, hi]);
            if u32::from(symbol) >= label_count {
                return Err(corrupt(format!(
                    "series `{name}` references symbol {symbol} outside its {label_count}-symbol \
                     alphabet"
                )));
            }
            symbols.push(SymbolId(symbol));
        }
        series.push(SymbolicSeries::new(name, symbols, alphabet));
    }
    SymbolicDatabase::new(series)
        .map_err(|e| corrupt(format!("{} failed validation: {e}", r.context)))
}

/// Encodes one appended batch as a WAL record payload: the instant count
/// the stream held before the batch, then the batch as a series list.
#[must_use]
pub fn encode_symbolic_batch(start_instants: u64, batch: &SymbolicDatabase) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(start_instants);
    write_symbolic_database(&mut w, batch);
    w.into_bytes()
}

/// Decodes a WAL record payload written by [`encode_symbolic_batch`].
///
/// # Errors
/// [`Error::SnapshotCorrupt`] on truncated, trailing or invalid bytes.
pub fn decode_symbolic_batch(payload: &[u8]) -> Result<(u64, SymbolicDatabase)> {
    let mut r = ByteReader::new(payload, "WAL batch record");
    let start_instants = r.take_u64()?;
    let batch = read_symbolic_database(&mut r)?;
    r.finish()?;
    Ok((start_instants, batch))
}

/// Encodes a streaming-pipeline snapshot: the mapping factor, then, once
/// the stream holds state, its symbolic database and the miner's snapshot
/// (under the miner's next checkpoint id, as
/// [`StreamingMiner::encode_snapshot`]).
#[must_use]
pub fn encode_pipeline(
    mapping_factor: u64,
    state: Option<(&SymbolicDatabase, &StreamingMiner)>,
) -> Vec<u8> {
    let mut out = Vec::new();
    write_header(&mut out, KIND_PIPELINE);
    let mut pipe = ByteWriter::new();
    pipe.put_u64(mapping_factor);
    pipe.put_u8(u8::from(state.is_some()));
    write_section(&mut out, SEC_PIPE, pipe.bytes());
    if let Some((dsyb, miner)) = state {
        let mut w = ByteWriter::new();
        write_symbolic_database(&mut w, dsyb);
        write_section(&mut out, SEC_DSYB, w.bytes());
        write_section(&mut out, SEC_MINER, &encode_miner(miner));
    }
    out
}

/// Decodes a pipeline snapshot written by [`encode_pipeline`] in any
/// version this build reads, checking the restoring pipeline's mapping
/// factor and configuration against it (see [`StreamingMiner::restore_with`]).
/// Returns the symbolic database and the miner, or `None` for a snapshot of
/// a stream that held no state yet.
///
/// # Errors
/// [`Error::SnapshotCorrupt`], [`Error::SnapshotVersion`], or
/// [`Error::SnapshotConfigMismatch`] for a different mapping factor or a
/// configuration that shaped the absorbed state differently.
pub fn decode_pipeline(
    bytes: &[u8],
    mapping_factor: u64,
    config: &StpmConfig,
) -> Result<Option<(SymbolicDatabase, StreamingMiner)>> {
    let (version, mut cursor) = parse_header(bytes, KIND_PIPELINE)?;
    let mut r = ByteReader::new(read_section(&mut cursor, SEC_PIPE)?, "pipeline section");
    let stored_m = r.take_u64()?;
    if stored_m != mapping_factor {
        return Err(Error::SnapshotConfigMismatch {
            parameter: "mappingFactor",
            reason: format!(
                "snapshot maps {stored_m} instants per granule, this pipeline maps \
                 {mapping_factor} — granule boundaries cannot be replayed"
            ),
        });
    }
    let has_state = match r.take_u8()? {
        0 => false,
        1 => true,
        tag => {
            return Err(corrupt(format!(
                "pipeline section: unknown has-state tag {tag}"
            )))
        }
    };
    r.finish()?;
    if !has_state {
        if !cursor.is_empty() {
            return Err(corrupt(format!(
                "{} trailing bytes after an empty pipeline snapshot",
                cursor.len()
            )));
        }
        return Ok(None);
    }
    let mut r = ByteReader::new(
        read_section(&mut cursor, SEC_DSYB)?,
        "symbolic-database section",
    );
    let dsyb = read_symbolic_database(&mut r)?;
    r.finish()?;
    let miner_bytes = read_section(&mut cursor, SEC_MINER)?;
    if !cursor.is_empty() {
        return Err(corrupt(format!(
            "{} trailing bytes after the last section",
            cursor.len()
        )));
    }
    // The embedded miner section is a whole miner snapshot with its own
    // header; both are written in one go, so their versions must agree.
    let (miner_version, _) = parse_header(miner_bytes, KIND_MINER)?;
    if miner_version != version {
        return Err(corrupt(format!(
            "a version-{version} pipeline snapshot embeds a version-{miner_version} miner"
        )));
    }
    let miner = decode_miner(miner_bytes, Some(config))?;
    if miner.registry != *dsyb.registry() {
        return Err(corrupt(
            "the miner's event registry diverges from the symbolic database's",
        ));
    }
    Ok(Some((dsyb, miner)))
}

// ---------------------------------------------------------------------------
// Write-ahead log
// ---------------------------------------------------------------------------

/// The 12-byte WAL file header (magic + version).
#[must_use]
pub fn wal_header() -> [u8; 12] {
    let mut header = [0u8; 12];
    header[..8].copy_from_slice(&WAL_MAGIC);
    header[8..].copy_from_slice(&WAL_VERSION.to_le_bytes());
    header
}

/// Frames one opaque `payload` as a WAL record (length, CRC, payload).
#[must_use]
pub fn wal_encode_record(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + payload.len());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// The durable prefix of a write-ahead log, as recovered by [`wal_read`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalContents {
    /// The payloads of every intact record, in append order.
    pub records: Vec<Vec<u8>>,
    /// Byte length of the durable prefix (header + intact records) —
    /// truncate the log file to this length to drop a torn tail.
    pub durable_len: u64,
    /// Whether the whole input was durable (`false` when a torn or corrupt
    /// tail was dropped).
    pub clean: bool,
}

/// Reads a write-ahead log, recovering the longest durable prefix. An empty
/// input is a valid empty log. A torn or corrupt tail (the expected result
/// of a crash mid-append) is *not* an error: reading stops there, `clean`
/// is `false`, and `durable_len` says how much to keep.
///
/// # Errors
/// [`Error::SnapshotCorrupt`] when the header itself is damaged (the file is
/// not a WAL); [`Error::SnapshotVersion`] for a future WAL version.
pub fn wal_read(bytes: &[u8]) -> Result<WalContents> {
    if bytes.is_empty() {
        return Ok(WalContents {
            records: Vec::new(),
            durable_len: 0,
            clean: true,
        });
    }
    if bytes.len() < 12 {
        return Err(corrupt(format!(
            "WAL header truncated: {} bytes, need 12",
            bytes.len()
        )));
    }
    let mut r = ByteReader::new(bytes, "WAL header");
    let magic: [u8; 8] = r.take_array()?;
    if magic != WAL_MAGIC {
        return Err(corrupt("WAL magic bytes do not spell STPMWAL1"));
    }
    let version = r.take_u32()?;
    if version != WAL_VERSION {
        return Err(Error::SnapshotVersion {
            found: version,
            supported: WAL_VERSION,
        });
    }
    // Past the header, any parse failure is a torn tail, not an error: the
    // durable prefix ends at the last record that read back whole.
    let mut records = Vec::new();
    let mut clean = true;
    let mut durable = r.pos;
    while r.remaining() > 0 {
        let Ok(len) = r.take_u64() else {
            clean = false;
            break;
        };
        let Ok(stored) = r.take_u32() else {
            clean = false;
            break;
        };
        let Ok(len) = usize::try_from(len) else {
            clean = false;
            break;
        };
        let Ok(payload) = r.take(len) else {
            clean = false;
            break;
        };
        if crc32(payload) != stored {
            clean = false;
            break;
        }
        records.push(payload.to_vec());
        durable = r.pos;
    }
    Ok(WalContents {
        records,
        durable_len: durable as u64,
        clean,
    })
}

#[cfg(test)]
#[allow(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::disallowed_macros
)]
mod tests {
    use super::*;
    use stpm_timeseries::{Alphabet, SymbolicDatabase, SymbolicSeries};

    fn sample_dseq() -> stpm_timeseries::SequenceDatabase {
        let alphabet = Alphabet::from_strs(&["0", "1"]).unwrap();
        let c = SymbolicSeries::from_labels(
            "C",
            &[
                "1", "1", "0", "1", "0", "0", "1", "1", "0", "0", "0", "0", "1", "1", "0", "1",
                "0", "1", "1", "1", "0", "0", "1", "0",
            ],
            alphabet.clone(),
        )
        .unwrap();
        let d = SymbolicSeries::from_labels(
            "D",
            &[
                "1", "0", "0", "1", "0", "0", "1", "1", "0", "1", "1", "0", "1", "0", "0", "0",
                "1", "1", "1", "0", "0", "1", "1", "0",
            ],
            alphabet,
        )
        .unwrap();
        let dsyb = SymbolicDatabase::new(vec![c, d]).unwrap();
        dsyb.to_sequence_database(3).unwrap()
    }

    fn sample_config() -> StpmConfig {
        StpmConfig {
            max_period: Threshold::Absolute(2),
            min_density: Threshold::Absolute(2),
            dist_interval: (1, 10),
            min_season: 1,
            ..StpmConfig::default()
        }
    }

    fn mined_miner() -> StreamingMiner {
        let dseq = sample_dseq();
        let config = sample_config();
        let mut miner = StreamingMiner::new(&config, dseq.registry()).unwrap();
        miner.append_batch(dseq.sequences()).unwrap();
        miner
    }

    fn snapshot_bytes(miner: &mut StreamingMiner) -> Vec<u8> {
        let mut bytes = Vec::new();
        miner.snapshot(&mut bytes).unwrap();
        bytes
    }

    #[test]
    fn crc32_matches_the_ieee_test_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sliced_crc32_agrees_with_the_bytewise_definition_at_every_length() {
        fn bytewise(bytes: &[u8]) -> u32 {
            let mut crc = 0xFFFF_FFFFu32;
            for &b in bytes {
                crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
            }
            crc ^ 0xFFFF_FFFF
        }
        let data: Vec<u8> = (0..257u32)
            .map(|i| (i.wrapping_mul(31) >> 3) as u8)
            .collect();
        for len in 0..data.len() {
            assert_eq!(crc32(&data[..len]), bytewise(&data[..len]), "length {len}");
        }
    }

    #[test]
    fn byte_writer_and_reader_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u16(1000);
        w.put_u32(70_000);
        w.put_u64(1 << 40);
        w.put_f64(0.005);
        w.put_str("hello κόσμε");
        let mut r = ByteReader::new(w.bytes(), "test");
        assert_eq!(r.take_u8().unwrap(), 7);
        assert_eq!(u16::from_le_bytes(r.take_array().unwrap()), 1000);
        assert_eq!(r.take_u32().unwrap(), 70_000);
        assert_eq!(r.take_u64().unwrap(), 1 << 40);
        assert_eq!(r.take_f64().unwrap(), 0.005);
        assert_eq!(r.take_str().unwrap(), "hello κόσμε");
        r.finish().unwrap();

        // Varints: the edge values plus both sides of every 7-bit group
        // boundary round-trip in their shortest form.
        let mut values = vec![0, 127, 128, 1 << 32, 1 << 63, u64::MAX];
        for bits in (7..64).step_by(7) {
            values.extend([(1u64 << bits) - 1, 1u64 << bits]);
        }
        for v in values {
            let mut w = ByteWriter::new();
            w.put_varint(v);
            let width = (64 - v.leading_zeros()).max(1).div_ceil(7) as usize;
            assert_eq!(w.bytes().len(), width, "varint width of {v}");
            let mut r = ByteReader::new(w.bytes(), "varint");
            assert_eq!(r.take_varint().unwrap(), v);
            r.finish().unwrap();
        }
    }

    fn varints(values: &[u64]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        for &v in values {
            w.put_varint(v);
        }
        w.into_bytes()
    }

    fn is_corrupt<T: std::fmt::Debug>(result: Result<T>) -> bool {
        matches!(result, Err(Error::SnapshotCorrupt { .. }))
    }

    #[test]
    fn malformed_varints_are_typed_errors() {
        let take = |bytes: &[u8]| ByteReader::new(bytes, "varint").take_varint();
        assert_eq!(
            take(&[0xFF; 9].iter().chain(&[0x01]).copied().collect::<Vec<_>>()).unwrap(),
            u64::MAX
        );
        // Truncated mid-varint, and empty.
        assert!(is_corrupt(take(&[0x80, 0x80])));
        assert!(is_corrupt(take(&[])));
        // 11 bytes: the 10th still has its continuation bit set.
        assert!(is_corrupt(take(&[0xFF; 11])));
        let mut eleven = vec![0x80; 10];
        eleven.push(0x01);
        assert!(is_corrupt(take(&eleven)));
        // A 10th byte above 1 carries bits past 2^64.
        let mut overflow = vec![0xFF; 9];
        overflow.push(0x02);
        assert!(is_corrupt(take(&overflow)));
        // A trailing zero group is not the shortest form.
        assert!(is_corrupt(take(&[0x80, 0x00])));
        assert!(is_corrupt(take(&[0xFF, 0x00])));
        // The u32-checked variant rejects 2^32.
        let bytes = varints(&[1 << 32]);
        assert!(is_corrupt(
            ByteReader::new(&bytes, "varint").take_varint_u32()
        ));
    }

    #[test]
    fn malformed_v2_supports_are_typed_errors() {
        let support = |values: &[u64], num_granules: u64| {
            let bytes = varints(values);
            let mut r = ByteReader::new(&bytes, "support");
            read_support(&mut r, Ints::Varint, num_granules)
        };
        assert_eq!(support(&[3, 1, 1, 4], 6).unwrap(), vec![1, 2, 6]);
        // A zero gap breaks strict order, also as the first granule.
        assert!(is_corrupt(support(&[2, 1, 0], 10)));
        assert!(is_corrupt(support(&[1, 0], 10)));
        // Gaps summing past the absorbed granules, and past u64::MAX.
        assert!(is_corrupt(support(&[2, 5, 6], 10)));
        assert!(is_corrupt(support(&[2, u64::MAX - 1, 5], u64::MAX)));
        // More granules than were absorbed.
        assert!(is_corrupt(support(&[3, 1, 1, 1], 2)));
        // A count the payload cannot hold is a truncation, not an allocation,
        // and a count past u32 is rejected outright.
        assert!(is_corrupt(support(&[u64::from(u32::MAX)], u64::MAX)));
        assert!(is_corrupt(support(&[1 << 32, 1], u64::MAX)));
    }

    #[test]
    fn malformed_v2_season_spans_are_typed_errors() {
        // spans · best · current · no prev_end · no pending run
        let tracker = |spans: &[u64], support_len: u32| {
            let mut bytes = varints(spans);
            bytes.extend([0, 0, 0, 0]);
            let mut r = ByteReader::new(&bytes, "tracker");
            read_tracker(&mut r, Ints::Varint, support_len)
        };
        let ok = tracker(&[2, 0, 2, 1, 3], 6).unwrap();
        assert_eq!(ok.spans, vec![(0, 2), (3, 6)]);
        // start + length past u32.
        assert!(is_corrupt(tracker(&[1, u64::from(u32::MAX), 2], 6)));
        assert!(is_corrupt(tracker(&[1, u64::MAX, 1], 6)));
        // A span ending past the support, and an empty span.
        assert!(is_corrupt(tracker(&[1, 2, 5], 6)));
        assert!(is_corrupt(tracker(&[1, 0, 0], 6)));
        // More spans than support entries.
        assert!(is_corrupt(tracker(&[7], 6)));
    }

    #[test]
    fn reader_overruns_are_typed_errors() {
        let mut r = ByteReader::new(&[1, 2, 3], "tiny");
        assert!(matches!(r.take_u64(), Err(Error::SnapshotCorrupt { .. })));
        let mut r = ByteReader::new(&[0xFF, 0xFF, 0xFF, 0xFF], "str");
        assert!(r.take_str().is_err());
    }

    #[test]
    fn snapshot_restore_round_trips_byte_identically() {
        let mut miner = mined_miner();
        let bytes = snapshot_bytes(&mut miner);
        let mut restored = StreamingMiner::restore(&mut &bytes[..]).unwrap();
        assert_eq!(restored.num_granules(), miner.num_granules());
        assert_eq!(restored.patterns_interned(), miner.patterns_interned());
        assert_eq!(restored.checkpoint_meta(), miner.checkpoint_meta());
        // Both sides take their next snapshot: the bytes must be identical.
        assert_eq!(snapshot_bytes(&mut miner), snapshot_bytes(&mut restored));
        // And the reports they mine are identical.
        let a = miner.checkpoint().unwrap();
        let b = restored.checkpoint().unwrap();
        assert_eq!(a.total_patterns(), b.total_patterns());
    }

    #[test]
    fn restore_then_append_matches_uninterrupted_run() {
        let dseq = sample_dseq();
        let config = sample_config();
        let mut uninterrupted = StreamingMiner::new(&config, dseq.registry()).unwrap();
        uninterrupted.append_batch(&dseq.sequences()[..3]).unwrap();
        let snap = snapshot_bytes(&mut uninterrupted);
        uninterrupted.append_batch(&dseq.sequences()[3..]).unwrap();

        let mut recovered = StreamingMiner::restore(&mut &snap[..]).unwrap();
        recovered.append_batch(&dseq.sequences()[3..]).unwrap();

        assert_eq!(
            snapshot_bytes(&mut uninterrupted),
            snapshot_bytes(&mut recovered)
        );
    }

    #[test]
    fn checkpoint_meta_tracks_pending_granules() {
        let dseq = sample_dseq();
        let config = sample_config();
        let mut miner = StreamingMiner::new(&config, dseq.registry()).unwrap();
        miner.append_batch(&dseq.sequences()[..3]).unwrap();
        let meta = miner.checkpoint_meta();
        assert_eq!(meta.checkpoint_id, 0);
        assert_eq!(meta.granules_absorbed, 3);
        assert_eq!(meta.pending_granules, 3);
        let _ = snapshot_bytes(&mut miner);
        let meta = miner.checkpoint_meta();
        assert_eq!(meta.checkpoint_id, 1);
        assert_eq!(meta.pending_granules, 0);
        miner.append_batch(&dseq.sequences()[3..5]).unwrap();
        assert_eq!(miner.checkpoint_meta().pending_granules, 2);
    }

    #[test]
    fn a_failed_snapshot_write_leaves_the_checkpoint_accounting_untouched() {
        struct FailingWriter;
        impl Write for FailingWriter {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut miner = mined_miner();
        let before = miner.checkpoint_meta();
        assert!(before.pending_granules > 0);
        let err = miner.snapshot(&mut FailingWriter).unwrap_err();
        assert!(matches!(err, Error::SnapshotIo { .. }));
        // Nothing was persisted, so nothing may claim to be: a caller gating
        // re-snapshots on `pending_granules` must see the truth and retry.
        assert_eq!(miner.checkpoint_meta(), before);
        // The retry produces exactly what a never-failed first snapshot
        // would have.
        let retried = snapshot_bytes(&mut miner);
        let mut clean = mined_miner();
        assert_eq!(retried, snapshot_bytes(&mut clean));
        assert_eq!(miner.checkpoint_meta().checkpoint_id, 1);
    }

    #[test]
    fn empty_miner_round_trips() {
        let dseq = sample_dseq();
        let config = sample_config();
        let mut miner = StreamingMiner::new(&config, dseq.registry()).unwrap();
        let bytes = snapshot_bytes(&mut miner);
        let mut restored = StreamingMiner::restore(&mut &bytes[..]).unwrap();
        assert_eq!(restored.num_granules(), 0);
        restored.append_batch(dseq.sequences()).unwrap();
        let mut direct = StreamingMiner::new(&config, dseq.registry()).unwrap();
        direct.append_batch(dseq.sequences()).unwrap();
        let _ = snapshot_bytes(&mut direct); // align checkpoint ids (1 each)
        assert_eq!(snapshot_bytes(&mut restored), snapshot_bytes(&mut direct));
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let mut miner = mined_miner();
        let bytes = snapshot_bytes(&mut miner);
        for len in 0..bytes.len() {
            let result = StreamingMiner::restore(&mut &bytes[..len]);
            assert!(
                matches!(
                    result,
                    Err(Error::SnapshotCorrupt { .. } | Error::SnapshotVersion { .. })
                ),
                "truncation to {len}/{} bytes must fail with a typed error",
                bytes.len()
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let mut miner = mined_miner();
        let bytes = snapshot_bytes(&mut miner);
        for offset in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[offset] ^= 1 << (offset % 8);
            let result = StreamingMiner::restore(&mut &flipped[..]);
            assert!(
                result.is_err(),
                "flipping bit {} of byte {offset} must be detected",
                offset % 8
            );
        }
    }

    #[test]
    fn foreign_headers_are_typed_errors() {
        let mut miner = mined_miner();
        let bytes = snapshot_bytes(&mut miner);

        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(
            StreamingMiner::restore(&mut &wrong_magic[..]),
            Err(Error::SnapshotCorrupt { .. })
        ));

        for found in [0, SNAPSHOT_VERSION + 1, 99] {
            let mut unknown_version = bytes.clone();
            unknown_version[8..12].copy_from_slice(&found.to_le_bytes());
            assert!(matches!(
                StreamingMiner::restore(&mut &unknown_version[..]),
                Err(Error::SnapshotVersion { found: f, supported: SNAPSHOT_VERSION }) if f == found
            ));
        }

        let mut wrong_kind = bytes;
        wrong_kind[12..16].copy_from_slice(&KIND_PIPELINE.to_le_bytes());
        assert!(matches!(
            StreamingMiner::restore(&mut &wrong_kind[..]),
            Err(Error::SnapshotCorrupt { .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut miner = mined_miner();
        let mut bytes = snapshot_bytes(&mut miner);
        bytes.push(0);
        assert!(matches!(
            StreamingMiner::restore(&mut &bytes[..]),
            Err(Error::SnapshotCorrupt { .. })
        ));
    }

    #[test]
    fn restore_with_rejects_shape_changing_config() {
        let mut miner = mined_miner();
        let bytes = snapshot_bytes(&mut miner);

        let mut epsilon = sample_config();
        epsilon.epsilon += 1;
        assert!(matches!(
            StreamingMiner::restore_with(&epsilon, &mut &bytes[..]),
            Err(Error::SnapshotConfigMismatch {
                parameter: "epsilon",
                ..
            })
        ));

        let mut overlap = sample_config();
        overlap.min_overlap = 5;
        assert!(matches!(
            StreamingMiner::restore_with(&overlap, &mut &bytes[..]),
            Err(Error::SnapshotConfigMismatch {
                parameter: "minOverlap",
                ..
            })
        ));

        let mut len = sample_config();
        len.max_pattern_len = 2;
        assert!(matches!(
            StreamingMiner::restore_with(&len, &mut &bytes[..]),
            Err(Error::SnapshotConfigMismatch {
                parameter: "maxPatternLen",
                ..
            })
        ));
    }

    #[test]
    fn restore_with_matching_config_is_identical_to_plain_restore() {
        let mut miner = mined_miner();
        let bytes = snapshot_bytes(&mut miner);
        let mut a = StreamingMiner::restore(&mut &bytes[..]).unwrap();
        let mut b = StreamingMiner::restore_with(&sample_config(), &mut &bytes[..]).unwrap();
        assert_eq!(snapshot_bytes(&mut a), snapshot_bytes(&mut b));
    }

    #[test]
    fn restore_with_replays_trackers_on_seasonal_change() {
        let dseq = sample_dseq();
        let mut miner = StreamingMiner::new(&sample_config(), dseq.registry()).unwrap();
        miner.append_batch(dseq.sequences()).unwrap();
        let bytes = snapshot_bytes(&mut miner);

        let mut relaxed = sample_config();
        relaxed.max_period = Threshold::Absolute(3);
        relaxed.min_density = Threshold::Absolute(3);
        let restored = StreamingMiner::restore_with(&relaxed, &mut &bytes[..]).unwrap();

        // A fresh miner run entirely under the relaxed thresholds must agree.
        let mut direct = StreamingMiner::new(&relaxed, dseq.registry()).unwrap();
        direct.append_batch(dseq.sequences()).unwrap();
        let a = restored.checkpoint().unwrap();
        let b = direct.checkpoint().unwrap();
        assert_eq!(a.total_patterns(), b.total_patterns());
        assert_eq!(
            crate::report::canonical_result_set(a.report().events(), a.report().patterns()),
            crate::report::canonical_result_set(b.report().events(), b.report().patterns())
        );
    }

    #[test]
    fn wal_round_trips_and_recovers_the_durable_prefix() {
        let mut wal: Vec<u8> = wal_header().to_vec();
        let payloads: [&[u8]; 3] = [b"first", b"", b"third record"];
        for p in payloads {
            wal.extend_from_slice(&wal_encode_record(p));
        }
        let contents = wal_read(&wal).unwrap();
        assert!(contents.clean);
        assert_eq!(contents.durable_len, wal.len() as u64);
        assert_eq!(contents.records.len(), 3);
        assert_eq!(contents.records[0], b"first");
        assert_eq!(contents.records[2], b"third record");

        // A torn tail (crash mid-append) keeps the durable prefix.
        let torn = &wal[..wal.len() - 3];
        let contents = wal_read(torn).unwrap();
        assert!(!contents.clean);
        assert_eq!(contents.records.len(), 2);
        let keep = usize::try_from(contents.durable_len).unwrap();
        assert!(wal_read(&torn[..keep]).unwrap().clean);

        // A corrupt byte inside a record drops it and everything after.
        let mut flipped = wal.clone();
        let second_record_payload = 12 + 12 + 5 + 12; // header + rec1 + rec2 frame
        flipped[second_record_payload + 1] ^= 0x40; // inside record 3's frame
        let contents = wal_read(&flipped).unwrap();
        assert!(!contents.clean);
        assert!(contents.records.len() < 3);

        // Empty input is a valid empty log; header-only too.
        assert!(wal_read(&[]).unwrap().clean);
        let header_only = wal_header();
        let contents = wal_read(&header_only).unwrap();
        assert!(contents.clean);
        assert_eq!(contents.durable_len, 12);
    }

    #[test]
    fn wal_header_damage_is_a_typed_error() {
        assert!(matches!(
            wal_read(b"short"),
            Err(Error::SnapshotCorrupt { .. })
        ));
        let mut bad_magic = wal_header();
        bad_magic[0] = b'X';
        assert!(matches!(
            wal_read(&bad_magic),
            Err(Error::SnapshotCorrupt { .. })
        ));
        let mut future = wal_header();
        future[8..12].copy_from_slice(&7u32.to_le_bytes());
        assert!(matches!(
            wal_read(&future),
            Err(Error::SnapshotVersion {
                found: 7,
                supported: WAL_VERSION
            })
        ));
    }

    #[test]
    fn wal_truncations_and_bit_flips_never_panic() {
        let mut wal: Vec<u8> = wal_header().to_vec();
        wal.extend_from_slice(&wal_encode_record(b"alpha"));
        wal.extend_from_slice(&wal_encode_record(b"beta"));
        for len in 0..wal.len() {
            let _ = wal_read(&wal[..len]); // must not panic
        }
        for offset in 0..wal.len() {
            let mut flipped = wal.clone();
            flipped[offset] ^= 1 << (offset % 8);
            let _ = wal_read(&flipped); // must not panic
        }
    }

    /// The reference the word-level key check is held to: labels registered
    /// in `registry`, every triple word decodable with both indexes below
    /// `k`, and a key that `TemporalPattern::from_parts` +
    /// `encode_pattern_key` reproduce.
    fn round_trips(k: usize, key: &[u64], registry: &EventRegistry) -> bool {
        let (labels, triples) = key.split_at(k);
        let labels_ok = labels.iter().all(|&word| {
            word >> 48 == 0
                && registry
                    .alphabet(SeriesId((word >> 16) as u32))
                    .is_some_and(|alphabet| ((word & 0xFFFF) as usize) < alphabet.len())
        });
        let decoded: Option<Vec<_>> = triples
            .iter()
            .map(|&word| {
                crate::pattern::try_decode_triple(word)
                    .filter(|t| usize::from(t.first.max(t.second)) < k)
            })
            .collect();
        let (true, Some(decoded)) = (labels_ok, decoded) else {
            return false;
        };
        let events = labels.iter().map(|&w| EventLabel::from_packed(w)).collect();
        crate::pattern::encode_pattern_key(&crate::pattern::TemporalPattern::from_parts(
            events, decoded,
        )) == key
    }

    #[test]
    fn the_word_level_key_check_accepts_exactly_the_round_tripping_keys() {
        use crate::pattern::{encode_triple, RelationTriple};
        use crate::relation::RelationKind;
        let registry = sample_dseq().registry().clone();
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let kinds = [
            RelationKind::Follows,
            RelationKind::Contains,
            RelationKind::Overlaps,
        ];
        let (mut accepted, mut rejected) = (0, 0);
        for k in 2..=4_usize {
            for case in 0..3_000 {
                // A registered label, or now and then a foreign one.
                let mut key: Vec<u64> = (0..k)
                    .map(|_| match next(12) {
                        0 => (2 << 16) | next(2),
                        1 => next(2) << 16 | 2,
                        2 => 1 << 48,
                        _ => (next(2) << 16) | next(2),
                    })
                    .collect();
                // One valid triple per pair, in canonical order.
                let mut triples: Vec<RelationTriple> = (0..k as u8)
                    .flat_map(|b| (0..b).map(move |a| (a, b)))
                    .map(|(a, b)| {
                        let kind = kinds[next(3) as usize];
                        if next(2) == 0 {
                            RelationTriple::new(kind, a, b)
                        } else {
                            RelationTriple::new(kind, b, a)
                        }
                    })
                    .collect();
                let pattern = crate::pattern::TemporalPattern::from_parts(Vec::new(), triples);
                triples = pattern.triples().to_vec();
                let mut words: Vec<u64> = triples.iter().map(|&t| encode_triple(t)).collect();
                let n = words.len() as u64;
                match case % 6 {
                    0 => {}
                    // Shuffled: swap two triples.
                    1 => words.swap(next(n) as usize, next(n) as usize),
                    // Duplicated: one triple copied over another.
                    2 => words[next(n) as usize] = words[next(n) as usize],
                    // An invalid relation code.
                    3 => words[next(n) as usize] |= (3 + next(5)) << 16,
                    // An index at or past k, or a self-pair.
                    4 => {
                        let i = next(n) as usize;
                        let index = if next(2) == 0 { k as u64 + next(3) } else { 0 };
                        words[i] = if index == 0 {
                            (next(3) << 16) | (1 << 8) | 1
                        } else if next(2) == 0 {
                            (next(3) << 16) | (index << 8)
                        } else {
                            (next(3) << 16) | index
                        };
                    }
                    // An arbitrary word.
                    _ => words[next(n) as usize] = next(1 << 20),
                }
                key.extend(&words);
                let r = ByteReader::new(&[], "key");
                let fast = check_key(&r, k, &key, &registry).is_ok();
                assert_eq!(
                    fast,
                    round_trips(k, &key, &registry),
                    "k = {k}, case {case}, key {key:#x?}"
                );
                if fast {
                    accepted += 1;
                } else {
                    rejected += 1;
                }
            }
        }
        assert!(
            accepted > 1_000 && rejected > 1_000,
            "{accepted} accepted, {rejected} rejected"
        );
    }
}
