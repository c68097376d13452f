//! # sea-durable — crash-consistent journal primitives
//!
//! Campaigns are the product: the paper's evidence rests on 260 beam-hours
//! and multi-million-run injection studies, and every byte of a campaign's
//! outcome journal must survive a power cut or SIGKILL mid-append. This
//! crate supplies the persistence layer the supervisor stack builds on:
//!
//! * a table-driven IEEE **CRC32** (no external dependency, like the FNV-1a
//!   hash in `sea-injection` and the hand-rolled JSON in `sea-trace`);
//! * the **`.seaj` container codec** — magic `SEAJRNL\x01`, a u32 format
//!   version, one length-prefixed CRC-framed header blob, then
//!   length-prefixed records each carrying a monotonic sequence number and
//!   a CRC32 over `seq ‖ payload`;
//! * a **torn-tail scanner** ([`scan`]) that CRC-validates every record and
//!   reports the longest valid prefix, so `--resume` truncates a trailing
//!   partial or corrupt record and continues from the last good sequence
//!   number instead of refusing or mis-counting;
//! * a [`DurableWriter`] with configurable [`FsyncPolicy`] cadence and
//!   bounded retry-with-backoff on write faults (disk-full, EIO): a failed
//!   append rolls the file back to the last good length before retrying, so
//!   even an aborted run leaves a valid resumable prefix;
//! * lossless **JSONL export** ([`export_jsonl`]) — record payloads are
//!   JSON lines, so the header line plus one line per record is the text
//!   form of a journal (`journal export`). `.seaj` is the only format any
//!   append-only log is written in: outcome journals, beam strike logs and
//!   anomaly quarantines.
//!
//! The crate is deliberately a leaf: zero dependencies, pure std, usable
//! from `sea-injection` (journals and quarantines) up through
//! `sea-observe` (`/journal/tail` over binary records).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::Path;
use std::time::Duration;

/// Magic prefix of a `.seaj` binary journal file.
pub const SEAJ_MAGIC: [u8; 8] = *b"SEAJRNL\x01";

/// Version of the `.seaj` container layout (independent of the logical
/// journal-header version carried in the header payload).
pub const SEAJ_VERSION: u32 = 1;

/// Fixed per-record framing overhead: u32 payload length, u64 sequence
/// number, u32 CRC32 over `seq_le ‖ payload`.
pub const RECORD_OVERHEAD: usize = 4 + 8 + 4;

/// Upper bound on a single record payload; anything larger in the length
/// field is treated as tail corruption rather than trusted.
pub const MAX_RECORD_LEN: usize = 16 << 20;

// ---------------------------------------------------------------------------
// CRC32 (IEEE, reflected, table-driven)
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// Incremental IEEE CRC32 state, for checksumming discontiguous parts
/// (e.g. `seq_le ‖ payload`) without concatenating them.
#[derive(Clone, Copy, Debug)]
pub struct Crc32(u32);

impl Crc32 {
    /// A fresh CRC32 accumulator.
    pub fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    /// Fold `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut c = self.0;
        for &b in bytes {
            c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.0 = c;
    }

    /// Finalize and return the checksum.
    pub fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// One-shot IEEE CRC32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

// ---------------------------------------------------------------------------
// Journal format + fsync policy (CLI-facing knobs)
// ---------------------------------------------------------------------------

/// On-disk representation of an outcome journal. `.seaj` is the only
/// one; JSON Lines exist only as [`export_jsonl`] output. The type is kept
/// solely because the benchmark's layer probes name
/// `JournalFormat::Binary` in a `JournalSpec` literal, and goes when that
/// benchmark is next changed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum JournalFormat {
    /// Length-prefixed CRC-framed binary records (`.seaj`).
    #[default]
    Binary,
}

/// How often the journal writer issues `fdatasync`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Never sync explicitly; rely on the OS page cache (fastest, weakest).
    None,
    /// Sync after every N appended records.
    EveryN(u32),
}

impl Default for FsyncPolicy {
    fn default() -> Self {
        FsyncPolicy::EveryN(64)
    }
}

impl FsyncPolicy {
    /// Parse a `--fsync` argument: `none` or `every-n=N`.
    pub fn parse(s: &str) -> Result<Self, String> {
        if s == "none" {
            return Ok(FsyncPolicy::None);
        }
        if let Some(n) = s.strip_prefix("every-n=") {
            let n: u32 = n
                .parse()
                .map_err(|_| format!("bad record count in '--fsync {s}'"))?;
            if n == 0 {
                return Err("'--fsync every-n=N' requires N >= 1".into());
            }
            return Ok(FsyncPolicy::EveryN(n));
        }
        Err(format!(
            "unknown fsync policy '{s}' (expected none|every-n=N)"
        ))
    }
}

impl fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsyncPolicy::None => write!(f, "none"),
            FsyncPolicy::EveryN(n) => write!(f, "every-n={n}"),
        }
    }
}

// ---------------------------------------------------------------------------
// .seaj codec
// ---------------------------------------------------------------------------

/// Errors that make a `.seaj` file untrustworthy as a whole. Tail
/// corruption is *not* an error — [`scan`] reports it as a recoverable
/// torn tail instead.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SeajError {
    /// The file does not start with the `SEAJRNL\x01` magic.
    NotSeaj,
    /// The container version is not [`SEAJ_VERSION`].
    Version(u32),
    /// The header blob is truncated or fails its CRC; without a trusted
    /// header the journal's identity cannot be established.
    CorruptHeader(&'static str),
}

impl fmt::Display for SeajError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeajError::NotSeaj => write!(f, "not a .seaj journal (bad magic)"),
            SeajError::Version(v) => {
                write!(
                    f,
                    "unsupported .seaj container version {v} (expected {SEAJ_VERSION})"
                )
            }
            SeajError::CorruptHeader(why) => write!(f, "corrupt .seaj header: {why}"),
        }
    }
}

impl std::error::Error for SeajError {}

/// Encode the file preamble: magic, container version, and the CRC-framed
/// header blob (the logical journal header line, without its newline).
pub fn encode_file_header(header: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(SEAJ_MAGIC.len() + 12 + header.len());
    out.extend_from_slice(&SEAJ_MAGIC);
    out.extend_from_slice(&SEAJ_VERSION.to_le_bytes());
    out.extend_from_slice(&(header.len() as u32).to_le_bytes());
    out.extend_from_slice(header);
    out.extend_from_slice(&crc32(header).to_le_bytes());
    out
}

/// Encode one record: u32 payload length, u64 sequence number, payload,
/// CRC32 over `seq_le ‖ payload`.
pub fn encode_record(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_OVERHEAD + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(payload);
    let mut c = Crc32::new();
    c.update(&seq.to_le_bytes());
    c.update(payload);
    out.extend_from_slice(&c.finish().to_le_bytes());
    out
}

/// Result of CRC-walking a `.seaj` byte image.
#[derive(Clone, Debug)]
pub struct Scan<'a> {
    /// The header blob (CRC-verified).
    pub header: &'a [u8],
    /// Payloads of all valid records, in sequence order.
    pub records: Vec<&'a [u8]>,
    /// Byte length of the longest valid prefix (preamble + whole records).
    pub valid_len: usize,
    /// Bytes past `valid_len` — a torn or corrupt tail to truncate.
    pub torn_bytes: usize,
    /// Sequence number of the last valid record (0 if none).
    pub last_seq: u64,
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(b)
}

/// CRC-walk a `.seaj` byte image. Header problems are hard errors; record
/// problems (truncation, bit flips, sequence gaps) end the walk and are
/// reported as a torn tail for the caller to truncate.
pub fn scan(bytes: &[u8]) -> Result<Scan<'_>, SeajError> {
    if bytes.len() < SEAJ_MAGIC.len() || bytes[..SEAJ_MAGIC.len()] != SEAJ_MAGIC {
        return Err(SeajError::NotSeaj);
    }
    if bytes.len() < SEAJ_MAGIC.len() + 8 {
        return Err(SeajError::CorruptHeader("truncated before header length"));
    }
    let version = read_u32(bytes, 8);
    if version != SEAJ_VERSION {
        return Err(SeajError::Version(version));
    }
    let header_len = read_u32(bytes, 12) as usize;
    let header_end = 16usize.saturating_add(header_len);
    if header_len > MAX_RECORD_LEN || bytes.len() < header_end + 4 {
        return Err(SeajError::CorruptHeader("truncated header blob"));
    }
    let header = &bytes[16..header_end];
    let want = read_u32(bytes, header_end);
    if crc32(header) != want {
        return Err(SeajError::CorruptHeader("header checksum mismatch"));
    }

    let mut off = header_end + 4;
    let mut records = Vec::new();
    let mut last_seq = 0u64;
    loop {
        if off == bytes.len() {
            break; // clean end
        }
        if bytes.len() - off < RECORD_OVERHEAD {
            break; // torn frame header
        }
        let len = read_u32(bytes, off) as usize;
        if len > MAX_RECORD_LEN {
            break; // implausible length: corrupt frame
        }
        let end = off + RECORD_OVERHEAD + len;
        if end > bytes.len() {
            break; // torn payload
        }
        let seq = read_u64(bytes, off + 4);
        let payload = &bytes[off + 12..off + 12 + len];
        let mut c = Crc32::new();
        c.update(&seq.to_le_bytes());
        c.update(payload);
        if c.finish() != read_u32(bytes, off + 12 + len) {
            break; // bit flip in frame
        }
        if seq != last_seq + 1 {
            break; // sequence gap: everything past here is untrustworthy
        }
        records.push(payload);
        last_seq = seq;
        off = end;
    }
    Ok(Scan {
        header,
        records,
        valid_len: off,
        torn_bytes: bytes.len() - off,
        last_seq,
    })
}

/// Losslessly export a `.seaj` byte image to JSONL: the header blob as the
/// first line, then each record payload as its own line.
pub fn export_jsonl(bytes: &[u8]) -> Result<Vec<u8>, SeajError> {
    let scan = scan(bytes)?;
    let mut out = Vec::with_capacity(bytes.len());
    out.extend_from_slice(scan.header);
    out.push(b'\n');
    for payload in &scan.records {
        out.extend_from_slice(payload);
        out.push(b'\n');
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Multi-journal merge
// ---------------------------------------------------------------------------

/// Why a set of shard journals cannot be merged into one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MergeError {
    /// No shard images were supplied.
    NoShards,
    /// A shard failed the container-level scan (bad magic, version, or
    /// corrupt header). The index is the shard's position in the input.
    Shard(usize, SeajError),
    /// A shard's header blob differs from shard 0's. Shards of one
    /// campaign share an identity header byte-for-byte; a mismatch means
    /// the inputs belong to different campaigns or configurations.
    HeaderMismatch {
        /// Index of the offending shard.
        shard: usize,
    },
    /// A record payload yielded no merge key.
    UnkeyedRecord {
        /// Index of the shard holding the unkeyed record.
        shard: usize,
        /// Sequence number of the record within that shard.
        seq: u64,
    },
    /// Two shards hold records with the same key but different payloads.
    /// Determinism guarantees duplicate work produces identical bytes, so
    /// a conflict means the shards disagree about an outcome.
    DuplicateConflict {
        /// The merge key both records claim.
        key: u64,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::NoShards => write!(f, "no shard journals to merge"),
            MergeError::Shard(i, e) => write!(f, "shard {i}: {e}"),
            MergeError::HeaderMismatch { shard } => {
                write!(f, "shard {shard} header differs from shard 0")
            }
            MergeError::UnkeyedRecord { shard, seq } => {
                write!(f, "shard {shard} record seq {seq} has no merge key")
            }
            MergeError::DuplicateConflict { key } => {
                write!(f, "conflicting payloads for merge key {key}")
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// Bookkeeping from a [`merge_journals`] pass, for audit tables.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MergeAudit {
    /// Number of shard images merged.
    pub shards: usize,
    /// Valid records read across all shards (before dedup).
    pub records_in: u64,
    /// Records dropped as byte-identical duplicates of an earlier key.
    pub duplicates: u64,
    /// Records in the merged output.
    pub merged: u64,
    /// Torn-tail bytes ignored across all shards.
    pub torn_bytes: u64,
}

/// Deterministically merge shard journals into one `.seaj` image that is
/// byte-identical to a single-process run of the same campaign.
///
/// Each shard is CRC-walked with [`scan`] (torn tails are tolerated and
/// ignored — only the valid prefix contributes records). All shards must
/// carry byte-identical header blobs; the merged image reuses that header
/// verbatim. `key_of` extracts each record's global position key (for
/// campaign journals, the `"i"` field of the payload). Records are
/// stable-sorted by key, byte-identical duplicates are dropped (work
/// stealing can legitimately run a block twice), conflicting duplicates
/// are an error, and the survivors are re-framed with sequence numbers
/// `1..=N` — exactly what a single process appending in key order writes.
pub fn merge_journals<F>(shards: &[&[u8]], key_of: F) -> Result<(Vec<u8>, MergeAudit), MergeError>
where
    F: Fn(&[u8]) -> Option<u64>,
{
    if shards.is_empty() {
        return Err(MergeError::NoShards);
    }
    let mut audit = MergeAudit {
        shards: shards.len(),
        ..MergeAudit::default()
    };
    let mut header: Option<&[u8]> = None;
    let mut keyed: Vec<(u64, &[u8])> = Vec::new();
    for (i, bytes) in shards.iter().enumerate() {
        let s = scan(bytes).map_err(|e| MergeError::Shard(i, e))?;
        match header {
            None => header = Some(s.header),
            Some(h) if h != s.header => return Err(MergeError::HeaderMismatch { shard: i }),
            Some(_) => {}
        }
        audit.torn_bytes += s.torn_bytes as u64;
        for (off, payload) in s.records.iter().enumerate() {
            let key = key_of(payload).ok_or(MergeError::UnkeyedRecord {
                shard: i,
                seq: off as u64 + 1,
            })?;
            keyed.push((key, payload));
            audit.records_in += 1;
        }
    }
    keyed.sort_by_key(|&(key, _)| key);

    let mut out = encode_file_header(header.unwrap_or(b""));
    let mut seq = 0u64;
    let mut last: Option<(u64, &[u8])> = None;
    for (key, payload) in keyed {
        if let Some((lk, lp)) = last {
            if lk == key {
                if lp != payload {
                    return Err(MergeError::DuplicateConflict { key });
                }
                audit.duplicates += 1;
                continue;
            }
        }
        seq += 1;
        out.extend_from_slice(&encode_record(seq, payload));
        last = Some((key, payload));
    }
    audit.merged = seq;
    Ok((out, audit))
}

// ---------------------------------------------------------------------------
// DurableWriter
// ---------------------------------------------------------------------------

/// Attempts per append before the writer declares itself poisoned.
pub const WRITE_ATTEMPTS: u32 = 3;

const BACKOFF_MS: [u64; 2] = [10, 50];

/// Write-side counters surfaced in the journal audit table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WriterStats {
    /// Explicit `fdatasync` calls issued by the policy.
    pub fsyncs: u64,
    /// Append attempts that failed and were retried (or gave up).
    pub retries: u64,
}

/// Append-only file writer with CRC-friendly fault handling: every append
/// either lands completely or the file is rolled back to its pre-append
/// length, so the on-disk prefix is always valid and resumable. Write
/// faults (disk-full, EIO) are retried [`WRITE_ATTEMPTS`] times with
/// bounded backoff; after that the writer is *poisoned* and refuses
/// further appends so the campaign can drain cleanly.
#[derive(Debug)]
pub struct DurableWriter {
    file: File,
    len: u64,
    policy: FsyncPolicy,
    since_sync: u32,
    stats: WriterStats,
    poisoned: bool,
}

impl DurableWriter {
    /// Create (truncating) a fresh file at `path`.
    pub fn create(path: &Path, policy: FsyncPolicy) -> io::Result<Self> {
        Self::open_at(path, 0, policy)
    }

    /// Open `path` for appending after truncating it to `valid_len` —
    /// the torn-tail recovery entry point.
    pub fn open_at(path: &Path, valid_len: u64, policy: FsyncPolicy) -> io::Result<Self> {
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(path)?;
        file.set_len(valid_len)?;
        file.seek(SeekFrom::Start(valid_len))?;
        Ok(DurableWriter {
            file,
            len: valid_len,
            policy,
            since_sync: 0,
            stats: WriterStats::default(),
            poisoned: false,
        })
    }

    /// Bytes known to be fully written.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when no bytes have been written.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True once an append has exhausted its retries; the on-disk prefix
    /// up to [`len`](Self::len) is still valid and resumable.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Write-side counters.
    pub fn stats(&self) -> WriterStats {
        self.stats
    }

    /// Append one framed record. All-or-nothing: a partial
    /// write is rolled back with `set_len` before the retry so a failed
    /// attempt can never leave garbage between valid records.
    pub fn append(&mut self, rec: &[u8]) -> io::Result<()> {
        if self.poisoned {
            return Err(io::Error::other(
                "journal writer poisoned by earlier write fault",
            ));
        }
        let mut attempt = 0;
        loop {
            match self.file.write_all(rec) {
                Ok(()) => {
                    self.len += rec.len() as u64;
                    self.maybe_sync();
                    return Ok(());
                }
                Err(e) => {
                    self.stats.retries += 1;
                    // Roll back whatever partial bytes write_all managed.
                    let _ = self.file.set_len(self.len);
                    let _ = self.file.seek(SeekFrom::Start(self.len));
                    attempt += 1;
                    if attempt >= WRITE_ATTEMPTS {
                        self.poisoned = true;
                        let _ = self.file.sync_data();
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(
                        BACKOFF_MS[(attempt as usize - 1).min(BACKOFF_MS.len() - 1)],
                    ));
                }
            }
        }
    }

    fn maybe_sync(&mut self) {
        let due = match self.policy {
            FsyncPolicy::None => false,
            FsyncPolicy::EveryN(n) => {
                self.since_sync += 1;
                self.since_sync >= n
            }
        };
        if due {
            self.sync();
        }
    }

    /// Force an `fdatasync` now (also restarts the record count).
    pub fn sync(&mut self) {
        if self.file.sync_data().is_ok() {
            self.stats.fsyncs += 1;
        }
        self.since_sync = 0;
    }
}

impl Drop for DurableWriter {
    /// Panicking workers must not lose buffered records: make the tail
    /// durable on the way out, whatever the policy.
    fn drop(&mut self) {
        let _ = self.file.sync_data();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn fsync_policy_parses_and_round_trips() {
        assert_eq!(FsyncPolicy::parse("none"), Ok(FsyncPolicy::None));
        assert_eq!(FsyncPolicy::parse("every-n=8"), Ok(FsyncPolicy::EveryN(8)));
        assert!(FsyncPolicy::parse("interval-ms=250").is_err());
        assert!(FsyncPolicy::parse("every-n=0").is_err());
        assert!(FsyncPolicy::parse("always").is_err());
        for p in [FsyncPolicy::None, FsyncPolicy::EveryN(64)] {
            assert_eq!(FsyncPolicy::parse(&p.to_string()), Ok(p));
        }
    }

    fn journal(header: &[u8], payloads: &[&[u8]]) -> Vec<u8> {
        let mut bytes = encode_file_header(header);
        for (i, p) in payloads.iter().enumerate() {
            bytes.extend_from_slice(&encode_record(i as u64 + 1, p));
        }
        bytes
    }

    #[test]
    fn scan_round_trips_a_clean_journal() {
        let bytes = journal(b"{\"h\":1}", &[b"alpha", b"", b"gamma"]);
        let s = scan(&bytes).unwrap();
        assert_eq!(s.header, b"{\"h\":1}");
        assert_eq!(s.records, vec![&b"alpha"[..], &b""[..], &b"gamma"[..]]);
        assert_eq!(s.valid_len, bytes.len());
        assert_eq!(s.torn_bytes, 0);
        assert_eq!(s.last_seq, 3);
    }

    #[test]
    fn scan_reports_a_torn_tail_at_every_cut_point() {
        let bytes = journal(b"hdr", &[b"one", b"two"]);
        let first_end = encode_file_header(b"hdr").len() + RECORD_OVERHEAD + 3;
        // Any cut strictly inside record 2 must recover exactly record 1.
        for cut in first_end + 1..bytes.len() {
            let s = scan(&bytes[..cut]).unwrap();
            assert_eq!(s.records, vec![&b"one"[..]], "cut at {cut}");
            assert_eq!(s.valid_len, first_end, "cut at {cut}");
            assert_eq!(s.torn_bytes, cut - first_end, "cut at {cut}");
            assert_eq!(s.last_seq, 1);
        }
    }

    #[test]
    fn scan_stops_at_a_flipped_record_byte() {
        let mut bytes = journal(b"hdr", &[b"one", b"two", b"three"]);
        let preamble = encode_file_header(b"hdr").len();
        let second = preamble + RECORD_OVERHEAD + 3;
        bytes[second + 12] ^= 0x40; // flip a payload byte of record 2
        let s = scan(&bytes).unwrap();
        assert_eq!(s.records, vec![&b"one"[..]]);
        assert_eq!(s.valid_len, second);
        assert!(s.torn_bytes > 0);
    }

    #[test]
    fn scan_stops_at_a_sequence_gap() {
        let mut bytes = encode_file_header(b"hdr");
        bytes.extend_from_slice(&encode_record(1, b"one"));
        bytes.extend_from_slice(&encode_record(3, b"three")); // gap: 2 missing
        let s = scan(&bytes).unwrap();
        assert_eq!(s.records, vec![&b"one"[..]]);
        assert_eq!(s.last_seq, 1);
        assert!(s.torn_bytes > 0);
    }

    #[test]
    fn scan_error_taxonomy_is_distinct() {
        assert!(matches!(scan(b"garbage"), Err(SeajError::NotSeaj)));
        assert!(matches!(
            scan(&SEAJ_MAGIC[..]),
            Err(SeajError::CorruptHeader(_))
        ));

        let mut wrong_version = journal(b"hdr", &[]);
        wrong_version[8] = 99;
        assert!(matches!(scan(&wrong_version), Err(SeajError::Version(99))));

        let mut flipped_hdr = journal(b"header-blob", &[b"rec"]);
        flipped_hdr[17] ^= 0x01; // inside the header blob
        assert!(matches!(
            scan(&flipped_hdr),
            Err(SeajError::CorruptHeader(_))
        ));

        let truncated_hdr = &journal(b"header-blob", &[])[..18];
        assert!(matches!(
            scan(truncated_hdr),
            Err(SeajError::CorruptHeader(_))
        ));
    }

    #[test]
    fn export_matches_handwritten_jsonl() {
        let bytes = journal(b"{\"v\":2}", &[b"{\"i\":0}", b"{\"i\":1}"]);
        let jsonl = export_jsonl(&bytes).unwrap();
        assert_eq!(jsonl, b"{\"v\":2}\n{\"i\":0}\n{\"i\":1}\n");
    }

    fn key_ascii(payload: &[u8]) -> Option<u64> {
        std::str::from_utf8(payload).ok()?.parse().ok()
    }

    #[test]
    fn merge_of_disjoint_shards_matches_single_writer() {
        // A single process would write keys 0..6 in order.
        let single = journal(b"{\"h\":1}", &[b"0", b"1", b"2", b"3", b"4", b"5"]);
        // Two shards, interleaved blocks, each appended in local order.
        let a = journal(b"{\"h\":1}", &[b"0", b"1", b"4", b"5"]);
        let b = journal(b"{\"h\":1}", &[b"2", b"3"]);
        let (merged, audit) = merge_journals(&[&a, &b], key_ascii).unwrap();
        assert_eq!(merged, single);
        assert_eq!(audit.shards, 2);
        assert_eq!(audit.records_in, 6);
        assert_eq!(audit.duplicates, 0);
        assert_eq!(audit.merged, 6);
    }

    #[test]
    fn merge_drops_identical_duplicates_and_ignores_torn_tails() {
        let single = journal(b"hdr", &[b"0", b"1", b"2"]);
        // Work stealing re-ran key 1 on shard b; shard a also has a torn tail.
        let mut a = journal(b"hdr", &[b"0", b"1"]);
        a.extend_from_slice(&[0xFF; 5]); // torn frame
        let b = journal(b"hdr", &[b"1", b"2"]);
        let (merged, audit) = merge_journals(&[&a, &b], key_ascii).unwrap();
        assert_eq!(merged, single);
        assert_eq!(audit.duplicates, 1);
        assert_eq!(audit.merged, 3);
        assert_eq!(audit.torn_bytes, 5);
    }

    #[test]
    fn merge_rejects_mismatched_identities_and_conflicts() {
        let a = journal(b"hdr-a", &[b"0"]);
        let b = journal(b"hdr-b", &[b"1"]);
        assert_eq!(
            merge_journals(&[&a, &b], key_ascii).unwrap_err(),
            MergeError::HeaderMismatch { shard: 1 }
        );

        // Same key, different payload bytes: a determinism violation.
        let c = journal(b"hdr", &[b"07"]); // key 7, payload "07"
        let d = journal(b"hdr", &[b"7"]); // key 7, payload "7"
        assert_eq!(
            merge_journals(&[&c, &d], key_ascii).unwrap_err(),
            MergeError::DuplicateConflict { key: 7 }
        );

        let e = journal(b"hdr", &[b"not-a-key"]);
        assert_eq!(
            merge_journals(&[&e], key_ascii).unwrap_err(),
            MergeError::UnkeyedRecord { shard: 0, seq: 1 }
        );

        assert_eq!(
            merge_journals(&[], key_ascii).unwrap_err(),
            MergeError::NoShards
        );
    }

    proptest! {
        #[test]
        fn merge_is_shard_assignment_invariant(
            n in 1usize..40,
            assign in proptest::collection::vec(0usize..4, 40),
            order_seed in any::<u64>(),
        ) {
            // Keys 0..n assigned arbitrarily to 4 shards; within a shard a
            // worker appends its claims in the order it received them, which
            // is always key-ascending per shard block here — but shuffle
            // which shard gets which key freely. The merge must reproduce
            // the canonical single-writer image regardless.
            let payloads: Vec<String> = (0..n).map(|k| k.to_string()).collect();
            let canon_refs: Vec<&[u8]> =
                payloads.iter().map(|p| p.as_bytes()).collect();
            let single = journal(b"id", &canon_refs);

            let mut shard_payloads: Vec<Vec<&[u8]>> = vec![Vec::new(); 4];
            for (k, p) in payloads.iter().enumerate() {
                shard_payloads[assign[k]].push(p.as_bytes());
                // Sometimes a second shard repeats the same record (steal).
                if order_seed.rotate_left(k as u32) & 1 == 1 {
                    shard_payloads[(assign[k] + 1) % 4].push(p.as_bytes());
                }
            }
            let shards: Vec<Vec<u8>> = shard_payloads
                .iter()
                .map(|ps| journal(b"id", ps))
                .collect();
            let refs: Vec<&[u8]> = shards.iter().map(|s| s.as_slice()).collect();
            let (merged, audit) = merge_journals(&refs, key_ascii).unwrap();
            prop_assert_eq!(merged, single);
            prop_assert_eq!(audit.merged, n as u64);
        }
    }

    #[test]
    fn durable_writer_appends_and_reopens_at_valid_len() {
        let dir = std::env::temp_dir().join(format!("sea-durable-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("w.seaj");
        let hdr = encode_file_header(b"h");
        {
            let mut w = DurableWriter::create(&path, FsyncPolicy::EveryN(2)).unwrap();
            w.append(&hdr).unwrap();
            w.append(&encode_record(1, b"one")).unwrap();
            w.append(&encode_record(2, b"two")).unwrap();
            assert!(w.stats().fsyncs >= 1);
        }
        // Simulate a torn tail, then recover through open_at.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let torn = std::fs::read(&path).unwrap();
        let s = scan(&torn).unwrap();
        assert_eq!(s.last_seq, 1);
        {
            let mut w =
                DurableWriter::open_at(&path, s.valid_len as u64, FsyncPolicy::None).unwrap();
            w.append(&encode_record(2, b"two")).unwrap();
        }
        assert_eq!(std::fs::read(&path).unwrap(), full);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_writer_poisons_after_bounded_retries() {
        // /dev/full returns ENOSPC on write — the canonical disk-full fake.
        let dev_full = Path::new("/dev/full");
        if !dev_full.exists() {
            return;
        }
        let file = OpenOptions::new().write(true).open(dev_full).unwrap();
        let mut w = DurableWriter {
            file,
            len: 0,
            policy: FsyncPolicy::None,
            since_sync: 0,
            stats: WriterStats::default(),
            poisoned: false,
        };
        let err = w.append(b"doomed").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert!(w.poisoned());
        assert_eq!(w.stats().retries, WRITE_ATTEMPTS as u64);
        assert!(w.append(b"more").is_err());
        assert_eq!(w.len(), 0, "poisoned writer still reports a valid prefix");
    }

    proptest! {
        #[test]
        fn record_codec_round_trips(
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..200), 0..20),
            header in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
            let bytes = journal(&header, &refs);
            let s = scan(&bytes).unwrap();
            prop_assert_eq!(s.header, header.as_slice());
            prop_assert_eq!(s.records, refs);
            prop_assert_eq!(s.valid_len, bytes.len());
            prop_assert_eq!(s.torn_bytes, 0);
            prop_assert_eq!(s.last_seq, payloads.len() as u64);
        }

        #[test]
        fn any_truncation_recovers_a_valid_prefix(
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..64), 1..12),
            cut_frac in 0.0f64..1.0,
        ) {
            let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
            let bytes = journal(b"hdr", &refs);
            let preamble = encode_file_header(b"hdr").len();
            // Cut anywhere in the record region.
            let cut = preamble
                + ((bytes.len() - preamble) as f64 * cut_frac) as usize;
            let s = scan(&bytes[..cut]).unwrap();
            // Valid prefix scans clean and is a prefix of the original.
            prop_assert!(s.valid_len <= cut);
            let again = scan(&bytes[..s.valid_len]).unwrap();
            prop_assert_eq!(again.torn_bytes, 0);
            prop_assert_eq!(again.last_seq, s.last_seq);
            prop_assert_eq!(s.records.len() as u64, s.last_seq);
        }
    }
}
