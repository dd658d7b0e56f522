//! A checksummed, length-prefixed segment file format.
//!
//! This is the durability layer under every on-disk artefact of the workspace:
//! the persisted `minsig` index snapshot and the shard manifest serialise
//! themselves as a sequence of *segments* inside one file.
//!
//! ## File layout
//!
//! ```text
//! +--------------+-----------------+---------------+
//! | magic (4 B)  | version (u16 le)| flags (u16 le)|   file header
//! +--------------+-----------------+---------------+
//! | tag (u32 le) | len (u64 le)    | payload | crc |   segment 0
//! +--------------+-----------------+---------+-----+
//! | ...                                            |   segment 1..n
//! +------------------------------------------------+
//! | tag = 0      | len = 4         | count   | crc |   END segment
//! +------------------------------------------------+
//! ```
//!
//! Every segment carries a CRC-32 (IEEE) of its payload, and the file is
//! terminated by a distinguished `END` segment whose payload records the
//! number of preceding segments.  A process (or machine) crash mid-write
//! therefore always leaves a detectable state: either the `END` segment is
//! missing ([`SegmentError::Truncated`]) or a partially written segment fails
//! its checksum ([`SegmentError::ChecksumMismatch`]).  Readers never return
//! silently corrupt data.
//!
//! Writers should additionally go through [`atomic_write`], which writes to a
//! temporary sibling file and renames it into place, so an existing file is
//! never clobbered by a failed save.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// The distinguished tag closing every segment file.
pub(crate) const END_TAG: u32 = 0;

/// Upper bound on a single segment's payload, as a guard against reading an
/// absurd length field from a corrupt file (1 GiB).
pub(crate) const MAX_SEGMENT_LEN: u64 = 1 << 30;

/// Errors produced while reading or writing segment files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentError {
    /// An underlying I/O error (message of the `std::io::Error`).
    Io(String),
    /// The file does not start with the expected magic bytes.
    BadMagic {
        /// The magic the caller expected.
        expected: [u8; 4],
        /// The bytes actually found.
        found: [u8; 4],
    },
    /// The file's format version is newer than this build understands.
    UnsupportedVersion {
        /// Version recorded in the file.
        found: u16,
        /// Newest version this build can read.
        supported: u16,
    },
    /// The file ends before the announced data (e.g. a crash mid-write).
    Truncated(String),
    /// A segment's payload does not match its stored CRC-32.
    ChecksumMismatch {
        /// Tag of the corrupt segment.
        tag: u32,
    },
    /// The file is structurally invalid (bad lengths, bad counts, bad values).
    Malformed(String),
}

impl std::fmt::Display for SegmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SegmentError::Io(msg) => write!(f, "i/o error: {msg}"),
            SegmentError::BadMagic { expected, found } => write!(
                f,
                "bad magic: expected {:?}, found {:?}",
                String::from_utf8_lossy(expected),
                found
            ),
            SegmentError::UnsupportedVersion { found, supported } => {
                write!(f, "file format version {found} is newer than supported version {supported}")
            }
            SegmentError::Truncated(what) => write!(f, "file truncated: {what}"),
            SegmentError::ChecksumMismatch { tag } => {
                write!(f, "checksum mismatch in segment with tag {tag}")
            }
            SegmentError::Malformed(msg) => write!(f, "malformed file: {msg}"),
        }
    }
}

impl std::error::Error for SegmentError {}

impl From<io::Error> for SegmentError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            SegmentError::Truncated(e.to_string())
        } else {
            SegmentError::Io(e.to_string())
        }
    }
}

/// Result alias for segment-file operations.
pub type Result<T> = std::result::Result<T, SegmentError>;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3 polynomial, reflected), table-driven.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of a byte slice — the checksum guarding every segment.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Writes a segment file: header first, then [`write_segment`] per segment,
/// then [`finish`] to append the `END` segment.
///
/// Dropping the writer without calling [`finish`] leaves the file without its
/// terminator, which readers report as [`SegmentError::Truncated`] — exactly
/// the semantics wanted for a crash mid-write.
///
/// [`write_segment`]: SegmentWriter::write_segment
/// [`finish`]: SegmentWriter::finish
#[derive(Debug)]
pub struct SegmentWriter<W: Write> {
    out: W,
    segments: u32,
}

impl<W: Write> SegmentWriter<W> {
    /// Starts a new segment file with the given magic and format version.
    pub fn new(mut out: W, magic: [u8; 4], version: u16) -> Result<Self> {
        out.write_all(&magic)?;
        out.write_all(&version.to_le_bytes())?;
        out.write_all(&0u16.to_le_bytes())?; // flags, reserved
        Ok(SegmentWriter { out, segments: 0 })
    }

    /// Appends one tagged, checksummed segment.  `tag` must not be 0, the
    /// `END` segment's.
    pub fn write_segment(&mut self, tag: u32, payload: &[u8]) -> Result<()> {
        assert_ne!(tag, END_TAG, "tag 0 is reserved for the END segment");
        self.emit(tag, payload)?;
        self.segments += 1;
        Ok(())
    }

    fn emit(&mut self, tag: u32, payload: &[u8]) -> Result<()> {
        self.out.write_all(&tag.to_le_bytes())?;
        self.out.write_all(&(payload.len() as u64).to_le_bytes())?;
        self.out.write_all(payload)?;
        self.out.write_all(&crc32(payload).to_le_bytes())?;
        Ok(())
    }

    /// Writes the `END` segment, flushes, and returns the inner writer.
    pub fn finish(mut self) -> Result<W> {
        let count = self.segments;
        self.emit(END_TAG, &count.to_le_bytes())?;
        self.out.flush()?;
        Ok(self.out)
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Reads a segment file written by [`SegmentWriter`], validating the magic,
/// the version, every checksum and the `END` terminator.
#[derive(Debug)]
pub struct SegmentReader<R: Read> {
    input: R,
    version: u16,
    segments_read: u32,
    finished: bool,
}

impl<R: Read> SegmentReader<R> {
    /// Opens a segment stream, checking the magic and that the recorded
    /// version is at most `max_version`.
    pub fn new(mut input: R, magic: [u8; 4], max_version: u16) -> Result<Self> {
        let mut found = [0u8; 4];
        input
            .read_exact(&mut found)
            .map_err(|_| SegmentError::Truncated("file shorter than its header".into()))?;
        if found != magic {
            return Err(SegmentError::BadMagic { expected: magic, found });
        }
        let mut buf = [0u8; 2];
        input.read_exact(&mut buf)?;
        let version = u16::from_le_bytes(buf);
        if version > max_version {
            return Err(SegmentError::UnsupportedVersion {
                found: version,
                supported: max_version,
            });
        }
        input.read_exact(&mut buf)?; // flags, reserved
        Ok(SegmentReader { input, version, segments_read: 0, finished: false })
    }

    /// The format version recorded in the file header.
    pub fn version(&self) -> u16 {
        self.version
    }

    /// The next `(tag, payload)` pair, or `None` once the `END` segment has
    /// been consumed.  Payload checksums are verified before returning.
    pub fn next_segment(&mut self) -> Result<Option<(u32, Vec<u8>)>> {
        if self.finished {
            return Ok(None);
        }
        let mut header = [0u8; 12];
        self.input
            .read_exact(&mut header)
            .map_err(|_| SegmentError::Truncated("missing segment header or END marker".into()))?;
        let tag = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
        let len = u64::from_le_bytes(header[4..12].try_into().expect("8 bytes"));
        if len > MAX_SEGMENT_LEN {
            return Err(SegmentError::Malformed(format!(
                "segment with tag {tag} declares {len} bytes (limit {MAX_SEGMENT_LEN})"
            )));
        }
        let mut payload = vec![0u8; len as usize];
        self.input
            .read_exact(&mut payload)
            .map_err(|_| SegmentError::Truncated(format!("segment with tag {tag} cut short")))?;
        let mut crc_buf = [0u8; 4];
        self.input
            .read_exact(&mut crc_buf)
            .map_err(|_| SegmentError::Truncated(format!("checksum of segment {tag} cut short")))?;
        if crc32(&payload) != u32::from_le_bytes(crc_buf) {
            return Err(SegmentError::ChecksumMismatch { tag });
        }
        if tag == END_TAG {
            let mut cursor = Cursor::new(&payload);
            let count = cursor.u32()?;
            cursor.expect_end()?;
            if count != self.segments_read {
                return Err(SegmentError::Malformed(format!(
                    "END segment announces {count} segments but {} were read",
                    self.segments_read
                )));
            }
            // The END marker must really end the stream: trailing bytes mean
            // a concatenated or doctored file.
            let mut probe = [0u8; 1];
            match self.input.read(&mut probe) {
                Ok(0) => {}
                Ok(_) => {
                    return Err(SegmentError::Malformed("data after the END segment".into()));
                }
                Err(e) => return Err(e.into()),
            }
            self.finished = true;
            return Ok(None);
        }
        self.segments_read += 1;
        Ok(Some((tag, payload)))
    }
}

// ---------------------------------------------------------------------------
// Payload cursor
// ---------------------------------------------------------------------------

/// A checked little-endian cursor over a segment payload.
///
/// Unlike the panicking [`bytes::Buf`] accessors, every read returns
/// [`SegmentError::Malformed`] on underflow, so a payload that passes its CRC
/// but is structurally wrong (e.g. written by a buggy encoder) surfaces as an
/// error instead of a panic.
#[derive(Debug)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Creates a cursor at the start of a payload.
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Errors unless the payload has been fully consumed.
    pub fn expect_end(&self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(SegmentError::Malformed(format!(
                "{} trailing bytes after the last field",
                self.remaining()
            )));
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(SegmentError::Malformed(format!(
                "needed {n} bytes but only {} remain",
                self.remaining()
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
}

// ---------------------------------------------------------------------------
// File helpers
// ---------------------------------------------------------------------------

/// Writes a segment file atomically: the segments are produced into a
/// uniquely named temporary sibling, the `END` terminator is appended, the
/// file is fsynced, the temporary is renamed over `path`, and the parent
/// directory is fsynced so the rename itself survives a power failure.  A
/// crash anywhere before the rename leaves any existing file at `path`
/// untouched; the unique temp name (pid + per-process counter) keeps
/// concurrent saves to the same path from interleaving into one temp file.
pub fn atomic_write<F>(path: &Path, magic: [u8; 4], version: u16, build: F) -> Result<()>
where
    F: FnOnce(&mut SegmentWriter<BufWriter<File>>) -> Result<()>,
{
    commit_file(path, |file| {
        let mut writer = SegmentWriter::new(BufWriter::new(file), magic, version)?;
        build(&mut writer)?;
        writer.finish()?.into_inner().map_err(|e| SegmentError::Io(e.to_string()))
    })
}

/// Atomically writes pre-serialised segment-file `bytes` — a complete file
/// image produced by a [`SegmentWriter`] over an in-memory buffer — with the
/// same temp-sibling + fsync + rename + directory-fsync protocol as
/// [`atomic_write`].  Lets callers digest or inspect the exact bytes before
/// committing them, without reading the file back.
pub fn atomic_write_bytes(path: &Path, bytes: &[u8]) -> Result<()> {
    commit_file(path, |mut file| {
        file.write_all(bytes)?;
        Ok(file)
    })
}

/// The one commit-a-file protocol: `fill` writes the whole content into a
/// freshly created temporary sibling and hands the `File` back (every
/// user-space buffer flushed), which is fsynced, renamed over `path`, and
/// the parent directory fsynced; on any error the temporary is removed.
fn commit_file(path: &Path, fill: impl FnOnce(File) -> Result<File>) -> Result<()> {
    let tmp = sibling_tmp_path(path);
    let result = (|| {
        fill(File::create(&tmp)?)?.sync_all()?;
        std::fs::rename(&tmp, path)?;
        // Persist the directory entry: without this the rename may be rolled
        // back by a crash even though the call already reported success.
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            File::open(parent)?.sync_all()?;
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

fn sibling_tmp_path(path: &Path) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(format!(".{}.{}.tmp", std::process::id(), COUNTER.fetch_add(1, Ordering::Relaxed)));
    path.with_file_name(name)
}

/// Opens a segment file for reading, validating magic and version.
pub fn open_file(
    path: &Path,
    magic: [u8; 4],
    max_version: u16,
) -> Result<SegmentReader<BufReader<File>>> {
    let file = File::open(path)?;
    SegmentReader::new(BufReader::new(file), magic, max_version)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 4] = *b"TEST";

    fn write_sample(segments: &[(u32, Vec<u8>)]) -> Vec<u8> {
        let mut writer = SegmentWriter::new(Vec::new(), MAGIC, 1).unwrap();
        for (tag, payload) in segments {
            writer.write_segment(*tag, payload).unwrap();
        }
        writer.finish().unwrap()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn round_trip_preserves_tags_and_payloads() {
        let segments = vec![(1u32, b"hello".to_vec()), (7, Vec::new()), (2, vec![0u8; 1000])];
        let bytes = write_sample(&segments);
        let mut reader = SegmentReader::new(bytes.as_slice(), MAGIC, 1).unwrap();
        assert_eq!(reader.version(), 1);
        for (tag, payload) in &segments {
            let (t, p) = reader.next_segment().unwrap().unwrap();
            assert_eq!(t, *tag);
            assert_eq!(&p, payload);
        }
        assert!(reader.next_segment().unwrap().is_none());
        // Idempotent after END.
        assert!(reader.next_segment().unwrap().is_none());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let bytes = write_sample(&[(1, b"x".to_vec())]);
        let err = SegmentReader::new(bytes.as_slice(), *b"ELSE", 1).unwrap_err();
        assert!(matches!(err, SegmentError::BadMagic { .. }));
    }

    #[test]
    fn future_versions_are_rejected() {
        let mut writer = SegmentWriter::new(Vec::new(), MAGIC, 9).unwrap();
        writer.write_segment(1, b"x").unwrap();
        let bytes = writer.finish().unwrap();
        let err = SegmentReader::new(bytes.as_slice(), MAGIC, 1).unwrap_err();
        assert_eq!(err, SegmentError::UnsupportedVersion { found: 9, supported: 1 });
    }

    #[test]
    fn flipped_bit_fails_the_checksum() {
        let mut bytes = write_sample(&[(3, b"payload-bytes".to_vec())]);
        // Flip one payload bit (header is 8 bytes, segment header 12).
        bytes[8 + 12 + 3] ^= 0x40;
        let mut reader = SegmentReader::new(bytes.as_slice(), MAGIC, 1).unwrap();
        assert_eq!(reader.next_segment().unwrap_err(), SegmentError::ChecksumMismatch { tag: 3 });
    }

    #[test]
    fn every_truncation_point_is_detected() {
        let bytes = write_sample(&[(1, b"abcdef".to_vec()), (2, b"ghij".to_vec())]);
        for cut in 0..bytes.len() {
            let truncated = &bytes[..cut];
            let outcome = SegmentReader::new(truncated, MAGIC, 1).and_then(|mut r| {
                while r.next_segment()?.is_some() {}
                Ok(())
            });
            assert!(outcome.is_err(), "cut at {cut} went undetected");
        }
        // The full file parses.
        let mut reader = SegmentReader::new(bytes.as_slice(), MAGIC, 1).unwrap();
        while reader.next_segment().unwrap().is_some() {}
    }

    #[test]
    fn missing_end_marker_is_truncation() {
        let mut writer = SegmentWriter::new(Vec::new(), MAGIC, 1).unwrap();
        writer.write_segment(1, b"x").unwrap();
        // No finish(): take the raw buffer as-is.
        let bytes = writer.out;
        let mut reader = SegmentReader::new(bytes.as_slice(), MAGIC, 1).unwrap();
        let first = reader.next_segment().unwrap();
        assert!(first.is_some());
        assert!(matches!(reader.next_segment(), Err(SegmentError::Truncated(_))));
    }

    #[test]
    fn data_after_the_end_marker_is_rejected() {
        let mut bytes = write_sample(&[(1, b"abc".to_vec())]);
        // Concatenate a second valid file after the first.
        bytes.extend_from_slice(&write_sample(&[(2, b"xyz".to_vec())]));
        let mut reader = SegmentReader::new(bytes.as_slice(), MAGIC, 1).unwrap();
        let _ = reader.next_segment().unwrap().unwrap();
        assert!(matches!(reader.next_segment(), Err(SegmentError::Malformed(_))));
    }

    #[test]
    fn absurd_lengths_are_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&1u16.to_le_bytes());
        bytes.extend_from_slice(&0u16.to_le_bytes());
        bytes.extend_from_slice(&5u32.to_le_bytes());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        let mut reader = SegmentReader::new(bytes.as_slice(), MAGIC, 1).unwrap();
        assert!(matches!(reader.next_segment(), Err(SegmentError::Malformed(_))));
    }

    #[test]
    fn cursor_reads_are_checked() {
        let mut payload = Vec::new();
        payload.push(7u8);
        payload.extend_from_slice(&70_000u32.to_le_bytes());
        payload.extend_from_slice(&u64::MAX.to_le_bytes());
        let mut cursor = Cursor::new(&payload);
        assert_eq!(cursor.u8().unwrap(), 7);
        assert_eq!(cursor.u32().unwrap(), 70_000);
        assert_eq!(cursor.u64().unwrap(), u64::MAX);
        cursor.expect_end().unwrap();
        assert!(cursor.u8().is_err());
        let mut short = Cursor::new(&payload[..3]);
        let _ = short.u8();
        assert!(short.u64().is_err());
    }

    #[test]
    fn atomic_write_and_open_file_round_trip() {
        let dir = std::env::temp_dir().join(format!("segtest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.seg");
        atomic_write(&path, MAGIC, 1, |w| {
            w.write_segment(4, b"persisted")?;
            Ok(())
        })
        .unwrap();
        let mut reader = open_file(&path, MAGIC, 1).unwrap();
        let (tag, payload) = reader.next_segment().unwrap().unwrap();
        assert_eq!((tag, payload.as_slice()), (4, b"persisted".as_slice()));
        assert!(reader.next_segment().unwrap().is_none());
        // No temporary left behind: the directory holds only the final file.
        let entries: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap()).collect();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].path(), path);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
