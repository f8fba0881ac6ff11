//! The `.fadet` recorded-trace file format.
//!
//! A versioned, chunked, checksummed container around the
//! [`crate::codec`] record encoding — the interchange point between
//! trace capture and analysis. A recorded trace freezes a workload
//! independently of future generator/profile changes, makes any real
//! workload "a file we replay", and gives tests byte-stable fixtures.
//!
//! # Layout (all integers little-endian)
//!
//! ```text
//! file    := header chunk* index trailer
//! header  := magic[8]="FADETRCF"  version:u16  hlen:u16
//!            hpayload[hlen]  crc32(hpayload):u32
//! hpayload:= name_len:u8  bench_name[name_len]  seed:u64
//! chunk   := 0x01  plen:u32  nrecords:u32  crc32(payload):u32
//!            payload[plen]            (codec context resets per chunk)
//! index   := 0x02  plen:u32  nchunks:u32  crc32(payload):u32
//!            payload[plen]            (12 bytes per chunk:
//!                                      offset:u64  nrecords:u32)
//! trailer := 0x00  total_records:u64  index_offset:u64
//!            crc32(total_records index_offset):u32
//! ```
//!
//! The trailer must end the stream. A reader that finds bytes after a
//! verified trailer fails with [`TraceFileError::BadStructure`] at the
//! first of them (or, in recover mode, skips and accounts them), so
//! appended garbage or a second concatenated trace never passes as a
//! clean read.
//!
//! Version 2 (current) appends the chunk-offset index frame and widens
//! the trailer to carry `index_offset`, so a consumer can seek straight
//! to any chunk. The sequential reader verifies the index frame's
//! checksum and skips it. Version-1 files (13-byte trailer, no index
//! frame) still read: the reader keys the trailer layout off the header
//! version.
//!
//! Unknown trailing header-payload bytes are skipped, so minor-version
//! extensions can add metadata without breaking old readers; a major
//! format change bumps `version` and old readers reject it with
//! [`TraceFileError::UnsupportedVersion`].
//!
//! Every failure mode is a typed [`TraceFileError`] naming the file
//! offset of the failing chunk — decoding never panics, whatever the
//! bytes.
//!
//! # Recovery
//!
//! Readers run in one of two modes. The default *strict* mode fails the
//! whole read on the first fault. *Recover* mode
//! ([`TraceReader::with_recovery`]) instead skips the faulty frame,
//! scans forward for the next offset at which a whole frame parses and
//! verifies (chunks carry their own CRC-32 and decode with a fresh
//! codec context, so any surviving chunk is independently decodable),
//! and keeps going. Every skip is accounted in a [`DegradationReport`]:
//! which byte ranges were dropped, how many records were lost (exact
//! when the trailer survives, best-effort otherwise), and whether the
//! tail of the file was truncated. On a clean file the two modes are
//! byte-for-byte identical.
//!
//! # Example
//!
//! ```
//! use fade_trace::{bench, SyntheticProgram};
//! use fade_trace::file::{decode_trace, encode_trace, TraceMeta};
//!
//! let p = bench::by_name("mcf").unwrap();
//! let mut prog = SyntheticProgram::new(&p, 7);
//! let records: Vec<_> = (0..1000).map(|_| prog.next_record()).collect();
//! let meta = TraceMeta { bench: "mcf".into(), seed: 7 };
//! let bytes = encode_trace(&meta, &records);
//! let (meta2, records2) = decode_trace(&bytes).unwrap();
//! assert_eq!(meta2, meta);
//! assert_eq!(records2, records);
//! ```

use std::io::{self, Read, Write};
use std::ops::Range;
use std::path::Path;

use crate::codec::{crc32, encode_record, ChunkDecoder, CodecError, Ctx};
use crate::program::TraceRecord;

/// Magic header of a `.fadet` trace file.
pub(crate) const FILE_MAGIC: &[u8; 8] = b"FADETRCF";

/// Current schema version. Readers reject anything newer and accept
/// everything older (version 1 lacks the chunk index and uses the
/// short trailer).
pub(crate) const FORMAT_VERSION: u16 = 2;

/// Records per chunk the writer flushes at by default: large enough to
/// amortize per-chunk overhead (13 bytes) to noise, small enough that
/// corruption and resynchronization stay fine-grained. A caller that
/// asks [`TraceReader::next_records_into`] for this many records at a
/// time gets each chunk decoded straight into its buffer.
pub const DEFAULT_CHUNK_RECORDS: usize = 4096;

const CHUNK_MARKER: u8 = 0x01;
const END_MARKER: u8 = 0x00;
const INDEX_MARKER: u8 = 0x02;

/// Bytes one chunk costs in the index frame: offset + record count.
const INDEX_ENTRY_BYTES: usize = 12;
/// Version-1 trailer: marker + total_records + crc.
const TRAILER_V1: usize = 13;
/// Version-2 trailer: marker + total_records + index_offset + crc.
const TRAILER_V2: usize = 21;

/// Upper bound a reader accepts for one chunk payload: a corrupted (or
/// hostile) length field must not drive allocation.
const MAX_CHUNK_PAYLOAD: u32 = 1 << 26;
/// Upper bound a reader accepts for one chunk's record count.
const MAX_CHUNK_RECORDS: u32 = 1 << 24;
/// Upper bound for the bench-name field.
const MAX_NAME_LEN: usize = 255;
/// Largest single `read` the reader issues into its look-ahead.
const READ_CHUNK: usize = 8192;

/// Profile metadata carried in the file header: enough to rebuild the
/// [`crate::BenchProfile`] context a recorded trace was captured under.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceMeta {
    /// Benchmark profile name (`crate::bench::by_name` key) the trace
    /// was generated from, or a free-form workload label for captured
    /// real-workload traces.
    pub bench: String,
    /// Generator seed (for provenance; replay does not re-generate).
    pub seed: u64,
}

impl TraceMeta {
    /// Metadata for a synthetic workload.
    pub fn new(bench: impl Into<String>, seed: u64) -> Self {
        TraceMeta {
            bench: bench.into(),
            seed,
        }
    }
}

/// An error while reading or decoding a recorded-trace file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceFileError {
    /// An underlying I/O failure (other than clean truncation).
    Io(String),
    /// The file does not start with `FILE_MAGIC`.
    BadMagic,
    /// The file's schema version is newer than this reader.
    UnsupportedVersion {
        /// Version found in the header.
        found: u16,
    },
    /// The header payload is malformed or fails its checksum.
    BadHeader,
    /// The stream ended mid-structure.
    Truncated {
        /// File offset at which more bytes were needed.
        offset: u64,
    },
    /// A chunk payload failed its CRC-32 check.
    ChecksumMismatch {
        /// File offset of the failing chunk's marker byte.
        chunk_offset: u64,
    },
    /// A chunk payload passed its checksum but decoded to garbage
    /// (possible only for writer bugs or checksum collisions).
    Corrupt {
        /// File offset of the failing chunk's marker byte.
        chunk_offset: u64,
        /// The codec-level error inside the payload.
        error: CodecError,
    },
    /// The trailer's total record count disagrees with the chunks.
    CountMismatch {
        /// Records the trailer promised.
        expected: u64,
        /// Records the chunks actually held.
        found: u64,
    },
    /// A structural field is out of its sane range (chunk larger than
    /// the maximum chunk payload, oversized name, unknown marker).
    BadStructure {
        /// File offset of the offending field.
        offset: u64,
    },
}

impl std::fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceFileError::Io(e) => write!(f, "trace file I/O error: {e}"),
            TraceFileError::BadMagic => write!(f, "not a FADE trace file (bad magic)"),
            TraceFileError::UnsupportedVersion { found } => write!(
                f,
                "unsupported trace format version {found} (reader supports <= {FORMAT_VERSION})"
            ),
            TraceFileError::BadHeader => write!(f, "malformed trace file header"),
            TraceFileError::Truncated { offset } => {
                write!(f, "trace file truncated at byte offset {offset}")
            }
            TraceFileError::ChecksumMismatch { chunk_offset } => {
                write!(f, "checksum mismatch in chunk at byte offset {chunk_offset}")
            }
            TraceFileError::Corrupt { chunk_offset, error } => {
                write!(f, "corrupt chunk at byte offset {chunk_offset}: {error}")
            }
            TraceFileError::CountMismatch { expected, found } => write!(
                f,
                "record count mismatch: trailer promises {expected}, chunks hold {found}"
            ),
            TraceFileError::BadStructure { offset } => {
                write!(f, "malformed structure at byte offset {offset}")
            }
        }
    }
}

impl std::error::Error for TraceFileError {}

impl From<io::Error> for TraceFileError {
    fn from(e: io::Error) -> Self {
        TraceFileError::Io(e.to_string())
    }
}

// ---------------------------------------------------------------------
// Degradation accounting
// ---------------------------------------------------------------------

/// One fault a recovering reader survived: the frame it gave up on and
/// where (if anywhere) it found the next parseable frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SkippedChunk {
    /// File offset of the frame that failed to parse or verify.
    pub offset: u64,
    /// File offset of the next frame that parsed and verified, or
    /// `None` when the scan ran off the end of the stream.
    pub resumed_at: Option<u64>,
    /// The typed error the frame failed with.
    pub error: TraceFileError,
}

/// What a [`TraceReader`] in recover mode survived: skipped-chunk and
/// lost-record accounting for a faulty `.fadet` stream.
///
/// Produced by [`TraceReader::degradation`] (and surfaced through
/// `fade_system::Session::degradation` on replay sessions). All counts
/// are final once the reader reports end-of-trace; a report on a
/// fault-free stream is [`DegradationReport::is_clean`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DegradationReport {
    /// Frames skipped after a fault (corrupt, truncated or garbage).
    pub chunks_skipped: u64,
    /// Records lost to skipped frames. Exact — taken from the trailer's
    /// total — when the trailer survived; otherwise the sum of the
    /// record counts claimed by skipped chunks whose headers were still
    /// parseable (a lower bound).
    pub records_lost: u64,
    /// Total bytes the resynchronization scan stepped over.
    pub bytes_skipped: u64,
    /// The stream ended before a verified trailer (mid-chunk or
    /// mid-scan end-of-file).
    pub truncated_tail: bool,
    /// A structurally-valid trailer was found, making `records_lost`
    /// exact.
    pub trailer_verified: bool,
    /// Per-fault detail, in stream order.
    pub faults: Vec<SkippedChunk>,
}

impl DegradationReport {
    /// `true` when the stream replayed without a single fault.
    pub fn is_clean(&self) -> bool {
        self.chunks_skipped == 0
            && self.records_lost == 0
            && self.bytes_skipped == 0
            && !self.truncated_tail
            && self.faults.is_empty()
    }
}

impl std::fmt::Display for DegradationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_clean() {
            return write!(f, "clean replay (no faults)");
        }
        write!(
            f,
            "degraded replay: {} chunk(s) skipped, {}{} record(s) lost, {} byte(s) skipped{}",
            self.chunks_skipped,
            if self.trailer_verified { "" } else { ">= " },
            self.records_lost,
            self.bytes_skipped,
            if self.truncated_tail {
                ", tail truncated"
            } else {
                ""
            }
        )
    }
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Streaming `.fadet` writer.
///
/// Records are buffered into chunks of
/// [`TraceWriter::with_chunk_records`] records (default
/// `DEFAULT_CHUNK_RECORDS`), each flushed with its own record count
/// and CRC-32; [`TraceWriter::finish`] writes the trailer. Dropping a
/// writer without `finish` leaves a file readers reject as truncated —
/// a half-written capture never masquerades as a complete one.
pub struct TraceWriter<W: Write> {
    w: W,
    ctx: Ctx,
    chunk: Vec<u8>,
    chunk_records: u32,
    chunk_capacity: usize,
    total: u64,
    /// File offset the next byte will land at (header included), so
    /// each flushed chunk can be recorded in the index frame.
    offset: u64,
    /// (file offset, record count) per flushed chunk.
    index: Vec<(u64, u32)>,
}

impl<W: Write> TraceWriter<W> {
    /// Creates a writer and emits the file header.
    pub fn new(mut w: W, meta: &TraceMeta) -> io::Result<Self> {
        assert!(
            meta.bench.len() <= MAX_NAME_LEN,
            "bench name too long for the trace header"
        );
        let mut hpayload = Vec::with_capacity(1 + meta.bench.len() + 8);
        hpayload.push(meta.bench.len() as u8);
        hpayload.extend_from_slice(meta.bench.as_bytes());
        hpayload.extend_from_slice(&meta.seed.to_le_bytes());
        w.write_all(FILE_MAGIC)?;
        w.write_all(&FORMAT_VERSION.to_le_bytes())?;
        w.write_all(&(hpayload.len() as u16).to_le_bytes())?;
        w.write_all(&hpayload)?;
        w.write_all(&crc32(&hpayload).to_le_bytes())?;
        let header_len = 8 + 2 + 2 + hpayload.len() as u64 + 4;
        Ok(TraceWriter {
            w,
            ctx: Ctx::default(),
            chunk: Vec::new(),
            chunk_records: 0,
            chunk_capacity: DEFAULT_CHUNK_RECORDS,
            total: 0,
            offset: header_len,
            index: Vec::new(),
        })
    }

    /// Sets the records-per-chunk flush threshold (min 1).
    pub fn with_chunk_records(mut self, n: usize) -> Self {
        self.chunk_capacity = n.max(1);
        self
    }

    /// Appends one record.
    pub(crate) fn write_record(&mut self, r: &TraceRecord) -> io::Result<()> {
        encode_record(&mut self.ctx, r, &mut self.chunk);
        self.chunk_records += 1;
        self.total += 1;
        if self.chunk_records as usize >= self.chunk_capacity {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// Appends a record slice.
    pub fn write_all(&mut self, records: &[TraceRecord]) -> io::Result<()> {
        for r in records {
            self.write_record(r)?;
        }
        Ok(())
    }

    fn flush_chunk(&mut self) -> io::Result<()> {
        if self.chunk_records == 0 {
            return Ok(());
        }
        self.index.push((self.offset, self.chunk_records));
        self.w.write_all(&[CHUNK_MARKER])?;
        self.w.write_all(&(self.chunk.len() as u32).to_le_bytes())?;
        self.w.write_all(&self.chunk_records.to_le_bytes())?;
        self.w.write_all(&crc32(&self.chunk).to_le_bytes())?;
        self.w.write_all(&self.chunk)?;
        self.offset += 13 + self.chunk.len() as u64;
        self.chunk.clear();
        self.chunk_records = 0;
        // Fresh prediction context per chunk: chunks decode independently.
        self.ctx = Ctx::default();
        Ok(())
    }

    /// Flushes the last chunk, writes the chunk-offset index frame and
    /// the trailer, and returns the inner writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.flush_chunk()?;
        // Index frame: seekable consumers jump here via the trailer's
        // index_offset and never touch chunk payloads.
        let index_offset = self.offset;
        let mut ipayload = Vec::with_capacity(self.index.len() * INDEX_ENTRY_BYTES);
        for &(off, nrecords) in &self.index {
            ipayload.extend_from_slice(&off.to_le_bytes());
            ipayload.extend_from_slice(&nrecords.to_le_bytes());
        }
        self.w.write_all(&[INDEX_MARKER])?;
        self.w.write_all(&(ipayload.len() as u32).to_le_bytes())?;
        self.w.write_all(&(self.index.len() as u32).to_le_bytes())?;
        self.w.write_all(&crc32(&ipayload).to_le_bytes())?;
        self.w.write_all(&ipayload)?;
        // Version-2 trailer: total record count plus the index frame's
        // file offset, CRC-protected together.
        self.w.write_all(&[END_MARKER])?;
        let mut tail = [0u8; 16];
        tail[..8].copy_from_slice(&self.total.to_le_bytes());
        tail[8..].copy_from_slice(&index_offset.to_le_bytes());
        self.w.write_all(&tail)?;
        self.w.write_all(&crc32(&tail).to_le_bytes())?;
        self.w.flush()?;
        Ok(self.w)
    }
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// Streaming `.fadet` reader.
///
/// Parses the header eagerly ([`TraceReader::meta`]), then decodes one
/// chunk at a time on demand — a trace never needs to fit in memory
/// twice. Implements `Iterator<Item = Result<TraceRecord, _>>`, and
/// plugs directly into a `fade_system::Session` as its trace source
/// (the `TraceSource` trait).
///
/// In strict mode (the default) the first fault aborts the read with a
/// typed [`TraceFileError`]; [`TraceReader::with_recovery`] switches to
/// skip-and-resynchronize with a [`DegradationReport`].
///
/// The reader takes over the whole stream: it reads ahead in blocks of
/// up to 8 KiB, past the frame it needs, and after the trailer it
/// reads once more to check for end of stream (see the module docs),
/// so the read finishes only at EOF or at an error. A trace cannot be
/// embedded in a longer stream, and a pipe or socket that stays open
/// after the trailer blocks that last read until it closes.
pub struct TraceReader<R: Read> {
    r: R,
    meta: TraceMeta,
    /// Header schema version; selects the trailer layout (version 1
    /// uses the short trailer and has no index frame).
    version: u16,
    /// File offset of the next logically-unread byte (`buf[head]`,
    /// when any byte is buffered).
    pos: u64,
    /// Look-ahead over `r`: `buf[head..end]` is read but not yet
    /// consumed. Frame parsing peeks here, checksums and decodes each
    /// frame in place, and only consumes bytes once the whole frame
    /// verifies, so a failed parse leaves the stream intact for
    /// resynchronization. Reads of at most [`READ_CHUNK`] bytes land at
    /// `end`; the unread bytes move to the front only when `buf` is
    /// full, and `buf` doubles only when they fill it — so its size
    /// follows the bytes actually read, never a length field.
    buf: Vec<u8>,
    head: usize,
    end: usize,
    /// `r` reported end-of-stream.
    eof: bool,
    chunk: Vec<TraceRecord>,
    chunk_pos: usize,
    total_seen: u64,
    /// End of trace reached (verified trailer, or a recovered reader
    /// ran off the end of the stream).
    done: bool,
    recover: bool,
    degradation: DegradationReport,
    /// Records claimed by skipped chunks whose headers were parseable.
    claimed_lost: u64,
}

impl TraceReader<io::BufReader<std::fs::File>> {
    /// Opens a trace file from disk (strict mode).
    pub(crate) fn open(path: impl AsRef<Path>) -> Result<Self, TraceFileError> {
        let f = std::fs::File::open(path)?;
        TraceReader::new(io::BufReader::new(f))
    }
}

impl<R: Read> TraceReader<R> {
    /// Wraps a byte stream, parsing and validating the header.
    pub fn new(mut r: R) -> Result<Self, TraceFileError> {
        let mut pos = 0u64;
        let mut magic = [0u8; 8];
        read_exact_at(&mut r, &mut magic, &mut pos).map_err(|e| match e {
            TraceFileError::Truncated { .. } => TraceFileError::BadMagic,
            other => other,
        })?;
        if &magic != FILE_MAGIC {
            return Err(TraceFileError::BadMagic);
        }
        let version = read_u16(&mut r, &mut pos)?;
        if version > FORMAT_VERSION || version == 0 {
            return Err(TraceFileError::UnsupportedVersion { found: version });
        }
        let hlen = read_u16(&mut r, &mut pos)? as usize;
        let mut hpayload = vec![0u8; hlen];
        read_exact_at(&mut r, &mut hpayload, &mut pos)?;
        let hcrc = read_u32(&mut r, &mut pos)?;
        if crc32(&hpayload) != hcrc {
            return Err(TraceFileError::BadHeader);
        }
        // name_len + name + seed; later minor versions may append more.
        let name_len = *hpayload.first().ok_or(TraceFileError::BadHeader)? as usize;
        if hpayload.len() < 1 + name_len + 8 {
            return Err(TraceFileError::BadHeader);
        }
        let bench = std::str::from_utf8(&hpayload[1..1 + name_len])
            .map_err(|_| TraceFileError::BadHeader)?
            .to_string();
        let mut seed_bytes = [0u8; 8];
        seed_bytes.copy_from_slice(&hpayload[1 + name_len..1 + name_len + 8]);
        let seed = u64::from_le_bytes(seed_bytes);
        Ok(TraceReader {
            r,
            meta: TraceMeta { bench, seed },
            version,
            pos,
            buf: Vec::new(),
            head: 0,
            end: 0,
            eof: false,
            chunk: Vec::new(),
            chunk_pos: 0,
            total_seen: 0,
            done: false,
            recover: false,
            degradation: DegradationReport::default(),
            claimed_lost: 0,
        })
    }

    /// Switches the reader to recover mode: a corrupt, truncated or
    /// garbage frame is skipped and the reader resynchronizes on the
    /// next offset at which a complete frame parses and verifies,
    /// accounting every skip in [`TraceReader::degradation`]. Faults in
    /// the file *header* are not recoverable (there is nothing to
    /// replay without the metadata) and still fail
    /// [`TraceReader::new`]; underlying I/O errors other than clean
    /// end-of-stream still abort the read.
    ///
    /// On a fault-free stream, recover mode returns bit-identical
    /// records to strict mode.
    pub fn with_recovery(mut self) -> Self {
        self.recover = true;
        self
    }

    /// The profile metadata from the file header.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Trailer frame length for this file's schema version.
    fn trailer_len(&self) -> usize {
        if self.version >= 2 {
            TRAILER_V2
        } else {
            TRAILER_V1
        }
    }

    /// Skipped-chunk accounting, in recover mode ([`None`] in strict
    /// mode, which aborts on the first fault instead). Counts are final
    /// once the reader is exhausted; a fault-free replay yields a
    /// [`DegradationReport::is_clean`] report.
    pub fn degradation(&self) -> Option<&DegradationReport> {
        if self.recover {
            Some(&self.degradation)
        } else {
            None
        }
    }

    // -- buffered look-ahead ------------------------------------------

    /// Bytes buffered but not yet consumed.
    fn buffered(&self) -> &[u8] {
        &self.buf[self.head..self.end]
    }

    /// Ensures up to `n` bytes are buffered; returns how many are
    /// available (fewer than `n` only at end-of-stream).
    fn fill(&mut self, n: usize) -> Result<usize, TraceFileError> {
        while self.end - self.head < n && !self.eof {
            if self.end == self.buf.len() {
                if self.head > 0 {
                    // Full: move the unread bytes to the front.
                    self.buf.copy_within(self.head..self.end, 0);
                    self.end -= self.head;
                    self.head = 0;
                } else {
                    // Full of unread bytes: double.
                    self.buf
                        .resize(self.buf.len() + self.buf.len().max(READ_CHUNK), 0);
                }
            }
            let want = (self.buf.len() - self.end).min(READ_CHUNK);
            match self.r.read(&mut self.buf[self.end..self.end + want]) {
                Ok(0) => self.eof = true,
                Ok(k) => self.end += k,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(self.buffered().len().min(n))
    }

    /// Drops `n` already-buffered bytes from the front of the
    /// look-ahead.
    fn consume(&mut self, n: usize) {
        debug_assert!(
            n <= self.buffered().len(),
            "consume beyond buffered look-ahead"
        );
        self.head += n;
        self.pos += n as u64;
        if self.head == self.end {
            self.head = 0;
            self.end = 0;
        }
    }

    fn peek_u32(&self, off: usize) -> u32 {
        le_u32(self.buffered(), off)
    }

    fn peek_u64(&self, off: usize) -> u64 {
        u64::from_le_bytes(self.buffered()[off..off + 8].try_into().expect("8 bytes"))
    }

    /// Ensures `n` bytes are buffered; a stream that ends first is
    /// [`TraceFileError::Truncated`] where it ended.
    fn fill_all(&mut self, n: usize) -> Result<(), TraceFileError> {
        let avail = self.fill(n)?;
        if avail < n {
            return Err(TraceFileError::Truncated {
                offset: self.pos + avail as u64,
            });
        }
        Ok(())
    }

    // -- frame parsing ------------------------------------------------

    /// Fills the frame at the stream position and checks its CRC-32,
    /// consuming nothing. `covered` checks the frame's first `head`
    /// bytes (`None`: [`TraceFileError::BadStructure`]) and gives the
    /// bytes the CRC stored at `crc_at` covers; the frame ends after
    /// both. Returns its length.
    fn fill_frame(
        &mut self,
        head: usize,
        crc_at: usize,
        covered: impl FnOnce(&[u8]) -> Option<Range<usize>>,
    ) -> Result<usize, TraceFileError> {
        let offset = self.pos;
        self.fill_all(head)?;
        let covers =
            covered(&self.buffered()[..head]).ok_or(TraceFileError::BadStructure { offset })?;
        let len = covers.end.max(crc_at + 4);
        self.fill_all(len)?;
        let frame = &self.buffered()[..len];
        if crc32(&frame[covers]) != le_u32(frame, crc_at) {
            return Err(TraceFileError::ChecksumMismatch {
                chunk_offset: offset,
            });
        }
        Ok(len)
    }

    /// Loads and verifies the next chunk; `false` at the (verified)
    /// trailer. A chunk of at most `room` records is decoded straight
    /// onto the end of `out`; a larger one goes to the reader's own
    /// chunk buffer. Peeks via `buf` and consumes bytes only when the
    /// whole frame verifies, so on `Err` the stream still holds the
    /// failed frame's bytes and recovery can rescan them.
    fn load_next_frame_strict(
        &mut self,
        out: &mut Vec<TraceRecord>,
        room: usize,
    ) -> Result<bool, TraceFileError> {
        let chunk_offset = self.pos;
        self.fill_all(1)?;
        match self.buffered()[0] {
            CHUNK_MARKER => {
                let frame_len = self.fill_frame(13, 9, |head| {
                    let (plen, nrecords) = (le_u32(head, 1), le_u32(head, 5));
                    let sane = plen <= MAX_CHUNK_PAYLOAD
                        && nrecords <= MAX_CHUNK_RECORDS
                        && (nrecords == 0) == (plen == 0)
                        // Every record costs at least a tag byte.
                        && nrecords <= plen;
                    sane.then(|| 13..13 + plen as usize)
                })?;
                let nrecords = self.peek_u32(5) as usize;
                let payload = &self.buf[self.head + 13..self.head + frame_len];
                // The old chunk is fully drained (loop invariant), so
                // decoding into it is safe. A failed decode may leave
                // partial records behind, which must not be served as
                // real ones: the target is cut back to where it began.
                let dest = if nrecords <= room {
                    out
                } else {
                    self.chunk.clear();
                    self.chunk_pos = 0;
                    &mut self.chunk
                };
                let start = dest.len();
                if let Err(error) = ChunkDecoder::new(payload).decode_all(nrecords, dest) {
                    dest.truncate(start);
                    return Err(TraceFileError::Corrupt { chunk_offset, error });
                }
                self.consume(frame_len);
                self.total_seen += nrecords as u64;
                Ok(true)
            }
            INDEX_MARKER => {
                // Chunk-offset index frame (version 2+): advisory for a
                // sequential read. Verify and skip.
                if self.version < 2 {
                    return Err(TraceFileError::BadStructure { offset: chunk_offset });
                }
                let frame_len = self.fill_frame(13, 9, |head| {
                    let (plen, nchunks) = (le_u32(head, 1), le_u32(head, 5));
                    let sane = plen <= MAX_CHUNK_PAYLOAD
                        && u64::from(nchunks) * INDEX_ENTRY_BYTES as u64 == u64::from(plen);
                    sane.then(|| 13..13 + plen as usize)
                })?;
                self.consume(frame_len);
                // No records loaded; the caller's drain loop advances to
                // the trailer.
                Ok(true)
            }
            END_MARKER => {
                let tlen = self.trailer_len();
                self.fill_frame(tlen, tlen - 4, |_| Some(1..tlen - 4))?;
                let count = self.peek_u64(1);
                if count != self.total_seen {
                    return Err(TraceFileError::CountMismatch {
                        expected: count,
                        found: self.total_seen,
                    });
                }
                self.consume(tlen);
                self.done = true;
                self.degradation.trailer_verified = true;
                self.expect_end_of_stream()?;
                Ok(false)
            }
            _ => Err(TraceFileError::BadStructure { offset: chunk_offset }),
        }
    }

    /// The trailer must end the stream. Bytes after it are
    /// `BadStructure` at the first of them in strict mode; in recover
    /// mode they are skipped and accounted as one fault.
    fn expect_end_of_stream(&mut self) -> Result<(), TraceFileError> {
        let offset = self.pos;
        if self.fill(1)? == 0 {
            return Ok(());
        }
        let error = TraceFileError::BadStructure { offset };
        if !self.recover {
            return Err(error);
        }
        while self.fill(1)? > 0 {
            self.consume(self.buffered().len());
        }
        self.degradation.bytes_skipped += self.pos - offset;
        self.degradation.faults.push(SkippedChunk {
            offset,
            resumed_at: None,
            error,
        });
        Ok(())
    }

    /// Accepts a structurally-valid trailer whose count disagrees with
    /// the decoded records (recover mode: the normal outcome after
    /// skipping a chunk).
    fn accept_mismatched_trailer(
        &mut self,
        trailer_offset: u64,
        expected: u64,
    ) -> Result<(), TraceFileError> {
        self.consume(self.trailer_len());
        self.done = true;
        // The trailer is authoritative when it counts at least as many
        // records as survived: it was CRC-verified. One that claims
        // *fewer* records than were decoded has a damaged count field;
        // the per-chunk claimed counts stand in for it.
        let trusted = expected >= self.total_seen;
        self.degradation.trailer_verified = trusted;
        self.degradation.records_lost = if trusted {
            expected - self.total_seen
        } else {
            self.claimed_lost
        };
        // A skipped chunk explains the gap a trusted trailer shows;
        // otherwise (e.g. a whole chunk was cleanly excised) the
        // mismatch is accounted explicitly.
        if !trusted || self.degradation.chunks_skipped == 0 {
            self.degradation.faults.push(SkippedChunk {
                offset: trailer_offset,
                resumed_at: None,
                error: TraceFileError::CountMismatch {
                    expected,
                    found: self.total_seen,
                },
            });
        }
        self.expect_end_of_stream()
    }

    /// Ends a recovering read at a damaged tail (end-of-stream before a
    /// verified trailer).
    fn end_at_truncated_tail(&mut self) {
        self.done = true;
        self.degradation.truncated_tail = true;
        self.degradation.records_lost = self.claimed_lost;
    }

    /// Accounts one skipped frame: the fault at `offset`, the records
    /// its header claimed, and the bytes up to where the read resumed
    /// (`None`: the end of the stream).
    fn skipped(
        &mut self,
        offset: u64,
        resumed_at: Option<u64>,
        claimed: u64,
        error: TraceFileError,
    ) {
        self.degradation.chunks_skipped += 1;
        self.claimed_lost += claimed;
        self.degradation.bytes_skipped += resumed_at.unwrap_or(self.pos) - offset;
        self.degradation.faults.push(SkippedChunk {
            offset,
            resumed_at,
            error,
        });
    }

    /// Loads the next chunk, recovering from faults in recover mode;
    /// `out` and `room` as for [`Self::load_next_frame_strict`].
    fn load_next_chunk(
        &mut self,
        out: &mut Vec<TraceRecord>,
        room: usize,
    ) -> Result<bool, TraceFileError> {
        debug_assert!(self.chunk_pos >= self.chunk.len());
        if !self.recover {
            return self.load_next_frame_strict(out, room);
        }
        let fault_offset = self.pos;
        let first_err = match self.load_next_frame_strict(out, room) {
            Ok(r) => return Ok(r),
            Err(e @ TraceFileError::Io(_)) => return Err(e),
            Err(TraceFileError::CountMismatch { expected, .. }) => {
                self.accept_mismatched_trailer(fault_offset, expected)?;
                return Ok(false);
            }
            Err(e) => e,
        };
        // Records the failed frame claimed to hold, when its header was
        // still parseable (checksum/decode faults leave it intact).
        let claimed = match first_err {
            TraceFileError::ChecksumMismatch { .. } | TraceFileError::Corrupt { .. }
                if self.buffered().len() >= 13 && self.buffered()[0] == CHUNK_MARKER =>
            {
                self.peek_u32(5) as u64
            }
            _ => 0,
        };
        if matches!(first_err, TraceFileError::Truncated { .. }) && self.buffered().is_empty() {
            // Clean end-of-stream at a frame boundary: a missing
            // trailer, not a skippable frame.
            self.degradation.faults.push(SkippedChunk {
                offset: fault_offset,
                resumed_at: None,
                error: first_err,
            });
            self.end_at_truncated_tail();
            return Ok(false);
        }
        // Skip the failed frame's first byte and scan forward for the
        // next offset at which a complete frame parses and verifies.
        self.consume(1);
        loop {
            if self.fill(1)? == 0 {
                self.skipped(fault_offset, None, claimed, first_err);
                self.end_at_truncated_tail();
                return Ok(false);
            }
            let b = self.buffered()[0];
            if b != CHUNK_MARKER && b != END_MARKER && b != INDEX_MARKER {
                self.consume(1);
                continue;
            }
            let resume = self.pos;
            match self.load_next_frame_strict(out, room) {
                Ok(r) => {
                    self.skipped(fault_offset, Some(resume), claimed, first_err);
                    return Ok(r);
                }
                Err(e @ TraceFileError::Io(_)) => return Err(e),
                Err(TraceFileError::CountMismatch { expected, .. }) => {
                    self.skipped(fault_offset, Some(resume), claimed, first_err);
                    self.accept_mismatched_trailer(resume, expected)?;
                    return Ok(false);
                }
                // False synchronization point: keep scanning.
                Err(_) => self.consume(1),
            }
        }
    }

    /// The next record, or `None` at the verified end of the trace.
    pub(crate) fn next_record(&mut self) -> Result<Option<TraceRecord>, TraceFileError> {
        while self.chunk_pos >= self.chunk.len() {
            // No room outside: every chunk lands in the reader's own.
            if self.done || !self.load_next_chunk(&mut Vec::new(), 0)? {
                return Ok(None);
            }
        }
        let r = self.chunk[self.chunk_pos];
        self.chunk_pos += 1;
        Ok(Some(r))
    }

    /// Appends up to `n` records to `buf`, returning how many were
    /// appended (fewer only at the verified end of the trace).
    ///
    /// A chunk that fits in what is left of `n` is decoded straight
    /// into `buf`, so each of its records is written once; a chunk
    /// that does not is decoded into the reader and copied out as
    /// asked. Either way a chunk that fails to decode adds nothing to
    /// `buf`.
    pub fn next_records_into(
        &mut self,
        buf: &mut Vec<TraceRecord>,
        n: usize,
    ) -> Result<usize, TraceFileError> {
        let mut appended = 0;
        while appended < n {
            if self.chunk_pos >= self.chunk.len() {
                let before = buf.len();
                if self.done || !self.load_next_chunk(buf, n - appended)? {
                    break;
                }
                appended += buf.len() - before;
                continue;
            }
            let take = (self.chunk.len() - self.chunk_pos).min(n - appended);
            buf.extend_from_slice(&self.chunk[self.chunk_pos..self.chunk_pos + take]);
            self.chunk_pos += take;
            appended += take;
        }
        Ok(appended)
    }

    /// Reads and validates the whole remaining trace.
    pub fn read_all(&mut self) -> Result<Vec<TraceRecord>, TraceFileError> {
        let mut out = Vec::new();
        self.next_records_into(&mut out, usize::MAX)?;
        Ok(out)
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<TraceRecord, TraceFileError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_record().transpose()
    }
}

/// The little-endian `u32` at `off` in `bytes`.
fn le_u32(bytes: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes"))
}

fn read_exact_at<R: Read>(r: &mut R, buf: &mut [u8], pos: &mut u64) -> Result<(), TraceFileError> {
    match r.read_exact(buf) {
        Ok(()) => {
            *pos += buf.len() as u64;
            Ok(())
        }
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
            Err(TraceFileError::Truncated { offset: *pos })
        }
        Err(e) => Err(e.into()),
    }
}

fn read_u16<R: Read>(r: &mut R, pos: &mut u64) -> Result<u16, TraceFileError> {
    let mut b = [0u8; 2];
    read_exact_at(r, &mut b, pos)?;
    Ok(u16::from_le_bytes(b))
}

fn read_u32<R: Read>(r: &mut R, pos: &mut u64) -> Result<u32, TraceFileError> {
    let mut b = [0u8; 4];
    read_exact_at(r, &mut b, pos)?;
    Ok(u32::from_le_bytes(b))
}

// ---------------------------------------------------------------------
// Convenience one-shot APIs
// ---------------------------------------------------------------------

/// Encodes a whole trace into a `.fadet` byte buffer.
pub fn encode_trace(meta: &TraceMeta, records: &[TraceRecord]) -> Vec<u8> {
    let mut w = TraceWriter::new(Vec::new(), meta).expect("Vec<u8> writes are infallible");
    w.write_all(records).expect("Vec<u8> writes are infallible");
    w.finish().expect("Vec<u8> writes are infallible")
}

/// Decodes and fully validates a `.fadet` byte buffer.
pub fn decode_trace(bytes: &[u8]) -> Result<(TraceMeta, Vec<TraceRecord>), TraceFileError> {
    let mut r = TraceReader::new(bytes)?;
    let records = r.read_all()?;
    Ok((r.meta.clone(), records))
}

/// Decodes a `.fadet` byte buffer in recover mode: surviving records
/// plus the [`DegradationReport`] accounting whatever was skipped.
/// Header faults and I/O errors still fail (see
/// [`TraceReader::with_recovery`]).
pub fn decode_trace_recovering(
    bytes: &[u8],
) -> Result<(TraceMeta, Vec<TraceRecord>, DegradationReport), TraceFileError> {
    let mut r = TraceReader::new(bytes)?.with_recovery();
    let records = r.read_all()?;
    let report = r.degradation().cloned().unwrap_or_default();
    Ok((r.meta.clone(), records, report))
}

/// Writes a whole trace to a file.
pub fn write_trace_file(
    path: impl AsRef<Path>,
    meta: &TraceMeta,
    records: &[TraceRecord],
) -> Result<(), TraceFileError> {
    let f = std::fs::File::create(path)?;
    let mut w = TraceWriter::new(io::BufWriter::new(f), meta)?;
    w.write_all(records)?;
    w.finish()?.flush()?;
    Ok(())
}

/// Reads and fully validates a trace file.
pub fn read_trace_file(
    path: impl AsRef<Path>,
) -> Result<(TraceMeta, Vec<TraceRecord>), TraceFileError> {
    let mut r = TraceReader::open(path)?;
    let records = r.read_all()?;
    Ok((r.meta.clone(), records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench;
    use crate::program::SyntheticProgram;

    fn sample(name: &str, seed: u64, n: usize) -> Vec<TraceRecord> {
        let p = bench::by_name(name).unwrap();
        let mut prog = SyntheticProgram::new(&p, seed);
        (0..n).map(|_| prog.next_record()).collect()
    }

    fn meta() -> TraceMeta {
        TraceMeta::new("gcc", 42)
    }

    #[test]
    fn round_trips_across_chunk_boundaries() {
        let records = sample("gcc", 42, 10_000);
        for chunk_records in [1usize, 3, 100, 4096, 100_000] {
            let mut w = TraceWriter::new(Vec::new(), &meta())
                .unwrap()
                .with_chunk_records(chunk_records);
            w.write_all(&records).unwrap();
            let bytes = w.finish().unwrap();
            let (m, back) = decode_trace(&bytes).unwrap();
            assert_eq!(m, meta());
            assert_eq!(back, records, "chunk size {chunk_records}");
        }
    }

    #[test]
    fn empty_trace_round_trips() {
        let bytes = encode_trace(&meta(), &[]);
        let (m, back) = decode_trace(&bytes).unwrap();
        assert_eq!(m, meta());
        assert!(back.is_empty());
    }

    #[test]
    fn streaming_reader_matches_one_shot() {
        let records = sample("water", 1, 5_000);
        let bytes = encode_trace(&meta(), &records);
        let mut reader = TraceReader::new(&bytes[..]).unwrap();
        let mut buf = Vec::new();
        // Odd-sized pulls deliberately straddle chunk boundaries.
        while reader.next_records_into(&mut buf, 777).unwrap() > 0 {}
        assert_eq!(buf, records);
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert_eq!(decode_trace(b"").unwrap_err(), TraceFileError::BadMagic);
        assert_eq!(
            decode_trace(b"NOTATRCE\x01\x00").unwrap_err(),
            TraceFileError::BadMagic
        );
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = encode_trace(&meta(), &[]);
        bytes[8] = 9; // version low byte
        assert_eq!(
            decode_trace(&bytes).unwrap_err(),
            TraceFileError::UnsupportedVersion { found: 9 }
        );
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let records = sample("gcc", 42, 300);
        // One chunk, and three: cuts fall in every frame kind.
        let mut w = TraceWriter::new(Vec::new(), &meta())
            .unwrap()
            .with_chunk_records(100);
        w.write_all(&records).unwrap();
        let chunked = w.finish().unwrap();
        let header_len = 8 + 2 + 2 + (1 + 3 + 8) + 4;
        for bytes in [encode_trace(&meta(), &records), chunked] {
            for cut in 0..bytes.len() {
                let err = decode_trace(&bytes[..cut]).unwrap_err();
                // Any strict prefix must fail (the trailer is mandatory),
                // and must fail with a typed error, not a panic. Past the
                // header, every frame kind names the cut as where it ended.
                if cut >= header_len {
                    assert_eq!(err, TraceFileError::Truncated { offset: cut as u64 });
                    continue;
                }
                match err {
                    TraceFileError::BadMagic
                    | TraceFileError::BadHeader
                    | TraceFileError::Truncated { .. } => {}
                    other => panic!("cut at {cut}: unexpected {other:?}"),
                }
            }
        }
    }

    #[test]
    fn payload_corruption_names_the_chunk_offset() {
        let records = sample("gcc", 42, 3000);
        let mut w = TraceWriter::new(Vec::new(), &meta())
            .unwrap()
            .with_chunk_records(1000);
        w.write_all(&records).unwrap();
        let bytes = w.finish().unwrap();
        // Locate the second chunk: header, then chunk 1.
        let header_len = 8 + 2 + 2 + (1 + 3 + 8) + 4;
        let c1_plen = u32::from_le_bytes(bytes[header_len + 1..header_len + 5].try_into().unwrap());
        let c2_offset = header_len + 13 + c1_plen as usize;
        assert_eq!(bytes[c2_offset], CHUNK_MARKER);
        // Flip a byte in the middle of the second chunk's payload.
        let mut corrupted = bytes.clone();
        corrupted[c2_offset + 13 + 40] ^= 0x40;
        assert_eq!(
            decode_trace(&corrupted).unwrap_err(),
            TraceFileError::ChecksumMismatch {
                chunk_offset: c2_offset as u64
            }
        );
    }

    #[test]
    fn trailer_count_mismatch_is_detected() {
        let records = sample("gcc", 42, 100);
        let mut bytes = encode_trace(&meta(), &records);
        // Rewrite the trailer with a wrong count (and matching CRC, so
        // only the cross-check can catch it).
        let n = bytes.len();
        let wrong = 99u64.to_le_bytes();
        bytes[n - 20..n - 12].copy_from_slice(&wrong);
        let tail: [u8; 16] = bytes[n - 20..n - 4].try_into().unwrap();
        bytes[n - 4..].copy_from_slice(&crc32(&tail).to_le_bytes());
        assert_eq!(
            decode_trace(&bytes).unwrap_err(),
            TraceFileError::CountMismatch {
                expected: 99,
                found: 100
            }
        );
    }

    #[test]
    fn oversized_length_fields_do_not_allocate() {
        let mut bytes = encode_trace(&meta(), &sample("gcc", 42, 50)[..]);
        let header_len = 8 + 2 + 2 + (1 + 3 + 8) + 4;
        // Claim a 4 GiB payload.
        bytes[header_len + 1..header_len + 5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_trace(&bytes).unwrap_err(),
            TraceFileError::BadStructure {
                offset: header_len as u64
            }
        );
        // The largest payload the reader accepts, over a short stream:
        // the look-ahead holds what the stream delivered plus at most
        // one read, never the claimed length.
        bytes[header_len + 1..header_len + 5].copy_from_slice(&MAX_CHUNK_PAYLOAD.to_le_bytes());
        let mut r = TraceReader::new(&bytes[..]).unwrap();
        assert!(matches!(
            r.read_all(),
            Err(TraceFileError::Truncated { .. })
        ));
        assert!(
            r.buf.capacity() <= bytes.len() + READ_CHUNK,
            "look-ahead capacity {} for a {}-byte stream",
            r.buf.capacity(),
            bytes.len()
        );
        // A checksummed chunk that claims far more records than the
        // 64 Ki the decoder reserves up front, none of which decodes,
        // read whole into a caller's cleared buffer: the buffer
        // reserves no more than that cap and keeps no record.
        let claimed = 1u32 << 20;
        let payload = vec![0xffu8; claimed as usize];
        let mut crafted = bytes[..header_len].to_vec();
        crafted.push(CHUNK_MARKER);
        crafted.extend_from_slice(&claimed.to_le_bytes());
        crafted.extend_from_slice(&claimed.to_le_bytes());
        crafted.extend_from_slice(&crc32(&payload).to_le_bytes());
        crafted.extend_from_slice(&payload);
        let mut r = TraceReader::new(&crafted[..]).unwrap();
        let mut buf = Vec::new();
        assert!(matches!(
            r.next_records_into(&mut buf, usize::MAX),
            Err(TraceFileError::Corrupt { .. })
        ));
        assert!(buf.is_empty());
        assert!(
            buf.capacity() <= 64 * 1024,
            "the caller's buffer reserved {} records for a crafted count of {claimed}",
            buf.capacity()
        );
    }

    /// A source that hands out one byte per `read`.
    struct OneByteReads<'a>(&'a [u8]);

    impl Read for OneByteReads<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match (self.0.split_first(), buf.first_mut()) {
                (Some((&b, rest)), Some(slot)) => {
                    *slot = b;
                    self.0 = rest;
                    Ok(1)
                }
                _ => Ok(0),
            }
        }
    }

    #[test]
    fn short_reads_yield_the_same_records_as_a_cursor() {
        use crate::faultinject::{FaultKind, FaultPlan, FaultyReader};
        let records = sample("gcc", 42, 3_000);
        let (bytes, _) = chunked(&records, 700);
        let whole = TraceReader::new(io::Cursor::new(&bytes))
            .unwrap()
            .read_all()
            .unwrap();
        assert_eq!(whole, records);
        let one = TraceReader::new(OneByteReads(&bytes))
            .unwrap()
            .read_all()
            .unwrap();
        assert_eq!(one, whole, "one byte per read");
        for seed in 0..8 {
            let plan = FaultPlan::seeded(seed, FaultKind::ShortRead, bytes.len() as u64);
            let short = TraceReader::new(FaultyReader::new(&bytes[..], plan))
                .unwrap()
                .read_all()
                .unwrap();
            assert_eq!(short, whole, "short reads, seed {seed}");
        }
    }

    #[test]
    fn bytes_after_the_trailer_are_rejected_in_strict_mode() {
        let records = sample("gcc", 42, 500);
        let bytes = encode_trace(&meta(), &records);
        let end = bytes.len() as u64;
        let mut garbage = bytes.clone();
        garbage.extend_from_slice(b"GARBAGE");
        assert_eq!(
            decode_trace(&garbage).unwrap_err(),
            TraceFileError::BadStructure { offset: end }
        );
        // Two whole traces back to back are not one trace.
        let mut twice = bytes.clone();
        twice.extend_from_slice(&bytes);
        assert_eq!(
            decode_trace(&twice).unwrap_err(),
            TraceFileError::BadStructure { offset: end }
        );
    }

    #[test]
    fn bytes_after_the_trailer_are_skipped_and_accounted_in_recover_mode() {
        let records = sample("gcc", 42, 500);
        let bytes = encode_trace(&meta(), &records);
        let end = bytes.len() as u64;
        let mut twice = bytes.clone();
        twice.extend_from_slice(&bytes);
        for (extra, input) in [(7, [&bytes[..], b"GARBAGE"].concat()), (bytes.len(), twice)] {
            let (_, back, report) = decode_trace_recovering(&input).unwrap();
            assert_eq!(back, records, "the records before the trailer survive");
            assert!(!report.is_clean(), "{report:?}");
            assert!(report.trailer_verified);
            assert!(!report.truncated_tail);
            assert_eq!(report.records_lost, 0);
            assert_eq!(report.chunks_skipped, 0);
            assert_eq!(report.bytes_skipped, extra as u64);
            assert_eq!(
                report.faults,
                vec![SkippedChunk {
                    offset: end,
                    resumed_at: None,
                    error: TraceFileError::BadStructure { offset: end },
                }]
            );
        }
    }

    #[test]
    fn bytes_after_a_mismatched_trailer_are_accounted_too() {
        let records = sample("gcc", 42, 3_000);
        let (bytes, offsets) = chunked(&records, 1000);
        let mut spliced = bytes[..offsets[1]].to_vec();
        spliced.extend_from_slice(&bytes[offsets[2]..]);
        let end = spliced.len() as u64;
        spliced.extend_from_slice(&[0u8; 5]);
        let (_, back, report) = decode_trace_recovering(&spliced).unwrap();
        assert_eq!(back.len(), 2000);
        assert_eq!(report.records_lost, 1000);
        assert_eq!(report.bytes_skipped, 5);
        assert_eq!(report.faults.len(), 2);
        assert_eq!(
            report.faults[1].error,
            TraceFileError::BadStructure { offset: end }
        );
    }

    #[test]
    fn file_round_trip_on_disk() {
        let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/tmp");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("file_round_trip.fadet");
        let records = sample("mcf", 9, 4_000);
        let m = TraceMeta::new("mcf", 9);
        write_trace_file(&path, &m, &records).unwrap();
        let (m2, back) = read_trace_file(&path).unwrap();
        assert_eq!(m2, m);
        assert_eq!(back, records);
    }

    /// Encodes with small chunks and returns (bytes, per-chunk record
    /// ranges, chunk marker offsets).
    fn chunked(records: &[TraceRecord], per_chunk: usize) -> (Vec<u8>, Vec<usize>) {
        let mut w = TraceWriter::new(Vec::new(), &meta())
            .unwrap()
            .with_chunk_records(per_chunk);
        w.write_all(records).unwrap();
        let bytes = w.finish().unwrap();
        // Walk the frame structure to find each chunk's marker offset.
        let header_len = 8 + 2 + 2 + (1 + meta().bench.len() + 8) + 4;
        let mut offsets = Vec::new();
        let mut at = header_len;
        while bytes[at] == CHUNK_MARKER {
            offsets.push(at);
            let plen = u32::from_le_bytes(bytes[at + 1..at + 5].try_into().unwrap());
            at += 13 + plen as usize;
        }
        (bytes, offsets)
    }

    #[test]
    fn a_chunk_that_fails_to_decode_serves_none_of_its_records() {
        let records = sample("gcc", 42, 30);
        let (bytes, offsets) = chunked(&records, 10);
        // The second chunk, checksummed again with one more record
        // claimed and a byte no record starts with appended: ten
        // records decode before the chunk fails.
        let (at, next) = (offsets[1], offsets[2]);
        let mut payload = bytes[at + 13..next].to_vec();
        payload.push(0xff);
        let mut crafted = bytes[..at].to_vec();
        crafted.push(CHUNK_MARKER);
        crafted.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        crafted.extend_from_slice(&11u32.to_le_bytes());
        crafted.extend_from_slice(&crc32(&payload).to_le_bytes());
        crafted.extend_from_slice(&payload);
        crafted.extend_from_slice(&bytes[next..]);
        // Whole chunks, as read-ahead asks, decode into the caller's
        // buffer; smaller requests copy out of the reader's chunk.
        for n in [usize::MAX, 10, 3] {
            let mut r = TraceReader::new(&crafted[..]).unwrap();
            let mut served = Vec::new();
            let mut call = Vec::new();
            let error = loop {
                call.clear();
                match r.next_records_into(&mut call, n) {
                    Ok(_) => served.extend_from_slice(&call),
                    Err(e) => break e,
                }
            };
            assert!(
                matches!(error, TraceFileError::Corrupt { .. }),
                "{n}: {error:?}"
            );
            served.extend_from_slice(&call);
            assert_eq!(served, records[..10], "requests of {n}");
            let mut r = TraceReader::new(&crafted[..]).unwrap().with_recovery();
            let mut served = Vec::new();
            loop {
                call.clear();
                let k = r.next_records_into(&mut call, n).unwrap();
                served.extend_from_slice(&call);
                if k < n {
                    break;
                }
            }
            let survivors: Vec<_> = [&records[..10], &records[20..]].concat();
            assert_eq!(served, survivors, "recovering, requests of {n}");
        }
    }

    #[test]
    fn recovery_is_bit_exact_without_faults() {
        let records = sample("gcc", 42, 5_000);
        let bytes = encode_trace(&meta(), &records);
        let (m, back, report) = decode_trace_recovering(&bytes).unwrap();
        assert_eq!(m, meta());
        assert_eq!(back, records);
        assert!(report.is_clean(), "{report:?}");
        assert!(report.trailer_verified);
    }

    #[test]
    fn recovery_skips_a_corrupt_chunk_and_accounts_for_it() {
        let records = sample("gcc", 42, 3_000);
        let (mut bytes, offsets) = chunked(&records, 1000);
        assert_eq!(offsets.len(), 3);
        // Flip a payload byte in the middle chunk.
        bytes[offsets[1] + 13 + 40] ^= 0x40;
        let (_, back, report) = decode_trace_recovering(&bytes).unwrap();
        let mut expect = records[..1000].to_vec();
        expect.extend_from_slice(&records[2000..]);
        assert_eq!(back, expect);
        assert_eq!(report.chunks_skipped, 1);
        assert_eq!(report.records_lost, 1000);
        assert!(report.trailer_verified);
        assert!(!report.truncated_tail);
        assert_eq!(report.faults.len(), 1);
        assert_eq!(report.faults[0].offset, offsets[1] as u64);
        assert_eq!(report.faults[0].resumed_at, Some(offsets[2] as u64));
        assert_eq!(
            report.faults[0].error,
            TraceFileError::ChecksumMismatch {
                chunk_offset: offsets[1] as u64
            }
        );
        assert_eq!(
            report.bytes_skipped,
            (offsets[2] - offsets[1]) as u64,
            "skipped exactly the failed frame"
        );
    }

    #[test]
    fn recovery_survives_truncation_mid_chunk() {
        let records = sample("gcc", 42, 3_000);
        let (bytes, offsets) = chunked(&records, 1000);
        // Cut inside the last chunk's payload.
        let cut = offsets[2] + 20;
        let (_, back, report) = decode_trace_recovering(&bytes[..cut]).unwrap();
        assert_eq!(back, records[..2000]);
        assert!(report.truncated_tail);
        assert!(!report.trailer_verified);
        assert_eq!(report.chunks_skipped, 1);
        // The trailer is gone, so the loss estimate comes from the
        // truncated chunk's (unreadable) header: best-effort zero here,
        // but the truncation itself is accounted.
        assert_eq!(report.faults.len(), 1);
        assert_eq!(report.faults[0].offset, offsets[2] as u64);
        assert_eq!(report.faults[0].resumed_at, None);
    }

    #[test]
    fn recovery_survives_a_missing_trailer() {
        let records = sample("gcc", 42, 500);
        let (bytes, offsets) = chunked(&records, 1000);
        let plen = u32::from_le_bytes(bytes[offsets[0] + 1..offsets[0] + 5].try_into().unwrap());
        let trailer_at = offsets[0] + 13 + plen as usize;
        let (_, back, report) = decode_trace_recovering(&bytes[..trailer_at]).unwrap();
        assert_eq!(back, records);
        assert!(report.truncated_tail);
        assert_eq!(report.chunks_skipped, 0);
        assert_eq!(report.records_lost, 0);
        assert_eq!(report.faults.len(), 1);
        assert_eq!(report.faults[0].resumed_at, None);
    }

    #[test]
    fn recovery_accounts_an_excised_chunk_via_the_trailer() {
        let records = sample("gcc", 42, 3_000);
        let (bytes, offsets) = chunked(&records, 1000);
        // Cleanly splice out the middle chunk: every CRC still passes,
        // only the trailer count can catch it.
        let mut spliced = bytes[..offsets[1]].to_vec();
        spliced.extend_from_slice(&bytes[offsets[2]..]);
        let (_, back, report) = decode_trace_recovering(&spliced).unwrap();
        let mut expect = records[..1000].to_vec();
        expect.extend_from_slice(&records[2000..]);
        assert_eq!(back, expect);
        assert_eq!(report.chunks_skipped, 0);
        assert_eq!(report.records_lost, 1000);
        assert!(report.trailer_verified);
        assert!(matches!(
            report.faults[0].error,
            TraceFileError::CountMismatch {
                expected: 3000,
                found: 2000
            }
        ));
    }

    #[test]
    fn recovery_resyncs_past_garbage_between_chunks() {
        let records = sample("gcc", 42, 2_000);
        let (bytes, offsets) = chunked(&records, 1000);
        // Inject 37 garbage bytes between the two chunks.
        let mut noisy = bytes[..offsets[1]].to_vec();
        noisy.extend((0u8..37).map(|i| i.wrapping_mul(0xA5) | 0x02));
        noisy.extend_from_slice(&bytes[offsets[1]..]);
        let (_, back, report) = decode_trace_recovering(&noisy).unwrap();
        assert_eq!(back, records, "no record lost to inter-chunk garbage");
        assert_eq!(report.chunks_skipped, 1);
        assert_eq!(report.records_lost, 0);
        assert_eq!(report.bytes_skipped, 37);
        assert!(report.trailer_verified);
    }

    #[test]
    fn strict_mode_still_fails_fast() {
        let records = sample("gcc", 42, 3_000);
        let (mut bytes, offsets) = chunked(&records, 1000);
        bytes[offsets[1] + 13 + 40] ^= 0x40;
        assert!(decode_trace(&bytes).is_err());
        let mut r = TraceReader::new(&bytes[..]).unwrap();
        assert!(r.degradation().is_none(), "strict mode has no report");
        assert!(r.read_all().is_err());
    }

    /// Strips the version-2 index frame and rewrites the short trailer,
    /// producing the byte-exact version-1 encoding of the same records.
    fn downgrade_to_v1(bytes: &[u8]) -> Vec<u8> {
        let n = bytes.len();
        let index_offset = u64::from_le_bytes(bytes[n - 12..n - 4].try_into().unwrap()) as usize;
        let total = &bytes[n - 20..n - 12];
        let mut v1 = bytes[..index_offset].to_vec();
        v1.push(END_MARKER);
        v1.extend_from_slice(total);
        v1.extend_from_slice(&crc32(total).to_le_bytes());
        v1[8..10].copy_from_slice(&1u16.to_le_bytes());
        v1
    }

    #[test]
    fn version1_files_still_read_through_both_paths() {
        let records = sample("gcc", 42, 3_000);
        let (bytes, _) = chunked(&records, 1000);
        let v1 = downgrade_to_v1(&bytes);
        assert!(v1.len() < bytes.len(), "v1 drops the index frame");
        let mut r = TraceReader::new(&v1[..]).unwrap();
        assert_eq!(r.version, 1);
        assert_eq!(r.read_all().unwrap(), records);
        // Recover mode too: the short trailer must be consumed whole.
        let (_, back, report) = decode_trace_recovering(&v1).unwrap();
        assert_eq!(back, records);
        assert!(report.is_clean(), "{report:?}");
    }

    #[test]
    fn sequential_read_verifies_the_index_frame() {
        let records = sample("gcc", 42, 2_000);
        let mut bytes = encode_trace(&meta(), &records);
        let n = bytes.len();
        let index_offset =
            u64::from_le_bytes(bytes[n - 12..n - 4].try_into().unwrap()) as usize;
        // Flip a byte inside the index payload: the checksum catches it
        // even though a sequential read only skips the frame.
        bytes[index_offset + 13] ^= 0x01;
        assert_eq!(
            decode_trace(&bytes).unwrap_err(),
            TraceFileError::ChecksumMismatch {
                chunk_offset: index_offset as u64
            }
        );
    }

    #[test]
    fn compression_beats_raw_memory_by_3x() {
        let records = sample("gcc", 42, 50_000);
        let bytes = encode_trace(&meta(), &records);
        let raw = records.len() * std::mem::size_of::<TraceRecord>();
        assert!(
            raw as f64 >= 3.0 * bytes.len() as f64,
            "encoded {} bytes vs {} raw ({}x)",
            bytes.len(),
            raw,
            raw as f64 / bytes.len() as f64
        );
    }
}
