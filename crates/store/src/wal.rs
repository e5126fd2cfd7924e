//! Segmented write-ahead log: framing, append path, and the two readers.
//!
//! ## On-disk format
//!
//! A WAL directory holds numbered segments `wal-<seq:08>.log`. A segment
//! is a sequence of *frames*:
//!
//! ```text
//! frame    := [len: u32 LE] [crc: u32 LE] [payload: len bytes]
//! payload  := record | seal
//! record   := WalRecord::to_bytes()           (payload[0] in 0..=2)
//! seal     := [0xFF] [count: u64 LE] [xor: u64 LE]
//! ```
//!
//! `crc` is CRC-32 over the payload. Every *sealed* segment ends with a
//! seal frame carrying the number of preceding frames and the XOR of
//! their CRCs, so truncating a sealed segment anywhere — even exactly on
//! a frame boundary — is always detected. Only the last (active) segment
//! of a directory may be unsealed: there, a partial frame is a torn tail
//! (hard error on strict open), while a clean frame boundary is the
//! legitimate loss horizon of an un-fsynced suffix.
//!
//! ## Readers
//!
//! [`replay_dir`] is the strict open used by a healthy restart: any torn
//! tail or mid-file corruption is a typed hard error. [`recover_dir`] is
//! the crash-recovery open: it truncates a torn tail of the *final*
//! segment back to the last valid frame boundary (damage in earlier,
//! sealed segments is never repairable and stays fatal). Both return
//! records in canonical order — ascending segment sequence number, then
//! file order — independent of directory iteration order.

use std::fs;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::crc32::crc32;
use crate::record::{WalRecord, KIND_EVICT};
use crate::snapshot::{self, SnapshotState};
use crate::StoreError;

/// Payload tag of a seal frame.
pub const KIND_SEAL: u8 = 0xFF;
/// Payload tag of a snapshot header frame (used by `.snap` containers).
pub const KIND_SNAP_HEADER: u8 = 0xFE;
/// Bytes of `[len][crc]` before each payload.
pub const FRAME_HEADER: usize = 8;
/// Sanity cap on a single frame payload (16 MiB).
pub const MAX_FRAME: u32 = 1 << 24;

/// Wraps `payload` in a `[len][crc]` frame.
#[must_use]
pub fn frame_payload(payload: &[u8]) -> Vec<u8> {
    let len = u32::try_from(payload.len()).expect("payload fits u32");
    assert!(len <= MAX_FRAME, "payload exceeds MAX_FRAME");
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Frames one record.
#[must_use]
pub fn frame_record(rec: &WalRecord) -> Vec<u8> {
    frame_payload(&rec.to_bytes())
}

/// The seal payload for a segment with `count` frames whose CRCs XOR to `xor`.
#[must_use]
pub fn seal_payload(count: u64, xor: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(17);
    out.push(KIND_SEAL);
    out.extend_from_slice(&count.to_le_bytes());
    out.extend_from_slice(&xor.to_le_bytes());
    out
}

/// A frame-level failure with torn-tail vs. corruption classification.
enum FrameError {
    /// Tail-truncation-shaped damage: the file ends mid-frame.
    Torn { offset: u64, reason: String },
    /// Damage with intact bytes after it (or an impossible header).
    Corrupt { offset: u64, reason: String },
}

impl FrameError {
    fn into_store(self, path: &str) -> StoreError {
        match self {
            Self::Torn { offset, reason } => StoreError::TornTail {
                path: path.to_string(),
                offset,
                reason,
            },
            Self::Corrupt { offset, reason } => StoreError::Corrupt {
                path: path.to_string(),
                offset,
                reason,
            },
        }
    }
}

/// A decoded frame: `(crc, payload, next_pos)`.
type Frame<'a> = (u32, &'a [u8], usize);

/// Decodes the frame starting at `pos`, returning `(crc, payload, next_pos)`
/// or `None` at a clean end-of-buffer.
fn next_frame(bytes: &[u8], pos: usize) -> Result<Option<Frame<'_>>, FrameError> {
    let remaining = bytes.len() - pos;
    if remaining == 0 {
        return Ok(None);
    }
    let offset = pos as u64;
    if remaining < FRAME_HEADER {
        return Err(FrameError::Torn {
            offset,
            reason: format!("partial frame header ({remaining} bytes)"),
        });
    }
    let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
    if len > remaining - FRAME_HEADER {
        return Err(FrameError::Torn {
            offset,
            reason: format!("frame length {len} overruns the file"),
        });
    }
    if len > MAX_FRAME as usize {
        return Err(FrameError::Corrupt {
            offset,
            reason: format!("oversized frame length {len}"),
        });
    }
    let body = pos + FRAME_HEADER;
    let payload = &bytes[body..body + len];
    if crc32(payload) != crc {
        let reason = "frame checksum mismatch".to_string();
        return Err(if body + len == bytes.len() {
            FrameError::Torn {
                offset,
                reason: format!("{reason} in tail frame"),
            }
        } else {
            FrameError::Corrupt { offset, reason }
        });
    }
    Ok(Some((crc, payload, body + len)))
}

/// A strictly decoded segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentRead {
    /// Records in file order (the seal frame is consumed, not returned).
    pub records: Vec<WalRecord>,
    /// Whether the segment ended with a valid seal frame.
    pub sealed: bool,
}

/// Strictly decodes one segment's bytes.
///
/// # Errors
///
/// [`StoreError::TornTail`] for tail-truncation-shaped damage (partial
/// frame, checksum-failed final frame, or a missing seal when
/// `require_seal` is set); [`StoreError::Corrupt`] for mid-file damage,
/// seal mismatches, bytes after the seal, or undecodable record payloads.
pub fn decode_segment_bytes(
    bytes: &[u8],
    label: &str,
    require_seal: bool,
) -> Result<SegmentRead, StoreError> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut count = 0u64;
    let mut xor = 0u64;
    let mut sealed = false;
    while let Some((crc, payload, next)) =
        next_frame(bytes, pos).map_err(|e| e.into_store(label))?
    {
        if sealed {
            return Err(StoreError::Corrupt {
                path: label.to_string(),
                offset: pos as u64,
                reason: "data after seal frame".to_string(),
            });
        }
        match payload.first() {
            Some(&KIND_SEAL) => {
                let (seal_count, seal_xor) =
                    parse_seal(payload).map_err(|reason| StoreError::Corrupt {
                        path: label.to_string(),
                        offset: pos as u64,
                        reason,
                    })?;
                if seal_count != count || seal_xor != xor {
                    return Err(StoreError::Corrupt {
                        path: label.to_string(),
                        offset: pos as u64,
                        reason: format!(
                            "seal mismatch: seal says {seal_count} frames (xor {seal_xor:#x}), segment has {count} (xor {xor:#x})"
                        ),
                    });
                }
                sealed = true;
            }
            Some(&k) if k <= KIND_EVICT => {
                let rec = WalRecord::from_bytes(payload).map_err(|reason| StoreError::Corrupt {
                    path: label.to_string(),
                    offset: pos as u64,
                    reason,
                })?;
                records.push(rec);
                count += 1;
                xor ^= u64::from(crc);
            }
            other => {
                return Err(StoreError::Corrupt {
                    path: label.to_string(),
                    offset: pos as u64,
                    reason: format!("unexpected frame tag {other:?}"),
                });
            }
        }
        pos = next;
    }
    if require_seal && !sealed {
        return Err(StoreError::TornTail {
            path: label.to_string(),
            offset: bytes.len() as u64,
            reason: "missing seal frame".to_string(),
        });
    }
    Ok(SegmentRead { records, sealed })
}

/// Decodes a fully sealed container into its raw frame payloads (seal
/// consumed, not returned). The snapshot loader uses this: snapshot
/// containers hold a header frame the record decoder would reject.
pub(crate) fn decode_segment_bytes_raw(
    bytes: &[u8],
    label: &str,
) -> Result<Vec<Vec<u8>>, StoreError> {
    let mut payloads: Vec<Vec<u8>> = Vec::new();
    let mut pos = 0usize;
    let mut count = 0u64;
    let mut xor = 0u64;
    let mut sealed = false;
    while let Some((crc, payload, next)) =
        next_frame(bytes, pos).map_err(|e| e.into_store(label))?
    {
        if sealed {
            return Err(StoreError::Corrupt {
                path: label.to_string(),
                offset: pos as u64,
                reason: "data after seal frame".to_string(),
            });
        }
        if payload.first() == Some(&KIND_SEAL) {
            let (seal_count, seal_xor) =
                parse_seal(payload).map_err(|reason| StoreError::Corrupt {
                    path: label.to_string(),
                    offset: pos as u64,
                    reason,
                })?;
            if seal_count != count || seal_xor != xor {
                return Err(StoreError::Corrupt {
                    path: label.to_string(),
                    offset: pos as u64,
                    reason: format!(
                        "seal mismatch: seal says {seal_count} frames (xor {seal_xor:#x}), container has {count} (xor {xor:#x})"
                    ),
                });
            }
            sealed = true;
        } else {
            payloads.push(payload.to_vec());
            count += 1;
            xor ^= u64::from(crc);
        }
        pos = next;
    }
    if !sealed {
        return Err(StoreError::TornTail {
            path: label.to_string(),
            offset: bytes.len() as u64,
            reason: "missing seal frame".to_string(),
        });
    }
    Ok(payloads)
}

fn parse_seal(payload: &[u8]) -> Result<(u64, u64), String> {
    if payload.len() != 17 {
        return Err(format!(
            "seal frame has {} bytes, expected 17",
            payload.len()
        ));
    }
    let count = u64::from_le_bytes(payload[1..9].try_into().expect("8 bytes"));
    let xor = u64::from_le_bytes(payload[9..17].try_into().expect("8 bytes"));
    Ok((count, xor))
}

/// A leniently recovered segment: the longest valid frame prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentRecovery {
    /// Records decoded before the first damage (seal consumed, not returned).
    pub records: Vec<WalRecord>,
    /// Whether a valid seal was reached (then nothing was dropped).
    pub sealed: bool,
    /// Bytes truncated from the tail (0 for a clean segment).
    pub dropped_bytes: u64,
}

/// Recovers the longest valid prefix of one segment's bytes. Everything
/// from the first invalid frame onwards is dropped — after a tear the
/// remainder of the file is untrustworthy.
#[must_use]
pub fn recover_segment_bytes(bytes: &[u8]) -> SegmentRecovery {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut count = 0u64;
    let mut xor = 0u64;
    loop {
        let (crc, payload, next) = match next_frame(bytes, pos) {
            Ok(Some(frame)) => frame,
            Ok(None) => break,
            Err(_) => {
                return SegmentRecovery {
                    records,
                    sealed: false,
                    dropped_bytes: (bytes.len() - pos) as u64,
                }
            }
        };
        match payload.first() {
            Some(&KIND_SEAL) if parse_seal(payload) == Ok((count, xor)) => {
                // A valid seal; anything after it is dropped.
                return SegmentRecovery {
                    records,
                    sealed: true,
                    dropped_bytes: (bytes.len() - next) as u64,
                };
            }
            Some(&k) if k <= KIND_EVICT => match WalRecord::from_bytes(payload) {
                Ok(rec) => {
                    records.push(rec);
                    count += 1;
                    xor ^= u64::from(crc);
                }
                Err(_) => {
                    return SegmentRecovery {
                        records,
                        sealed: false,
                        dropped_bytes: (bytes.len() - pos) as u64,
                    }
                }
            },
            _ => {
                return SegmentRecovery {
                    records,
                    sealed: false,
                    dropped_bytes: (bytes.len() - pos) as u64,
                }
            }
        }
        pos = next;
    }
    SegmentRecovery {
        records,
        sealed: false,
        dropped_bytes: 0,
    }
}

/// Append-path counters, charged to the host-side cost model by the
/// serving layer (`fsyncs × fsync_us`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended.
    pub records: u64,
    /// Frame bytes appended (records and seals, not torn garbage).
    pub bytes: u64,
    /// fsync calls issued (batched: one per `fsync_batch` appends + seals).
    pub fsyncs: u64,
    /// Segments opened by this writer.
    pub segments: u64,
}

/// The append handle for one WAL directory.
///
/// Appends are checksummed and length-framed; an fsync is issued every
/// `fsync_batch` records and at every seal. [`WalWriter::rotate`] seals
/// the active segment and opens the next one (the snapshot/GC hook);
/// [`WalWriter::finish`] seals and returns the final [`WalStats`].
#[derive(Debug)]
pub struct WalWriter {
    dir: PathBuf,
    file: File,
    path: PathBuf,
    seq: u64,
    fsync_batch: usize,
    since_sync: usize,
    seg_count: u64,
    seg_xor: u64,
    stats: WalStats,
}

fn io_err(path: &Path, source: std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.display().to_string(),
        source,
    }
}

/// The path of segment `seq` under `dir`.
#[must_use]
pub fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:08}.log"))
}

impl WalWriter {
    /// Opens a writer on `dir` (created if missing), starting a *fresh*
    /// segment after the highest existing sequence number — a writer never
    /// appends to a pre-existing (possibly recovered) segment.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure.
    pub fn open(dir: impl Into<PathBuf>, fsync_batch: usize) -> Result<Self, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        let seq = match list_segments(&dir)?.last() {
            Some((last, _)) => last + 1,
            None => 0,
        };
        let path = segment_path(&dir, seq);
        let file = File::create(&path).map_err(|e| io_err(&path, e))?;
        Ok(Self {
            dir,
            file,
            path,
            seq,
            fsync_batch: fsync_batch.max(1),
            since_sync: 0,
            seg_count: 0,
            seg_xor: 0,
            stats: WalStats {
                segments: 1,
                ..WalStats::default()
            },
        })
    }

    /// The active segment's sequence number.
    #[must_use]
    pub fn current_seq(&self) -> u64 {
        self.seq
    }

    /// Counters so far (the final seal is only counted by `finish`).
    #[must_use]
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    fn write_bytes(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.file
            .write_all(bytes)
            .map_err(|e| io_err(&self.path, e))
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        if self.since_sync == 0 {
            return Ok(());
        }
        self.file.sync_all().map_err(|e| io_err(&self.path, e))?;
        self.stats.fsyncs += 1;
        self.since_sync = 0;
        Ok(())
    }

    /// Appends one record frame, fsyncing when the batch fills.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure.
    pub fn append(&mut self, rec: &WalRecord) -> Result<(), StoreError> {
        let payload = rec.to_bytes();
        let crc = crc32(&payload);
        let frame = frame_payload(&payload);
        self.write_bytes(&frame)?;
        self.seg_count += 1;
        self.seg_xor ^= u64::from(crc);
        self.stats.records += 1;
        self.stats.bytes += frame.len() as u64;
        self.since_sync += 1;
        if self.since_sync >= self.fsync_batch {
            self.sync()?;
        }
        Ok(())
    }

    fn seal_active(&mut self) -> Result<(), StoreError> {
        let frame = frame_payload(&seal_payload(self.seg_count, self.seg_xor));
        self.write_bytes(&frame)?;
        self.stats.bytes += frame.len() as u64;
        self.since_sync += 1;
        self.sync()
    }

    /// Seals the active segment and opens the next one, returning the
    /// sealed segment's sequence number (the compaction cover point).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure.
    pub fn rotate(&mut self) -> Result<u64, StoreError> {
        self.seal_active()?;
        let sealed = self.seq;
        self.seq += 1;
        self.path = segment_path(&self.dir, self.seq);
        self.file = File::create(&self.path).map_err(|e| io_err(&self.path, e))?;
        self.seg_count = 0;
        self.seg_xor = 0;
        self.stats.segments += 1;
        Ok(sealed)
    }

    /// Seals the active segment, fsyncs, and returns the final counters.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure.
    pub fn finish(mut self) -> Result<WalStats, StoreError> {
        self.seal_active()?;
        Ok(self.stats)
    }

    /// Crash simulation: writes `garbage` raw (no frame, no seal, no
    /// fsync accounting) and drops the writer, leaving exactly the torn
    /// tail a mid-append process death would leave.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure.
    pub fn abandon_torn(mut self, garbage: &[u8]) -> Result<WalStats, StoreError> {
        self.write_bytes(garbage)?;
        self.file.flush().map_err(|e| io_err(&self.path, e))?;
        Ok(self.stats)
    }
}

/// Lists `wal-*.log` segments under `dir`, sorted by sequence number
/// (canonical regardless of directory iteration order). A missing
/// directory is an empty log.
///
/// # Errors
///
/// Returns [`StoreError::Io`] on filesystem failure.
pub fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    list_numbered(dir, "wal-", ".log")
}

pub(crate) fn list_numbered(
    dir: &Path,
    prefix: &str,
    suffix: &str,
) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    if !dir.exists() {
        return Ok(Vec::new());
    }
    let entries = fs::read_dir(dir).map_err(|e| io_err(dir, e))?;
    let mut out = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name
            .strip_prefix(prefix)
            .and_then(|s| s.strip_suffix(suffix))
        else {
            continue;
        };
        if stem.is_empty() || !stem.bytes().all(|b| b.is_ascii_digit()) {
            continue;
        }
        let Ok(seq) = stem.parse::<u64>() else {
            continue;
        };
        out.push((seq, entry.path()));
    }
    out.sort_by_key(|&(seq, _)| seq);
    Ok(out)
}

fn read_file(path: &Path) -> Result<Vec<u8>, StoreError> {
    fs::read(path).map_err(|e| io_err(path, e))
}

/// A strict directory replay: snapshot plus every post-snapshot record.
#[derive(Debug, Clone, PartialEq)]
pub struct Replay {
    /// The latest snapshot, if any.
    pub snapshot: Option<SnapshotState>,
    /// WAL records newer than the snapshot, in canonical order.
    pub records: Vec<WalRecord>,
    /// WAL segments read.
    pub segments: u64,
    /// Snapshot records plus WAL records replayed.
    pub replayed_records: u64,
}

/// Strictly replays a WAL directory: loads the newest snapshot, then every
/// segment it does not cover. All non-final segments must be sealed; a
/// torn tail anywhere is a hard error (this is the healthy-restart open).
///
/// # Errors
///
/// [`StoreError::TornTail`] / [`StoreError::Corrupt`] on damage,
/// [`StoreError::Io`] on filesystem failure.
pub fn replay_dir(dir: &Path) -> Result<Replay, StoreError> {
    let snapshot = snapshot::load_latest(dir)?;
    let min_seq = snapshot.as_ref().map(|s| s.covers_seq + 1).unwrap_or(0);
    let segs: Vec<_> = list_segments(dir)?
        .into_iter()
        .filter(|&(seq, _)| seq >= min_seq)
        .collect();
    let mut records = Vec::new();
    for (i, (_, path)) in segs.iter().enumerate() {
        let bytes = read_file(path)?;
        let require_seal = i + 1 < segs.len();
        let read = decode_segment_bytes(&bytes, &path.display().to_string(), require_seal)?;
        records.extend(read.records);
    }
    let replayed_records = records.len() as u64 + snapshot.as_ref().map_or(0, |s| s.record_count());
    Ok(Replay {
        snapshot,
        records,
        segments: segs.len() as u64,
        replayed_records,
    })
}

/// A lenient directory recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct Recovery {
    /// The latest snapshot, if any.
    pub snapshot: Option<SnapshotState>,
    /// WAL records newer than the snapshot, in canonical order.
    pub records: Vec<WalRecord>,
    /// WAL segments read.
    pub segments: u64,
    /// Snapshot records plus WAL records replayed.
    pub replayed_records: u64,
    /// Bytes truncated from the final segment's torn tail.
    pub dropped_bytes: u64,
    /// Whether a torn tail was found (and truncated).
    pub torn_tail: bool,
    /// Bytes of the seal frame appended to the kept final segment (0 when
    /// it was already sealed, or no segment was kept).
    pub seal_bytes: u64,
}

/// Recovers a WAL directory after a crash: like [`replay_dir`], but a torn
/// tail on the *final* segment is truncated back to the last valid frame
/// instead of failing, and that segment is then sealed. A resumed writer
/// opens a fresh segment after it, so without the seal the recovered
/// segment would become a non-final unsealed one and every later replay
/// or recovery of the directory would fail. Damage in sealed (non-final) segments is never
/// recoverable truncation and stays a hard error, as does snapshot damage
/// (snapshots are installed atomically via rename).
///
/// # Errors
///
/// [`StoreError::Corrupt`] / [`StoreError::TornTail`] for non-tail damage,
/// [`StoreError::Io`] on filesystem failure.
pub fn recover_dir(dir: &Path) -> Result<Recovery, StoreError> {
    let snapshot = snapshot::load_latest(dir)?;
    let min_seq = snapshot.as_ref().map(|s| s.covers_seq + 1).unwrap_or(0);
    let segs: Vec<_> = list_segments(dir)?
        .into_iter()
        .filter(|&(seq, _)| seq >= min_seq)
        .collect();
    let mut records = Vec::new();
    let mut dropped_bytes = 0u64;
    let mut seal_bytes = 0u64;
    for (i, (_, path)) in segs.iter().enumerate() {
        let bytes = read_file(path)?;
        if i + 1 < segs.len() {
            let read = decode_segment_bytes(&bytes, &path.display().to_string(), true)?;
            records.extend(read.records);
        } else {
            let rec = recover_segment_bytes(&bytes);
            if rec.dropped_bytes > 0 {
                let keep = bytes.len() as u64 - rec.dropped_bytes;
                truncate_file(path, keep)?;
            }
            if !rec.sealed {
                seal_bytes = seal_file(path, &rec.records)?;
            }
            dropped_bytes += rec.dropped_bytes;
            records.extend(rec.records);
        }
    }
    let replayed_records = records.len() as u64 + snapshot.as_ref().map_or(0, |s| s.record_count());
    Ok(Recovery {
        snapshot,
        records,
        segments: segs.len() as u64,
        replayed_records,
        dropped_bytes,
        torn_tail: dropped_bytes > 0,
        seal_bytes,
    })
}

/// Appends the seal frame for `records` to the segment at `path` and
/// fsyncs it, returning the frame's length.
fn seal_file(path: &Path, records: &[WalRecord]) -> Result<u64, StoreError> {
    let xor = records
        .iter()
        .fold(0u64, |x, r| x ^ u64::from(crc32(&r.to_bytes())));
    let frame = frame_payload(&seal_payload(records.len() as u64, xor));
    let mut file = fs::OpenOptions::new()
        .append(true)
        .open(path)
        .map_err(|e| io_err(path, e))?;
    file.write_all(&frame).map_err(|e| io_err(path, e))?;
    file.sync_all().map_err(|e| io_err(path, e))?;
    Ok(frame.len() as u64)
}

fn truncate_file(path: &Path, keep: u64) -> Result<(), StoreError> {
    let file = fs::OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| io_err(path, e))?;
    file.set_len(keep).map_err(|e| io_err(path, e))?;
    file.sync_all().map_err(|e| io_err(path, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recs(n: u64) -> Vec<WalRecord> {
        (0..n)
            .map(|i| match i % 3 {
                0 => WalRecord::story(
                    i * 31,
                    (i % 4) as u32,
                    i * 1000,
                    vec![i as i32, -(i as i32)],
                ),
                1 => WalRecord::completion(i, (i % 7) as u32, i * 1000 + 1),
                _ => WalRecord::evict(i * 31, (i % 4) as u32, i * 1000 + 2),
            })
            .collect()
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mann_store_wal_{name}"));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn write_rotate_replay_round_trip() {
        let dir = tmp("round_trip");
        let all = recs(10);
        let mut w = WalWriter::open(&dir, 4).expect("open");
        for r in &all[..6] {
            w.append(r).expect("append");
        }
        let sealed = w.rotate().expect("rotate");
        assert_eq!(sealed, 0);
        for r in &all[6..] {
            w.append(r).expect("append");
        }
        let stats = w.finish().expect("finish");
        assert_eq!(stats.records, 10);
        assert_eq!(stats.segments, 2);
        assert!(stats.fsyncs >= 2, "at least one fsync per seal");

        let replay = replay_dir(&dir).expect("replay");
        assert_eq!(replay.records, all);
        assert_eq!(replay.segments, 2);
        assert_eq!(replay.replayed_records, 10);
        assert!(replay.snapshot.is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_detected_then_recovered() {
        let dir = tmp("torn");
        let all = recs(5);
        let mut w = WalWriter::open(&dir, 2).expect("open");
        for r in &all {
            w.append(r).expect("append");
        }
        // Tear: half of the next record's frame.
        let frame = frame_record(&WalRecord::story(999, 1, 7, vec![1, 2, 3]));
        w.abandon_torn(&frame[..frame.len() / 2]).expect("abandon");

        let err = replay_dir(&dir).expect_err("strict open must fail");
        assert!(matches!(err, StoreError::TornTail { .. }), "got {err}");

        let rec = recover_dir(&dir).expect("recover");
        assert!(rec.torn_tail);
        assert_eq!(rec.records, all);
        assert!(rec.dropped_bytes > 0);
        // After truncation the strict open succeeds.
        let replay = replay_dir(&dir).expect("replay after truncate");
        assert_eq!(replay.records, all);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovered_directory_takes_appends_and_recovers_again() {
        let dir = tmp("resume");
        let all = recs(10);
        let mut w = WalWriter::open(&dir, 2).expect("open");
        for r in &all[..5] {
            w.append(r).expect("append");
        }
        let frame = frame_record(&all[5]);
        w.abandon_torn(&frame[..frame.len() / 2]).expect("abandon");
        let rec = recover_dir(&dir).expect("recover");
        assert_eq!(rec.records, all[..5]);
        assert!(rec.seal_bytes > 0, "the kept segment is sealed");

        // The resumed writer opens a fresh segment after the recovered one.
        let mut w = WalWriter::open(&dir, 2).expect("reopen");
        for r in &all[5..] {
            w.append(r).expect("append");
        }
        drop(w);
        let replay = replay_dir(&dir).expect("strict replay after resume");
        assert_eq!(replay.records, all);
        let again = recover_dir(&dir).expect("second recovery");
        assert_eq!(again.records, all);
        assert_eq!(again.dropped_bytes, 0);
        assert_eq!(replay_dir(&dir).expect("replay").records, all);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sealed_segment_detects_frame_boundary_truncation() {
        let dir = tmp("boundary");
        let all = recs(4);
        let mut w = WalWriter::open(&dir, 8).expect("open");
        for r in &all {
            w.append(r).expect("append");
        }
        w.rotate().expect("rotate");
        w.finish().expect("finish");
        // Drop the last record frame AND the seal from segment 0: the cut
        // lands exactly on a frame boundary, yet the strict reader still
        // notices because the seal is gone.
        let path = segment_path(&dir, 0);
        let bytes = fs::read(&path).expect("read");
        // Walk frames to find the boundary before the last record frame.
        let mut offsets = vec![0usize];
        let mut pos = 0usize;
        while pos < bytes.len() {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            pos += FRAME_HEADER + len;
            offsets.push(pos);
        }
        let cut = offsets[offsets.len() - 3]; // before last record + seal
        fs::write(&path, &bytes[..cut]).expect("truncate");
        let err = replay_dir(&dir).expect_err("must detect missing seal");
        assert!(
            matches!(
                err,
                StoreError::TornTail { .. } | StoreError::Corrupt { .. }
            ),
            "got {err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_file_corruption_is_fatal_even_for_recovery() {
        let dir = tmp("midfile");
        let all = recs(6);
        let mut w = WalWriter::open(&dir, 8).expect("open");
        for r in &all[..3] {
            w.append(r).expect("append");
        }
        w.rotate().expect("rotate");
        for r in &all[3..] {
            w.append(r).expect("append");
        }
        w.finish().expect("finish");
        // Flip a byte inside the sealed segment 0.
        let path = segment_path(&dir, 0);
        let mut bytes = fs::read(&path).expect("read");
        let mid = bytes.len() / 3;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).expect("write");
        assert!(replay_dir(&dir).is_err());
        assert!(
            recover_dir(&dir).is_err(),
            "sealed-segment damage is not recoverable"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopened_writer_starts_a_fresh_segment() {
        let dir = tmp("reopen");
        let mut w = WalWriter::open(&dir, 1).expect("open");
        w.append(&recs(1)[0]).expect("append");
        w.finish().expect("finish");
        let w2 = WalWriter::open(&dir, 1).expect("reopen");
        assert_eq!(w2.current_seq(), 1);
        drop(w2);
        let _ = fs::remove_dir_all(&dir);
    }
}
