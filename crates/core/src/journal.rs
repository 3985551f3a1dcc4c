//! The crash-safe run journal: an append-only, per-record-checksummed
//! write-ahead log of completed experiment cells.
//!
//! The journal is the run's only resumable record: `results.json` is an
//! output that nothing reads back. The scheduler writes one **header
//! record** (schema/scale/seed/grid size) when a run starts and one
//! **cell record** per successfully completed cell as cells finish —
//! each record fsynced before the run proceeds — so a run interrupted
//! *anywhere* (SIGKILL, OOM, power loss) leaves a durable, verifiable
//! prefix of its work that `--resume` replays.
//!
//! # Format (`BNJL`, version 1)
//!
//! A journal is a sequence of [`frame_record`] records:
//!
//! ```text
//! magic      4 bytes   b"BNJL"
//! version    u16 LE    1
//! kind       u8        0 = header, 1 = cell
//! len        u64 LE    payload byte count
//! payload    len bytes (JSON: a JournalHeader / a CellReport)
//! checksum   u64 LE    FNV-1a over magic..payload
//! ```
//!
//! # Reader contract
//!
//! The reader is **torn-tail-tolerant**: a record that is truncated,
//! bit-rotted or otherwise malformed ends the journal at the last valid
//! record before it — a crash mid-append loses at most the record being
//! appended, never the prefix, and never panics the reader. Structural
//! violations that no crash can produce (a cell record before the
//! header, a second header, a checksummed-but-unparseable payload) are
//! **typed errors** ([`JournalError`]) instead: they mean a foreign or
//! corrupted-by-software file, which must not be silently half-trusted.
//!
//! # Durability contract
//!
//! * [`JournalWriter::create`] (and the resume path's seeded variant,
//!   which also writes the replayed cells) builds the whole file in a
//!   temporary sibling, fsyncs it, renames it into place and fsyncs the
//!   parent directory — a crash during creation leaves either the old
//!   journal or the complete new one, never a truncated one.
//! * [`JournalWriter::append_cell`] writes one record and fsyncs the file
//!   data before returning — when a cell's record is observed by the run,
//!   it survives a crash.
//! * Appends are **best-effort**: an I/O failure retires the journal
//!   (removing the file, whose tail is now of unknown shape) and the run
//!   continues to its `results.json` — but is no longer resumable.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use blurnet_tensor::persist::{frame_record, read_record, write_bytes_atomic};
use serde::{Deserialize, Serialize};

use crate::report::CellReport;
use crate::{BlurNetError, Result};

/// Magic bytes opening every journal record.
pub const JOURNAL_MAGIC: [u8; 4] = *b"BNJL";
/// Newest journal format version this build reads and writes.
pub const JOURNAL_VERSION: u16 = 1;
/// Conventional journal file name, a sibling of `results.json`.
pub const JOURNAL_FILE: &str = "run.journal";
/// Record kind: the run header (first record of every journal).
pub const KIND_HEADER: u8 = 0;
/// Record kind: one successfully completed cell.
pub const KIND_CELL: u8 = 1;

/// Typed failure modes of the journal layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The journal has no readable header record (empty, torn before the
    /// first record completed, or not a journal at all).
    NoHeader(String),
    /// A structurally valid cell record appeared before any header — an
    /// ordering no crash of our writer can produce.
    CellBeforeHeader,
    /// A second header record appeared mid-journal.
    DuplicateHeader {
        /// Byte offset of the offending record.
        offset: usize,
    },
    /// A record whose checksum validates but whose content is
    /// meaningless (unknown kind byte, unparseable JSON payload).
    BadRecord {
        /// Byte offset of the offending record.
        offset: usize,
        /// What was wrong with it.
        detail: String,
    },
    /// A filesystem failure reading or writing the journal.
    Io(String),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::NoHeader(detail) => write!(f, "journal has no header record: {detail}"),
            JournalError::CellBeforeHeader => {
                write!(f, "journal starts with a cell record instead of a header")
            }
            JournalError::DuplicateHeader { offset } => {
                write!(f, "second header record at byte {offset}")
            }
            JournalError::BadRecord { offset, detail } => {
                write!(f, "malformed record at byte {offset}: {detail}")
            }
            JournalError::Io(detail) => write!(f, "journal I/O failure: {detail}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<JournalError> for BlurNetError {
    fn from(e: JournalError) -> Self {
        BlurNetError::Journal(e)
    }
}

/// The journal's first record: the identity of the run being journaled,
/// so [`crate::plan_resume`] can refuse to merge incompatible runs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalHeader {
    /// Results schema tag ([`crate::report::RESULTS_SCHEMA`]).
    pub schema: String,
    /// Scale profile of the run (`"smoke"`, `"quick"`, `"paper"`).
    pub scale: String,
    /// Dataset/zoo seed of the run.
    pub seed: u64,
    /// Number of cells in the run's grid.
    pub cells: usize,
}

/// The append side of the journal. Clone-free and thread-safe: the
/// scheduler's workers append through one shared writer behind a mutex
/// (appends are rare — one per completed cell — and tiny).
#[derive(Debug)]
pub struct JournalWriter {
    path: PathBuf,
    /// `None` once the writer has retired itself after an append failure.
    file: Mutex<Option<std::fs::File>>,
}

impl JournalWriter {
    /// Creates (replacing) the journal at `path` holding only the header
    /// record, written atomically and durably ([`write_bytes_atomic`]).
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] (as [`BlurNetError::Journal`]) when
    /// the journal cannot be created; a journal the caller asked for that
    /// cannot exist is a hard error, unlike per-append failures.
    pub fn create(path: impl Into<PathBuf>, header: &JournalHeader) -> Result<Self> {
        Self::seeded(path, header, &[])
    }

    /// Creates (replacing) the journal at `path` holding the header record
    /// followed by `cells`, then opens it for appending. The whole file is
    /// written atomically and durably ([`write_bytes_atomic`]), so a crash
    /// at any point leaves either the previous journal or the complete new
    /// one — a resume that re-seeds the journal it is resuming from can
    /// never lose the prior run's cells.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] when the journal cannot be written.
    pub(crate) fn seeded(
        path: impl Into<PathBuf>,
        header: &JournalHeader,
        cells: &[CellReport],
    ) -> Result<Self> {
        let path = path.into();
        let io = |e: &dyn fmt::Display| {
            BlurNetError::Journal(JournalError::Io(format!("{}: {e}", path.display())))
        };
        let mut bytes = encode_record(KIND_HEADER, header).map_err(|e| io(&e))?;
        for cell in cells {
            bytes.extend(encode_record(KIND_CELL, cell).map_err(|e| io(&e))?);
        }
        write_bytes_atomic(&path, &bytes).map_err(|e| io(&e))?;
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| io(&e))?;
        Ok(JournalWriter {
            path,
            file: Mutex::new(Some(file)),
        })
    }

    /// Appends one completed-cell record and fsyncs it. Best-effort: an
    /// I/O failure retires the journal (see [`JournalWriter`] docs) and
    /// is reported on stderr, never to the caller — durability degrades,
    /// the run does not.
    pub fn append_cell(&self, cell: &CellReport) {
        use std::io::Write;
        let record = match encode_record(KIND_CELL, cell) {
            Ok(record) => record,
            Err(e) => {
                self.retire(&format!("cell record does not serialize: {e}"));
                return;
            }
        };

        let outcome = {
            // A panic fault below fires under this lock; it leaves the
            // handle untouched, so a poisoned lock is still sound to use.
            let mut guard = self.file.lock().unwrap_or_else(PoisonError::into_inner);
            // The fault sites are evaluated under the file lock, so hit
            // order is append order and an abort stops every other
            // worker's append: abort at hit n leaves exactly n−1 cells.
            //
            // Fault site `core.journal.append`: Error kind models a failed
            // append (the journal must retire, the run must survive); Abort
            // kind at hit n is the kill-after-(n−1)-cells point.
            #[cfg(feature = "fault-injection")]
            let injected_failure = crate::fault::fire(crate::fault::sites::JOURNAL_APPEND);
            #[cfg(not(feature = "fault-injection"))]
            let injected_failure = false;

            // Fault site `core.journal.torn`: write a torn prefix of the
            // record, push it to disk, and die — a genuine kill-mid-append.
            // Subprocess harness only (this aborts the whole process).
            #[cfg(feature = "fault-injection")]
            if crate::fault::fire(crate::fault::sites::JOURNAL_TORN) {
                if let Some(file) = guard.as_mut() {
                    let _ = file.write_all(&record[..record.len() / 2]);
                    let _ = file.sync_data();
                }
                eprintln!(
                    "{}: torn append + abort at {}",
                    crate::fault::MARKER,
                    crate::fault::sites::JOURNAL_TORN
                );
                std::process::abort();
            }

            match guard.as_mut() {
                None => return, // already retired
                Some(_) if injected_failure => {
                    Err(std::io::Error::other("injected append failure"))
                }
                Some(file) => file.write_all(&record).and_then(|()| file.sync_data()),
            }
        };
        // The guard is released above: `retire` takes the lock itself.
        if let Err(e) = outcome {
            self.retire(&e.to_string());
        }
    }

    /// Drops the file handle and removes the journal file: after a failed
    /// append the file's tail is of unknown shape (a full disk, a torn
    /// record), so the run stops journaling and a later `--resume` finds
    /// no journal and refuses, rather than trusting a damaged record.
    fn retire(&self, cause: &str) {
        let mut guard = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        if guard.take().is_some() {
            let _ = std::fs::remove_file(&self.path);
            eprintln!(
                "[journal] append to {} failed ({cause}); journal retired",
                self.path.display()
            );
        }
    }
}

/// What [`recover_journal`] salvages from a (possibly torn) journal.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredJournal {
    /// The run identity from the header record.
    pub(crate) header: JournalHeader,
    /// Every fully durable completed-cell record, in append order.
    pub cells: Vec<CellReport>,
    /// Bytes of torn/corrupt tail discarded after the last valid record
    /// (zero for a cleanly closed journal).
    pub dropped_bytes: usize,
}

/// Recovers a journal from its raw bytes: the torn-tail-tolerant,
/// never-panicking reader (see the module docs for the exact contract).
///
/// # Errors
///
/// Returns a typed [`JournalError`] (as [`BlurNetError::Journal`]) for a
/// missing/unreadable header and for structural violations; a torn or
/// corrupt **tail** is not an error — it truncates the journal at the
/// last valid record and is reported via
/// [`RecoveredJournal::dropped_bytes`].
pub fn recover_journal(bytes: &[u8]) -> Result<RecoveredJournal> {
    if bytes.is_empty() {
        return Err(JournalError::NoHeader("empty file".into()).into());
    }
    let (kind, payload, mut offset) = match read_record(bytes, JOURNAL_MAGIC, JOURNAL_VERSION) {
        Ok(first) => first,
        Err(e) => return Err(JournalError::NoHeader(e.to_string()).into()),
    };
    let header: JournalHeader = match kind {
        KIND_HEADER => serde_json::from_str(
            std::str::from_utf8(payload)
                .map_err(|e| JournalError::NoHeader(format!("header is not UTF-8: {e}")))?,
        )
        .map_err(|e| JournalError::NoHeader(format!("header does not parse: {e}")))?,
        KIND_CELL => return Err(JournalError::CellBeforeHeader.into()),
        other => {
            return Err(JournalError::BadRecord {
                offset: 0,
                detail: format!("unknown record kind {other}"),
            }
            .into())
        }
    };

    let mut cells = Vec::new();
    while offset < bytes.len() {
        let (kind, payload, consumed) =
            match read_record(&bytes[offset..], JOURNAL_MAGIC, JOURNAL_VERSION) {
                Ok(record) => record,
                // A malformed record here is the torn tail a crash
                // mid-append leaves: keep the valid prefix, drop the rest.
                Err(_) => {
                    return Ok(RecoveredJournal {
                        header,
                        cells,
                        dropped_bytes: bytes.len() - offset,
                    })
                }
            };
        match kind {
            KIND_CELL => {
                let cell: CellReport = std::str::from_utf8(payload)
                    .map_err(|e| JournalError::BadRecord {
                        offset,
                        detail: format!("cell record is not UTF-8: {e}"),
                    })
                    .and_then(|text| {
                        serde_json::from_str(text).map_err(|e| JournalError::BadRecord {
                            offset,
                            detail: format!("cell record does not parse: {e}"),
                        })
                    })?;
                cells.push(cell);
            }
            KIND_HEADER => return Err(JournalError::DuplicateHeader { offset }.into()),
            other => {
                return Err(JournalError::BadRecord {
                    offset,
                    detail: format!("unknown record kind {other}"),
                }
                .into())
            }
        }
        offset += consumed;
    }
    Ok(RecoveredJournal {
        header,
        cells,
        dropped_bytes: 0,
    })
}

/// Frames one JSON-payload record of `kind`.
fn encode_record(kind: u8, value: &impl Serialize) -> serde_json::Result<Vec<u8>> {
    let payload = serde_json::to_string(value)?;
    Ok(frame_record(
        JOURNAL_MAGIC,
        JOURNAL_VERSION,
        kind,
        payload.as_bytes(),
    ))
}

/// Reads and recovers the journal at `path` (see [`recover_journal`]).
///
/// # Errors
///
/// Returns [`JournalError::Io`] when the file cannot be read, plus every
/// [`recover_journal`] error.
pub fn read_journal(path: &Path) -> Result<RecoveredJournal> {
    let bytes = std::fs::read(path)
        .map_err(|e| JournalError::Io(format!("reading {}: {e}", path.display())))?;
    recover_journal(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{CellStatus, RESULTS_SCHEMA};

    fn header() -> JournalHeader {
        JournalHeader {
            schema: RESULTS_SCHEMA.to_string(),
            scale: "smoke".to_string(),
            seed: 7,
            cells: 4,
        }
    }

    fn cell(label: &str) -> CellReport {
        CellReport {
            experiment: "table2".to_string(),
            label: label.to_string(),
            status: CellStatus::Ok,
            output: None,
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("blurnet-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_then_recover_roundtrips() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join(JOURNAL_FILE);
        let writer = JournalWriter::create(&path, &header()).unwrap();
        writer.append_cell(&cell("a"));
        writer.append_cell(&cell("b"));

        let recovered = read_journal(&path).unwrap();
        assert_eq!(recovered.header, header());
        assert_eq!(recovered.cells, vec![cell("a"), cell("b")]);
        assert_eq!(recovered.dropped_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_torn_tail_keeps_the_valid_prefix() {
        let dir = tmp_dir("torn");
        let path = dir.join(JOURNAL_FILE);
        let writer = JournalWriter::create(&path, &header()).unwrap();
        writer.append_cell(&cell("a"));
        writer.append_cell(&cell("b"));
        let full = std::fs::read(&path).unwrap();
        // Chop 5 bytes off the last record — a crash mid-append.
        let torn = &full[..full.len() - 5];
        let recovered = recover_journal(torn).unwrap();
        assert_eq!(recovered.cells, vec![cell("a")]);
        assert!(recovered.dropped_bytes > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ordering_violations_are_typed() {
        use blurnet_tensor::persist::frame_record;
        let head = frame_record(
            JOURNAL_MAGIC,
            JOURNAL_VERSION,
            KIND_HEADER,
            serde_json::to_string(&header()).unwrap().as_bytes(),
        );
        let cell_rec = frame_record(
            JOURNAL_MAGIC,
            JOURNAL_VERSION,
            KIND_CELL,
            serde_json::to_string(&cell("a")).unwrap().as_bytes(),
        );

        // Cell before header.
        assert!(matches!(
            recover_journal(&cell_rec),
            Err(BlurNetError::Journal(JournalError::CellBeforeHeader))
        ));
        // Duplicate header.
        let mut dup = head.clone();
        dup.extend_from_slice(&head);
        assert!(matches!(
            recover_journal(&dup),
            Err(BlurNetError::Journal(JournalError::DuplicateHeader { .. }))
        ));
        // Empty / headerless files.
        assert!(matches!(
            recover_journal(&[]),
            Err(BlurNetError::Journal(JournalError::NoHeader(_)))
        ));
        // Unknown kind with a valid checksum.
        let alien = frame_record(JOURNAL_MAGIC, JOURNAL_VERSION, 9, b"{}");
        assert!(matches!(
            recover_journal(&alien),
            Err(BlurNetError::Journal(JournalError::BadRecord { .. }))
        ));
    }
}
