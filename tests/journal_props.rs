//! Property tests on the write-ahead run journal's reader: the crash
//! model says a process can die at ANY byte boundary (torn tail) and a
//! disk can hand back corrupted bytes (bit rot). The reader must never
//! panic, must keep the longest valid prefix under truncation, and must
//! reject — not misparse — corrupted records.

use blurnet::experiments::Table2Row;
use blurnet::journal::{
    recover_journal, JournalError, JournalHeader, JOURNAL_MAGIC, JOURNAL_VERSION, KIND_CELL,
    KIND_HEADER,
};
use blurnet::report::CellReport;
use blurnet::{BlurNetError, CellOutput, CellStatus, RunReport};
use blurnet_tensor::persist::frame_record;
use proptest::prelude::*;

/// Builds a syntactically valid journal byte stream: one header plus
/// `cells` completed-cell records with distinguishable payloads.
fn journal_bytes(cells: usize) -> Vec<u8> {
    let header = JournalHeader {
        schema: "blurnet-results/v1".to_string(),
        scale: "smoke".to_string(),
        seed: 7,
        cells,
    };
    let mut bytes = frame_record(
        JOURNAL_MAGIC,
        JOURNAL_VERSION,
        KIND_HEADER,
        serde_json::to_string(&header).unwrap().as_bytes(),
    );
    for i in 0..cells {
        let cell = CellReport {
            experiment: "table2".to_string(),
            label: format!("cell-{i}"),
            status: CellStatus::Ok,
            output: Some(CellOutput::Table2(Table2Row {
                defense: format!("defense-{i}"),
                legitimate_accuracy: 0.5 + i as f32 * 0.01,
                average_success_rate: 0.25,
                worst_success_rate: 0.5,
                l2_dissimilarity: 0.1,
            })),
        };
        bytes.extend_from_slice(&frame_record(
            JOURNAL_MAGIC,
            JOURNAL_VERSION,
            KIND_CELL,
            serde_json::to_string(&cell).unwrap().as_bytes(),
        ));
    }
    bytes
}

/// Unwraps the reader's error down to the journal-typed layer.
fn journal_err(e: BlurNetError) -> JournalError {
    match e {
        BlurNetError::Journal(e) => e,
        other => panic!("expected a journal error, got: {other}"),
    }
}

/// Byte offsets where each record of `journal_bytes(cells)` ends, header
/// first. A truncation at or past `ends[k]` preserves at least `k` cell
/// records (index 0 is the header).
fn record_ends(cells: usize) -> Vec<usize> {
    let mut ends = Vec::with_capacity(cells + 1);
    let mut total = journal_bytes(0).len();
    ends.push(total);
    for i in 1..=cells {
        total = journal_bytes(i).len();
        ends.push(total);
    }
    ends
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Truncation anywhere — the crash model for a torn final append —
    /// keeps exactly the record-complete prefix and reports the tail as
    /// dropped bytes. Never a panic, never a phantom cell.
    #[test]
    fn truncation_anywhere_keeps_the_valid_prefix(cells in 0usize..5, cut_frac in 0.0f64..1.0) {
        let bytes = journal_bytes(cells);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let ends = record_ends(cells);

        match recover_journal(&bytes[..cut]) {
            Ok(recovered) => {
                // A successful read means the header survived intact…
                prop_assert!(cut >= ends[0], "header cannot parse from {cut} bytes");
                // …and the cell count is exactly the number of complete
                // cell records before the cut.
                let complete = ends.iter().skip(1).filter(|&&end| end <= cut).count();
                prop_assert_eq!(recovered.cells.len(), complete);
                prop_assert_eq!(recovered.dropped_bytes, cut - ends[complete]);
                for (i, cell) in recovered.cells.iter().enumerate() {
                    prop_assert_eq!(&cell.label, &format!("cell-{i}"));
                }
            }
            Err(e) => {
                // Only a truncated HEADER may fail the whole read.
                prop_assert!(cut < ends[0], "read failed with a full header: {e}");
                let e = journal_err(e);
                prop_assert!(matches!(e, JournalError::NoHeader(_)), "got: {e}");
            }
        }
    }

    /// Flipping any single byte never panics the reader, and a flip
    /// inside a record body never silently yields a DIFFERENT cell list
    /// than honest truncation at that record's start would.
    #[test]
    fn any_single_byte_flip_is_rejected_not_misparsed(cells in 1usize..4, pos_frac in 0.0f64..1.0, flip in 1u8..=255) {
        let mut bytes = journal_bytes(cells);
        let pos = (((bytes.len() - 1) as f64) * pos_frac) as usize;
        bytes[pos] ^= flip;
        let ends = record_ends(cells);
        // Index of the record the flipped byte lives in (0 = header).
        let victim = ends.iter().filter(|&&end| end <= pos).count();

        match recover_journal(&bytes) {
            Ok(recovered) => {
                // The checksum can only vouch for records before the
                // flip; everything from the victim on must be gone.
                // (The flip corrupts its own record; later records are
                // unreachable because record boundaries derive from the
                // corrupted length field or fail the resync.)
                prop_assert!(victim >= 1, "a corrupted header cannot read Ok");
                prop_assert!(
                    recovered.cells.len() < victim,
                    "cell {} carries a flipped byte but {} cells survived",
                    victim - 1,
                    recovered.cells.len()
                );
                for (i, cell) in recovered.cells.iter().enumerate() {
                    prop_assert_eq!(&cell.label, &format!("cell-{i}"));
                }
            }
            Err(e) => {
                // Typed rejection is always acceptable: a header flip is
                // NoHeader, a checksum-passing kind/JSON mutation is
                // BadRecord. Panics and misparses are the only failures.
                let e = journal_err(e);
                prop_assert!(
                    matches!(e, JournalError::NoHeader(_) | JournalError::BadRecord { .. }),
                    "got: {e}"
                );
            }
        }
    }

    /// Appending arbitrary garbage after a valid journal — a crash while
    /// the allocator had handed the file preallocated blocks — keeps all
    /// real records and drops the garbage tail.
    #[test]
    fn arbitrary_garbage_tails_are_dropped(cells in 0usize..4, tail in proptest::collection::vec(0u8..=255, 48), tail_len in 1usize..=48) {
        let mut bytes = journal_bytes(cells);
        bytes.extend_from_slice(&tail[..tail_len]);
        match recover_journal(&bytes) {
            Ok(recovered) => {
                prop_assert_eq!(recovered.cells.len(), cells);
                prop_assert!(recovered.dropped_bytes > 0);
            }
            // The garbage can accidentally frame a checksum-valid record
            // only by forging an FNV-1a collision; a typed BadRecord for
            // an unknown kind is the one tolerable escape hatch.
            Err(e) => {
                let e = journal_err(e);
                prop_assert!(matches!(e, JournalError::BadRecord { .. }), "got: {e}");
            }
        }
    }
}

/// Ordering violations are deterministic, so they get plain tests: each
/// malformed shape maps to its own typed error (pinned in unit tests in
/// `blurnet::journal`) and none of them panic through this public entry.
#[test]
fn ordering_violations_stay_typed_through_the_public_reader() {
    // A cell record with no header in front of it.
    let cell_first = journal_bytes(1)[record_ends(1)[0]..].to_vec();
    let err = journal_err(recover_journal(&cell_first).expect_err("headerless journal"));
    assert!(matches!(err, JournalError::CellBeforeHeader), "got: {err}");

    // Two headers back to back.
    let mut twice = journal_bytes(0);
    let second_offset = twice.len();
    twice.extend_from_slice(&journal_bytes(0));
    match journal_err(recover_journal(&twice).expect_err("double header")) {
        JournalError::DuplicateHeader { offset } => assert_eq!(offset, second_offset),
        other => panic!("expected DuplicateHeader, got {other:?}"),
    }
}

/// Most `[`/`{` open at once in a JSON text, outside string literals.
fn json_depth(text: &str) -> usize {
    let (mut depth, mut deepest, mut in_string, mut escaped) = (0usize, 0, false, false);
    for c in text.chars() {
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '[' | '{' => {
                depth += 1;
                deepest = deepest.max(depth);
            }
            ']' | '}' => depth -= 1,
            _ => {}
        }
    }
    deepest
}

/// A journal of the `cells.len() == 0` header plus one raw cell record.
fn journal_with_cell_payload(payload: &[u8]) -> Vec<u8> {
    let mut bytes = journal_bytes(0);
    bytes.extend_from_slice(&frame_record(
        JOURNAL_MAGIC,
        JOURNAL_VERSION,
        KIND_CELL,
        payload,
    ));
    bytes
}

/// The JSON parser's nesting limit must sit far above anything a run
/// writes. The deepest record is a figure cell carrying tensors (Figure
/// 1's spectra); it journals and recovers intact.
#[test]
fn the_deepest_real_record_is_far_inside_the_parser_nesting_limit() {
    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("paper_subset.json");
    let report: RunReport =
        serde_json::from_str(&std::fs::read_to_string(golden).expect("golden report"))
            .expect("golden report parses");
    let records: Vec<String> = report
        .cells
        .iter()
        .map(|cell| serde_json::to_string(cell).expect("cell serializes"))
        .collect();
    let figure1 = report
        .cells
        .iter()
        .position(|c| c.experiment == "figure1")
        .expect("the golden report has a Figure 1 cell");
    let deepest = records.iter().map(|r| json_depth(r)).max().unwrap();
    assert_eq!(json_depth(&records[figure1]), deepest);
    assert!(
        deepest * 16 <= serde_json::MAX_DEPTH,
        "records nest {deepest} deep, too close to the {} limit",
        serde_json::MAX_DEPTH
    );
    let recovered = recover_journal(&journal_with_cell_payload(records[figure1].as_bytes()))
        .expect("the Figure 1 record recovers");
    assert_eq!(recovered.cells, [report.cells[figure1].clone()]);
}

/// A checksum-valid cell record of hostile nesting is a typed error, not
/// a stack overflow, even on a thread with a small stack.
#[test]
fn a_deeply_nested_cell_record_is_a_typed_error() {
    let bytes = journal_with_cell_payload("[".repeat(200_000).as_bytes());
    std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(move || {
            let err = journal_err(recover_journal(&bytes).expect_err("hostile nesting"));
            assert!(matches!(err, JournalError::BadRecord { .. }), "got: {err}");
        })
        .expect("spawn reader thread")
        .join()
        .expect("deep nesting is an error, not a crash");
}
