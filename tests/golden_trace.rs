//! Golden-file lockdown of the `alfi-trace` JSONL event log.
//!
//! Pins the exact `events.jsonl` emitted by a traced classification
//! campaign under `tests/golden/trace/`: one header record (format
//! version + replay identity), one `injection` record per applied
//! fault in deterministic row order, and one `summary` record holding
//! only deterministic counters (no timings — those live exclusively in
//! the in-memory `TraceSummary`). Any change to the event taxonomy,
//! field names, number formatting or record order shows up as a
//! readable diff here.
//!
//! To bless new goldens after an intentional schema change:
//!
//! ```text
//! ALFI_REGEN_GOLDEN=1 cargo test --test golden_trace
//! ```

use alfi::core::campaign::{ImgClassCampaign, RunConfig};
use alfi::datasets::{ClassificationDataset, ClassificationLoader};
use alfi::nn::models::{alexnet, ModelConfig};
use alfi::scenario::{FaultMode, InjectionTarget, Scenario};
use alfi::trace::{EventLog, EventLogError, Recorder};
use std::path::{Path, PathBuf};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden").join("trace")
}

fn regen() -> bool {
    std::env::var_os("ALFI_REGEN_GOLDEN").is_some()
}

fn assert_golden(name: &str, actual: &str, context: &str) {
    let path = golden_dir().join(name);
    if regen() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        eprintln!("[golden] regenerated {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run ALFI_REGEN_GOLDEN=1 cargo test --test golden_trace",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "golden mismatch for trace/{name} ({context}) — \
         intentional schema changes need ALFI_REGEN_GOLDEN=1"
    );
}

fn scenario() -> Scenario {
    let mut s = Scenario::default();
    s.dataset_size = 4;
    s.injection_target = InjectionTarget::Weights;
    s.fault_mode = FaultMode::exponent_bit_flip();
    s.seed = 0x7124CE;
    s
}

fn campaign() -> ImgClassCampaign {
    let mcfg = ModelConfig { input_hw: 16, width_mult: 0.0625, seed: 7, ..ModelConfig::default() };
    let ds = ClassificationDataset::new(4, mcfg.num_classes, 3, 16, 13);
    let loader = ClassificationLoader::new(ds, 1);
    ImgClassCampaign::new(alexnet(&mcfg), scenario(), loader)
}

fn traced_event_log(threads: usize) -> String {
    let rec = Recorder::new();
    campaign().run_with(&RunConfig::new().threads(threads).recorder(rec.clone())).unwrap();
    rec.events_jsonl()
}

/// Blanks the header's recorded `threads` field — the only part of the
/// log that legitimately differs between thread counts.
fn normalize_threads(log: &str) -> String {
    let mut lines: Vec<String> = log.lines().map(str::to_string).collect();
    if let Some(header) = lines.first_mut() {
        assert!(header.contains("\"event\":\"header\""), "first record must be the header");
        let start = header.find("\"threads\":").expect("header records the thread count");
        let rest = &header[start + "\"threads\":".len()..];
        let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
        header.replace_range(start.."\"threads\":".len() + start + end, "\"threads\":N");
    }
    lines.join("\n") + "\n"
}

#[test]
fn event_log_matches_golden() {
    let log = traced_event_log(1);
    assert_golden("events.jsonl", &log, "sequential traced run");
}

#[test]
fn event_log_is_byte_identical_across_thread_counts() {
    let seq = normalize_threads(&traced_event_log(1));
    for threads in [2usize, 4] {
        let par = normalize_threads(&traced_event_log(threads));
        assert_eq!(
            seq, par,
            "event log must be byte-identical at {threads} threads (modulo the header's \
             recorded thread count)"
        );
    }
}

#[test]
fn saved_events_file_round_trips_the_log() {
    let rec = Recorder::new();
    let dir = std::env::temp_dir().join("alfi_it_golden_trace_save");
    let _ = std::fs::remove_dir_all(&dir);
    campaign()
        .run_with(&RunConfig::new().recorder(rec.clone()).save_dir(&dir))
        .unwrap();
    let on_disk = std::fs::read_to_string(dir.join("events.jsonl")).unwrap();
    assert_eq!(on_disk, rec.events_jsonl());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Truncating a pinned event log, replacing one of its characters, or
/// dropping or duplicating one of its lines makes `EventLog::parse`
/// return `Ok` or a typed error naming a line of the log, never panic.
#[test]
fn damaged_golden_logs_parse_or_fail_typed() {
    let logs = ["events.jsonl", "stop_events.jsonl"]
        .map(|name| std::fs::read_to_string(golden_dir().join(name)).unwrap());
    for log in &logs {
        EventLog::parse(log).unwrap();
    }
    let alphabet: Vec<char> = "{}[]\":,.-+0123456789eEnultrfasx \u{e9}\u{1F600}".chars().collect();
    alfi_check::check("damaged_golden_logs_parse_or_fail_typed", |rng| {
        let log = &logs[rng.gen_range(0usize..logs.len())];
        let mut lines: Vec<&str> = log.lines().collect();
        let damaged = match rng.gen_range(0u8..4) {
            0 => {
                let cut = rng.gen_range(0..log.len());
                log[..log.floor_char_boundary(cut)].to_string()
            }
            1 => {
                let chars: Vec<char> = log.chars().collect();
                let at = rng.gen_range(0..chars.len());
                let with = alphabet[rng.gen_range(0..alphabet.len())];
                chars.iter().enumerate().map(|(i, &c)| if i == at { with } else { c }).collect()
            }
            2 => {
                lines.remove(rng.gen_range(0..lines.len()));
                lines.join("\n") + "\n"
            }
            _ => {
                let at = rng.gen_range(0..lines.len());
                lines.insert(at, lines[at]);
                lines.join("\n") + "\n"
            }
        };
        let line_count = damaged.lines().count().max(1);
        match EventLog::parse(&damaged) {
            Ok(_) | Err(EventLogError::Version { .. }) => {}
            Err(EventLogError::Json { line, .. } | EventLogError::Record { line, .. }) => {
                assert!((1..=line_count).contains(&line), "line {line} of {line_count}");
            }
            Err(e @ EventLogError::Io(_)) => panic!("parse reported an I/O error: {e}"),
        }
    });
}
