//! Reader for the JSONL event log — the consuming half of
//! [`Recorder::events_jsonl`](crate::Recorder::events_jsonl). Turns a
//! written log back into typed records (replay header, injection
//! events, stop decisions, closing summary) so the artifact is an API,
//! not a write-only file. Each record is decoded with its type's
//! `json_struct!` field list, the one the writer renders it with.

use crate::{InjectionEvent, RunCounts, RunMeta, StopEvent, EVENT_FORMAT_VERSION};
use alfi_serde::{from_field, FromJson, Json};
use std::fmt;
use std::path::Path;

/// A parse failure, with the 1-based line it occurred on.
#[derive(Debug)]
pub enum EventLogError {
    /// The log (or a line of it) was not valid JSON.
    Json {
        /// 1-based line number.
        line: usize,
        /// Parser message.
        detail: String,
    },
    /// A record was structurally wrong (missing/mistyped field,
    /// unknown event kind, misplaced record).
    Record {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        detail: String,
    },
    /// The log was written by an incompatible format version.
    Version {
        /// Version found in the header.
        found: u32,
    },
    /// The file could not be read.
    Io(std::io::Error),
}

impl fmt::Display for EventLogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventLogError::Json { line, detail } => {
                write!(f, "line {line}: invalid JSON: {detail}")
            }
            EventLogError::Record { line, detail } => write!(f, "line {line}: {detail}"),
            EventLogError::Version { found } => write!(
                f,
                "unsupported event format version {found} (reader supports {EVENT_FORMAT_VERSION})"
            ),
            EventLogError::Io(e) => write!(f, "reading event log: {e}"),
        }
    }
}

impl std::error::Error for EventLogError {}

impl From<std::io::Error> for EventLogError {
    fn from(e: std::io::Error) -> Self {
        EventLogError::Io(e)
    }
}

/// The parsed replay header (first record of every log).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventHeader {
    /// Event format version the log was written with.
    pub format: u32,
    /// Replay identity, when the writing recorder had one set.
    pub meta: Option<RunMeta>,
}

/// A fully parsed `events.jsonl` log.
#[derive(Debug, Clone, PartialEq)]
pub struct EventLog {
    /// The replay header.
    pub header: EventHeader,
    /// Injection events in recorded (deterministic row) order.
    pub injections: Vec<InjectionEvent>,
    /// Statistical stop decisions in boundary order (empty for
    /// exhaustive campaigns).
    pub stops: Vec<StopEvent>,
    /// The closing summary record — the run's counts — when the log
    /// has one.
    pub summary: Option<RunCounts>,
}

/// Decodes a `kind` record on `line` with its type's field list.
fn decode<T: FromJson>(obj: &Json, kind: &str, line: usize) -> Result<T, EventLogError> {
    T::from_json(obj)
        .map_err(|e| EventLogError::Record { line, detail: format!("{kind} record: {e}") })
}

impl EventLog {
    /// Parses a full JSONL log as written by
    /// [`Recorder::events_jsonl`](crate::Recorder::events_jsonl): a
    /// header record first, then injection and stop records in order,
    /// then an optional closing summary.
    ///
    /// # Errors
    ///
    /// Returns an [`EventLogError`] on malformed JSON, a missing or
    /// misplaced record, or an incompatible format version.
    pub fn parse(text: &str) -> Result<EventLog, EventLogError> {
        let mut header = None;
        let mut injections = Vec::new();
        let mut stops = Vec::new();
        let mut summary: Option<RunCounts> = None;
        for (i, raw) in text.lines().enumerate() {
            let line = i + 1;
            if raw.trim().is_empty() {
                continue;
            }
            let obj = Json::parse(raw)
                .map_err(|e| EventLogError::Json { line, detail: e.to_string() })?;
            let record = |detail: String| EventLogError::Record { line, detail };
            let kind: String = from_field(&obj, "event").map_err(|e| record(e.to_string()))?;
            // The header comes first and once; nothing follows the
            // summary, which comes once.
            let misplaced = match kind.as_str() {
                "header" if header.is_some() => Some("duplicate header record".to_string()),
                "header" if summary.is_some() => Some("header record is not first".to_string()),
                "injection" | "stop" if header.is_none() => {
                    Some(format!("{kind} record before the header"))
                }
                "injection" | "stop" if summary.is_some() => {
                    Some(format!("{kind} record after the summary"))
                }
                "summary" if summary.is_some() => Some("duplicate summary record".to_string()),
                _ => None,
            };
            if let Some(detail) = misplaced {
                return Err(record(detail));
            }
            match kind.as_str() {
                "header" => {
                    let format: u32 = from_field(&obj, "format")
                        .map_err(|e| record(format!("header record: {e}")))?;
                    if format != EVENT_FORMAT_VERSION {
                        return Err(EventLogError::Version { found: format });
                    }
                    // Replay identity is present only when the writer
                    // had meta set; the `campaign` key marks it.
                    let meta = obj.get("campaign").map(|_| decode(&obj, &kind, line)).transpose()?;
                    header = Some(EventHeader { format, meta });
                }
                "injection" => injections.push(decode(&obj, &kind, line)?),
                "stop" => stops.push(decode(&obj, &kind, line)?),
                "summary" => summary = Some(decode(&obj, &kind, line)?),
                other => return Err(record(format!("unknown event kind `{other}`"))),
            }
        }
        let header = header.ok_or(EventLogError::Record {
            line: 1,
            detail: "log has no header record".into(),
        })?;
        Ok(EventLog { header, injections, stops, summary })
    }

    /// Reads and parses an `events.jsonl` file.
    ///
    /// # Errors
    ///
    /// As [`parse`](Self::parse), plus I/O failures.
    pub fn load(path: impl AsRef<Path>) -> Result<EventLog, EventLogError> {
        Self::parse(&std::fs::read_to_string(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hash_hex, CampaignCounters, OutcomeTallies, Recorder, StopVerdict};
    use alfi_metrics::Registry;
    use std::collections::BTreeMap;

    fn meta() -> RunMeta {
        RunMeta {
            campaign: "classification".into(),
            model: "alexnet".into(),
            scenario_hash: hash_hex(b"demo"),
            seed: 42,
            threads: 4,
        }
    }

    #[test]
    fn write_read_round_trip() {
        let rec = Recorder::new();
        let counters = CampaignCounters::new(Registry::new());
        rec.set_counters(counters.clone());
        rec.set_meta(meta());
        rec.begin_items(3);
        let events = vec![
            InjectionEvent { image_id: 0, layer: 2, bit: Some(30), original: 1.5, corrupted: -3.0e12 },
            InjectionEvent { image_id: 1, layer: 2, bit: Some(7), original: -0.25, corrupted: 0.125 },
            InjectionEvent { image_id: 2, layer: 5, bit: None, original: 0.0, corrupted: f32::MAX },
        ];
        for ev in &events {
            rec.record_injection(*ev);
        }
        counters.scope_merged(3, OutcomeTallies { masked: 1, sdc: 0, due: 1 }, (4, 1));

        let log = EventLog::parse(&rec.events_jsonl()).unwrap();
        assert_eq!(log.header.format, EVENT_FORMAT_VERSION);
        assert_eq!(log.header.meta, Some(meta()));
        assert_eq!(log.injections, events);
        let summary = log.summary.expect("log has a summary");
        assert_eq!(summary, rec.summary().counts, "the log's summary is the recorder's counts");
        assert_eq!(summary.items, 3);
        assert_eq!(summary.injections, 3);
        assert_eq!(summary.per_layer, BTreeMap::from([(2, 2), (5, 1)]));
        assert_eq!(summary.per_bit, BTreeMap::from([(7, 1), (30, 1)]));
        assert_eq!(summary.outcomes, OutcomeTallies { masked: 1, sdc: 0, due: 1 });
        assert_eq!((summary.nan, summary.inf), (4, 1));
    }

    #[test]
    fn non_finite_injected_values_read_back_as_nan() {
        let rec = Recorder::new();
        rec.set_meta(meta());
        let values = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        for (i, &v) in values.iter().enumerate() {
            rec.record_injection(InjectionEvent {
                image_id: i as u64,
                layer: 1,
                bit: Some(30),
                original: 1.5,
                corrupted: v,
            });
        }
        rec.record_injection(InjectionEvent {
            image_id: 3,
            layer: 2,
            bit: None,
            original: f32::INFINITY,
            corrupted: -2.0,
        });
        let text = rec.events_jsonl();
        let nulls = |key: &str| text.matches(&format!("\"{key}\":null")).count();
        assert_eq!((nulls("original"), nulls("corrupted")), (1, 3), "{text}");
        let log = EventLog::parse(&text).unwrap();
        assert_eq!(log.injections.len(), 4);
        for ev in &log.injections[..3] {
            assert_eq!((ev.layer, ev.bit, ev.original), (1, Some(30), 1.5));
            assert!(ev.corrupted.is_nan(), "{ev:?}");
        }
        let last = log.injections[3];
        assert!(last.original.is_nan(), "{last:?}");
        assert_eq!((last.image_id, last.bit, last.corrupted), (3, None, -2.0));
        let err = EventLog::parse(&text.replacen("\"corrupted\":null", "\"corrupted\":\"inf\"", 1))
            .unwrap_err();
        assert!(err.to_string().contains("not a number"), "{err}");
    }

    #[test]
    fn file_round_trip_via_load() {
        let rec = Recorder::new();
        rec.set_meta(meta());
        rec.record_injection(InjectionEvent {
            image_id: 7,
            layer: 1,
            bit: Some(3),
            original: 2.0,
            corrupted: 8.0,
        });
        let dir = std::env::temp_dir().join("alfi_trace_reader_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(crate::EVENTS_FILE);
        rec.write_events(&path).unwrap();
        let log = EventLog::load(&path).unwrap();
        assert_eq!(log.injections.len(), 1);
        assert_eq!(log.injections[0].image_id, 7);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stop_records_round_trip() {
        let rec = Recorder::new();
        rec.set_meta(meta());
        let stops = vec![
            StopEvent {
                verdict: StopVerdict::RetireStratum,
                stratum: Some(3),
                scope_index: 16,
                samples: 16,
                sdc: 5,
                due: 1,
                sdc_ci: (0.125, 0.55),
                due_ci: (0.0, 0.28),
                half_width: 0.2125,
            },
            StopEvent {
                verdict: StopVerdict::StopCampaign,
                stratum: None,
                scope_index: 32,
                samples: 32,
                sdc: 9,
                due: 3,
                sdc_ci: (0.15, 0.46),
                due_ci: (0.02, 0.24),
                half_width: 0.155,
            },
        ];
        for ev in &stops {
            rec.record_stop(*ev);
        }
        let log = EventLog::parse(&rec.events_jsonl()).unwrap();
        assert_eq!(log.stops, stops);

        let err = EventLog::parse(
            "{\"event\":\"header\",\"format\":1}\n{\"event\":\"stop\",\"verdict\":\"maybe\"}\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("verdict"), "{err}");
    }

    #[test]
    fn headerless_meta_parses_as_none() {
        let rec = Recorder::new();
        let log = EventLog::parse(&rec.events_jsonl()).unwrap();
        assert_eq!(log.header.meta, None);
        assert!(log.injections.is_empty());
        assert!(log.summary.is_some());
    }

    #[test]
    fn malformed_logs_are_rejected_with_line_numbers() {
        let err = EventLog::parse("{\"event\":\"injection\"}\n").unwrap_err();
        assert!(matches!(err, EventLogError::Record { line: 1, .. }), "{err}");

        let err = EventLog::parse("not json\n").unwrap_err();
        assert!(matches!(err, EventLogError::Json { line: 1, .. }), "{err}");

        let good = Recorder::new();
        good.set_meta(meta());
        let mut log = good.events_jsonl();
        log.push_str("{\"event\":\"mystery\"}\n");
        let err = EventLog::parse(&log).unwrap_err();
        assert!(matches!(err, EventLogError::Record { .. }), "{err}");
        assert!(err.to_string().contains("mystery"), "{err}");

        let summary = good.events_jsonl().replace("\"items\":0", "\"items\":-1");
        let err = EventLog::parse(&summary).unwrap_err();
        assert!(matches!(err, EventLogError::Record { line: 2, .. }), "{err}");
        assert!(err.to_string().contains("summary record"), "{err}");
    }

    #[test]
    fn misplaced_records_and_out_of_range_fields_name_their_line() {
        let header = "{\"event\":\"header\",\"format\":1}";
        let summary = "{\"event\":\"summary\",\"items\":0,\"injections\":0,\"per_layer\":{},\
                       \"per_bit\":{},\"outcomes\":{\"masked\":0,\"sdc\":0,\"due\":0},\
                       \"nan\":0,\"inf\":0}";
        let injection = |bit: &str| {
            format!(
                "{{\"event\":\"injection\",\"image_id\":0,\"layer\":1,\"bit\":{bit},\
                 \"original\":1.0,\"corrupted\":2.0}}"
            )
        };
        let stop = |stratum: &str, sdc_ci: &str, due_ci: &str| {
            format!(
                "{{\"event\":\"stop\",\"verdict\":\"retire\",\"stratum\":{stratum},\
                 \"scope_index\":16,\"samples\":16,\"sdc\":1,\"due\":0,\"sdc_ci\":{sdc_ci},\
                 \"due_ci\":{due_ci},\"half_width\":0.1}}"
            )
        };
        let (h, s, ci) = (header, summary, "[0.0,0.2]");
        let (inj, good_stop) = (injection("3"), stop("2", ci, ci));
        EventLog::parse(&[h, &inj, &good_stop, s].join("\n")).unwrap();
        let (bit_256, stratum_neg) = (injection("256"), stop("-1", ci, ci));
        let (one_bound, three_bounds) = (stop("2", "[0.0]", ci), stop("2", ci, "[0.0,0.1,0.2]"));
        // (log lines, line the error must name, word its message must hold)
        let cases: [(&[&str], usize, &str); 10] = [
            (&[h, h], 2, "header"),
            (&[s, h], 2, "header"),
            (&[&good_stop, h], 1, "stop"),
            (&[h, s, &inj], 3, "injection"),
            (&[h, s, &good_stop], 3, "stop"),
            (&[h, s, s], 3, "summary"),
            (&[h, &bit_256], 2, "bit"),
            (&[h, &stratum_neg], 2, "stratum"),
            (&[h, &one_bound], 2, "sdc_ci"),
            (&[h, &three_bounds], 2, "due_ci"),
        ];
        for (lines, at, named) in cases {
            let err = EventLog::parse(&lines.join("\n")).unwrap_err();
            let named_line = matches!(err, EventLogError::Record { line, .. } if line == at);
            assert!(named_line, "{lines:?}: {err}");
            assert!(err.to_string().contains(named), "{lines:?}: {err}");
        }
    }

    #[test]
    fn future_format_versions_are_rejected() {
        let err = EventLog::parse("{\"event\":\"header\",\"format\":999}\n").unwrap_err();
        assert!(matches!(err, EventLogError::Version { found: 999 }), "{err}");
    }

    #[test]
    fn empty_log_has_no_header() {
        let err = EventLog::parse("").unwrap_err();
        assert!(err.to_string().contains("no header"), "{err}");
    }
}
