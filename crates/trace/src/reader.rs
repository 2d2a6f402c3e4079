//! Reader for the JSONL event log — the consuming half of
//! [`Recorder::events_jsonl`](crate::Recorder::events_jsonl). Turns a
//! written log back into typed records (replay header, injection
//! events, closing summary) so the artifact is an API, not a
//! write-only file.

use crate::{InjectionEvent, RunCounts, RunMeta, StopEvent, StopVerdict, EVENT_FORMAT_VERSION};
use alfi_serde::{FromJson, Json};
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

/// A parsed statistical stop decision (the reader-side name of
/// [`StopEvent`] — stop records round-trip losslessly).
pub type EventStopRecord = StopEvent;

/// A fully parsed `events.jsonl` log.
#[derive(Debug, Clone, PartialEq)]
pub struct EventLog {
    /// The replay header.
    pub header: EventHeader,
    /// Injection events in recorded (deterministic row) order.
    pub injections: Vec<InjectionEvent>,
    /// Statistical stop decisions in boundary order (empty for
    /// exhaustive campaigns).
    pub stops: Vec<EventStopRecord>,
    /// The closing summary record — the run's counts — when the log
    /// has one.
    pub summary: Option<RunCounts>,
}

fn field<'j>(obj: &'j Json, key: &str, line: usize) -> Result<&'j Json, EventLogError> {
    obj.get(key)
        .ok_or_else(|| EventLogError::Record { line, detail: format!("missing field `{key}`") })
}

fn uint(obj: &Json, key: &str, line: usize) -> Result<u64, EventLogError> {
    field(obj, key, line)?
        .as_int()
        .and_then(|v| u64::try_from(v).ok())
        .ok_or_else(|| EventLogError::Record {
            line,
            detail: format!("field `{key}` is not an unsigned integer"),
        })
}

fn float(obj: &Json, key: &str, line: usize) -> Result<f64, EventLogError> {
    field(obj, key, line)?.as_f64().ok_or_else(|| EventLogError::Record {
        line,
        detail: format!("field `{key}` is not a number"),
    })
}

fn string(obj: &Json, key: &str, line: usize) -> Result<String, EventLogError> {
    field(obj, key, line)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| EventLogError::Record { line, detail: format!("field `{key}` is not a string") })
}

fn parse_header(obj: &Json, line: usize) -> Result<EventHeader, EventLogError> {
    let format = uint(obj, "format", line)? as u32;
    if format != EVENT_FORMAT_VERSION {
        return Err(EventLogError::Version { found: format });
    }
    // Replay identity is present only when the writer had meta set; the
    // `campaign` key marks it.
    let meta = if obj.get("campaign").is_some() {
        Some(RunMeta {
            campaign: string(obj, "campaign", line)?,
            model: string(obj, "model", line)?,
            scenario_hash: string(obj, "scenario_hash", line)?,
            seed: uint(obj, "seed", line)?,
            threads: uint(obj, "threads", line)? as usize,
        })
    } else {
        None
    };
    Ok(EventHeader { format, meta })
}

fn parse_injection(obj: &Json, line: usize) -> Result<InjectionEvent, EventLogError> {
    let bit = match field(obj, "bit", line)? {
        Json::Null => None,
        v => Some(v.as_int().and_then(|b| u8::try_from(b).ok()).ok_or_else(|| {
            EventLogError::Record { line, detail: "field `bit` is not a bit position".into() }
        })?),
    };
    // The writer renders a non-finite value as `null`; read it back as
    // NaN, alfi-serde's convention for `f64`.
    let value = |key| match field(obj, key, line)? {
        Json::Null => Ok(f32::NAN),
        _ => float(obj, key, line).map(|v| v as f32),
    };
    Ok(InjectionEvent {
        image_id: uint(obj, "image_id", line)?,
        layer: uint(obj, "layer", line)? as usize,
        bit,
        original: value("original")?,
        corrupted: value("corrupted")?,
    })
}

fn parse_ci(obj: &Json, key: &str, line: usize) -> Result<(f64, f64), EventLogError> {
    let arr = field(obj, key, line)?.as_arr().ok_or_else(|| EventLogError::Record {
        line,
        detail: format!("field `{key}` is not an array"),
    })?;
    match arr {
        [lo, hi] => match (lo.as_f64(), hi.as_f64()) {
            (Some(lo), Some(hi)) => Ok((lo, hi)),
            _ => Err(EventLogError::Record {
                line,
                detail: format!("field `{key}` bounds are not numbers"),
            }),
        },
        _ => Err(EventLogError::Record {
            line,
            detail: format!("field `{key}` must have exactly two bounds"),
        }),
    }
}

fn parse_stop(obj: &Json, line: usize) -> Result<StopEvent, EventLogError> {
    let verdict = match string(obj, "verdict", line)?.as_str() {
        "stop" => StopVerdict::StopCampaign,
        "retire" => StopVerdict::RetireStratum,
        other => {
            return Err(EventLogError::Record {
                line,
                detail: format!("unknown stop verdict `{other}`"),
            })
        }
    };
    let stratum = match field(obj, "stratum", line)? {
        Json::Null => None,
        v => Some(v.as_int().and_then(|s| usize::try_from(s).ok()).ok_or_else(|| {
            EventLogError::Record { line, detail: "field `stratum` is not a layer index".into() }
        })?),
    };
    Ok(StopEvent {
        verdict,
        stratum,
        scope_index: uint(obj, "scope_index", line)?,
        samples: uint(obj, "samples", line)?,
        sdc: uint(obj, "sdc", line)?,
        due: uint(obj, "due", line)?,
        sdc_ci: parse_ci(obj, "sdc_ci", line)?,
        due_ci: parse_ci(obj, "due_ci", line)?,
        half_width: float(obj, "half_width", line)?,
    })
}

impl EventLog {
    /// Parses a full JSONL log as written by
    /// [`Recorder::events_jsonl`](crate::Recorder::events_jsonl): a
    /// header record first, then injection records in order, then an
    /// optional closing summary.
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
            let kind = string(&obj, "event", line)?;
            match kind.as_str() {
                "header" => {
                    if header.is_some() {
                        return Err(EventLogError::Record {
                            line,
                            detail: "duplicate header record".into(),
                        });
                    }
                    if !injections.is_empty() || summary.is_some() {
                        return Err(EventLogError::Record {
                            line,
                            detail: "header record is not first".into(),
                        });
                    }
                    header = Some(parse_header(&obj, line)?);
                }
                "injection" => {
                    if header.is_none() {
                        return Err(EventLogError::Record {
                            line,
                            detail: "injection record before the header".into(),
                        });
                    }
                    if summary.is_some() {
                        return Err(EventLogError::Record {
                            line,
                            detail: "injection record after the summary".into(),
                        });
                    }
                    injections.push(parse_injection(&obj, line)?);
                }
                "stop" => {
                    if header.is_none() {
                        return Err(EventLogError::Record {
                            line,
                            detail: "stop record before the header".into(),
                        });
                    }
                    if summary.is_some() {
                        return Err(EventLogError::Record {
                            line,
                            detail: "stop record after the summary".into(),
                        });
                    }
                    stops.push(parse_stop(&obj, line)?);
                }
                "summary" => {
                    if summary.is_some() {
                        return Err(EventLogError::Record {
                            line,
                            detail: "duplicate summary record".into(),
                        });
                    }
                    let counts = RunCounts::from_json(&obj).map_err(|e| EventLogError::Record {
                        line,
                        detail: format!("summary record: {e}"),
                    })?;
                    summary = Some(counts);
                }
                other => {
                    return Err(EventLogError::Record {
                        line,
                        detail: format!("unknown event kind `{other}`"),
                    });
                }
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
    use crate::{hash_hex, CampaignCounters, OutcomeTallies, Recorder};
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
