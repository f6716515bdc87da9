//! The bench-regression gate: parse checked-in `BENCH_*.json` baselines and
//! compare freshly measured throughput against them.
//!
//! The workspace is offline (no serde), so this module carries a minimal
//! recursive-descent JSON parser — just enough for the baseline files the
//! repo checks in — plus the `summary` lookup and ratio check the
//! `benchgate` binary drives in CI. Which `summary` key gates which
//! workload is a column of [`crate::workloads`]. A measurement passes when
//! it reaches at least `min_ratio` of its baseline (the CI default, 0.7,
//! fails a >30% throughput regression).

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`; baseline magnitudes fit easily).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object. `BTreeMap` keeps lookups simple; baseline files never
    /// rely on duplicate keys.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.get(key),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Why a baseline file could not be used.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GateError {
    /// The file is not valid JSON.
    Parse {
        /// Byte offset of the failure.
        offset: usize,
        /// What went wrong.
        message: String,
    },
    /// The JSON parsed but a required field is missing or mistyped.
    Schema {
        /// A dotted path describing the missing field.
        field: String,
    },
    /// The `benchmark` field names a benchmark no workload row measures.
    UnknownBenchmark {
        /// The offending name.
        name: String,
    },
    /// A gated baseline is zero, negative or not a number.
    NotPositive {
        /// A dotted path to the offending field.
        field: String,
    },
}

impl core::fmt::Display for GateError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GateError::Parse { offset, message } => {
                write!(f, "invalid JSON at byte {offset}: {message}")
            }
            GateError::Schema { field } => {
                write!(f, "baseline is missing required field {field:?}")
            }
            GateError::UnknownBenchmark { name } => {
                write!(f, "no workload measures benchmark {name:?}")
            }
            GateError::NotPositive { field } => {
                write!(f, "baseline field {field:?} is not a positive number")
            }
        }
    }
}

impl std::error::Error for GateError {}

/// Parses a JSON document (the subset the baseline files use: objects,
/// arrays, strings with `\"`-style escapes, numbers, booleans, null).
pub fn parse_json(text: &str) -> Result<Json, GateError> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_whitespace(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(GateError::Parse {
            offset: pos,
            message: "trailing characters after the document".into(),
        });
    }
    Ok(value)
}

fn skip_whitespace(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), GateError> {
    if *pos < bytes.len() && bytes[*pos] == byte {
        *pos += 1;
        Ok(())
    } else {
        Err(GateError::Parse {
            offset: *pos,
            message: format!("expected {:?}", byte as char),
        })
    }
}

/// Decodes the four hex digits of a `\uXXXX` escape whose `u` is at `*pos`,
/// leaving `*pos` on the last digit (the caller's loop advances past it).
fn hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, GateError> {
    let hex = bytes.get(*pos + 1..*pos + 5).ok_or(GateError::Parse {
        offset: *pos,
        message: "truncated \\u escape".into(),
    })?;
    if !hex.iter().all(u8::is_ascii_hexdigit) {
        return Err(GateError::Parse {
            offset: *pos,
            message: "invalid \\u escape".into(),
        });
    }
    let code = u32::from_str_radix(std::str::from_utf8(hex).expect("hex digits are ASCII"), 16)
        .expect("four hex digits fit in u32");
    *pos += 4;
    Ok(code)
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, GateError> {
    skip_whitespace(bytes, pos);
    match bytes.get(*pos) {
        None => Err(GateError::Parse {
            offset: *pos,
            message: "unexpected end of input".into(),
        }),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::String(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Json,
) -> Result<Json, GateError> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(GateError::Parse {
            offset: *pos,
            message: format!("expected {literal:?}"),
        })
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, GateError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii number characters");
    text.parse::<f64>()
        .map(Json::Number)
        .map_err(|_| GateError::Parse {
            offset: start,
            message: format!("invalid number {text:?}"),
        })
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, GateError> {
    expect(bytes, pos, b'"')?;
    let mut out = Vec::new();
    while *pos < bytes.len() {
        match bytes[*pos] {
            b'"' => {
                *pos += 1;
                return String::from_utf8(out).map_err(|_| GateError::Parse {
                    offset: *pos,
                    message: "invalid UTF-8 in string".into(),
                });
            }
            b'\\' => {
                *pos += 1;
                let escaped = bytes.get(*pos).ok_or(GateError::Parse {
                    offset: *pos,
                    message: "unterminated escape".into(),
                })?;
                match escaped {
                    b'"' | b'\\' | b'/' => out.push(*escaped),
                    b'n' => out.push(b'\n'),
                    b't' => out.push(b'\t'),
                    b'r' => out.push(b'\r'),
                    b'u' => {
                        let first = hex4(bytes, pos)?;
                        let code = match first {
                            0xD800..=0xDBFF => {
                                // A high surrogate encodes an astral code
                                // point together with an immediately
                                // following escaped low surrogate.
                                if bytes.get(*pos + 1) != Some(&b'\\')
                                    || bytes.get(*pos + 2) != Some(&b'u')
                                {
                                    return Err(GateError::Parse {
                                        offset: *pos,
                                        message: "lone high surrogate in \\u escape".into(),
                                    });
                                }
                                *pos += 2;
                                let second = hex4(bytes, pos)?;
                                if !(0xDC00..=0xDFFF).contains(&second) {
                                    return Err(GateError::Parse {
                                        offset: *pos,
                                        message: format!(
                                            "high surrogate {first:04x} followed by \
                                             non-surrogate {second:04x}"
                                        ),
                                    });
                                }
                                0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
                            }
                            0xDC00..=0xDFFF => {
                                return Err(GateError::Parse {
                                    offset: *pos,
                                    message: "lone low surrogate in \\u escape".into(),
                                });
                            }
                            code => code,
                        };
                        let ch = char::from_u32(code).ok_or(GateError::Parse {
                            offset: *pos,
                            message: "non-scalar \\u escape".into(),
                        })?;
                        let mut buffer = [0u8; 4];
                        out.extend_from_slice(ch.encode_utf8(&mut buffer).as_bytes());
                    }
                    other => {
                        return Err(GateError::Parse {
                            offset: *pos,
                            message: format!("unsupported escape \\{}", *other as char),
                        });
                    }
                }
                *pos += 1;
            }
            _ => {
                out.push(bytes[*pos]);
                *pos += 1;
            }
        }
    }
    Err(GateError::Parse {
        offset: *pos,
        message: "unterminated string".into(),
    })
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, GateError> {
    expect(bytes, pos, b'{')?;
    let mut members = BTreeMap::new();
    skip_whitespace(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(members));
    }
    loop {
        skip_whitespace(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_whitespace(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        members.insert(key, value);
        skip_whitespace(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(members));
            }
            _ => {
                return Err(GateError::Parse {
                    offset: *pos,
                    message: "expected ',' or '}' in object".into(),
                });
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, GateError> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_whitespace(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_whitespace(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            _ => {
                return Err(GateError::Parse {
                    offset: *pos,
                    message: "expected ',' or ']' in array".into(),
                });
            }
        }
    }
}

/// One gated figure a baseline file records. Units vary by benchmark
/// (elements/s, trials/s, moves/s); the gate only ever compares a
/// measurement against its own baseline, so the unit never crosses metrics.
#[derive(Clone, Debug, PartialEq)]
pub struct BaselineMetric {
    /// Which benchmark family the metric belongs to (the file's `benchmark`
    /// field).
    pub benchmark: String,
    /// The file's `summary` key that records the metric (e.g.
    /// `"moves_per_second"`).
    pub metric: String,
    /// The baseline throughput (higher is better).
    pub throughput: f64,
}

/// The gated figure a baseline file of `benchmark` records under
/// `summary.<key>`. It must be a positive number: a zero or negative
/// baseline would let every measurement pass.
///
/// # Errors
///
/// [`GateError::Schema`] when the key is absent and
/// [`GateError::NotPositive`] when its value is not a positive number.
pub(crate) fn summary_baseline(
    file: &Json,
    benchmark: &str,
    key: &str,
) -> Result<BaselineMetric, GateError> {
    let field = format!("summary.{key}");
    let value = file
        .get("summary")
        .and_then(|summary| summary.get(key))
        .ok_or_else(|| GateError::Schema {
            field: field.clone(),
        })?;
    let throughput = value
        .as_f64()
        .filter(|number| *number > 0.0 && number.is_finite())
        .ok_or(GateError::NotPositive { field })?;
    Ok(BaselineMetric {
        benchmark: benchmark.into(),
        metric: key.into(),
        throughput,
    })
}

/// The verdict on one gated metric.
#[derive(Clone, Debug, PartialEq)]
pub struct GateCheck {
    /// The metric that was checked.
    pub baseline: BaselineMetric,
    /// The freshly measured throughput, in the baseline's unit.
    pub measured: f64,
    /// `measured / baseline` (1.0 = exactly at baseline).
    pub ratio: f64,
    /// Whether the measurement clears `min_ratio × baseline`.
    pub pass: bool,
}

/// Compares a measurement against its baseline: pass when the baseline is
/// positive and `measured` is at least `min_ratio` of it.
pub fn check(baseline: BaselineMetric, measured: f64, min_ratio: f64) -> GateCheck {
    let ratio = measured / baseline.throughput;
    GateCheck {
        pass: baseline.throughput > 0.0 && ratio >= min_ratio,
        baseline,
        measured,
        ratio,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_arrays_and_nesting() {
        let doc = r#"{"a": 1.5, "b": [true, false, null, "x\n\"y\""], "c": {"d": -2e3}}"#;
        let json = parse_json(doc).unwrap();
        assert_eq!(json.get("a").unwrap().as_f64(), Some(1.5));
        let items = json.get("b").unwrap().as_array().unwrap();
        assert_eq!(items[0], Json::Bool(true));
        assert_eq!(items[2], Json::Null);
        assert_eq!(items[3].as_str(), Some("x\n\"y\""));
        assert_eq!(
            json.get("c").unwrap().get("d").unwrap().as_f64(),
            Some(-2000.0)
        );
    }

    #[test]
    fn unicode_escapes_decode_to_utf8() {
        // BMP escapes: µ (two UTF-8 bytes) and ✓ (three).
        let doc = r#"{"unit": "\u00b5s", "mark": "\u2713"}"#;
        let json = parse_json(doc).unwrap();
        assert_eq!(json.get("unit").unwrap().as_str(), Some("µs"));
        assert_eq!(json.get("mark").unwrap().as_str(), Some("✓"));
        // Astral code points arrive as surrogate pairs (RFC 8259 §7).
        let doc = r#"{"emoji": "\ud83d\ude00"}"#;
        let json = parse_json(doc).unwrap();
        assert_eq!(json.get("emoji").unwrap().as_str(), Some("😀"));
        // Escaped and raw spellings agree.
        let json = parse_json(r#"{"raw": "µ✓😀", "esc": "\u00b5\u2713\ud83d\ude00"}"#).unwrap();
        assert_eq!(json.get("raw"), json.get("esc"));
    }

    #[test]
    fn lone_surrogates_are_parse_errors() {
        for bad in [
            r#"{"s": "\ud800"}"#,  // lone high surrogate
            r#"{"s": "\ud800x"}"#, // high surrogate, no second escape
            r#"{"s": "\ud800A"}"#, // high surrogate + non-surrogate
            r#"{"s": "\udc00"}"#,  // lone low surrogate
            r#"{"s": "\uzzzz"}"#,  // non-hex digits
            r#"{"s": "\ud8"}"#,    // truncated
        ] {
            assert!(
                matches!(parse_json(bad), Err(GateError::Parse { .. })),
                "{bad}"
            );
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "{\"a\":1} trailing",
            "\"open",
        ] {
            assert!(
                matches!(parse_json(bad), Err(GateError::Parse { .. })),
                "{bad}"
            );
        }
    }

    #[test]
    fn ratio_check_applies_the_threshold() {
        let metric = BaselineMetric {
            benchmark: "optim_throughput".into(),
            metric: "moves_per_s".into(),
            throughput: 1000.0,
        };
        assert!(check(metric.clone(), 900.0, 0.7).pass);
        assert!(check(metric.clone(), 700.0, 0.7).pass);
        let fail = check(metric, 699.0, 0.7);
        assert!(!fail.pass);
        assert!((fail.ratio - 0.699).abs() < 1e-9);
    }

    #[test]
    fn a_non_positive_baseline_never_passes() {
        for throughput in [0.0, -5.0] {
            let metric = BaselineMetric {
                benchmark: "optim_throughput".into(),
                metric: "moves_per_second".into(),
                throughput,
            };
            assert!(!check(metric, 1e9, 0.7).pass, "{throughput}");
        }
    }
}
