//! The generalized Chrome Trace Event writer.
//!
//! Both simulator timelines (`amped-sim`) and search-worker spans render
//! through this one writer, so a single `--trace-out` file opens in
//! `chrome://tracing` / Perfetto regardless of which subsystem produced
//! it. Unlike the original `amped-sim` writer this one escapes label
//! strings properly, so labels containing quotes or backslashes cannot
//! corrupt the JSON.

/// One complete (`"ph": "X"`) Chrome Trace Event.
///
/// Timestamps and durations are microseconds, as the format requires.
/// `pid`/`tid` select the Perfetto track: the simulator maps pipeline
/// stages to `pid` and devices to `tid`; observer spans map the thread
/// that recorded them to `tid` under a single `pid` (a search runs on its
/// caller's thread, so its spans share one track).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event label shown on the slice.
    pub name: String,
    /// Category (`compute`, `comm`, `ckpt`, `recompute`, `phase`, …).
    pub cat: String,
    /// Start timestamp in microseconds.
    pub ts_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Process id (top-level Perfetto grouping).
    pub pid: u64,
    /// Thread id (track within the process group).
    pub tid: u64,
}

/// Escape a string for embedding inside a JSON string literal.
///
/// Handles quotes, backslashes, and control characters; everything else
/// passes through verbatim (the output is UTF-8 JSON, no `\u` escaping of
/// non-ASCII is needed).
///
/// # Example
///
/// ```
/// assert_eq!(amped_obs::escape_json("a\"b\\c"), "a\\\"b\\\\c");
/// ```
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Format a float as a JSON number (non-finite values degrade to `0`,
/// which JSON cannot represent directly).
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        String::from("0")
    }
}

/// Serialize events as a Chrome Trace Event JSON array.
///
/// # Example
///
/// ```
/// use amped_obs::{chrome_trace, TraceEvent};
/// let events = vec![TraceEvent {
///     name: "fwd".into(), cat: "compute".into(),
///     ts_us: 0.0, dur_us: 10.0, pid: 0, tid: 1,
/// }];
/// let json = chrome_trace(&events);
/// assert!(json.contains("\"ph\":\"X\""));
/// ```
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    let mut out = String::from("[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{}}}",
            escape_json(&e.name),
            escape_json(&e.cat),
            json_f64(e.ts_us),
            json_f64(e.dur_us),
            e.pid,
            e.tid
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(name: &str) -> TraceEvent {
        TraceEvent {
            name: name.into(),
            cat: "compute".into(),
            ts_us: 1.5,
            dur_us: 2.5,
            pid: 3,
            tid: 4,
        }
    }

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        assert_eq!(escape_json(r#"say "hi""#), r#"say \"hi\""#);
        assert_eq!(escape_json(r"a\b"), r"a\\b");
        assert_eq!(escape_json("x\ny\t"), "x\\ny\\t");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
        assert_eq!(escape_json("plain"), "plain");
    }

    #[test]
    fn hostile_labels_still_produce_valid_json() {
        let json = chrome_trace(&[event("he said \"hi\" \\ bye")]);
        let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let arr = v.as_array().unwrap();
        assert_eq!(arr[0]["name"], "he said \"hi\" \\ bye");
        assert_eq!(arr[0]["pid"], 3);
        assert_eq!(arr[0]["tid"], 4);
    }

    #[test]
    fn empty_event_list_is_empty_array() {
        assert_eq!(chrome_trace(&[]), "[]");
    }

    #[test]
    fn non_finite_timestamps_degrade_to_zero() {
        let mut e = event("x");
        e.ts_us = f64::NAN;
        e.dur_us = f64::INFINITY;
        let json = chrome_trace(&[e]);
        let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(v[0]["ts"].as_f64().unwrap(), 0.0);
        assert_eq!(v[0]["dur"].as_f64().unwrap(), 0.0);
    }
}
