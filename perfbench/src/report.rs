//! Result shapes: a minimal JSON writer, latency summaries, and the
//! process readings (peak RSS, host) every result carries.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value, enough for the result and descriptor objects.
#[derive(Debug, Clone)]
pub enum Json {
    Bool(bool),
    Int(i64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            // Rust's shortest round-trip form keeps every digit measured.
            Json::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v:?}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Named metrics with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        debug_assert!(
            self.entries.iter().all(|(n, _, _)| *n != name),
            "metric {name} set twice"
        );
        self.entries.push((name, value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, v, _)| *v)
    }

    pub fn to_json(&self) -> Json {
        Json::obj(self.entries.iter().map(|(name, value, unit)| {
            (
                *name,
                Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
            )
        }))
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `values`, with the number of
/// samples strictly above the returned rank.
pub fn percentile(values: &[f64], p: f64) -> (f64, usize) {
    if values.is_empty() {
        return (f64::NAN, 0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    (v[rank - 1], n - rank)
}

/// Fields of `/proc/self/status` in kB (`VmHWM`, `VmRSS`).
pub fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.trim().trim_end_matches("kB").trim().parse().ok()
    })
}

/// Host CPU counters from `/proc`: this process's CPU time and the whole
/// machine's steal time, in clock ticks. Their deltas over a phase tell a
/// slow run caused by the host (steal, contention) from one caused by the
/// code.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    pub process: u64,
    pub steal: u64,
    pub total: u64,
}

impl CpuTicks {
    pub fn now() -> Self {
        let process = std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| {
                // Fields after the parenthesized command name start at
                // field 3 (state); utime and stime are fields 14 and 15.
                let f: Vec<&str> = s.rsplit_once(')')?.1.split_whitespace().collect();
                Some(f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?)
            })
            .unwrap_or(0);
        let (steal, total) = std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| {
                let line = s.lines().next()?;
                let f: Vec<u64> = line
                    .split_whitespace()
                    .skip(1)
                    .filter_map(|x| x.parse().ok())
                    .collect();
                Some((*f.get(7)?, f.iter().sum()))
            })
            .unwrap_or((0, 0));
        Self {
            process,
            steal,
            total,
        }
    }

    /// Clock ticks per second (`USER_HZ`).
    pub const PER_SECOND: f64 = 100.0;
}

/// Latency samples of one operation kind, in milliseconds, each tagged
/// with the serving window it ran in (or, for set-up samples, the window
/// it ran just before).
#[derive(Debug, Default)]
pub struct Latencies {
    pub ms: Vec<f64>,
    windows: Vec<usize>,
}

impl Latencies {
    pub fn push_ns(&mut self, ns: u64, window: usize) {
        self.ms.push(ns as f64 / 1e6);
        self.windows.push(window);
    }

    pub fn append(&mut self, other: Latencies) {
        self.ms.extend(other.ms);
        self.windows.extend(other.windows);
    }

    /// The samples of the windows `keep` marks (windows past its end are
    /// kept).
    pub fn kept(&self, keep: &[bool]) -> Vec<f64> {
        self.ms
            .iter()
            .zip(&self.windows)
            .filter(|(_, &w)| keep.get(w).copied().unwrap_or(true))
            .map(|(&v, _)| v)
            .collect()
    }

    pub fn median(&self, keep: &[bool]) -> f64 {
        median(&self.kept(keep))
    }

    pub fn summary(&self, keep: &[bool]) -> Json {
        let kept = self.kept(keep);
        let (p90, _) = percentile(&kept, 90.0);
        let (p99, _) = percentile(&kept, 99.0);
        Json::obj([
            ("samples", Json::Int(self.ms.len() as i64)),
            ("samples_kept", Json::Int(kept.len() as i64)),
            ("p50", Json::Num(median(&kept))),
            ("p90", Json::Num(p90)),
            ("p99", Json::Num(p99)),
        ])
    }
}

/// Counters keyed by name, for the repeatability check: every served
/// batch records its counters under the batch's pool index; a counter
/// "repeats" when every serving of the same batch read the same value.
#[derive(Debug, Default)]
pub struct Repeats {
    seen: BTreeMap<(&'static str, usize), u64>,
    differs: BTreeMap<&'static str, bool>,
}

impl Repeats {
    pub fn record(&mut self, name: &'static str, batch: usize, value: u64) {
        let differs = self.differs.entry(name).or_insert(false);
        match self.seen.get(&(name, batch)) {
            Some(&prev) if prev != value => *differs = true,
            Some(_) => {}
            None => {
                self.seen.insert((name, batch), value);
            }
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj(
            self.differs
                .iter()
                .map(|(name, differs)| (*name, Json::Bool(!differs))),
        )
    }
}
