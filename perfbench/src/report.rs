//! The report a workload process prints as its last stdout line: a small
//! JSON value type (the benchmark has no serde), plus the correctness
//! checks and process-level measurements every workload shares.

use std::fmt;
use std::time::Instant;

/// A JSON value. Objects keep insertion order so reports diff cleanly.
#[derive(Debug, Clone)]
pub enum J {
    Num(f64),
    Int(i64),
    Bool(bool),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl From<f64> for J {
    fn from(x: f64) -> J {
        J::Num(x)
    }
}
impl From<u64> for J {
    fn from(x: u64) -> J {
        J::Int(i64::try_from(x).expect("counter fits in i64"))
    }
}
impl From<usize> for J {
    fn from(x: usize) -> J {
        J::Int(i64::try_from(x).expect("counter fits in i64"))
    }
}
impl From<bool> for J {
    fn from(x: bool) -> J {
        J::Bool(x)
    }
}
impl From<&str> for J {
    fn from(x: &str) -> J {
        J::Str(x.to_string())
    }
}
impl From<String> for J {
    fn from(x: String) -> J {
        J::Str(x)
    }
}
impl From<Obj> for J {
    fn from(x: Obj) -> J {
        J::Obj(x.0)
    }
}

/// Builder for a JSON object.
#[derive(Debug, Clone, Default)]
pub struct Obj(pub Vec<(String, J)>);

impl Obj {
    pub fn new() -> Obj {
        Obj::default()
    }

    pub fn set(&mut self, key: &str, value: impl Into<J>) -> &mut Obj {
        self.0.push((key.to_string(), value.into()));
        self
    }

    pub fn with(mut self, key: &str, value: impl Into<J>) -> Obj {
        self.set(key, value);
        self
    }

    /// The numeric field `key`, if present.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| match v {
                J::Num(x) => Some(*x),
                J::Int(i) => Some(*i as f64),
                _ => None,
            })
    }
}

impl fmt::Display for Obj {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        J::Obj(self.0.clone()).fmt(f)
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for J {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // `{:?}` is the shortest representation that parses back to
            // the same bits, so goldens compare exactly.
            J::Num(x) if x.is_finite() => write!(f, "{x:?}"),
            J::Num(x) => write_str(f, &format!("{x}")),
            J::Int(i) => write!(f, "{i}"),
            J::Bool(b) => write!(f, "{b}"),
            J::Str(s) => write_str(f, s),
            J::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            J::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_str(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Correctness checks of one process, one entry per name: a check made
/// again (once per repeated row) keeps its first failure. A failed check
/// fails the run.
#[derive(Debug, Default)]
pub struct Checks(Vec<(String, bool, String)>);

impl Checks {
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        match self.0.iter_mut().find(|(n, _, _)| n == name) {
            Some(entry) if entry.1 && !ok => *entry = (name.to_string(), ok, detail.into()),
            Some(_) => {}
            None => self.0.push((name.to_string(), ok, detail.into())),
        }
    }

    pub fn to_json(&self) -> J {
        J::Arr(
            self.0
                .iter()
                .map(|(n, ok, d)| {
                    Obj::new()
                        .with("name", n.as_str())
                        .with("ok", *ok)
                        .with("detail", d.as_str())
                        .into()
                })
                .collect(),
        )
    }
}

/// FNV-1a over the bit patterns of `values`: a bit-exact fingerprint of a
/// final state, printed as hex so goldens are compact.
pub fn checksum(values: &[f64]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Mean of `total` over `n` (0 when `n` is 0).
pub fn mean(total: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}
