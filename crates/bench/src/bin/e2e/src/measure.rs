//! The measurement helpers: percentiles, medians, `/proc` parsers, the
//! JSON writer and the self-time arithmetic. They live here, not in the
//! workspace bench crate, so the benchmark's definitions cannot drift
//! when that crate changes.

use std::fmt::Write as _;

/// Linux `USER_HZ`: the unit of the CPU times in `/proc/self/stat`. It
/// is 100 on every mainstream architecture.
pub const CLOCK_TICKS_PER_S: f64 = 100.0;

/// The `p`-th percentile (`0 < p <= 1`) by the ceil-index convention:
/// the smallest sample with at least `p` of the sample at or below it.
/// The same convention as `sero_bench::percentile_ns`.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(samples: &[u64], p: f64) -> u64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let idx = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// The median of `values` (mean of the middle pair for an even count),
/// or 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// User plus system CPU time, in clock ticks, from the text of
/// `/proc/self/stat`. The command name (field 2) may hold spaces and
/// parentheses, so fields are counted from its closing `)`: `utime` and
/// `stime` are fields 14 and 15 of the line.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size (`VmHWM`) in KiB from the text of
/// `/proc/self/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut words = line["VmHWM:".len()..].split_whitespace();
    let kib = words.next()?.parse().ok()?;
    (words.next()? == "kB").then_some(kib)
}

/// This process's CPU time so far, in clock ticks.
pub fn process_cpu_ticks() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .as_deref()
        .and_then(parse_cpu_ticks)
        .expect("/proc/self/stat carries utime and stime")
}

/// This process's peak resident set size, in MiB.
pub fn peak_rss_mib() -> f64 {
    let kib = std::fs::read_to_string("/proc/self/status")
        .ok()
        .as_deref()
        .and_then(parse_vm_hwm_kib)
        .expect("/proc/self/status carries VmHWM");
    kib as f64 / 1024.0
}

/// A JSON value, rendered by [`Json::render`].
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, to be filled with [`Json::set`].
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends `key: value` to an object.
    ///
    /// # Panics
    ///
    /// Panics when `self` is not an object.
    pub fn set(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("set on a non-object {other:?}"),
        }
        self
    }

    /// Compact rendering on one line. Floats print with every digit Rust
    /// needs to round-trip them; a non-finite float renders as `null`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x:?}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, key);
                    out.push(':');
                    value.write(out);
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
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Int(n)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What one run reports.
pub struct Report {
    /// The metrics of the result object.
    pub metrics: Vec<Metric>,
    /// Printed as lines only.
    pub extra: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub problem: Option<String>,
}

impl Report {
    /// Prints every metric as `name value unit`, then the result object
    /// as the last line.
    pub fn print(&self) {
        for m in self.metrics.iter().chain(&self.extra) {
            println!("{} {} {}", m.name, m.value, m.unit);
        }
        if let Some(problem) = &self.problem {
            eprintln!("first problem: {problem}");
        }
        let metrics = self.metrics.iter().fold(Json::obj(), |obj, m| {
            obj.set(
                m.name,
                Json::obj().set("value", m.value).set("unit", m.unit),
            )
        });
        let result = Json::obj()
            .set("correct", self.correct)
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("metrics", metrics);
        println!("{}", result.render());
    }
}

/// Host cost of one call of each sector primitive, in µs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PrimitiveCosts {
    pub mrs_us: f64,
    pub mws_us: f64,
    pub ers_us: f64,
    pub ews_us: f64,
}

/// Calls of each sector primitive per request.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PrimitiveCounts {
    pub mrs: f64,
    pub mws: f64,
    pub ers: f64,
    pub ews: f64,
}

/// What the self-time arithmetic starts from, all per request.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTimeInputs {
    pub counts: PrimitiveCounts,
    pub costs: PrimitiveCosts,
    /// SHA-256 input bytes per request.
    pub bytes_hashed: f64,
    /// SHA-256 throughput in MiB/s.
    pub sha256_mib_per_s: f64,
    /// In-process `handle_batch` time per request, µs.
    pub batch_us: f64,
    /// Frame and payload encode plus decode per request, µs.
    pub proto_us: f64,
    /// Served wall time per request (inverse throughput), µs.
    pub wire_us: f64,
}

/// The derived per-layer self times, µs per request.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTimes {
    /// Σ over the sector primitives of calls × host cost per call.
    pub probe_attributed_us: f64,
    /// Bytes hashed at the measured SHA-256 throughput.
    pub crypto_us: f64,
    /// `handle_batch` time not explained by the probe or by hashing.
    pub fs_self_us: f64,
    /// Served wall time not explained by `handle_batch` or the codec:
    /// reactor sweeps, syscalls and idle dwell.
    pub server_self_us: f64,
}

/// Splits served time per request into layer self times. A self time
/// may come out negative when a layer's attributed cost, measured in
/// isolation, exceeds what it cost in place; it is reported as is.
pub fn self_times(inputs: &SelfTimeInputs) -> SelfTimes {
    let SelfTimeInputs {
        counts: n,
        costs: c,
        ..
    } = *inputs;
    let probe_attributed_us =
        n.mrs * c.mrs_us + n.mws * c.mws_us + n.ers * c.ers_us + n.ews * c.ews_us;
    let crypto_us = if inputs.sha256_mib_per_s > 0.0 {
        inputs.bytes_hashed / (inputs.sha256_mib_per_s * 1024.0 * 1024.0) * 1e6
    } else {
        0.0
    };
    SelfTimes {
        probe_attributed_us,
        crypto_us,
        fs_self_us: inputs.batch_us - probe_attributed_us - crypto_us,
        server_self_us: inputs.wire_us - inputs.batch_us - inputs.proto_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_the_ceil_index() {
        let sample: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sample, 0.50), 50);
        assert_eq!(percentile(&sample, 0.99), 99);
        assert_eq!(percentile(&sample, 1.0), 100);
        // 0.5 × 3 = 1.5 rounds up to the 2nd smallest.
        assert_eq!(percentile(&[30, 10, 20], 0.5), 20);
        // A tiny p still picks the smallest sample, never index -1.
        assert_eq!(percentile(&[7, 3], 0.0001), 3);
        assert_eq!(percentile(&[5], 0.99), 5);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn cpu_ticks_parse_from_a_stat_line() {
        // Field 2 holds a space and a parenthesis on purpose.
        let stat = "4242 (e2e (w) x) R 1 4242 4242 0 -1 4194304 1017 0 0 0 \
                    1234 56 0 0 20 0 2 0 98765 123456789 4567 18446744073709551615";
        assert_eq!(parse_cpu_ticks(stat), Some(1234 + 56));
        assert_eq!(parse_cpu_ticks("4242 (e2e) R 1 2"), None);
        assert_eq!(parse_cpu_ticks("no parenthesis"), None);
    }

    #[test]
    fn vm_hwm_parses_from_a_status_block() {
        let status = "Name:\te2e\nVmPeak:\t  300000 kB\nVmHWM:\t  204800 kB\nVmRSS:\t  1000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(204_800));
        assert_eq!(parse_vm_hwm_kib("Name:\te2e\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t 12 MB\n"), None);
    }

    #[test]
    fn json_renders_compact_and_escaped() {
        let doc = Json::obj()
            .set("ok", true)
            .set("n", 3u64)
            .set("x", 0.25)
            .set("nan", f64::NAN)
            .set("s", "a\"b\\c\n")
            .set("o", Json::obj().set("v", 1.5));
        assert_eq!(
            doc.render(),
            r#"{"ok":true,"n":3,"x":0.25,"nan":null,"s":"a\"b\\c\n","o":{"v":1.5}}"#
        );
        // Whole floats keep a decimal point, so they read back as floats.
        assert_eq!(Json::Num(2.0).render(), "2.0");
    }

    #[test]
    fn self_times_split_served_time_by_layer() {
        let inputs = SelfTimeInputs {
            counts: PrimitiveCounts {
                mrs: 1.0,
                mws: 0.5,
                ers: 0.0,
                ews: 0.25,
            },
            costs: PrimitiveCosts {
                mrs_us: 200.0,
                mws_us: 20.0,
                ers_us: 500.0,
                ews_us: 40.0,
            },
            bytes_hashed: 1024.0 * 1024.0,
            sha256_mib_per_s: 100.0,
            batch_us: 250.0,
            proto_us: 3.0,
            wire_us: 280.0,
        };
        let t = self_times(&inputs);
        // 1 × 200 + 0.5 × 20 + 0 × 500 + 0.25 × 40
        assert_eq!(t.probe_attributed_us, 220.0);
        // 1 MiB at 100 MiB/s is 10 ms.
        assert_eq!(t.crypto_us, 10_000.0);
        assert_eq!(t.fs_self_us, 250.0 - 220.0 - 10_000.0);
        assert_eq!(t.server_self_us, 280.0 - 250.0 - 3.0);

        let no_hash = SelfTimeInputs {
            bytes_hashed: 0.0,
            sha256_mib_per_s: 0.0,
            ..inputs
        };
        assert_eq!(self_times(&no_hash).fs_self_us, 30.0);
    }
}
