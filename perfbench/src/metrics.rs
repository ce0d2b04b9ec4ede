//! Percentiles, the failure tally, the result record and its JSON lines.

use std::collections::BTreeMap;

use crate::{Options, END_TO_END, PER_LAYER};

/// Nearest-rank percentile (`q` in `0..=1`) of unsorted values; `NaN`
/// for an empty set.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// A number as JSON (`null` when not finite).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "null".into()
    }
}

/// Median (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Arithmetic mean; `NaN` for an empty set.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Peak resident set (`VmHWM`) of this process in MB, or `NaN` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Host CPU jiffies `(total, steal)` from `/proc/stat`, where available.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    Some((fields.iter().sum(), *fields.get(7)?))
}

/// Attempted and failed operations. An operation fails on a non-200
/// answer, a transport error, a client retry or reconnect, or an answer
/// that does not match its reference.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations attempted (timed operations and end-of-run checks).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first few failure descriptions, for stderr.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Records one operation; `why` describes a failure.
    pub fn record(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(why());
            }
        }
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 8usize.saturating_sub(self.reasons.len());
        self.reasons.extend(other.reasons.into_iter().take(room));
    }
}

/// The result of one run: metrics, the failure tally, and the record of
/// what was run (seed, realized mix, sample counts, environment).
#[derive(Debug, Clone)]
pub struct Outcome {
    /// `name -> value`; units come from [`END_TO_END`] / [`PER_LAYER`].
    pub metrics: BTreeMap<String, f64>,
    /// Attempted and failed operations.
    pub tally: Tally,
    /// Extra `key -> JSON value` entries for the record line.
    pub record: BTreeMap<String, String>,
}

impl Outcome {
    /// An empty outcome stamped with the run's identity.
    pub fn new(opts: &Options) -> Outcome {
        let mut record = BTreeMap::new();
        record.insert("workload".into(), format!("\"{}\"", opts.workload.name()));
        record.insert("seed".into(), opts.seed.to_string());
        record.insert("seconds".into(), opts.seconds.to_string());
        record.insert("trace".into(), opts.trace.to_string());
        Outcome { metrics: BTreeMap::new(), tally: Tally::default(), record }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Adds a raw JSON entry to the record line.
    pub fn note(&mut self, key: &str, json: String) {
        self.record.insert(key.to_string(), json);
    }

    /// Records a latency distribution: its sample count, p50, p90, p99,
    /// and how many samples lie beyond the p90 (a reported tail needs at
    /// least ten). The gated metrics mix operation classes; the record
    /// also keeps each class apart.
    pub fn note_latencies(&mut self, key: &str, values: &[f64]) {
        let n = values.len();
        let beyond_p90 = n - ((0.9 * n as f64).ceil() as usize).min(n);
        self.note(
            key,
            format!(
                "{{\"samples\":{n},\"beyond_p90\":{beyond_p90},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                json_num(median(values)),
                json_num(percentile(values, 0.9)),
                json_num(percentile(values, 0.99))
            ),
        );
    }

    /// Merges a traced leg into this outcome.
    pub fn absorb(&mut self, other: Outcome) {
        self.metrics.extend(other.metrics);
        self.tally.merge(other.tally);
        for (k, v) in other.record {
            if !matches!(k.as_str(), "workload" | "seed" | "seconds" | "trace") {
                self.record.insert(k, v);
            }
        }
    }

    /// The names this run must report, with units.
    pub fn expected(trace: bool) -> &'static [(&'static str, &'static str)] {
        if trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Whether every answer checked out and every expected metric is a
    /// finite number.
    pub fn correct(&self, trace: bool) -> bool {
        self.tally.failed == 0
            && Outcome::expected(trace)
                .iter()
                .all(|(name, _)| self.metrics.get(*name).is_some_and(|v| v.is_finite()))
    }

    /// The record line: seed, mix, sample counts and environment.
    pub fn record_line(&self) -> String {
        let fields: Vec<String> = self.record.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("{{\"record\":{{{}}}}}", fields.join(","))
    }

    /// The result line, the last line of standard output: exactly
    /// `correct`, `attempted`, `failed` and `metrics`. A missing or
    /// non-finite metric is reported as 0 and makes the run incorrect.
    pub fn result_line(&self, trace: bool) -> String {
        let metrics: Vec<String> = Outcome::expected(trace)
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(*name).copied().filter(|v| v.is_finite()).unwrap_or(0.0);
                format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(trace),
            self.tally.attempted.max(1),
            self.tally.failed,
            metrics.join(",")
        )
    }
}

/// The environment every result is recorded with.
pub fn environment() -> BTreeMap<String, String> {
    let quoted = |s: &str| format!("\"{}\"", s.trim().replace(['"', '\\'], "'"));
    let command = |prog: &str, args: &[&str]| {
        std::process::Command::new(prog)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).into_owned())
            .unwrap_or_else(|| "unknown".into())
    };
    let mut env = BTreeMap::new();
    env.insert(
        "host_threads".into(),
        std::thread::available_parallelism().map_or(1, |n| n.get()).to_string(),
    );
    env.insert("pool_threads".into(), fam::core::par::max_threads().to_string());
    env.insert(
        "fam_threads".into(),
        quoted(&std::env::var("FAM_THREADS").unwrap_or_else(|_| "unset".into())),
    );
    env.insert("rustc".into(), quoted(&command("rustc", &["-V"])));
    env.insert("git_commit".into(), quoted(&command("git", &["rev-parse", "HEAD"])));
    env
}
