//! What one run reports: metrics with units, attempted/failed
//! operation counts, and the exact counters the self-check compares.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one workload run.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Metrics printed in the human-readable table only, not in the
    /// result line.
    pub info: Vec<Metric>,
    /// Exact counters, rendered as strings so floats compare by bits.
    /// Every round of a run must produce the same map, and so must
    /// every run with the same seed.
    pub counters: BTreeMap<String, String>,
    /// Human-readable reasons for every failed check.
    pub failures: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn info(&mut self, name: &str, value: f64, unit: &'static str) {
        self.info.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records a failed operation or check.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    /// Checks `ok`, counting a failure with `why` when it does not hold.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why());
        }
    }

    /// Folds one round's exact counters in: the first round defines
    /// them, every later round must repeat them bit for bit.
    pub fn round_counters(&mut self, round: usize, counters: BTreeMap<String, String>) {
        if round == 0 || self.counters.is_empty() {
            self.counters = counters;
        } else if counters != self.counters {
            let diff = diff_counters(&self.counters, &counters);
            self.fail(format!(
                "round {round}: exact counters differ from round 0: {diff}"
            ));
        }
    }

    /// Compares the exact counters with those a previous run with the
    /// same workload and seed saved under `dir` (and saves them if there
    /// is none yet).
    pub fn check_against_saved(&mut self, dir: &Path, key: &str) {
        let path = dir.join(format!("{key}.txt"));
        let mut text = String::new();
        for (name, value) in &self.counters {
            let _ = writeln!(text, "{name} {value}");
        }
        match std::fs::read_to_string(&path) {
            Ok(saved) if saved == text => {}
            Ok(saved) => {
                let saved: BTreeMap<String, String> = saved
                    .lines()
                    .filter_map(|l| l.split_once(' '))
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect();
                let diff = diff_counters(&saved, &self.counters);
                self.fail(format!(
                    "exact counters differ from an earlier run with the same seed ({}): {diff}",
                    path.display()
                ));
            }
            Err(_) => {
                let _ = std::fs::create_dir_all(dir);
                if let Err(e) = std::fs::write(&path, text) {
                    self.fail(format!("cannot save counters to {}: {e}", path.display()));
                }
            }
        }
    }

    /// The result line: one JSON object with full-precision values.
    pub fn json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // JSON has no NaN or infinity; such a value already failed
            // the run, and 0 keeps the line parseable.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

fn diff_counters(a: &BTreeMap<String, String>, b: &BTreeMap<String, String>) -> String {
    let mut keys: Vec<&String> = a.keys().chain(b.keys()).collect();
    keys.sort();
    keys.dedup();
    keys.into_iter()
        .filter(|k| a.get(*k) != b.get(*k))
        .map(|k| format!("{k}: {:?} vs {:?}", a.get(k), b.get(k)))
        .collect::<Vec<_>>()
        .join("; ")
}

/// Nearest-rank quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Arithmetic mean.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Resets this process's peak resident set (`VmHWM`) to its current
/// resident set, so each round's peak can be read on its own: the
/// heap a round leaves behind otherwise decides the peaks of the
/// rounds after it.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process (`VmHWM`) since the last
/// [`reset_peak_rss`], in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
