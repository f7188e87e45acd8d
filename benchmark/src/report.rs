//! What a run prints and writes: metrics by name with their unit, per-phase
//! request counts, honesty checks, and the one-line JSON result.

use std::fmt::Write as _;
use std::path::Path;

use crate::loadgen::Counts;
use crate::procfs;

/// One reported number. `f64` formatting prints the shortest decimal that
/// round-trips, i.e. every digit that was measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// A generator honesty check, printed and filed with every run: read the
/// run's numbers with suspicion if it does not hold.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// The metrics BENCHMARK.json declares for this mode, in its order.
    pub metrics: Vec<Metric>,
    /// Metrics only this workload has (printed and filed, not declared).
    pub extra: Vec<Metric>,
    pub phases: Vec<(String, Counts)>,
    pub checks: Vec<Check>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn totals(&self) -> Counts {
        let mut t = Counts::default();
        for (_, c) in &self.phases {
            t.add(c);
        }
        t
    }

    /// No response differed from its reference.
    pub fn correct(&self) -> bool {
        self.totals().wrong == 0
    }
}

/// Where and on what the run happened; goes into every result file.
pub struct Host {
    pub cores: usize,
    pub kernel: String,
    pub rustc: String,
    pub commit: String,
}

impl Host {
    pub fn detect() -> Host {
        let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
        Host {
            cores: std::thread::available_parallelism().map_or(0, |n| n.get()),
            kernel: procfs::kernel_release(),
            rustc: env("DFBENCH_RUSTC"),
            commit: env("DFBENCH_COMMIT"),
        }
    }
}

fn json_metrics(metrics: &[Metric]) -> String {
    let mut s = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push('}');
    s
}

fn json_counts(c: &Counts) -> String {
    format!(
        "{{\"sent\": {}, \"completed\": {}, \"late\": {}, \"failed\": {}, \"wrong\": {}, \"rejected\": {}}}",
        c.sent, c.completed, c.late, c.failed, c.wrong, c.rejected
    )
}

/// The contract's last line of standard output.
pub fn result_line(r: &Report) -> String {
    let t = r.totals();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.correct(),
        t.sent.max(1),
        t.failed + t.rejected,
        json_metrics(&r.metrics)
    )
}

/// The human-readable part: phases, metrics, extras, checks.
pub fn text(r: &Report) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<10} {:>9} {:>9} {:>7} {:>7} {:>8}",
        "phase", "sent", "completed", "late", "failed", "rejected"
    );
    for (name, c) in &r.phases {
        let _ = writeln!(
            s,
            "{name:<10} {:>9} {:>9} {:>7} {:>7} {:>8}",
            c.sent, c.completed, c.late, c.failed, c.rejected
        );
    }
    for m in r.metrics.iter().chain(&r.extra) {
        let _ = writeln!(s, "{:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for c in &r.checks {
        let verdict = if c.ok { "ok" } else { "VIOLATED" };
        let _ = writeln!(s, "check {:<28} {verdict:<8} {}", c.name, c.detail);
    }
    for n in &r.notes {
        let _ = writeln!(s, "note: {n}");
    }
    s
}

/// Writes the result file: the run's parameters, the host, and everything
/// [`text`] shows, as one JSON object.
pub fn write_file(
    path: &Path,
    r: &Report,
    host: &Host,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> std::io::Result<()> {
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace},");
    let _ = writeln!(
        s,
        "  \"host\": {{\"cores\": {}, \"kernel\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\"}},",
        host.cores,
        esc(&host.kernel),
        esc(&host.rustc),
        esc(&host.commit)
    );
    let phases: Vec<String> = r
        .phases
        .iter()
        .map(|(n, c)| format!("\"{n}\": {}", json_counts(c)))
        .collect();
    let _ = writeln!(s, "  \"phases\": {{{}}},", phases.join(", "));
    let _ = writeln!(s, "  \"metrics\": {},", json_metrics(&r.metrics));
    let _ = writeln!(s, "  \"extra\": {},", json_metrics(&r.extra));
    let checks: Vec<String> = r
        .checks
        .iter()
        .map(|c| {
            format!(
                "\"{}\": {{\"ok\": {}, \"detail\": \"{}\"}}",
                c.name,
                c.ok,
                esc(&c.detail)
            )
        })
        .collect();
    let _ = writeln!(s, "  \"checks\": {{{}}},", checks.join(", "));
    let _ = writeln!(s, "  \"correct\": {}", r.correct());
    s.push_str("}\n");
    std::fs::write(path, s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_all_digits() {
        let mut r = Report::default();
        r.metrics
            .push(metric("lat_p50_light_ms", 0.1234567891, "ms"));
        r.metrics.push(metric("setup_s", 0.5, "s"));
        r.phases.push((
            "heavy".into(),
            Counts {
                sent: 10,
                completed: 8,
                failed: 1,
                rejected: 1,
                ..Counts::default()
            },
        ));
        assert_eq!(
            result_line(&r),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 2, \"metrics\": {\"lat_p50_light_ms\": \
             {\"value\": 0.1234567891, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        r.phases[0].1.wrong = 1;
        assert!(result_line(&r).starts_with("{\"correct\": false"));
    }
}
