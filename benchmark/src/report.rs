//! What a run found: samples per metric, failures against attempts.

use std::fmt::Write as _;

use crate::metrics::MetricDef;
use crate::stats::Quartiles;

/// Operations attempted (events offered, outputs expected, pins checked)
/// and those that failed, with the reason for each failure.
#[derive(Debug, Clone, Default)]
pub struct Failures {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<(String, u64)>,
}

impl Failures {
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn add(&mut self, reason: &str, n: u64) {
        if n > 0 {
            self.failed += n;
            self.reasons.push((reason.to_owned(), n));
        }
    }
}

#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Samples per metric name, in first-sampled order.
    pub samples: Vec<(String, Vec<f64>)>,
    /// Metrics whose value for the run is computed over all repetitions
    /// at once and not as the median of their samples.
    pub set: Vec<(String, f64)>,
    pub notes: Vec<String>,
    pub fails: Failures,
}

impl Report {
    pub fn sample(&mut self, name: &str, value: f64) {
        match self.samples.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => v.push(value),
            None => self.samples.push((name.to_owned(), vec![value])),
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.set.push((name.to_owned(), value));
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    pub fn quartiles(&self, name: &str) -> Option<Quartiles> {
        let (_, v) = self.samples.iter().find(|(n, _)| n == name)?;
        Quartiles::of(v)
    }

    /// The run's value of a metric: what was [`set`](Self::set), else the
    /// median of its samples. `None` without either or when the value is
    /// not a finite number.
    pub fn value(&self, d: &MetricDef) -> Option<f64> {
        let value = match self.set.iter().find(|(n, _)| n == d.name) {
            Some((_, value)) => *value,
            None => self.quartiles(d.name)?.median,
        };
        value.is_finite().then_some(value)
    }

    /// One row per metric: name, unit, value, then median, quartiles and
    /// sample count.
    pub fn table(&self, defs: &[MetricDef]) -> String {
        let mut s = String::new();
        for d in defs {
            match self.quartiles(d.name) {
                Some(q) if q.n == 1 => {
                    let value = self.value(d).unwrap_or(q.median);
                    let _ = writeln!(s, "  {:<34} {:>16.4} {}", d.name, value, d.unit);
                }
                Some(q) => {
                    let _ = writeln!(
                        s,
                        "  {:<34} {:>16.4} {:<8} median {:<14.4} q1 {:<14.4} q3 {:<14.4} n {}",
                        d.name,
                        self.value(d).unwrap_or(f64::NAN),
                        d.unit,
                        q.median,
                        q.q1,
                        q.q3,
                        q.n
                    );
                    let (_, v) = self
                        .samples
                        .iter()
                        .find(|(n, _)| n == d.name)
                        .expect("has quartiles");
                    let all: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
                    let _ = writeln!(s, "    samples: {}", all.join(" "));
                }
                None => {
                    let _ = writeln!(s, "  {:<34} {:>16} {:<8}", d.name, "missing", d.unit);
                }
            }
        }
        for (reason, n) in &self.fails.reasons {
            let _ = writeln!(s, "  FAILED {n}: {reason}");
        }
        for note in &self.notes {
            let _ = writeln!(s, "  note: {note}");
        }
        s
    }

    /// The result line: `correct`, `attempted`, `failed` and the value of
    /// every metric in `defs`. A metric without a value is a failure of
    /// the benchmark itself.
    pub fn result_line(&self, defs: &[MetricDef]) -> (bool, String) {
        let mut failed = self.fails.failed;
        let mut s = String::from("\"metrics\": {");
        for (i, d) in defs.iter().enumerate() {
            let value = self.value(d).unwrap_or_else(|| {
                failed += 1;
                0.0
            });
            let _ = write!(
                s,
                "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                if i > 0 { ", " } else { "" },
                d.name,
                d.unit
            );
        }
        s.push('}');
        let correct = failed == 0;
        (
            correct,
            format!(
                "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, {s}}}",
                self.fails.attempted.max(1)
            ),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEFS: [MetricDef; 2] = [
        MetricDef::gated("a_s", "s", false, 0.1),
        MetricDef::layer("b", "count", true),
    ];

    #[test]
    fn a_set_value_stands_before_the_samples_median() {
        let mut r = Report::default();
        for v in [9.0, 5.0, 7.0] {
            r.sample("a_s", v);
        }
        assert_eq!(r.value(&DEFS[0]), Some(7.0));
        r.set("a_s", 4.5);
        assert_eq!(r.value(&DEFS[0]), Some(4.5));
        assert!(r.table(&DEFS).contains("median 7.0000"));
        assert_eq!(r.value(&MetricDef::layer("absent", "s", false)), None);
    }

    #[test]
    fn result_line_reports_medians_and_counts_failures() {
        let mut r = Report::default();
        for v in [3.0, 1.0, 2.5] {
            r.sample("a_s", v);
        }
        r.sample("b", 7.0);
        r.fails.attempt(10);
        let (ok, line) = r.result_line(&DEFS);
        assert!(ok);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a_s\": {\"value\": 2.5, \"unit\": \"s\"}, \"b\": {\"value\": 7, \"unit\": \"count\"}}}"
        );
        r.fails.add("two outputs missing", 2);
        let (ok, line) = r.result_line(&DEFS);
        assert!(!ok && line.contains("\"failed\": 2"));
        assert!(r.table(&DEFS).contains("FAILED 2: two outputs missing"));
    }

    #[test]
    fn a_missing_metric_fails_the_run() {
        let mut r = Report::default();
        r.sample("a_s", 1.0);
        let (ok, line) = r.result_line(&DEFS);
        assert!(!ok && line.contains("\"failed\": 1") && line.contains("\"attempted\": 1"));
        r.sample("b", f64::NAN);
        assert!(!r.result_line(&DEFS).0);
    }
}
