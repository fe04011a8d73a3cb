//! Metrics snapshot assembly and exposition.
//!
//! A [`MetricsSnapshot`] is a point-in-time collection of named series —
//! counters, gauges, and fixed-bucket histograms — each with a (possibly
//! empty) label set. Snapshots are *canonical*: series are sorted by
//! `(name, labels)` at build time, so rendering the same logical state
//! always yields byte-identical text. That property is what the
//! fixed-seed determinism tests lean on.

use crate::hist::{FixedHistogram, BUCKET_BOUNDS};
use crate::json_escape;

/// The value of one series.
#[derive(Debug, Clone, PartialEq)]
pub enum SeriesValue {
    /// Monotone cumulative count.
    Counter(u64),
    /// Instantaneous level.
    Gauge(u64),
    /// Fixed-bucket distribution.
    Histogram(FixedHistogram),
}

impl SeriesValue {
    fn type_name(&self) -> &'static str {
        match self {
            SeriesValue::Counter(_) => "counter",
            SeriesValue::Gauge(_) => "gauge",
            SeriesValue::Histogram(_) => "histogram",
        }
    }
}

/// One named, labelled series.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Metric name (Prometheus-safe: `[a-zA-Z_][a-zA-Z0-9_]*`).
    pub name: String,
    /// Label pairs, in insertion order.
    pub labels: Vec<(String, String)>,
    /// The value.
    pub value: SeriesValue,
}

impl Series {
    /// `{k="v",…}` rendering of the label set (empty string when no
    /// labels), with `extra` appended last when given.
    fn label_block(&self, extra: Option<(&str, &str)>) -> String {
        if self.labels.is_empty() && extra.is_none() {
            return String::new();
        }
        let mut s = String::from("{");
        let mut first = true;
        for (k, v) in &self.labels {
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!("{k}=\"{}\"", escape_label(v)));
        }
        if let Some((k, v)) = extra {
            if !first {
                s.push(',');
            }
            s.push_str(&format!("{k}=\"{}\"", escape_label(v)));
        }
        s.push('}');
        s
    }
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// A canonical, point-in-time set of series. Build one with
/// [`MetricsSnapshot::builder`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    series: Vec<Series>,
}

/// Accumulates series for a [`MetricsSnapshot`].
#[derive(Debug, Default)]
pub struct SnapshotBuilder {
    series: Vec<Series>,
}

impl SnapshotBuilder {
    fn push(&mut self, name: &str, labels: &[(&str, String)], value: SeriesValue) {
        self.series.push(Series {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            value,
        });
    }

    /// Adds a counter series.
    pub fn counter(&mut self, name: &str, labels: &[(&str, String)], v: u64) {
        self.push(name, labels, SeriesValue::Counter(v));
    }

    /// Adds a gauge series.
    pub fn gauge(&mut self, name: &str, labels: &[(&str, String)], v: u64) {
        self.push(name, labels, SeriesValue::Gauge(v));
    }

    /// Adds a histogram series.
    pub fn histogram(&mut self, name: &str, labels: &[(&str, String)], h: &FixedHistogram) {
        self.push(name, labels, SeriesValue::Histogram(h.clone()));
    }

    /// Sorts the series by `(name, labels)` and produces the snapshot.
    pub fn finish(mut self) -> MetricsSnapshot {
        self.series
            .sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        MetricsSnapshot {
            series: self.series,
        }
    }
}

impl MetricsSnapshot {
    /// Starts building a snapshot.
    pub fn builder() -> SnapshotBuilder {
        SnapshotBuilder::default()
    }

    /// The series, sorted by `(name, labels)`.
    pub fn series(&self) -> &[Series] {
        &self.series
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): one `# TYPE` line per metric name, then one sample
    /// line per series; histograms expand to `_bucket{le=…}`, `_sum`, and
    /// `_count` samples.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for s in &self.series {
            if last_name != Some(s.name.as_str()) {
                out.push_str(&format!("# TYPE {} {}\n", s.name, s.value.type_name()));
                last_name = Some(s.name.as_str());
            }
            match &s.value {
                SeriesValue::Counter(v) | SeriesValue::Gauge(v) => {
                    out.push_str(&format!("{}{} {}\n", s.name, s.label_block(None), v));
                }
                SeriesValue::Histogram(h) => {
                    let cum = h.cumulative();
                    for (bound, c) in BUCKET_BOUNDS.iter().zip(cum.iter()) {
                        out.push_str(&format!(
                            "{}_bucket{} {}\n",
                            s.name,
                            s.label_block(Some(("le", &bound.to_string()))),
                            c
                        ));
                    }
                    out.push_str(&format!(
                        "{}_bucket{} {}\n",
                        s.name,
                        s.label_block(Some(("le", "+Inf"))),
                        h.count()
                    ));
                    out.push_str(&format!(
                        "{}_sum{} {}\n",
                        s.name,
                        s.label_block(None),
                        h.sum()
                    ));
                    out.push_str(&format!(
                        "{}_count{} {}\n",
                        s.name,
                        s.label_block(None),
                        h.count()
                    ));
                }
            }
        }
        out
    }

    /// Renders the snapshot as a JSON array of series objects. Histograms
    /// carry bucket bounds, per-bucket counts, sum/count/min/max.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"type\":\"{}\",\"labels\":{{",
                json_escape(&s.name),
                s.value.type_name()
            ));
            for (j, (k, v)) in s.labels.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)));
            }
            out.push_str("},");
            match &s.value {
                SeriesValue::Counter(v) | SeriesValue::Gauge(v) => {
                    out.push_str(&format!("\"value\":{v}}}"));
                }
                SeriesValue::Histogram(h) => {
                    out.push_str("\"bounds\":[");
                    for (j, b) in BUCKET_BOUNDS.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        out.push_str(&b.to_string());
                    }
                    out.push_str("],\"counts\":[");
                    for (j, c) in h.bucket_counts().iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        out.push_str(&c.to_string());
                    }
                    out.push_str(&format!(
                        "],\"sum\":{},\"count\":{},\"min\":{},\"max\":{}}}",
                        h.sum(),
                        h.count(),
                        h.min(),
                        h.max()
                    ));
                }
            }
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap() -> MetricsSnapshot {
        let mut b = MetricsSnapshot::builder();
        b.gauge("z_depth", &[], 3);
        b.counter("a_total", &[("query", "1".to_string())], 10);
        b.counter("a_total", &[("query", "0".to_string())], 5);
        let mut h = FixedHistogram::new();
        h.record(1);
        h.record(100);
        b.histogram("lat", &[("query", "0".to_string())], &h);
        b.finish()
    }

    #[test]
    fn series_are_sorted_by_name_then_labels() {
        let s = snap();
        let names: Vec<(&str, String)> = s
            .series()
            .iter()
            .map(|s| {
                (
                    s.name.as_str(),
                    s.labels.iter().map(|(_, v)| v.clone()).collect::<String>(),
                )
            })
            .collect();
        assert_eq!(
            names,
            vec![
                ("a_total", "0".to_string()),
                ("a_total", "1".to_string()),
                ("lat", "0".to_string()),
                ("z_depth", String::new()),
            ]
        );
    }

    #[test]
    fn prometheus_text_shape() {
        let text = snap().to_prometheus();
        assert!(text.contains("# TYPE a_total counter\n"));
        assert!(text.contains("a_total{query=\"0\"} 5\n"));
        assert!(text.contains("a_total{query=\"1\"} 10\n"));
        assert!(text.contains("# TYPE lat histogram\n"));
        assert!(text.contains("lat_bucket{query=\"0\",le=\"1\"} 1\n"));
        assert!(text.contains("lat_bucket{query=\"0\",le=\"128\"} 2\n"));
        assert!(text.contains("lat_bucket{query=\"0\",le=\"+Inf\"} 2\n"));
        assert!(text.contains("lat_sum{query=\"0\"} 101\n"));
        assert!(text.contains("lat_count{query=\"0\"} 2\n"));
        assert!(text.contains("# TYPE z_depth gauge\nz_depth 3\n"));
        // TYPE appears once per metric name, not once per series
        assert_eq!(text.matches("# TYPE a_total").count(), 1);
    }

    #[test]
    fn prometheus_lines_parse() {
        // every non-comment line is `name{labels} value` or `name value`
        for line in snap().to_prometheus().lines() {
            if line.starts_with('#') {
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("space-separated");
            assert!(value.parse::<u64>().is_ok(), "bad value in {line}");
            let name = series.split('{').next().unwrap();
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "bad name in {line}"
            );
        }
    }

    #[test]
    fn json_is_stable_and_contains_histogram_detail() {
        let json = snap().to_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"name\":\"lat\""));
        assert!(json.contains("\"sum\":101"));
        assert!(json.contains("\"count\":2"));
        assert_eq!(json, snap().to_json());
    }

    #[test]
    fn identical_content_renders_byte_identical_regardless_of_insert_order() {
        let mut b1 = MetricsSnapshot::builder();
        b1.counter("x", &[("q", "1".to_string())], 2);
        b1.counter("x", &[("q", "0".to_string())], 1);
        let mut b2 = MetricsSnapshot::builder();
        b2.counter("x", &[("q", "0".to_string())], 1);
        b2.counter("x", &[("q", "1".to_string())], 2);
        assert_eq!(b1.finish().to_prometheus(), b2.finish().to_prometheus());
    }
}
