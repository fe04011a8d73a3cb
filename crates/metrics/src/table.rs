//! Fixed-width text tables for the experiment harness.

use std::fmt;

/// A simple right-padded text table with a header row and a rule line,
/// rendered via [`fmt::Display`]:
///
/// ```
/// use sequin_metrics::Table;
/// let mut t = Table::new(&["k", "latency"]);
/// t.row(&["10".into(), "3.5".into()]);
/// let s = t.to_string();
/// assert!(s.contains("latency"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: &[String]) -> &mut Table {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                w[i] = w[i].max(cell.len());
            }
        }
        w
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.widths();
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:<width$}", width = widths[i])?;
            }
            writeln!(f)
        };
        write_row(f, &self.headers)?;
        let rule: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        writeln!(f, "{}", "-".repeat(rule))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

/// Formats a float with 1 decimal place (experiment tables).
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

/// Renders any named-counter list as a two-column `counter`/`value` table.
/// Used for [`RuntimeStats`](sequin_runtime::RuntimeStats) and for the
/// server crate's connection/frame counters.
pub fn pairs_table<'a>(pairs: impl IntoIterator<Item = (&'a str, u64)>) -> Table {
    let mut t = Table::new(&["counter", "value"]);
    for (name, value) in pairs {
        t.row(&[name.to_owned(), value.to_string()]);
    }
    t
}

/// Renders every [`RuntimeStats`](sequin_runtime::RuntimeStats) counter —
/// including the checkpoint/recovery counters — as a two-column table.
pub fn stats_table(stats: &sequin_runtime::RuntimeStats) -> Table {
    pairs_table(stats.as_pairs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["alpha".into(), "1".into()]);
        t.row(&["b".into(), "23456".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // all rows have equal effective width
        assert!(lines[2].trim_end().len() <= lines[1].len());
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn empty_table_renders_header_and_rule_only() {
        let t = Table::new(&["alpha", "b"]);
        assert!(t.is_empty());
        let s = t.to_string();
        assert_eq!(s.lines().count(), 2);
        assert!(s.starts_with("alpha"));
    }

    #[test]
    fn f1_formats_one_decimal() {
        assert_eq!(f1(1.25), "1.2");
        assert_eq!(f1(3.0), "3.0");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_row_panics() {
        Table::new(&["a", "b"]).row(&["only-one".into()]);
    }

    #[test]
    fn pairs_table_renders_arbitrary_counters() {
        let t = pairs_table([("frames_received", 12u64), ("busy_frames_sent", 3)]);
        assert_eq!(t.len(), 2);
        let s = t.to_string();
        assert!(s.contains("frames_received"));
        assert!(s.contains("busy_frames_sent"));
    }

    #[test]
    fn stats_table_surfaces_every_counter() {
        let stats = sequin_runtime::RuntimeStats {
            insertions: 7,
            checkpoints_written: 3,
            checkpoints_rejected: 1,
            replayed_suppressed: 9,
            events_routed: 21,
            max_stack_depth: 4,
            merge_buffer_peak: 2,
            ..Default::default()
        };
        let t = stats_table(&stats);
        assert_eq!(t.len(), stats.as_pairs().len());
        let s = t.to_string();
        for name in [
            "checkpoints_written",
            "checkpoints_rejected",
            "replayed_suppressed",
            "events_routed",
            "max_stack_depth",
            "merge_buffer_peak",
        ] {
            assert!(s.contains(name), "missing {name} row");
        }
        assert!(s.contains('9'));
    }
}
