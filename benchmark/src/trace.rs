//! Spans recorded from the benchmark's own files, around the calls into
//! each layer. Spans stay in memory until the run ends.

use std::fmt::Write as _;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

/// One timed interval: what ran, when, inside which span, for which batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: u16,
    pub parent: u32,
    pub batch: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// What one empty span costs: `inside_ns` of it lands in the span's own
/// duration, the rest in its parent's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimerCost {
    pub inside_ns: f64,
    pub pair_ns: f64,
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotal {
    pub calls: u64,
    /// Time in spans of this name not covered by their children, with the
    /// timer's own cost taken out.
    pub self_ns: f64,
}

pub struct Tracer {
    base: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            base: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn name(&mut self, name: &'static str) -> u16 {
        if let Some(ix) = self.names.iter().position(|n| *n == name) {
            return ix as u16;
        }
        self.names.push(name);
        (self.names.len() - 1) as u16
    }

    #[inline]
    pub fn open(&mut self, name: u16, parent: u32, batch: u32) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            parent,
            batch,
            start_ns: 0,
            end_ns: 0,
        });
        // the clock is read last on open and first on close, so the
        // bookkeeping above lands in the parent, not in this span
        self.spans[id as usize].start_ns = self.base.elapsed().as_nanos() as u64;
        id
    }

    #[inline]
    pub fn close(&mut self, id: u32) {
        let now = self.base.elapsed().as_nanos() as u64;
        self.spans[id as usize].end_ns = now;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn names(&self) -> &[&'static str] {
        &self.names
    }

    /// Measures an empty span's cost on this machine.
    pub fn calibrate() -> TimerCost {
        const N: u32 = 200_000;
        let mut t = Tracer::new();
        let name = t.name("empty");
        t.spans.reserve(N as usize);
        let started = Instant::now();
        for _ in 0..N {
            let id = t.open(name, NO_PARENT, 0);
            t.close(id);
        }
        let pair_ns = started.elapsed().as_nanos() as f64 / f64::from(N);
        let inside_ns = t.spans.iter().map(|s| s.duration() as f64).sum::<f64>() / f64::from(N);
        TimerCost { inside_ns, pair_ns }
    }
}

/// Per-name self time: a span's duration minus its children's, summed by
/// name, with `cost` taken out of each span and of its parent. Indexed
/// like `names`.
pub fn self_times(spans: &[Span], names: usize, cost: TimerCost) -> Vec<NameTotal> {
    let mut own: Vec<f64> = spans
        .iter()
        .map(|s| s.duration() as f64 - cost.inside_ns)
        .collect();
    for s in spans {
        if s.parent != NO_PARENT {
            own[s.parent as usize] -= s.duration() as f64 + (cost.pair_ns - cost.inside_ns);
        }
    }
    let mut totals = vec![NameTotal::default(); names];
    for (s, own) in spans.iter().zip(own) {
        let t = &mut totals[s.name as usize];
        t.calls += 1;
        t.self_ns += own.max(0.0);
    }
    totals
}

/// Renders at most `limit` spans as JSON; `total_spans` says how many the
/// run recorded.
pub fn to_json(workload: &str, tracer: &Tracer, cost: TimerCost, limit: usize) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"workload\":\"{workload}\",\"timer_inside_ns\":{:.1},\"timer_pair_ns\":{:.1},\"total_spans\":{},\"names\":[",
        cost.inside_ns,
        cost.pair_ns,
        tracer.spans.len()
    );
    for (i, n) in tracer.names.iter().enumerate() {
        let _ = write!(s, "{}\"{n}\"", if i > 0 { "," } else { "" });
    }
    s.push_str(
        "],\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"batch\"],\"spans\":[\n",
    );
    for (i, sp) in tracer.spans.iter().take(limit).enumerate() {
        let parent = if sp.parent == NO_PARENT {
            -1
        } else {
            i64::from(sp.parent)
        };
        let _ = writeln!(
            s,
            "{}[{},{},{},{parent},{}]",
            if i > 0 { "," } else { "" },
            sp.name,
            sp.start_ns,
            sp.end_ns,
            sp.batch
        );
    }
    s.push_str("]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    const FREE: TimerCost = TimerCost {
        inside_ns: 0.0,
        pair_ns: 0.0,
    };

    fn span(name: u16, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            batch: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // root 0..100; child a 10..40 with grandchild b 20..25; child a 50..90
        let spans = [
            span(0, NO_PARENT, 0, 100),
            span(1, 0, 10, 40),
            span(2, 1, 20, 25),
            span(1, 0, 50, 90),
        ];
        let t = self_times(&spans, 3, FREE);
        assert_eq!((t[0].calls, t[0].self_ns), (1, 30.0));
        assert_eq!((t[1].calls, t[1].self_ns), (2, 65.0));
        assert_eq!((t[2].calls, t[2].self_ns), (1, 5.0));
        let total: f64 = t.iter().map(|n| n.self_ns).sum();
        assert_eq!(total, 100.0, "self times partition the root span");
    }

    #[test]
    fn timer_cost_comes_out_of_span_and_parent() {
        let cost = TimerCost {
            inside_ns: 2.0,
            pair_ns: 5.0,
        };
        let spans = [span(0, NO_PARENT, 0, 100), span(1, 0, 10, 40)];
        let t = self_times(&spans, 2, cost);
        assert_eq!(t[1].self_ns, 28.0);
        // 100 − 2 (own) − 30 (child) − 3 (child's cost outside the child)
        assert_eq!(t[0].self_ns, 65.0);
    }

    #[test]
    fn tracer_records_nested_spans_and_renders_them() {
        let mut t = Tracer::new();
        let (run, step) = (t.name("run"), t.name("step"));
        assert_eq!(t.name("run"), run);
        let root = t.open(run, NO_PARENT, 0);
        let child = t.open(step, root, 7);
        t.close(child);
        t.close(root);
        let s = t.spans();
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!((s[1].parent, s[1].batch), (root, 7));
        let json = to_json("w", &t, FREE, 1);
        assert!(
            json.contains("\"total_spans\":2") && json.contains("\"names\":[\"run\",\"step\"]")
        );
        assert_eq!(
            json.matches("\n[").count() + json.matches("\n,[").count(),
            1
        );
    }

    #[test]
    fn calibration_is_positive_and_ordered() {
        let c = Tracer::calibrate();
        assert!(c.inside_ns > 0.0 && c.pair_ns >= c.inside_ns);
    }
}
