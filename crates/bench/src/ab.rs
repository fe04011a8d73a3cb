//! Paired A/B judgement of the ledger (`benchmark/`): what the `ab` binary
//! reads from each run and how it judges two sides.
//!
//! The binary builds a revision's ledger and the checkout's, runs them in
//! alternating pairs and hands each run's result line here. Everything in
//! this module is a pure function of those lines, so the verdict rule is
//! tested on fixed samples.
//!
//! The rule ([`judge`]), per workload and end-to-end metric, over `n`
//! pairs (a tie counts for neither side):
//! - **better**: the checkout wins at least 9/10 of the pairs, and its
//!   median is better than the revision's by more than the revision's
//!   interquartile range;
//! - **worse**: the checkout loses at least 3/4 of the pairs, and its
//!   median is worse by more than that range;
//! - **same** otherwise.

use std::fmt::Write as _;

/// A parsed JSON value: all the ledger's result lines and
/// `BENCHMARK.json` use.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Members in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document; trailing text other than whitespace is an
    /// error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            at: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.at != p.s.len() {
            return Err(format!("trailing text at byte {}", p.at));
        }
        Ok(v)
    }

    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.at) == Some(&b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.at) {
            Some(b'{') => {
                self.at += 1;
                let mut members = Vec::new();
                self.ws();
                if self.s.get(self.at) == Some(&b'}') {
                    self.at += 1;
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    members.push((key, self.value()?));
                    self.ws();
                    match self.s.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b'}') => {
                            self.at += 1;
                            return Ok(Json::Obj(members));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.at)),
                    }
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.at) == Some(&b']') {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b']') => {
                            self.at += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.at)),
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) => {
                let start = self.at;
                while self
                    .s
                    .get(self.at)
                    .is_some_and(|b| b.is_ascii_alphanumeric() || b"+-.".contains(b))
                {
                    self.at += 1;
                }
                match &self.s[start..self.at] {
                    b"null" => Ok(Json::Null),
                    b"true" => Ok(Json::Bool(true)),
                    b"false" => Ok(Json::Bool(false)),
                    word => std::str::from_utf8(word)
                        .ok()
                        .and_then(|w| w.parse().ok())
                        .map(Json::Num)
                        .ok_or_else(|| format!("bad value at byte {start}")),
                }
            }
            None => Err("unexpected end".into()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.at) != Some(&b'"') {
            return Err(format!("expected a string at byte {}", self.at));
        }
        self.at += 1;
        let mut out = Vec::new();
        loop {
            match self.s.get(self.at) {
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let esc = self.s.get(self.at + 1).copied();
                    self.at += 2;
                    out.push(match esc {
                        Some(b'n') => b'\n',
                        Some(b't') => b'\t',
                        Some(c @ (b'"' | b'\\' | b'/')) => c,
                        _ => return Err(format!("unsupported escape at byte {}", self.at - 2)),
                    });
                }
                Some(&b) => {
                    out.push(b);
                    self.at += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub lower_is_better: bool,
}

/// The workloads and end-to-end metrics `BENCHMARK.json` declares.
pub fn ledger_spec(benchmark_json: &str) -> Result<(Vec<String>, Vec<Metric>), String> {
    let doc = Json::parse(benchmark_json)?;
    let list = |key: &str| match doc.get(key) {
        Some(Json::Arr(items)) => Ok(items),
        _ => Err(format!("BENCHMARK.json has no \"{key}\" list")),
    };
    let name = |item: &Json| {
        item.get("name")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or("an entry without a name")
    };
    let workloads = list("workloads")?
        .iter()
        .map(name)
        .collect::<Result<_, _>>()?;
    let metrics = list("end_to_end")?
        .iter()
        .map(|m| {
            Ok(Metric {
                name: name(m)?,
                lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
            })
        })
        .collect::<Result<_, &str>>()?;
    Ok((workloads, metrics))
}

/// One run's result line, the last line the ledger prints.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub failed: f64,
    /// Every metric's value by name.
    pub values: Vec<(String, f64)>,
}

impl RunResult {
    pub fn parse(line: &str) -> Result<RunResult, String> {
        let doc = Json::parse(line)?;
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            return Err("a result line without \"metrics\"".into());
        };
        let values = metrics
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Json::as_f64);
                value
                    .map(|v| (name.clone(), v))
                    .ok_or(format!("metric {name} has no value"))
            })
            .collect::<Result<_, _>>()?;
        Ok(RunResult {
            correct: doc.get("correct") == Some(&Json::Bool(true)),
            failed: doc.get("failed").and_then(Json::as_f64).unwrap_or(f64::NAN),
            values,
        })
    }

    pub fn value(&self, metric: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| n == metric)
            .map(|&(_, v)| v)
    }
}

/// First quartile, median and third quartile, by the exclusive method the
/// ledger itself reports (Python's `statistics.quantiles(v, n=4)`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Quartiles {
    /// The quartiles of a sample; all `NaN` for an empty one.
    pub fn of(values: &[f64]) -> Quartiles {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let at = |q: f64| match n {
            0 => f64::NAN,
            1 => v[0],
            _ => {
                let pos = q * (n as f64 + 1.0);
                let j = (pos.floor() as usize).clamp(1, n - 1);
                v[j - 1] + (pos - j as f64) * (v[j] - v[j - 1])
            }
        };
        let median = match n {
            0 => f64::NAN,
            _ if n % 2 == 1 => v[n / 2],
            _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        };
        Quartiles {
            q1: at(0.25),
            median,
            q3: at(0.75),
        }
    }
}

/// What the paired rule says about one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Same,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Same => "same",
        }
    }
}

/// Both sides of one metric over `n` pairs, and the verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Paired {
    pub rev: Quartiles,
    pub head: Quartiles,
    /// The checkout's median over the revision's; `NaN` when the
    /// revision's median is zero.
    pub ratio: f64,
    /// Pairs the checkout won and lost; ties count for neither.
    pub wins: usize,
    pub losses: usize,
    pub n: usize,
    pub verdict: Verdict,
}

/// Judges `head[i]` against `rev[i]`, pair by pair: the rule in the module
/// doc. Both slices hold one sample per pair, in pair order.
pub fn judge(rev: &[f64], head: &[f64], lower_is_better: bool) -> Paired {
    assert_eq!(rev.len(), head.len(), "one sample per side per pair");
    let n = rev.len();
    let better = |a: f64, b: f64| if lower_is_better { a < b } else { a > b };
    let wins = rev
        .iter()
        .zip(head)
        .filter(|&(&r, &h)| better(h, r))
        .count();
    let losses = rev
        .iter()
        .zip(head)
        .filter(|&(&r, &h)| better(r, h))
        .count();
    let (rq, hq) = (Quartiles::of(rev), Quartiles::of(head));
    let apart = (hq.median - rq.median).abs() > rq.q3 - rq.q1;
    let verdict = if wins * 10 >= n * 9 && apart && better(hq.median, rq.median) {
        Verdict::Better
    } else if losses * 4 >= n * 3 && apart && better(rq.median, hq.median) {
        Verdict::Worse
    } else {
        Verdict::Same
    };
    Paired {
        rev: rq,
        head: hq,
        ratio: if rq.median == 0.0 {
            f64::NAN
        } else {
            hq.median / rq.median
        },
        wins,
        losses,
        n,
        verdict,
    }
}

/// The verdict table of one workload: a row per metric, both sides'
/// median and quartiles, the median ratio, wins/n and the verdict.
pub fn render_table(workload: &str, rows: &[(&str, Paired)]) -> String {
    let mut s = format!(
        "{workload}\n  {:<18} {:>28} {:>28} {:>7} {:>6}  verdict\n",
        "metric", "rev median [q1, q3]", "head median [q1, q3]", "ratio", "wins"
    );
    let side = |q: Quartiles| format!("{} [{}, {}]", num(q.median), num(q.q1), num(q.q3));
    for (name, p) in rows {
        let _ = writeln!(
            s,
            "  {name:<18} {:>28} {:>28} {:>7.3} {:>6}  {}",
            side(p.rev),
            side(p.head),
            p.ratio,
            format!("{}/{}", p.wins, p.n),
            p.verdict.as_str()
        );
    }
    s
}

/// Four significant digits, in plain notation.
fn num(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let digits = 3 - v.abs().log10().floor() as i32;
    format!("{v:.*}", digits.max(0) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_result_line_parses_into_its_metrics() {
        let line = "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
                    {\"setup_s\": {\"value\": 0.0068, \"unit\": \"s\"}, \
                    \"latency_p50_us\": {\"value\": 4.27e2, \"unit\": \"us\"}}}";
        let r = RunResult::parse(line).unwrap();
        assert!(r.correct);
        assert_eq!(r.failed, 0.0);
        assert_eq!(r.value("setup_s"), Some(0.0068));
        assert_eq!(r.value("latency_p50_us"), Some(427.0));
        assert_eq!(r.value("throughput_eps"), None);
        assert!(RunResult::parse("{\"correct\": true}").is_err());
        assert!(RunResult::parse("{\"metrics\": {}} tail").is_err());
        let wrong = RunResult::parse("{\"correct\": false, \"failed\": 2, \"metrics\": {}}");
        assert_eq!(wrong.map(|r| (r.correct, r.failed)), Ok((false, 2.0)));
    }

    #[test]
    fn the_ledger_spec_names_workloads_and_directions() {
        let text = r#"{"command": ["bash", "benchmark/run.sh"], "workloads": [
            {"name": "engine-deep", "why": "a \"deep\" stack"}, {"name": "wire-flood"}],
            "end_to_end": [{"name": "setup_s", "better": "lower", "bound": 0.25},
            {"name": "throughput_eps", "better": "higher", "bound": 0.25}]}"#;
        let (workloads, metrics) = ledger_spec(text).unwrap();
        assert_eq!(workloads, ["engine-deep", "wire-flood"]);
        let dirs: Vec<_> = metrics
            .iter()
            .map(|m| (m.name.as_str(), m.lower_is_better))
            .collect();
        assert_eq!(dirs, [("setup_s", true), ("throughput_eps", false)]);
        let repo = include_str!("../../../BENCHMARK.json");
        let (workloads, metrics) = ledger_spec(repo).unwrap();
        assert_eq!((workloads.len(), metrics.len()), (8, 6));
    }

    #[test]
    fn quartiles_match_the_ledgers_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&v);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        let q = Quartiles::of(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        assert!(Quartiles::of(&[]).median.is_nan());
    }

    /// The issue's prototype: `engine-deep` p50 565–650 → 427–519 µs.
    #[test]
    fn a_clear_gain_is_better() {
        let rev = [565.0, 600.0, 650.0, 590.0, 610.0, 580.0, 620.0, 640.0];
        let head = [427.0, 450.0, 519.0, 470.0, 440.0, 500.0, 460.0, 480.0];
        let p = judge(&rev, &head, true);
        assert_eq!((p.wins, p.losses, p.n), (8, 0, 8));
        assert_eq!(p.verdict, Verdict::Better);
        assert!(p.ratio < 0.8);
        // the same samples read as throughput are a loss in every pair
        assert_eq!(judge(&rev, &head, false).verdict, Verdict::Worse);
    }

    /// Nine wins in ten are enough; eight are not, however far apart the
    /// medians.
    #[test]
    fn a_gain_needs_nine_pairs_in_ten() {
        let rev = [100.0; 10];
        let mut head = [80.0; 10];
        head[0] = 120.0;
        assert_eq!(judge(&rev, &head, true).verdict, Verdict::Better);
        head[1] = 120.0;
        let p = judge(&rev, &head, true);
        assert_eq!((p.wins, p.verdict), (8, Verdict::Same));
    }

    /// A median inside the revision's own spread is no verdict, however
    /// many pairs it wins.
    #[test]
    fn a_shift_inside_the_spread_is_the_same() {
        let rev = [90.0, 100.0, 110.0, 95.0, 105.0, 92.0];
        let head: Vec<f64> = rev.iter().map(|v| v * 1.02).collect();
        let p = judge(&rev, &head, false);
        assert_eq!((p.wins, p.verdict), (6, Verdict::Same));
        let p = judge(&rev, &head, true);
        assert_eq!((p.losses, p.verdict), (6, Verdict::Same));
    }

    /// A loss needs three pairs in four and a median outside the spread.
    #[test]
    fn a_regression_needs_three_pairs_in_four() {
        let rev = [100.0, 101.0, 99.0, 100.0, 100.0, 100.0, 101.0, 99.0];
        let mut head = [120.0; 8];
        head[0] = 90.0;
        head[1] = 90.0;
        assert_eq!(judge(&rev, &head, true).verdict, Verdict::Worse);
        head[2] = 90.0;
        let p = judge(&rev, &head, true);
        assert_eq!((p.losses, p.verdict), (5, Verdict::Same));
    }

    /// Logical metrics repeat exactly: equal samples tie every pair.
    #[test]
    fn equal_samples_tie_every_pair() {
        let p = judge(&[7.25; 6], &[7.25; 6], true);
        assert_eq!((p.wins, p.losses, p.ratio), (0, 0, 1.0));
        assert_eq!(p.verdict, Verdict::Same);
        let zero = judge(&[0.0; 3], &[0.0; 3], true);
        assert!(zero.ratio.is_nan() && zero.verdict == Verdict::Same);
    }

    #[test]
    fn the_table_has_a_row_per_metric() {
        let p = judge(&[2.0, 2.0], &[1.0, 1.0], true);
        let t = render_table("engine-deep", &[("latency_p50_us", p)]);
        assert!(t.starts_with("engine-deep\n"));
        let row = t.lines().nth(2).unwrap();
        assert!(row.contains("latency_p50_us"));
        assert!(row.contains("2.000 [2.000, 2.000]"));
        assert!(row.contains("0.500") && row.contains("2/2") && row.ends_with("better"));
    }
}
