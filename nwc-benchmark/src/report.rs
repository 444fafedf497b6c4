//! Order statistics, a small JSON reader, and the `compare` subcommand.

use crate::metrics::{Better, Decl, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::path::Path;

/// Ceil-rank percentile of `sorted` (0 when empty).
pub fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`; both equal the value for a
/// single sample.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (0.0, 0.0),
        1 => (v[0], v[0]),
        len => {
            let m = len + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (cut(1), cut(3))
        }
    }
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses one JSON document.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing characters at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.word("true", Json::Bool(true)),
            Some(b'f') => self.word("false", Json::Bool(false)),
            Some(b'n') => self.word("null", Json::Null),
            Some(_) => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
            None => Err("unexpected end of input".into()),
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(w.as_bytes()) {
            self.i += w.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return Err(format!("expected a string at byte {}", self.i));
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            match self.s.get(self.i) {
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let esc = self.s.get(self.i + 1).ok_or("unterminated escape")?;
                    out.push(match esc {
                        b'n' => b'\n',
                        b't' => b'\t',
                        other => *other,
                    });
                    self.i += 2;
                }
                Some(&c) => {
                    out.push(c);
                    self.i += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }
}

/// `(workload, metric) -> values` over every result file in `dir`.
fn load_runs(dir: &Path) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let mut runs: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut files = 0;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let (Some(workload), Some(Json::Obj(metrics))) = (
            doc.get("workload").and_then(Json::str),
            doc.get("result").and_then(|r| r.get("metrics")),
        ) else {
            continue;
        };
        files += 1;
        for (name, m) in metrics {
            if let Some(value) = m.get("value").and_then(Json::num) {
                runs.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    if files == 0 {
        return Err(format!("no result files in {}", dir.display()));
    }
    Ok(runs)
}

fn declared(name: &str) -> Option<&'static Decl> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Prints, per workload and metric, each side's median and quartiles.
/// An end-to-end metric is flagged when B's median is worse than A's
/// by more than its bound, and reported unresolved when either side's
/// quartile spread exceeds the bound.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let runs_a = load_runs(a)?;
    let runs_b = load_runs(b)?;
    println!(
        "{:<18} {:<34} {:>34} {:>34} {:>9}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change"
    );
    let mut regressed = false;
    for ((workload, metric), va) in &runs_a {
        let (Some(vb), Some(decl)) = (
            runs_b.get(&(workload.clone(), metric.clone())),
            declared(metric),
        ) else {
            continue;
        };
        let (ma, mb) = (median(va), median(vb));
        let (qa, qb) = (quartiles(va), quartiles(vb));
        let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
        let verdict = match decl.bound {
            None => "",
            Some(bound) => {
                let spread =
                    |m: f64, q: (f64, f64)| if m == 0.0 { 0.0 } else { (q.1 - q.0) / m.abs() };
                let worse = match decl.better {
                    Better::Lower => change,
                    Better::Higher => -change,
                };
                if worse > bound {
                    regressed = true;
                    "REGRESSED"
                } else if spread(ma, qa) > bound || spread(mb, qb) > bound {
                    "unresolved"
                } else {
                    "within bound"
                }
            }
        };
        let cell = |m: f64, q: (f64, f64)| format!("{m:.4} [{:.4}, {:.4}]", q.0, q.1);
        println!(
            "{workload:<18} {:<34} {:>34} {:>34} {:>+8.2}%  {verdict}",
            format!("{metric} ({})", decl.unit),
            cell(ma, qa),
            cell(mb, qb),
            change * 100.0
        );
    }
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn json_round_trips_the_result_line() {
        let doc = parse_json(
            r#"{"correct": true, "attempted": 3, "metrics": {"p50_ms": {"value": 1.5e-1, "unit": "ms"}}, "x": [null, false, "a\"b"]}"#,
        )
        .expect("valid JSON");
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let p50 = doc.get("metrics").and_then(|m| m.get("p50_ms"));
        assert_eq!(
            p50.and_then(|m| m.get("value")).and_then(Json::num),
            Some(0.15)
        );
        assert!(parse_json("{\"a\": 1,}").is_err());
    }
}
