//! Reports: the one-line result the last line of stdout carries, the full
//! report `--out` writes, and the `compare` subcommand over two sets of
//! full reports.

use crate::stats::quartiles;
use sesr_serve::json::{self, JsonObject, JsonValue};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// `{"<name>": {"value": v, "unit": u}, ...}`.
    pub fn to_json(&self) -> String {
        metrics_json(&self.0)
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    metrics
        .iter()
        .fold(JsonObject::new(), |o, m| {
            o.raw(
                &m.name,
                &JsonObject::new()
                    .num("value", m.value)
                    .str("unit", m.unit)
                    .finish(),
            )
        })
        .finish()
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn result_line(attempted: u64, failed: u64, metrics: &Metrics) -> String {
    JsonObject::new()
        .bool("correct", true)
        .int("attempted", attempted)
        .int("failed", failed)
        .raw("metrics", &metrics_json(&metrics.0))
        .finish()
}

/// The full report: the result line's fields plus the workload, the host
/// block, every metric measured and the run's details.
pub struct FullReport<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub host: String,
    pub end_to_end: &'a Metrics,
    pub per_layer: Option<&'a Metrics>,
    pub details: String,
}

impl FullReport<'_> {
    pub fn to_json(&self) -> String {
        let mut all: Vec<Metric> = self.end_to_end.0.clone();
        if let Some(p) = self.per_layer {
            all.extend(p.0.iter().cloned());
        }
        JsonObject::new()
            .str("benchmark", "sesr-serve")
            .str("workload", self.workload)
            .int("seed", self.seed)
            .num("seconds", self.seconds)
            .bool("trace", self.trace)
            .bool("correct", true)
            .int("attempted", self.attempted)
            .int("failed", self.failed)
            .raw("host", &self.host)
            .raw("metrics", &metrics_json(&all))
            .raw("details", &self.details)
            .finish()
    }
}

/// Human-readable metric lines.
pub fn human(metrics: &Metrics) -> String {
    let mut s = String::new();
    for m in &metrics.0 {
        let _ = writeln!(s, "  {:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    s
}

// ---------------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
struct Rule {
    lower_is_better: bool,
    /// Regression bound as a share of the baseline median (end-to-end
    /// metrics only).
    bound: Option<f64>,
}

fn rules(bench: &JsonValue) -> Result<BTreeMap<String, Rule>, String> {
    let mut out = BTreeMap::new();
    for (section, bounded) in [("end_to_end", true), ("per_layer", false)] {
        let Some(JsonValue::Array(items)) = bench.get(&[section]) else {
            return Err(format!("BENCHMARK.json has no `{section}` list"));
        };
        for item in items {
            let name = item
                .get(&["name"])
                .and_then(JsonValue::as_str)
                .ok_or("metric without a name")?;
            let better = item.get(&["better"]).and_then(JsonValue::as_str);
            let bound = item.get(&["bound"]).and_then(JsonValue::as_f64);
            out.insert(
                name.to_string(),
                Rule {
                    lower_is_better: better == Some("lower"),
                    bound: if bounded { bound } else { None },
                },
            );
        }
    }
    Ok(out)
}

/// `(workload, metric) -> values`, one value per report file.
type Samples = BTreeMap<(String, String), Vec<f64>>;

fn load(paths: &[String]) -> Result<Samples, String> {
    let mut out = Samples::new();
    for p in paths {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"))?;
        let doc = JsonValue::parse(text.trim()).map_err(|e| format!("{p}: {e}"))?;
        let workload = doc
            .get(&["workload"])
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("{p}: not a full report (no `workload`)"))?;
        let Some(JsonValue::Object(metrics)) = doc.get(&["metrics"]) else {
            return Err(format!("{p}: no `metrics` object"));
        };
        for (name, m) in metrics {
            if let Some(v) = m.get(&["value"]).and_then(JsonValue::as_f64) {
                out.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

/// Verdict for one (metric, workload) pair, by the rules the benchmark's
/// README states: a gain needs nine in ten pairwise wins and a median
/// shift beyond set A's interquartile range; a spread wider than the
/// bound is unresolved unless every B run beats every A run; otherwise a
/// median worse by more than the bound is a regression.
fn verdict(a: &[f64], b: &[f64], rule: Rule) -> (f64, &'static str) {
    let better = |x: f64, y: f64| {
        if rule.lower_is_better {
            x < y
        } else {
            x > y
        }
    };
    let pairs = a.len().min(b.len());
    let wins = (0..pairs).filter(|&i| better(b[i], a[i])).count();
    let losses = (0..pairs).filter(|&i| better(a[i], b[i])).count();
    let win_frac = wins as f64 / pairs.max(1) as f64;
    let (q1, ma, q3) = quartiles(a);
    let (_, mb, _) = quartiles(b);
    let iqr = q3 - q1;
    let shift = (mb - ma).abs();
    if pairs > 0 && win_frac >= 0.9 && shift > iqr && better(mb, ma) {
        return (win_frac, "improved");
    }
    let Some(bound) = rule.bound else {
        let lost = losses as f64 / pairs.max(1) as f64;
        let v = if pairs > 0 && lost >= 0.9 && shift > iqr {
            "regressed"
        } else {
            "no-bound"
        };
        return (win_frac, v);
    };
    let every_b_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    if iqr / ma.abs() > bound && !every_b_better {
        return (win_frac, "unresolved");
    }
    let worse = if rule.lower_is_better {
        (mb - ma) / ma.abs()
    } else {
        (ma - mb) / ma.abs()
    };
    if worse > bound {
        (win_frac, "regressed")
    } else {
        (win_frac, "unchanged")
    }
}

fn compare(a: &Samples, b: &Samples, rules: &BTreeMap<String, Rule>) -> (String, bool) {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<30} {:<12} {:>12} {:>25} {:>12} {:>25} {:>5} verdict",
        "metric", "workload", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "win"
    );
    let mut regressed = false;
    for ((workload, name), av) in a {
        let (Some(bv), Some(rule)) = (b.get(&(workload.clone(), name.clone())), rules.get(name))
        else {
            continue;
        };
        let (qa1, ma, qa3) = quartiles(av);
        let (qb1, mb, qb3) = quartiles(bv);
        let (win, v) = verdict(av, bv, *rule);
        regressed |= v == "regressed" && rule.bound.is_some();
        let _ = writeln!(
            out,
            "{name:<30} {workload:<12} {ma:>12.4} {:>25} {mb:>12.4} {:>25} {win:>5.2} {v}",
            format!("[{qa1:.4}, {qa3:.4}]"),
            format!("[{qb1:.4}, {qb3:.4}]"),
        );
    }
    (out, regressed)
}

/// `compare --a <report>... --b <report>... [--bench BENCHMARK.json]`.
/// Exits 1 when an end-to-end metric regressed, 2 on a usage error.
pub fn compare_cmd(args: &[String]) -> i32 {
    let (mut a, mut b, mut bench) = (Vec::new(), Vec::new(), "BENCHMARK.json".to_string());
    let mut side = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--a" => side = Some(0),
            "--b" => side = Some(1),
            "--bench" => match it.next() {
                Some(p) => bench = p.clone(),
                None => return usage("--bench needs a path"),
            },
            p if !p.starts_with("--") => match side {
                Some(0) => a.push(p.to_string()),
                Some(_) => b.push(p.to_string()),
                None => return usage("list report files after --a or --b"),
            },
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    if a.is_empty() || b.is_empty() {
        return usage("need at least one report on each side");
    }
    let result = (|| -> Result<(String, bool), String> {
        let text = std::fs::read_to_string(&bench).map_err(|e| format!("read {bench}: {e}"))?;
        let rules = rules(&JsonValue::parse(&text).map_err(|e| format!("{bench}: {e}"))?)?;
        Ok(compare(&load(&a)?, &load(&b)?, &rules))
    })();
    match result {
        Ok((table, regressed)) => {
            print!("{table}");
            i32::from(regressed)
        }
        Err(e) => {
            eprintln!("benchmark compare: {e}");
            1
        }
    }
}

fn usage(msg: &str) -> i32 {
    eprintln!("benchmark compare: {msg}");
    eprintln!("usage: benchmark compare --a <report.json>... --b <report.json>... [--bench BENCHMARK.json]");
    2
}

/// Checks a document is valid JSON before it is printed or written.
pub fn checked(doc: String) -> Result<String, String> {
    json::validate(&doc).map_err(|e| format!("report is not valid JSON: {e}"))?;
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(bound: f64) -> Rule {
        Rule {
            lower_is_better: true,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_the_stated_rules() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0];
        let faster: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        let slower: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        let same: Vec<f64> = a.iter().rev().copied().collect();
        assert_eq!(verdict(&a, &faster, rule(0.1)).1, "improved");
        assert_eq!(verdict(&a, &slower, rule(0.1)).1, "regressed");
        assert_eq!(verdict(&a, &same, rule(0.1)).1, "unchanged");
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0];
        assert_eq!(verdict(&noisy, &same, rule(0.1)).1, "unresolved");
        let higher = Rule {
            lower_is_better: false,
            bound: Some(0.1),
        };
        assert_eq!(verdict(&a, &faster, higher).1, "regressed");
    }

    #[test]
    fn reports_validate_as_json() {
        let mut m = Metrics::default();
        m.push("p50_ms", 1.25, "ms");
        m.push("goodput_rps", 80.0, "req/s");
        let line = checked(result_line(10, 0, &m)).unwrap();
        let v = JsonValue::parse(&line).unwrap();
        assert_eq!(
            v.get(&["metrics", "p50_ms", "value"])
                .and_then(JsonValue::as_f64),
            Some(1.25)
        );
        assert_eq!(
            v.get(&["metrics", "p50_ms", "unit"])
                .and_then(JsonValue::as_str),
            Some("ms")
        );
        assert_eq!(
            v.as_object_keys().unwrap(),
            ["correct", "attempted", "failed", "metrics"]
        );
        let full = FullReport {
            workload: "interactive",
            seed: 1,
            seconds: 10.0,
            trace: false,
            attempted: 10,
            failed: 0,
            host: JsonObject::new().int("nproc", 2).finish(),
            end_to_end: &m,
            per_layer: None,
            details: "{}".to_string(),
        };
        checked(full.to_json()).unwrap();
    }
}
