//! `--compare A.json B.json`: a verdict per (workload, end-to-end metric)
//! between two result files, against the bounds in `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::path::Path;

use serde::Value;

use crate::stats::Summary;

/// One end-to-end metric's regression bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether a lower value is better.
    pub lower_is_better: bool,
    /// Share of the base median by which the metric may worsen.
    pub bound: f64,
}

/// The comparison outcome for one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the base run's own spread.
    Better,
    /// Worse by more than the bound.
    Worse,
    /// Neither better nor worse by those margins.
    WithinBound,
    /// One side's spread exceeds the bound, so the runs cannot tell.
    Unresolved,
}

impl Verdict {
    /// The verdict as printed.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within-bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::parse_value(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn number(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::Float(x) => Some(*x),
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// The `end_to_end` bounds of a `BENCHMARK.json`.
pub fn load_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let doc = read_json(path)?;
    let Some(Value::Array(items)) = doc.get("end_to_end") else {
        return Err(format!("{}: no end_to_end list", path.display()));
    };
    items
        .iter()
        .map(|m| {
            let name = match m.get("name") {
                Some(Value::Str(s)) => s.clone(),
                _ => return Err(format!("{}: metric without a name", path.display())),
            };
            let lower_is_better = match m.get("better") {
                Some(Value::Str(s)) if s == "lower" => true,
                Some(Value::Str(s)) if s == "higher" => false,
                _ => {
                    return Err(format!(
                        "{}: {name} has no better direction",
                        path.display()
                    ))
                }
            };
            let bound = number(m.get("bound"))
                .ok_or_else(|| format!("{}: {name} has no bound", path.display()))?;
            Ok(Bound {
                name,
                lower_is_better,
                bound,
            })
        })
        .collect()
}

/// The `run_seconds` of a `BENCHMARK.json`: how long one run measures.
pub fn load_run_seconds(path: &Path) -> Result<f64, String> {
    number(read_json(path)?.get("run_seconds"))
        .filter(|s| *s > 0.0)
        .ok_or_else(|| format!("{}: no positive run_seconds", path.display()))
}

/// Per-workload metric summaries of a result file.
pub type Results = BTreeMap<String, BTreeMap<String, Summary>>;

/// Reads the `workloads` table of a result file.
pub fn load_results(path: &Path) -> Result<Results, String> {
    let doc = read_json(path)?;
    let Some(Value::Object(workloads)) = doc.get("workloads") else {
        return Err(format!("{}: no workloads table", path.display()));
    };
    let mut out = Results::new();
    for (w, body) in workloads {
        let Some(metrics) = body.get("metrics") else {
            return Err(format!("{}: {w} has no metrics", path.display()));
        };
        let parsed = serde::Deserialize::from_value(metrics)
            .map_err(|e| format!("{}: {w}: {e}", path.display()))?;
        out.insert(w.clone(), parsed);
    }
    Ok(out)
}

/// Share of (base, new) sample pairs in which the new sample is better.
fn win_share(base: &Summary, new: &Summary, lower_is_better: bool) -> f64 {
    let pairs = base.samples.len() * new.samples.len();
    let wins = base
        .samples
        .iter()
        .flat_map(|a| new.samples.iter().map(move |b| (a, b)))
        .filter(|(a, b)| if lower_is_better { b < a } else { b > a })
        .count();
    wins as f64 / pairs.max(1) as f64
}

/// Compares `new` against `base` for one metric; returns the verdict and
/// the ratio `new / base` of the medians.
///
/// Worse: the median worsened by more than the bound. Better: the medians
/// differ by more than the base spread and the new side wins at least nine
/// tenths of the sample pairs. Unresolved: a spread exceeds the bound,
/// unless every new sample beats every base sample.
pub fn verdict(base: &Summary, new: &Summary, bound: &Bound) -> (Verdict, f64) {
    let ratio = new.median / base.median;
    let worse_by = if bound.lower_is_better {
        ratio - 1.0
    } else {
        1.0 - ratio
    };
    let wins = win_share(base, new, bound.lower_is_better);
    let v = if base.spread().max(new.spread()) > bound.bound {
        if wins == 1.0 {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound.bound {
        Verdict::Worse
    } else if -worse_by > base.spread() && wins >= 0.9 {
        Verdict::Better
    } else {
        Verdict::WithinBound
    };
    (v, ratio)
}

/// The comparison report, and whether any metric came out worse.
pub fn compare(base: &Results, new: &Results, bounds: &[Bound]) -> (String, bool) {
    let mut out = String::new();
    let mut any_worse = false;
    for (w, base_metrics) in base {
        let Some(new_metrics) = new.get(w) else {
            out.push_str(&format!("{w:<11} missing from the second file\n"));
            continue;
        };
        for b in bounds {
            let (Some(a), Some(n)) = (base_metrics.get(&b.name), new_metrics.get(&b.name)) else {
                out.push_str(&format!("{w:<11} {:<12} missing\n", b.name));
                continue;
            };
            let (v, ratio) = verdict(a, n, b);
            any_worse |= v == Verdict::Worse;
            out.push_str(&format!(
                "{w:<11} {:<12} {:<12} B/A = {ratio:.4} (base A median {:.6} {}, \
                 B median {:.6}; spread A {:.2}% B {:.2}%, n {}/{}; bound {:.0}%)\n",
                b.name,
                v.label(),
                a.median,
                a.unit,
                n.median,
                a.spread() * 100.0,
                n.spread() * 100.0,
                a.n,
                n.n,
                b.bound * 100.0,
            ));
        }
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(b: f64) -> Bound {
        Bound {
            name: "run_s".into(),
            lower_is_better: true,
            bound: b,
        }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let base = Summary::of("s", &[9.9, 10.0, 10.1]);
        let same = Summary::of("s", &[10.0, 10.05, 10.1]);
        let slow = Summary::of("s", &[11.9, 12.0, 12.1]);
        let fast = Summary::of("s", &[7.9, 8.0, 8.1]);
        let noisy = Summary::of("s", &[5.0, 10.0, 15.0]);
        // Faster median, but most samples overlap the base: no claim.
        let overlapping = Summary::of("s", &[8.0, 9.5, 9.95, 10.2]);
        assert_eq!(verdict(&base, &same, &bound(0.1)).0, Verdict::WithinBound);
        assert_eq!(verdict(&base, &slow, &bound(0.1)).0, Verdict::Worse);
        assert_eq!(verdict(&base, &fast, &bound(0.1)).0, Verdict::Better);
        assert_eq!(verdict(&base, &noisy, &bound(0.1)).0, Verdict::Unresolved);
        assert_eq!(
            verdict(&base, &overlapping, &bound(0.5)).0,
            Verdict::WithinBound
        );
        // Too noisy to bound, yet every new sample beats every base one.
        let far = Summary::of("s", &[1.0, 2.0, 3.0]);
        assert_eq!(verdict(&base, &far, &bound(0.1)).0, Verdict::Better);
        let (_, ratio) = verdict(&base, &slow, &bound(0.1));
        assert!((ratio - 1.2).abs() < 1e-12);
    }

    #[test]
    fn higher_is_better_metrics_invert() {
        let b = Bound {
            name: "x".into(),
            lower_is_better: false,
            bound: 0.1,
        };
        let base = Summary::of("1/s", &[100.0, 100.0, 100.0]);
        let low = Summary::of("1/s", &[80.0, 80.0, 80.0]);
        assert_eq!(verdict(&base, &low, &b).0, Verdict::Worse);
        assert_eq!(verdict(&low, &base, &b).0, Verdict::Better);
    }
}
