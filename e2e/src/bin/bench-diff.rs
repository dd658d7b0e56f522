//! `bench-diff <base.jsonl> [<new.jsonl>]`
//!
//! Reads the run records `e2e --out` appends and prints, per workload, each
//! metric's median and quartiles — and with two files the before/after table
//! a CHANGES.md entry quotes: both sides, the ratio with its base, and a
//! verdict against the metric's bound.  Quartiles and spread are computed as
//! the driver computes them (Python's `statistics.quantiles(values, n=4)`).
//!
//! Verdicts, for the gated (end-to-end) metrics of untraced runs:
//! `unresolved` when either side's spread exceeds the bound — unless every
//! new run reads better than every base run (`better`) — otherwise
//! `REGRESSED` when the new median is worse by more than the bound, `better`
//! when it is better by more than the base's own spread, else `ok`.

use minsig_e2e::catalogue::{self, Better, MetricDef, Workload};
use minsig_e2e::harness::{median, quartiles};
use minsig_e2e::json::{self, Value};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// `(workload, traced)` → metric → values, one per run.
type Runs = BTreeMap<(String, bool), BTreeMap<String, Vec<f64>>>;

fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for (number, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let record = json::parse(line).map_err(|e| format!("{path}:{}: {e}", number + 1))?;
        let field =
            |name: &str| record.get(name).ok_or(format!("{path}:{}: no {name:?}", number + 1));
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        let traced = field("trace")? == &Value::Bool(true);
        let metrics = field("metrics")?.as_object().unwrap_or_default();
        let run = runs.entry((workload, traced)).or_default();
        for (name, metric) in metrics {
            if let Some(value) = metric.get("value").and_then(Value::as_f64) {
                run.entry(name.clone()).or_default().push(value);
            }
        }
    }
    Ok(runs)
}

struct Side {
    n: usize,
    median: f64,
    q1: f64,
    q3: f64,
}

impl Side {
    fn of(values: &[f64]) -> Side {
        let [q1, _, q3] = if values.len() >= 2 { quartiles(values) } else { [values[0]; 3] };
        Side { n: values.len(), median: median(values), q1, q3 }
    }

    /// Interquartile distance as a share of the median: the driver's spread.
    fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    fn cell(&self) -> String {
        format!("{} [{} .. {}] n={}", short(self.median), short(self.q1), short(self.q3), self.n)
    }
}

/// Four significant digits: enough to compare, short enough for a table.
fn short(value: f64) -> String {
    if value == 0.0 {
        return "0".into();
    }
    let digits = (3 - value.abs().log10().floor() as i32).clamp(0, 9) as usize;
    format!("{value:.digits$}")
}

fn verdict(def: &MetricDef, base: &[f64], new: &[f64]) -> &'static str {
    let Some(bound) = def.bound else { return "-" };
    let (b, n) = (Side::of(base), Side::of(new));
    // Positive when the new side is worse, whichever way the metric improves.
    let worse_by = match def.better {
        Better::Lower => (n.median - b.median) / b.median,
        Better::Higher => (b.median - n.median) / b.median,
    };
    let every_new_better = match def.better {
        Better::Lower => new.iter().all(|x| base.iter().all(|y| x < y)),
        Better::Higher => new.iter().all(|x| base.iter().all(|y| x > y)),
    };
    if b.spread().max(n.spread()) > bound {
        if every_new_better {
            "better"
        } else {
            "unresolved"
        }
    } else if worse_by > bound {
        "REGRESSED"
    } else if -worse_by > b.spread() && every_new_better {
        "better"
    } else {
        "ok"
    }
}

fn print_tables(base: &Runs, new: Option<&Runs>) {
    for workload in Workload::ALL {
        for traced in [false, true] {
            let key = (workload.name().to_string(), traced);
            let Some(base_run) = base.get(&key) else { continue };
            let new_run = new.and_then(|runs| runs.get(&key));
            println!("\n## {} ({})", workload.name(), if traced { "traced" } else { "untraced" });
            match new {
                None => println!("| metric | unit | median [q1 .. q3] | spread | bound |\n|---|---|---|---|---|"),
                Some(_) => println!("| metric | unit | base median [q1 .. q3] | new median [q1 .. q3] | new / base | verdict |\n|---|---|---|---|---|---|"),
            }
            // Catalogue order; an untraced run's table keeps to what it gates
            // on plus whatever else it measured.
            for def in catalogue::END_TO_END.iter().chain(catalogue::PER_LAYER) {
                let Some(values) = base_run.get(def.name) else { continue };
                let side = Side::of(values);
                match new {
                    None => println!(
                        "| {} | {} | {} | {:.1} % | {} |",
                        def.name,
                        def.unit,
                        side.cell(),
                        side.spread() * 100.0,
                        def.bound.map_or("-".into(), |b| format!("{:.0} %", b * 100.0)),
                    ),
                    Some(_) => {
                        let Some(new_values) = new_run.and_then(|run| run.get(def.name)) else {
                            println!(
                                "| {} | {} | {} | (not measured) | - | - |",
                                def.name,
                                def.unit,
                                side.cell()
                            );
                            continue;
                        };
                        let new_side = Side::of(new_values);
                        let ratio = if side.median == 0.0 {
                            "-".to_string()
                        } else {
                            format!(
                                "{:.3} of {}",
                                new_side.median / side.median,
                                short(side.median)
                            )
                        };
                        // Only untraced runs are measured cleanly enough to gate on.
                        let verdict = if traced { "-" } else { verdict(def, values, new_values) };
                        println!(
                            "| {} | {} | {} | {} | {} | {} |",
                            def.name,
                            def.unit,
                            side.cell(),
                            new_side.cell(),
                            ratio,
                            verdict
                        );
                    }
                }
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.len() > 2 || args.iter().any(|a| a.starts_with('-')) {
        eprintln!("usage: bench-diff <base.jsonl> [<new.jsonl>]   (files written by `e2e --out`)");
        return ExitCode::from(2);
    }
    let loaded: Result<Vec<Runs>, String> = args.iter().map(|path| load(path)).collect();
    match loaded {
        Ok(runs) => {
            print_tables(&runs[0], runs.get(1));
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gated(better: Better) -> MetricDef {
        MetricDef { name: "m", unit: "us", better, bound: Some(0.10), what: "" }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let lower = gated(Better::Lower);
        assert_eq!(verdict(&lower, &steady, &[103.0, 104.0, 102.0, 103.5, 102.5]), "ok");
        assert_eq!(verdict(&lower, &steady, &[120.0, 121.0, 119.0, 120.5, 119.5]), "REGRESSED");
        assert_eq!(verdict(&lower, &steady, &[80.0, 81.0, 79.0, 80.5, 79.5]), "better");
        // A spread wider than the bound resolves nothing ...
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(verdict(&lower, &noisy, &[95.0, 105.0, 100.0, 98.0, 102.0]), "unresolved");
        // ... unless every new run beats every base run.
        assert_eq!(verdict(&lower, &noisy, &[50.0, 51.0, 49.0, 50.5, 49.5]), "better");
        // Direction flips for rates.
        let higher = gated(Better::Higher);
        assert_eq!(verdict(&higher, &steady, &[80.0, 81.0, 79.0, 80.5, 79.5]), "REGRESSED");
        assert_eq!(verdict(&higher, &steady, &[120.0, 121.0, 119.0, 120.5, 119.5]), "better");
        // Per-layer metrics are never judged.
        let layer = MetricDef { bound: None, ..lower };
        assert_eq!(verdict(&layer, &steady, &[500.0, 500.0]), "-");
    }

    #[test]
    fn values_print_to_four_significant_digits() {
        assert_eq!(short(12345.678), "12346");
        assert_eq!(short(66.8221), "66.82");
        assert_eq!(short(0.025712), "0.02571");
        assert_eq!(short(0.0), "0");
    }
}
