//! `e2e --workload <name> --seed <u64> [--seconds <s>] [--trace <0|1>] [--smoke] [--out <file>]`
//!
//! Runs one workload and prints every metric by name with its unit, then —
//! as the last line of standard output — the one JSON object the driver
//! reads.  See the crate docs of `minsig_e2e` for the metric glossary.

use minsig_e2e::catalogue::{self, Workload};
use minsig_e2e::harness::{fingerprint, CountingAlloc};
use minsig_e2e::json::Value;
use minsig_e2e::workloads::{self, RunConfig};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// What `BENCHMARK.json` passes as `--seconds`.
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage: e2e --workload <name> --seed <u64> [--seconds <s>] [--trace <0|1>] \
                     [--smoke] [--out <file.jsonl>]\n       e2e --list";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke, mut out) =
        (None, None, DEFAULT_SECONDS, false, false, None);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--list" => return Ok(None),
            "--smoke" => smoke = true,
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        smoke,
        out,
    }))
}

fn list() {
    println!("workloads:");
    for workload in Workload::ALL {
        println!("  {:<12} {}", workload.name(), workload.why());
    }
    for (title, metrics) in [
        ("end-to-end metrics (--trace 0; bound = allowed worsening)", catalogue::END_TO_END),
        ("per-layer metrics (--trace 1; never gated)", catalogue::PER_LAYER),
    ] {
        println!("{title}:");
        for metric in metrics {
            let bound = metric.bound.map_or(String::new(), |b| format!(" bound {b}"));
            println!(
                "  {:<34} {:<6} {:<6}{bound}  {}",
                metric.name,
                metric.unit,
                metric.better.as_str(),
                metric.what
            );
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            list();
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    // Index files and traces stay inside the checkout, under the benchmark's
    // own (gitignored) output directory.
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let scratch =
        out_dir.join(format!("{}-{}-{}", args.workload.name(), args.seed, std::process::id()));
    let config = RunConfig {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        scratch: scratch.clone(),
    };
    let outcome = workloads::run(&config);
    let _ = std::fs::remove_dir_all(&scratch);

    println!(
        "workload {} seed {} seconds {} trace {} smoke {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        args.smoke
    );
    println!("inputs_digest {:016x}", outcome.inputs_digest);
    // Everything measured, plus — as 0 with n=0 — the per-layer metrics that
    // do not apply to this workload, so a run always names its whole set.
    for metric in outcome.report.metrics().iter().filter(|m| m.samples > 0 || args.trace) {
        println!(
            "{:<34} {:>18.4} {:<6} n={}",
            metric.name, metric.value, metric.unit, metric.samples
        );
    }
    for note in &outcome.notes {
        println!("note: {note}");
    }
    if let Some(spans) = &outcome.spans {
        let path = out_dir.join(format!("trace-{}-{}.jsonl", args.workload.name(), args.seed));
        match spans.write_jsonl(&path) {
            Ok(()) => println!("{} spans written to {}", spans.spans().len(), path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
        println!("{:<24} {:>8} {:>14} {:>14}", "span", "count", "total_ms", "self_ms");
        for (name, totals) in spans.totals() {
            println!(
                "{name:<24} {:>8} {:>14.3} {:>14.3}",
                totals.count,
                totals.total_ns as f64 / 1e6,
                totals.self_ns as f64 / 1e6
            );
        }
    }
    for failure in &outcome.failures {
        eprintln!("FAILED: {failure}");
    }

    let correct = outcome.failed == 0;
    let set = if args.trace { catalogue::PER_LAYER } else { catalogue::END_TO_END };
    let names: Vec<&str> = set.iter().map(|m| m.name).collect();
    let metrics = match outcome.report.to_json(&names, false) {
        Ok(metrics) => metrics,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.out {
        let measured: Vec<&str> = outcome
            .report
            .metrics()
            .iter()
            .filter(|m| m.samples > 0)
            .map(|m| m.name.as_str())
            .collect();
        let record = Value::Obj(vec![
            ("workload".into(), Value::Str(args.workload.name().into())),
            ("seed".into(), Value::Num(args.seed as f64)),
            ("seconds".into(), Value::Num(args.seconds)),
            ("trace".into(), Value::Bool(args.trace)),
            ("smoke".into(), Value::Bool(args.smoke)),
            ("inputs_digest".into(), Value::Str(format!("{:016x}", outcome.inputs_digest))),
            ("fingerprint".into(), fingerprint()),
            ("correct".into(), Value::Bool(correct)),
            ("attempted".into(), Value::Num(outcome.attempted as f64)),
            ("failed".into(), Value::Num(outcome.failed as f64)),
            (
                "metrics".into(),
                outcome.report.to_json(&measured, true).expect("measured metrics are set"),
            ),
        ]);
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut file| writeln!(file, "{}", record.to_json()));
        if let Err(e) = appended {
            eprintln!("could not append to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let line = Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Num(outcome.attempted as f64)),
        ("failed".into(), Value::Num(outcome.failed as f64)),
        ("metrics".into(), metrics),
    ]);
    println!("{}", line.to_json());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
