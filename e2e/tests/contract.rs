//! The benchmark held to its contract: `BENCHMARK.json` says what the
//! catalogue says, every workload runs end to end (at `--smoke` scale) and
//! prints exactly the metrics it promises, and a seed fixes the inputs and
//! every counter that claims to be exact.

use minsig_e2e::catalogue::{self, MetricDef, Workload};
use minsig_e2e::json::{self, Value};
use std::path::Path;
use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("the benchmark binary starts")
}

fn e2e(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_e2e"), args)
}

/// One finished `e2e` run: its printed lines and its last-line JSON.
struct Finished {
    stdout: String,
    result: Value,
}

impl Finished {
    fn of(workload: Workload, seed: &str, extra: &[&str]) -> Finished {
        let mut args = vec!["--workload", workload.name(), "--seed", seed, "--smoke"];
        args.extend_from_slice(extra);
        let output = e2e(&args);
        let stdout = String::from_utf8(output.stdout).expect("the output is UTF-8");
        assert!(
            output.status.success(),
            "{args:?} exited with {:?}\n{stdout}\n{}",
            output.status.code(),
            String::from_utf8_lossy(&output.stderr)
        );
        let last = stdout.lines().last().expect("the run printed something");
        let result =
            json::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"));
        Finished { stdout, result }
    }

    fn digest(&self) -> &str {
        self.stdout
            .lines()
            .find_map(|line| line.strip_prefix("inputs_digest "))
            .expect("the run printed its inputs digest")
    }

    fn metric(&self, name: &str) -> f64 {
        self.result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("{name} is missing from the result line"))
    }

    /// The result line has exactly the contract's keys, reports no failure,
    /// and carries exactly `set`, each metric with its catalogue unit.
    fn assert_reports(&self, set: &[MetricDef]) {
        let keys: Vec<&str> =
            self.result.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(self.result.get("correct"), Some(&Value::Bool(true)), "{}", self.stdout);
        assert_eq!(self.result.get("failed").unwrap().as_f64(), Some(0.0));
        assert!(self.result.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
        let metrics = self.result.get("metrics").unwrap().as_object().unwrap();
        let names: Vec<&str> = metrics.iter().map(|(name, _)| name.as_str()).collect();
        let expected: Vec<&str> = set.iter().map(|m| m.name).collect();
        assert_eq!(names, expected);
        for (def, (_, metric)) in set.iter().zip(metrics) {
            assert_eq!(metric.get("unit").and_then(Value::as_str), Some(def.unit), "{}", def.name);
            assert!(metric.get("value").and_then(Value::as_f64).is_some(), "{}", def.name);
            // Every metric was also printed by name, with its unit.
            assert!(
                self.stdout.lines().any(|l| l.starts_with(def.name) && l.contains(def.unit)),
                "{} was not printed",
                def.name
            );
        }
    }
}

/// The whole path of one workload at 1/50 of the op counts: an untraced run
/// with every end-to-end metric non-zero, a traced run with every per-layer
/// metric and a parent-linked trace, the same seed again (same digest, same
/// exact counters) and another seed (another digest).
fn smoke(workload: Workload, exact: &[&str], nonzero_layers: &[&str]) {
    let untraced = Finished::of(workload, "7", &["--trace", "0"]);
    untraced.assert_reports(catalogue::END_TO_END);
    for def in catalogue::END_TO_END {
        assert!(untraced.metric(def.name) > 0.0, "{} must never be 0", def.name);
    }

    let traced = Finished::of(workload, "7", &["--trace", "1"]);
    traced.assert_reports(catalogue::PER_LAYER);
    assert_eq!(traced.metric("failed_share"), 0.0);
    for name in nonzero_layers {
        assert!(traced.metric(name) > 0.0, "{name} should be measured on {}", workload.name());
    }

    let trace_file = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-7.jsonl", workload.name()));
    let spans: Vec<Value> = std::fs::read_to_string(&trace_file)
        .expect("the traced run wrote its spans")
        .lines()
        .map(|line| json::parse(line).expect("each span is one JSON object"))
        .collect();
    assert!(spans.iter().any(|s| s.get("parent") == Some(&Value::Null)), "no root span");
    for span in &spans {
        let end = span.get("end_ns").unwrap().as_f64().unwrap();
        assert!(end >= span.get("start_ns").unwrap().as_f64().unwrap());
        if let Some(parent) = span.get("parent").unwrap().as_f64() {
            let parent = &spans[parent as usize];
            assert_eq!(parent.get("op"), span.get("op"), "a span shares its parent's op id");
        }
    }
    assert!(spans.iter().any(|s| s.get("name").unwrap().as_str() == Some("replay")));

    let again = Finished::of(workload, "7", &["--trace", "1"]);
    assert_eq!(again.digest(), traced.digest(), "same seed, same inputs");
    for name in exact {
        assert_eq!(
            again.metric(name),
            traced.metric(name),
            "{name} must repeat exactly for a seed"
        );
    }
    let other = Finished::of(workload, "8", &["--trace", "1"]);
    assert_ne!(other.digest(), traced.digest(), "another seed, other inputs");
}

#[test]
fn mem_syn_runs_end_to_end() {
    smoke(
        Workload::MemSyn,
        &[
            "engine.shard_checked",
            "engine.nodes_visited",
            "kernel.mean_len",
            "signature.hash_evals_per_entity",
        ],
        &[
            "kernel.ns_per_intersection",
            "arena.ns_per_degree",
            "plan.explain_us",
            "shard.merge_us",
            "trace.coverage",
        ],
    );
}

#[test]
fn mem_skewed_runs_end_to_end() {
    smoke(
        Workload::MemSkewed,
        &[
            "engine.shard_checked",
            "engine.checked_share",
            "plan.shards_skipped",
            "kernel.dispatch_merge",
        ],
        &[
            "engine.shard_topk_us",
            "plan.explain_us",
            "plan.batch_us_per_query",
            "rayon.join_noop_us",
        ],
    );
}

#[test]
fn paged_syn_runs_end_to_end() {
    // The pool's own counters are *not* in the exact list: the engine's
    // fan-out drives the shards from two worker threads that share the pool,
    // and which of them touches a page first decides what LRU-2 evicts, so
    // misses per query wander by a few tenths of a percent between runs.
    smoke(
        Workload::PagedSyn,
        &["engine.shard_checked", "engine.nodes_visited", "kernel.dispatch_merge"],
        &[
            "pool.misses_per_query",
            "pool.hit_rate",
            "pool.get_hit_ns",
            "pool.get_miss_ns",
            "store.read_trace_us",
            "paged.full_pool_p50_us",
        ],
    );
}

#[test]
fn durable_rw_runs_end_to_end() {
    smoke(
        Workload::DurableRw,
        &[
            "log.bytes_per_user_byte",
            "disk_bytes_per_user_byte",
            "persist.checkpoint_bytes",
            "ingest.entities_touched",
        ],
        &[
            "commit_p50_ms",
            "checkpoint_ms",
            "recover_ms",
            "ingest.flush_ms",
            "ingest.flush_pinned_ms",
            "log.append_fsync_us",
            "persist.to_bytes_ms",
            "durable.replay_records_per_s",
        ],
    );
}

#[test]
fn list_names_every_workload_and_metric() {
    let output = e2e(&["--list"]);
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    for workload in Workload::ALL {
        assert!(stdout.contains(workload.name()));
    }
    for metric in catalogue::END_TO_END.iter().chain(catalogue::PER_LAYER) {
        assert!(stdout.lines().any(|l| l.trim_start().starts_with(metric.name)), "{}", metric.name);
    }
}

#[test]
fn bad_arguments_are_refused_without_a_result_line() {
    for args in [
        &["--workload", "mem_syn"][..],
        &["--seed", "1"],
        &["--workload", "nope", "--seed", "1"],
        &["--workload", "mem_syn", "--seed", "x"],
        &["--workload", "mem_syn", "--seed", "1", "--trace", "2"],
        &["--workload", "mem_syn", "--seed", "1", "--seconds", "0"],
        &["--frobnicate"],
    ] {
        let output = e2e(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[test]
fn bench_diff_prints_the_before_after_table() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).unwrap();
    let files = ["base", "new"]
        .map(|side| dir.join(format!("bench-diff-test-{}-{side}.jsonl", std::process::id())));
    for file in &files {
        let _ = std::fs::remove_file(file);
        for seed in ["3", "4"] {
            Finished::of(Workload::MemSkewed, seed, &["--out", file.to_str().unwrap()]);
        }
    }
    let record = std::fs::read_to_string(&files[0]).unwrap();
    let record = json::parse(record.lines().next().unwrap()).unwrap();
    assert_eq!(record.get("workload").unwrap().as_str(), Some("mem_skewed"));
    let fingerprint = record.get("fingerprint").unwrap();
    assert!(fingerprint.get("git_sha").is_some() && fingerprint.get("nproc").is_some());
    assert!(record.get("metrics").unwrap().get("query_p50_us").unwrap().get("samples").is_some());

    let bench_diff = env!("CARGO_BIN_EXE_bench-diff");
    let both = run(bench_diff, &[files[0].to_str().unwrap(), files[1].to_str().unwrap()]);
    let table = String::from_utf8(both.stdout).unwrap();
    assert!(both.status.success(), "{table}");
    assert!(table.contains("## mem_skewed (untraced)"), "{table}");
    for metric in catalogue::END_TO_END {
        let row = table.lines().find(|l| l.starts_with(&format!("| {} |", metric.name)));
        let row = row.unwrap_or_else(|| panic!("no row for {}\n{table}", metric.name));
        assert!(row.contains(" of "), "the ratio names its base: {row}");
        assert!(
            ["ok", "better", "unresolved", "REGRESSED"]
                .iter()
                .any(|v| row.ends_with(&format!("| {v} |"))),
            "{row}"
        );
    }
    let alone = run(bench_diff, &[files[0].to_str().unwrap()]);
    assert!(String::from_utf8(alone.stdout).unwrap().contains("| spread |"));
    assert_eq!(run(bench_diff, &[]).status.code(), Some(2));
    for file in &files {
        std::fs::remove_file(file).unwrap();
    }
}

/// `BENCHMARK.json` is what the driver reads and the catalogue is what the
/// binary emits; they must say the same thing.
#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root");
    assert!(text.len() <= 64 * 1024);
    let spec = json::parse(&text).expect("BENCHMARK.json is JSON");
    let keys: Vec<&str> = spec.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);

    let strings = |key: &str| -> Vec<String> {
        spec.get(key)
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|v| v.as_str().unwrap().to_string())
            .collect()
    };
    assert_eq!(strings("paths"), ["e2e"]);
    let command = strings("command");
    assert_eq!(command[0], "cargo");
    assert!(command.len() <= 32 && command.iter().all(|arg| arg.len() <= 200));
    assert!(command.contains(&"e2e/Cargo.toml".to_string()) && command.last().unwrap() == "--");
    let run_seconds = spec.get("run_seconds").unwrap().as_f64().unwrap();
    assert!(run_seconds.fract() == 0.0 && (1.0..=60.0).contains(&run_seconds));

    let workloads = spec.get("workloads").unwrap().as_array().unwrap();
    assert_eq!(workloads.len(), Workload::ALL.len());
    for (entry, workload) in workloads.iter().zip(Workload::ALL) {
        assert_eq!(entry.as_object().unwrap().len(), 2);
        assert_eq!(entry.get("name").unwrap().as_str(), Some(workload.name()));
        assert_eq!(entry.get("why").unwrap().as_str(), Some(workload.why()));
    }

    for (key, set, fields) in
        [("end_to_end", catalogue::END_TO_END, 4), ("per_layer", catalogue::PER_LAYER, 3)]
    {
        let entries = spec.get(key).unwrap().as_array().unwrap();
        assert_eq!(entries.len(), set.len(), "{key}");
        for (entry, def) in entries.iter().zip(set) {
            assert_eq!(entry.as_object().unwrap().len(), fields, "{}", def.name);
            assert_eq!(entry.get("name").unwrap().as_str(), Some(def.name));
            assert_eq!(entry.get("unit").unwrap().as_str(), Some(def.unit), "{}", def.name);
            assert_eq!(
                entry.get("better").unwrap().as_str(),
                Some(def.better.as_str()),
                "{}",
                def.name
            );
            assert_eq!(entry.get("bound").and_then(Value::as_f64), def.bound, "{}", def.name);
        }
    }
}
