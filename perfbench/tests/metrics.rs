//! Runs every workload at a tiny population and checks that each metric the
//! benchmark defines is emitted with its unit, so none can be dropped
//! silently.

use std::process::Command;

/// (workload, metric, unit) of every workload record, untraced.
const END_TO_END: &[(&str, &str, &str)] = &[
    ("wire-fleet", "setup_s", "s"),
    ("wire-fleet", "reports_per_s", "1/s"),
    ("wire-fleet", "cpu_ns_per_report", "ns"),
    ("wire-fleet", "wire_bytes_per_report", "B"),
    ("wire-fleet", "peak_rss_mb", "MB"),
    ("epoch-rounds", "setup_s", "s"),
    ("epoch-rounds", "reports_per_s", "1/s"),
    ("epoch-rounds", "cpu_ns_per_report", "ns"),
    ("epoch-rounds", "peak_rss_mb", "MB"),
    ("reid-chained", "setup_s", "s"),
    ("reid-chained", "targets_per_s", "1/s"),
    ("reid-chained", "cpu_us_per_target", "us"),
    ("reid-chained", "peak_rss_mb", "MB"),
];

/// Per-layer metrics of every workload, on the traced last line as
/// `BENCHMARK.json` lists them.
const SHARED_LAYERS: &[(&str, &str)] = &[
    ("datasets.corpus_s", "s"),
    ("solutions.sanitize_ns", "ns"),
    ("aggregator.absorb_ns", "ns"),
];

/// Per-layer metrics of the layers only some workloads run.
const OWN_LAYERS: &[(&str, &str, &str)] = &[
    ("wire-fleet", "compact.push_ns", "ns"),
    ("wire-fleet", "wire.seal_ns", "ns"),
    ("wire-fleet", "wire.crc_mb_s", "MB/s"),
    ("wire-fleet", "wire.decode_ns", "ns"),
    ("wire-fleet", "wire.validate_ns", "ns"),
    ("wire-fleet", "wire.frames", "count"),
    ("wire-fleet", "wire.bytes_per_report", "B"),
    ("wire-fleet", "net_client.cpu_ns", "ns"),
    ("wire-fleet", "net_client.wait_ns", "ns"),
    ("wire-fleet", "net_client.blocked_ns", "ns"),
    ("wire-fleet", "net.cpu_ns", "ns"),
    ("wire-fleet", "net.wait_ns", "ns"),
    ("wire-fleet", "service.shard_cpu_ns", "ns"),
    ("wire-fleet", "service.shard_wait_ns", "ns"),
    ("wire-fleet", "service.snapshot_ms_p50", "ms"),
    ("wire-fleet", "service.snapshot_ms_p90", "ms"),
    ("wire-fleet", "service.snapshot_samples", "count"),
    ("wire-fleet", "service.finish_ms", "ms"),
    ("epoch-rounds", "compact.push_ns", "ns"),
    ("epoch-rounds", "service.shard_cpu_ns", "ns"),
    ("epoch-rounds", "service.shard_wait_ns", "ns"),
    ("epoch-rounds", "service.ingest_ns", "ns"),
    ("epoch-rounds", "service.advance_epoch_ms", "ms"),
    ("epoch-rounds", "service.drain_ms", "ms"),
    ("reid-chained", "pipeline.collect_s", "s"),
    ("reid-chained", "attacks.fit_s", "s"),
    ("reid-chained", "attacks.eval_us", "us"),
];

/// The last line's metrics, as `BENCHMARK.json` lists them.
const LAST_END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("reports_per_s", "1/s"),
    ("cpu_ns_per_report", "ns"),
    ("peak_rss_mb", "MB"),
];

fn run(workload: &str, trace: &str) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--smoke",
            "--workload",
            workload,
            "--seed",
            "3",
            "--trace",
            trace,
        ])
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().map(str::to_string).collect()
}

/// Asserts `line` holds `"name": {"value": <finite number>, "unit": "unit"}`.
fn assert_metric(line: &str, name: &str, unit: &str) {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = line
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing from {line}"));
    let rest = &line[at + key.len()..];
    let (value, rest) = rest
        .split_once(", ")
        .expect("value is followed by its unit");
    let value: f64 = value
        .parse()
        .unwrap_or_else(|_| panic!("{name}: {value} is no number"));
    assert!(value.is_finite(), "{name} = {value}");
    assert!(
        rest.starts_with(&format!("\"unit\": \"{unit}\"}}")),
        "{name} has no unit {unit}: {rest}"
    );
}

fn assert_last_line(line: &str) {
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(line.contains(", \"failed\": 0, \"metrics\": {"), "{line}");
}

#[test]
fn untraced_runs_emit_every_end_to_end_metric() {
    for workload in ["wire-fleet", "epoch-rounds", "reid-chained"] {
        let lines = run(workload, "0");
        let (last, record) = (&lines[lines.len() - 1], &lines[lines.len() - 2]);
        assert_last_line(last);
        for &(name, unit) in LAST_END_TO_END {
            assert_metric(last, name, unit);
        }
        for &(_, name, unit) in END_TO_END.iter().filter(|(w, ..)| *w == workload) {
            assert_metric(record, name, unit);
        }
        for key in [
            "\"cores\": ",
            "\"git_rev\": ",
            "\"seed\": 3",
            "\"steal_s\": ",
            "\"cpu_s\": ",
        ] {
            assert!(record.contains(key), "validity record lacks {key}");
        }
    }
}

#[test]
fn traced_runs_emit_every_per_layer_metric() {
    for workload in ["wire-fleet", "epoch-rounds", "reid-chained"] {
        let lines = run(workload, "1");
        let (last, record) = (&lines[lines.len() - 1], &lines[lines.len() - 2]);
        assert_last_line(last);
        for &(name, unit) in SHARED_LAYERS {
            assert_metric(last, name, unit);
            assert_metric(record, name, unit);
        }
        for &(w, name, unit) in OWN_LAYERS {
            if w == workload {
                assert_metric(record, name, unit);
            } else if !OWN_LAYERS
                .iter()
                .any(|&(o, n, _)| o == workload && n == name)
            {
                // A workload reports no layer it does not run.
                assert!(
                    !record.contains(&format!("\"{name}\"")),
                    "{workload}: {name}"
                );
            }
        }
        assert!(record.contains("\"tracing_overhead_pct\": {"), "{record}");
        assert_metric(record, "coverage", "ratio");
    }
}

#[test]
fn all_merges_every_workload_under_its_prefix() {
    let lines = run("all", "0");
    let last = &lines[lines.len() - 1];
    assert_last_line(last);
    for workload in ["wire-fleet", "epoch-rounds", "reid-chained"] {
        for &(name, unit) in LAST_END_TO_END {
            assert_metric(last, &format!("{workload}/{name}"), unit);
        }
        let record = format!("{{\"workload\": \"{workload}\"");
        assert!(lines.iter().any(|l| l.starts_with(&record)), "{workload}");
    }
}
