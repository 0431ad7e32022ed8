//! `BENCHMARK.json` says what the code reports, within the contract's limits.

use std::collections::HashSet;

use adroute_benchmark::json::{self, Value};
use adroute_benchmark::metrics::{manifest, E2E, PER_LAYER, SPAN_METRICS, WORKLOADS};

fn name_ok(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn benchmark_json_is_the_manifest_written_out() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    let on_disk = json::parse(&text).expect("BENCHMARK.json parses");
    assert!(
        on_disk == manifest(),
        "BENCHMARK.json is stale: regenerate it with `adroute-benchmark manifest > BENCHMARK.json`"
    );
}

#[test]
fn the_manifest_keeps_the_contracts_limits() {
    let m = manifest();
    let keys: Vec<&str> = m
        .members()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let command = m.get("command").and_then(Value::arr).unwrap();
    assert!(command.len() <= 32);
    for part in command {
        let part = part.str().unwrap();
        assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
    }
    let seconds = m.get("run_seconds").and_then(Value::num).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);

    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&E2E.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    let mut names = HashSet::new();
    for (name, why) in WORKLOADS {
        assert!(name_ok(name), "{name}");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{name}: why is {} chars",
            why.len()
        );
        assert!(names.insert(name), "{name} used twice");
    }
    for e in E2E {
        assert!(name_ok(e.name) && unit_ok(e.unit), "{}", e.name);
        assert!(e.bound > 0.0 && e.bound <= 0.25, "{}", e.name);
        assert!(names.insert(e.name), "{} used twice", e.name);
    }
    for (name, unit, _) in PER_LAYER {
        assert!(name_ok(name) && unit_ok(unit), "{name}");
        assert!(names.insert(name), "{name} used twice");
    }
    let setup = E2E
        .iter()
        .find(|e| e.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!(setup.unit, "s");
    assert!(
        E2E.iter().all(|e| e.bound <= setup.bound),
        "setup_s has the largest bound"
    );
}

#[test]
fn every_span_metric_is_a_declared_per_layer_metric() {
    for (metric, _, _, _) in SPAN_METRICS {
        assert!(
            PER_LAYER.iter().any(|(name, _, _)| *name == metric),
            "{metric} is not in PER_LAYER"
        );
    }
}
