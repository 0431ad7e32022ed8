//! The binary, end to end, at `--quick` sizes: results carry exactly the
//! declared names, two runs of the same code agree, a broken invariant
//! fails the run.

use std::collections::HashSet;
use std::path::PathBuf;
use std::process::Command;

use adroute_benchmark::json::{self, Value};
use adroute_benchmark::metrics::{E2E, PER_LAYER, WORKLOADS};
use adroute_benchmark::report::out_dir;

const BIN: &str = env!("CARGO_BIN_EXE_adroute-benchmark");

/// Runs `run --quick` with `extra` flags and moves the results to `keep`.
fn quick_run(extra: &[&str], keep: &str) -> Option<PathBuf> {
    let status = Command::new(BIN)
        .args(["run", "--quick", "--seconds", "0.2", "--reps", "2"])
        .args(extra)
        .status()
        .expect("the benchmark binary runs");
    status.success().then(|| {
        let kept = out_dir().join(keep);
        std::fs::rename(out_dir().join("results.json"), &kept).expect("results.json was written");
        kept
    })
}

fn keys(v: &Value) -> HashSet<String> {
    v.members()
        .unwrap()
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

// One test, so the runs do not share `out/results.json` across threads.
#[test]
fn quick_runs_agree_name_every_metric_and_fail_on_a_broken_invariant() {
    let a = quick_run(&["--traced"], "test-a.json").expect("a quick run passes");
    let results = json::parse(&std::fs::read_to_string(&a).unwrap()).unwrap();
    assert_eq!(results.get("quick"), Some(&Value::Bool(true)));
    let workloads = results.get("workloads").and_then(Value::arr).unwrap();
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("workload").and_then(Value::str).unwrap())
        .collect();
    assert_eq!(names, WORKLOADS.map(|(name, _)| name));
    let e2e: HashSet<String> = E2E.iter().map(|e| e.name.to_string()).collect();
    let layers: HashSet<String> = PER_LAYER.iter().map(|(n, _, _)| n.to_string()).collect();
    for w in workloads {
        let name = w.get("workload").and_then(Value::str).unwrap();
        assert_eq!(keys(w.get("e2e").unwrap()), e2e, "{name}");
        assert_eq!(keys(w.get("layers").unwrap()), layers, "{name}");
        assert!(!keys(w.get("ledger").unwrap()).is_empty(), "{name}");
        for (metric, m) in w.get("e2e").and_then(Value::members).unwrap() {
            let median = m.get("median").and_then(Value::num).unwrap();
            assert!(
                median > 0.0 && median.is_finite(),
                "{name} {metric} = {median}"
            );
        }
        assert!(
            out_dir().join(format!("trace-{name}.json")).exists(),
            "{name}"
        );
    }

    // The same code again: every ledger exactly equal (`compare` fails a
    // same-revision pair whose ledgers differ).
    let b = quick_run(&[], "test-b.json").expect("a second quick run passes");
    let compared = Command::new(BIN)
        .arg("compare")
        .args([&a, &b])
        .output()
        .expect("compare runs");
    let table = String::from_utf8_lossy(&compared.stdout);
    assert_eq!(
        table.matches("ledger         equal").count(),
        WORKLOADS.len(),
        "{table}"
    );
    assert!(!table.contains("DIFFERS"), "{table}");

    // A deliberately broken invariant: the run fails, and so does the
    // single run the driver would make.
    assert!(quick_run(
        &["--inject-fault", "--workload", "orwg-open"],
        "test-c.json"
    )
    .is_none());
    let single = Command::new(BIN)
        .args([
            "--workload",
            "dv-converge",
            "--seed",
            "5",
            "--seconds",
            "0.2",
            "--trace",
            "0",
        ])
        .args(["--quick", "--inject-fault"])
        .output()
        .expect("a single run runs");
    assert!(!single.status.success());
    let last = String::from_utf8_lossy(&single.stdout)
        .lines()
        .last()
        .unwrap()
        .to_string();
    let result = json::parse(&last).unwrap();
    assert_eq!(result.get("correct"), Some(&Value::Bool(false)));
    assert!(result.get("failed").and_then(Value::num).unwrap() >= 1.0);
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["--workload", "no-such-workload"][..],
        &["--workload", "dv-converge", "--trace", "2"],
        &["--workload", "dv-converge", "--seconds", "0"],
        &["--workload", "dv-converge", "--seed"],
        &["--workload", "dv-converge", "--frobnicate"],
        &["compare", "only-one.json"],
        &[],
    ] {
        let out = Command::new(BIN)
            .args(args)
            .output()
            .expect("the binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
