//! Profile-determinism contract (the engine's determinism contract
//! extended to observability): the *counter* side of every profile —
//! the `"work"` ledger in `adroute profile --json` — must be
//! byte-identical across double runs on the quickstart and e7b
//! scenarios. Wall-clock span times are explicitly outside the contract
//! (they vary run to run); only the ledger is compared. A proptest
//! drives random enter/exit/work schedules through a [`Profiler`] and
//! checks the span tree stays well-nested.

use std::collections::BTreeSet;

use adroute::sim::Profiler;
use adroute_cli::args::Args;
use adroute_cli::commands::dispatch;
use proptest::prelude::*;

mod common;

/// Runs one full CLI command line in-process and returns its output.
fn cli(line: &str) -> String {
    dispatch(&Args::parse(line.split_whitespace().map(str::to_string)).unwrap()).unwrap()
}

/// Extracts the deterministic `"work":{...}` object from a profile's
/// JSON output — the only part the determinism contract covers.
fn work_object(json: &str) -> &str {
    let start = json
        .find("\"work\":{")
        .expect("profile output has a work object");
    let end = json[start..].find('}').expect("work object closes") + start;
    &json[start..=end]
}

/// Double-run identity of the ledger on one scenario.
fn assert_ledger_invariant(scenario: &str, expect_keys: &[&str]) {
    let baseline = cli(&format!("profile {scenario} --json"));
    let ledger = work_object(&baseline).to_string();
    for key in expect_keys {
        assert!(
            ledger.contains(&format!("\"{key}\":")),
            "{scenario}: ledger lacks {key}: {ledger}"
        );
    }
    let again = cli(&format!("profile {scenario} --json"));
    assert_eq!(ledger, work_object(&again), "{scenario}: double-run drift");
}

#[test]
fn quickstart_ledger_is_double_run_invariant() {
    assert_ledger_invariant(
        "quickstart",
        &[
            "engine/events",
            "engine/msgs_sent",
            "serve/opens_popped",
            "synth/searches",
        ],
    );
}

#[test]
fn e7b_ledger_is_double_run_invariant() {
    assert_ledger_invariant(
        "e7b",
        &[
            "engine/events",
            "engine/bytes_sent",
            "serve/opens_popped",
            "synth/sweeps",
        ],
    );
}

#[test]
fn real_profiles_fold_into_well_nested_paths() {
    // Every folded-stack line of a real profile must name a path whose
    // parent path is itself a span — i.e. the tree has no orphans — and
    // carry a parseable self-time.
    let folded = cli("profile quickstart --folded");
    let paths: BTreeSet<&str> = folded
        .lines()
        .map(|l| l.rsplit_once(' ').expect("line is `path self_us`").0)
        .collect();
    assert!(!paths.is_empty());
    for path in &paths {
        if let Some((parent, _leaf)) = path.rsplit_once(';') {
            assert!(paths.contains(parent), "orphan span path: {path}");
        }
    }
    for line in folded.lines() {
        let (_, n) = line.rsplit_once(' ').unwrap();
        n.parse::<u64>()
            .unwrap_or_else(|_| panic!("bad folded line: {line}"));
    }
}

proptest! {
    #![proptest_config(common::cases(64))]

    /// Random enter/exit schedules, with idle steps between, leave the
    /// span tree well-nested: parent/child links are mutually consistent,
    /// no span outlives the schedule, and every folded path's prefix is
    /// itself a span.
    #[test]
    fn span_trees_are_well_nested(ops in proptest::collection::vec(0u8..8, 0..200)) {
        const NAMES: [&str; 4] = ["alpha", "beta", "gamma", "delta"];
        let mut p = Profiler::enabled();
        for op in ops {
            match op {
                0..=3 => p.enter(NAMES[op as usize]),
                4 | 5 => {
                    if let Some(name) = p.current() {
                        p.exit(name);
                    }
                }
                _ => {}
            }
        }
        while let Some(name) = p.current() {
            p.exit(name);
        }
        prop_assert_eq!(p.depth(), 0);
        let spans = p.spans();
        for (i, s) in spans.iter().enumerate() {
            for &c in &s.children {
                prop_assert_eq!(spans[c].parent, Some(i));
            }
            if let Some(parent) = s.parent {
                prop_assert!(spans[parent].children.contains(&i));
            }
            prop_assert!(s.self_ns() <= s.wall_ns);
            prop_assert!(s.calls >= 1, "span '{}' closed no calls", s.name);
        }
        let folded = p.fold();
        let paths: BTreeSet<&str> = folded
            .lines()
            .filter_map(|l| l.rsplit_once(' ').map(|(path, _)| path))
            .collect();
        prop_assert_eq!(paths.len(), spans.len());
        for path in &paths {
            if let Some((parent, _)) = path.rsplit_once(';') {
                prop_assert!(paths.contains(parent), "orphan span path: {}", path);
            }
        }
    }
}
