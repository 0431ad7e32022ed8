//! Golden typed-trace exports: the JSONL event-stream schema is a stable
//! artifact — a change to record fields, field order, or event ordering
//! must show up in review as a diff of the committed `tests/golden/*.jsonl`
//! snapshots. The same holds for the CLI's `--json` reports, its text
//! outputs and the `profile` work ledger pinned at the end of this file.
//! Regenerate intentionally with `BLESS=1 cargo test --test golden_trace`.

use adroute::core::{OrwgProtocol, ShardConfig, StressConfig};
use adroute::policy::PolicyDb;
use adroute::sim::{ChannelFaults, FaultSpec, RouterOutage, SimTime};
use adroute::topology::AdId;
use adroute_cli::args::Args;
use adroute_cli::commands::dispatch;
use adroute_cli::scenario::{self, Scenario};
use std::fs;

mod common;

fn golden_path(name: &str) -> String {
    format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Compares `actual` against the committed snapshot (or rewrites the
/// snapshot under `BLESS=1`).
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("BLESS").is_some() {
        fs::create_dir_all(format!("{}/tests/golden", env!("CARGO_MANIFEST_DIR"))).unwrap();
        fs::write(&path, actual).unwrap();
        return;
    }
    let expected = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden snapshot {path} ({e}); run with BLESS=1"));
    if actual == expected {
        return;
    }
    // A one-byte regression in a 12.8 k-line trace must stay reviewable:
    // report where the two first part, not both traces whole.
    let (got, want): (Vec<_>, Vec<_>) = (actual.lines().collect(), expected.lines().collect());
    let at = (0..got.len().max(want.len()))
        .find(|&i| got.get(i) != want.get(i))
        .unwrap_or(got.len()); // the same lines: only the final newline differs
    let context = |lines: &[&str]| {
        let shown = at.saturating_sub(1).min(lines.len())..lines.len().min(at + 2);
        shown
            .map(|i| format!("  {:>6}: {}\n", i + 1, lines[i]))
            .collect::<String>()
    };
    panic!(
        "golden {name} changed at line {} ({} lines, golden has {})\n\
         golden:\n{}actual:\n{}if intentional, re-bless with BLESS=1 cargo test --test golden_trace",
        at + 1,
        got.len(),
        want.len(),
        context(&want),
        context(&got),
    );
}

/// Quickstart scenario (`adroute blame quickstart`): the Figure-1
/// internet's ORWG control plane converging, then absorbing one trunk
/// failure — exported as the control-plane event stream.
fn quickstart_export() -> String {
    let e = scenario::control_plane_run(&Scenario::quickstart());
    e.obs.log.export_jsonl()
}

/// E7b-style scenario (`adroute blame e7b`): a converged data plane on
/// the E-series internet — repairable opens, a trunk failure with
/// incremental view invalidation, and source-side repair — exported as
/// the data-plane event stream.
fn e7b_export() -> String {
    scenario::repair_run(&Scenario::e_series())
        .obs
        .log
        .export_jsonl()
}

/// Byzantine audit scenario (`adroute audit quickstart`): the busiest
/// transit AD on the Figure-1 internet turns rogue with forged acks, the
/// policy tripwire detects it, quarantine tears its flows down, and
/// repair reconverges — exported as the data-plane event stream with the
/// full misbehavior-inject → monitor-alarm → quarantine-enter chain.
fn audit_quickstart_export() -> String {
    let run = scenario::audit_run(&Scenario::quickstart());
    run.expect("some flow transits an AD")
        .net
        .obs
        .log
        .export_jsonl()
}

/// Chaos scenario: the 15-AD golden internet's ORWG control plane
/// converging, then absorbing an event-keyed fault plan — a lossy /
/// corrupting / duplicating / reordering channel plus a partition/heal
/// cycle across the AD-index midpoint. Because every channel verdict is
/// a pure function of event identity, the faulted stream is a stable
/// golden artifact.
fn chaos_export() -> String {
    let seed = 1990u64;
    let topo = common::golden_internet(seed);
    let protocol = OrwgProtocol::new(&topo, PolicyDb::permissive(&topo));
    let spec = FaultSpec {
        link_model: None,
        crash_model: None,
        channel: Some(ChannelFaults {
            loss: 0.08,
            corrupt: 0.02,
            duplicate: 0.02,
            reorder: 0.04,
            jitter_us: 400,
            seed: seed ^ 0x33,
            ..ChannelFaults::default()
        }),
        misbehavior: Default::default(),
    };
    let e = common::logged(&topo, protocol, 1 << 16);
    let e = common::chaos_lifecycle(e, &spec, true, 20).unwrap();
    e.obs.log.export_jsonl()
}

#[test]
fn chaos_trace_matches_golden_and_reruns_identically() {
    let a = chaos_export();
    let b = chaos_export();
    assert_eq!(a, b, "identically-seeded runs must export identical traces");
    assert!(a.contains("\"kind\":\"fault-plan\""));
    assert!(a.contains("\"kind\":\"partition-cut\""));
    assert!(a.contains("\"kind\":\"partition-heal\""));
    assert!(a.contains("\"kind\":\"chan-loss\""));
    assert!(a.contains("\"kind\":\"chan-dup\""));
    check_golden("chaos_trace.jsonl", &a);
}

#[test]
fn quickstart_trace_matches_golden_and_reruns_identically() {
    let a = quickstart_export();
    let b = quickstart_export();
    assert_eq!(a, b, "identically-seeded runs must export identical traces");
    assert!(a
        .lines()
        .last()
        .unwrap()
        .contains("\"kind\":\"trace-summary\""));
    assert!(a.contains("\"kind\":\"phase\""));
    assert!(a.contains("\"kind\":\"lsa-originate\""));
    assert!(a.contains("\"kind\":\"link-down\""));
    check_golden("quickstart_trace.jsonl", &a);
}

#[test]
fn e7b_trace_matches_golden_and_reruns_identically() {
    let a = e7b_export();
    let b = e7b_export();
    assert_eq!(a, b, "identically-seeded runs must export identical traces");
    assert!(a.contains("\"kind\":\"setup-open\""));
    assert!(a.contains("\"kind\":\"setup-ack\""));
    assert!(a.contains("\"kind\":\"view-invalidate\""));
    assert!(a.contains("\"kind\":\"view-delta\""));
    assert!(a.contains("\"kind\":\"setup-repair\""));
    check_golden("e7b_trace.jsonl", &a);
}

#[test]
fn audit_quickstart_trace_matches_golden_and_reruns_identically() {
    let a = audit_quickstart_export();
    let b = audit_quickstart_export();
    assert_eq!(a, b, "identically-seeded runs must export identical traces");
    assert!(a.contains("\"kind\":\"misbehavior-inject\""));
    assert!(a.contains("\"kind\":\"monitor-alarm\""));
    assert!(a.contains("\"kind\":\"quarantine-enter\""));
    assert!(a.contains("\"kind\":\"setup-repair\""));
    check_golden("audit_quickstart_trace.jsonl", &a);
    // The same bytes through the CLI's flag-to-file path.
    let file = std::env::temp_dir().join("adroute-golden-audit-quickstart.jsonl");
    cli(&format!("audit quickstart --trace {}", file.display()));
    assert_eq!(fs::read_to_string(&file).unwrap(), a);
}

/// Stress scenario (a shrunk `adroute stress` lifecycle): a short open
/// storm crosses a 15-AD internet's serving saturation under tight
/// admission watermarks, a mid-storm Route Server crash fails over to
/// its warm standby, and shed clients retry under the deadline budget —
/// exported as the overload event stream with defer/shed/retry/admit
/// spans and the rs-crash → rs-failover pair.
///
/// With `sharding`, the same storm and crash served by the sharded batch
/// engine over caches warmed and then partially invalidated by a trunk
/// failure (so idle slots have refill work): every service slot batches
/// opens — cached-rung slots answer through one shared `request_batch`
/// (the `synth-batch` span) and drained-queue slots run the
/// background-precompute scheduler (`precompute-refill`).
fn stress_export(sharding: Option<ShardConfig>) -> String {
    let cfg = StressConfig {
        sharding,
        crash: Some(RouterOutage {
            ad: AdId(0),
            down_at: SimTime(15_000),
            up_at: SimTime(21_000),
        }),
        ..StressConfig::default()
    };
    common::stress_export(1990, [(10, 1_500), (20, 8_000)], sharding.is_some(), cfg)
}

#[test]
fn stress_trace_matches_golden_and_reruns_identically() {
    let a = stress_export(None);
    let b = stress_export(None);
    assert_eq!(a, b, "identically-seeded runs must export identical traces");
    assert!(a.contains("\"kind\":\"setup-defer\""));
    assert!(a.contains("\"kind\":\"setup-shed\""));
    assert!(a.contains("\"retry_after_us\":"));
    assert!(a.contains("\"kind\":\"setup-retry\""));
    assert!(a.contains("\"kind\":\"setup-admit\""));
    assert!(a.contains("\"kind\":\"rs-crash\""));
    assert!(a.contains("\"kind\":\"rs-failover\""));
    check_golden("stress_trace.jsonl", &a);
}

#[test]
fn stress_sharded_trace_matches_golden_across_shard_counts() {
    // `ShardConfig::shards` is inert (a batch is one sweep per class), so
    // the second run differs from the first only in that field.
    let sharded = |shards| ShardConfig {
        shards,
        max_batch: 4,
        refill_budget: 4,
    };
    let a = stress_export(Some(sharded(8)));
    let b = stress_export(Some(sharded(1)));
    assert_eq!(a, b, "identically-seeded runs must export identical traces");
    assert!(a.contains("\"kind\":\"synth-batch\""));
    assert!(a.contains("\"kind\":\"precompute-refill\""));
    assert!(a.contains("\"kind\":\"setup-shed\""));
    assert!(a.contains("\"kind\":\"rs-crash\""));
    assert!(a.contains("\"kind\":\"rs-failover\""));
    check_golden("stress_sharded_trace.jsonl", &a);
}

/// Runs one `adroute` command line and returns what it prints.
fn cli(line: &str) -> String {
    let args = Args::parse(line.split_whitespace().map(str::to_string)).unwrap();
    dispatch(&args).unwrap()
}

#[test]
fn report_json_matches_golden() {
    let json = cli("report --ads 40 --seed 7 --flows 20 --json");
    check_golden("report_ads40_seed7.json", &json);
}

#[test]
fn blame_quickstart_json_matches_golden() {
    check_golden("blame_quickstart.json", &cli("blame quickstart --json"));
}

#[test]
fn blame_e7b_json_matches_golden() {
    check_golden("blame_e7b.json", &cli("blame e7b --json"));
}

/// The `"work":{..}` object of a `profile --json` output, newline-ended.
fn work_object(json: &str) -> String {
    let start = json.find("\"work\":{").expect("profile has a work object");
    let end = start + json[start..].find('}').expect("work object closes");
    format!("{}\n", &json[start..=end])
}

/// `profile e7b --json`'s work ledger: the deterministic counters beside
/// the span tree, whose wall times differ between runs.
#[test]
fn profile_e7b_work_ledger_matches_golden() {
    let json = cli("profile e7b --json");
    check_golden("profile_e7b_work.json", &work_object(&json));
}

/// The other scenarios' work ledgers: the engine flood (e13), the
/// engine lifecycle plus a serve ramp (quickstart) and the serve ramp
/// alone (e14).
#[test]
fn profile_work_ledgers_match_golden() {
    for (name, line) in [
        ("profile_quickstart_work.json", "profile quickstart --json"),
        (
            "profile_e13_ads300_work.json",
            "profile e13 --ads 300 --json",
        ),
        ("profile_e14_work.json", "profile e14 --json"),
    ] {
        check_golden(name, &work_object(&cli(line)));
    }
}

/// The count-bearing `--json` outputs: the stress ladder's totals and
/// metrics (monolithic and batched) and the audit lifecycle's.
#[test]
fn stress_and_audit_json_match_golden() {
    for (name, line) in [
        ("stress_quickstart.json", "stress quickstart --json"),
        (
            "stress_quickstart_sharded.json",
            "stress quickstart --sharded --json",
        ),
        ("audit_quickstart.json", "audit quickstart --json"),
    ] {
        check_golden(name, &cli(line));
    }
}

/// The CLI's text outputs: `(golden, command line)`.
const CLI_TEXT: &[(&str, &str)] = &[
    ("help.txt", "help"),
    ("chaos.txt", "chaos"),
    ("chaos_loss0.3_seed5.txt", "chaos --loss 0.3 --seed 5"),
    (
        "chaos_ads30_seed11_byzantine.txt",
        "chaos --ads 30 --seed 11 --duration 250 --flows 20 --byzantine",
    ),
    (
        "report_ads40_seed7.txt",
        "report --ads 40 --seed 7 --flows 20",
    ),
    ("audit_quickstart.txt", "audit quickstart"),
    ("stress_quickstart.txt", "stress quickstart"),
    (
        "stress_quickstart_sharded.txt",
        "stress quickstart --sharded",
    ),
    ("blame_quickstart.txt", "blame quickstart"),
];

#[test]
fn cli_text_outputs_match_golden() {
    for (name, line) in CLI_TEXT {
        check_golden(name, &cli(line));
    }
}

#[test]
fn trace_analyze_text_matches_golden_for_every_design_point() {
    for proto in ["orwg", "dv", "ecma", "pv", "ls-hbh"] {
        let out = cli(&format!("trace --ads 20 --analyze --proto {proto}"));
        check_golden(&format!("trace_ads20_analyze_{proto}.txt"), &out);
    }
}

/// `gen-topo`'s text internet, then `audit --topo` and `route` over it.
#[test]
fn gen_topo_audit_and_route_text_match_golden() {
    let topo = cli("gen-topo --ads 40 --seed 7");
    check_golden("gen_topo_ads40_seed7.topo", &topo);
    let file = std::env::temp_dir().join("adroute-golden-ads40-seed7.topo");
    fs::write(&file, &topo).unwrap();
    let f = file.display();
    let audit = cli(&format!("audit --topo {f} --tree"));
    check_golden("audit_topo_ads40_seed7_tree.txt", &audit);
    let route = cli(&format!("route --topo {f} --src 3 --dst 22"));
    check_golden("route_ads40_seed7_src3_dst22.txt", &route);
}
