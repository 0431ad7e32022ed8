//! Golden typed-trace exports: the JSONL event-stream schema is a stable
//! artifact — a change to record fields, field order, or event ordering
//! must show up in review as a diff of the committed `tests/golden/*.jsonl`
//! snapshots. Regenerate intentionally with `BLESS=1 cargo test --test
//! golden_trace`.

use adroute::core::{OrwgNetwork, OrwgProtocol};
use adroute::policy::workload::PolicyWorkload;
use adroute::policy::{PolicyDb, TransitPolicy};
use adroute::protocols::forwarding::{audit_path, sample_flows};
use adroute::sim::{
    Engine, EventRecord, MisbehaviorModel, MonitorBank, MonitorConfig, Observation,
    QuarantineController, SimTime,
};
use adroute::topology::{AdId, HierarchyConfig, LinkId, Topology};
use std::collections::BTreeMap;
use std::fs;

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
        "typed-trace export for {name} changed at line {} ({} lines, golden has {})\n\
         golden:\n{}actual:\n{}if intentional, re-bless with BLESS=1 cargo test --test golden_trace",
        at + 1,
        got.len(),
        want.len(),
        context(&want),
        context(&got),
    );
}

/// The E-series-style internet used by the benches (lateral 0.25, bypass
/// 0.1, multihome 0.2), scaled down to test size.
fn internet(approx_ads: usize, seed: u64) -> Topology {
    HierarchyConfig {
        lateral_prob: 0.25,
        bypass_prob: 0.1,
        multihome_prob: 0.2,
        ..HierarchyConfig::with_approx_size(approx_ads, seed)
    }
    .generate()
}

/// The operational link with the best-connected endpoints — the "trunk".
fn trunk(topo: &Topology) -> LinkId {
    topo.links()
        .filter(|l| l.up)
        .max_by_key(|l| {
            (
                topo.neighbors(l.a).count() + topo.neighbors(l.b).count(),
                std::cmp::Reverse(l.id.0),
            )
        })
        .unwrap()
        .id
}

/// Quickstart scenario: the Figure-1 internet's ORWG control plane
/// converging, then absorbing one link failure — exported as the
/// control-plane event stream.
fn quickstart_export() -> String {
    let topo = HierarchyConfig::figure1().generate();
    let db = PolicyDb::permissive(&topo);
    let mut e = Engine::new(topo.clone(), OrwgProtocol::new(&topo, db));
    e.enable_obs(1 << 16);
    e.begin_phase("converge");
    e.run_to_quiescence();
    e.begin_phase("failure-response");
    e.schedule_link_change(trunk(&topo), false, e.now().plus_us(1));
    e.run_to_quiescence();
    e.obs.log.export_jsonl()
}

/// E7b-style scenario: a converged data plane on an E-series internet —
/// repairable opens, a trunk failure with incremental view invalidation,
/// and source-side repair — exported as the data-plane event stream.
fn e7b_export() -> String {
    let topo = internet(120, 23);
    let db = PolicyWorkload::structural(23).generate(&topo);
    let mut net = OrwgNetwork::converged(&topo, &db);
    net.enable_obs(1 << 14);
    for f in &sample_flows(&topo, 40, 23) {
        let _ = net.open_repairable(f);
    }
    net.fail_link(trunk(&topo));
    net.repair_pending(3);
    net.obs.log.export_jsonl()
}

/// Byzantine audit scenario (the CLI's `audit quickstart` lifecycle): the
/// busiest transit AD on the Figure-1 internet turns rogue with forged
/// acks, the policy tripwire detects it, quarantine tears its flows down,
/// and repair reconverges — exported as the data-plane event stream with
/// the full misbehavior-inject → monitor-alarm → quarantine-enter chain.
fn audit_quickstart_export() -> String {
    let seed = 1990u64;
    let topo = HierarchyConfig::figure1().generate();
    let db = PolicyWorkload::structural(seed).generate(&topo);
    let mut net = OrwgNetwork::converged(&topo, &db);
    net.enable_obs(1 << 14);
    for f in &sample_flows(&topo, 40, seed) {
        let _ = net.open_repairable(f);
    }
    // The rogue is the AD carrying the most transit — maximal blast radius.
    let mut transited: BTreeMap<AdId, usize> = BTreeMap::new();
    for (_, of) in net.open_flows() {
        for ad in of
            .route
            .iter()
            .skip(1)
            .take(of.route.len().saturating_sub(2))
        {
            *transited.entry(*ad).or_default() += 1;
        }
    }
    let rogue = *transited
        .iter()
        .max_by_key(|&(ad, n)| (n, std::cmp::Reverse(ad.index())))
        .expect("some flow transits an AD")
        .0;
    net.set_covert_policy(TransitPolicy::deny_all(rogue));
    net.set_rogue_gateways([rogue]);
    let inject = net.obs.record_event(
        SimTime::ZERO,
        None,
        EventRecord::MisbehaviorInject {
            ad: rogue,
            model: MisbehaviorModel::ForgedAck.tag(),
        },
    );
    for f in &sample_flows(&topo, 10, seed ^ 0x5a) {
        let _ = net.open_repairable(f);
    }
    let mut bank = MonitorBank::new(MonitorConfig::default());
    bank.set_injection_roots(&[(rogue, inject)]);
    let mut controller = QuarantineController::new(1);
    'ticks: for _ in 0..6 {
        let probes: Vec<Observation> = net
            .open_flows()
            .map(|(_, of)| Observation::Delivered {
                src: of.flow.src,
                dst: of.flow.dst,
                violators: audit_path(net.topo(), net.policies(), &of.flow, &of.route).violations,
            })
            .collect();
        for p in probes {
            bank.observe(p);
        }
        for alarm in bank.end_tick(&mut net.obs, SimTime::ZERO) {
            if let Some((ad, qev)) = controller.note_alarm(&alarm, &mut net.obs, SimTime::ZERO) {
                let torn = net.quarantine_ad(ad, qev);
                net.obs
                    .metrics
                    .record("quarantine_collateral_flows", torn as u64);
                net.repair_pending(3);
                break 'ticks;
            }
        }
    }
    net.obs.log.export_jsonl()
}

/// Chaos scenario: the quickstart internet's ORWG control plane
/// converging, then absorbing an event-keyed fault plan — a lossy /
/// corrupting / duplicating / reordering channel plus a partition/heal
/// cycle across the AD-index midpoint — run on the region-parallel
/// engine. Because every channel verdict is a pure function of event
/// identity, the faulted stream is a stable golden artifact at *any*
/// worker count.
fn chaos_parallel_export(workers: Option<usize>) -> String {
    use adroute::sim::{ChannelFaults, FaultPlan, FaultSpec};
    let seed = 1990u64;
    // Explicit small hierarchy: `internet()` clamps to a ~49-AD backbone
    // subtree, too chatty for a committed golden once chaos refloods.
    let topo = HierarchyConfig {
        backbones: 1,
        regionals_per_backbone: 2,
        metros_per_regional: 2,
        campuses_per_metro: 2,
        lateral_prob: 0.25,
        bypass_prob: 0.15,
        multihome_prob: 0.25,
        seed,
    }
    .generate();
    let db = PolicyDb::permissive(&topo);
    let mut e = Engine::new(topo.clone(), OrwgProtocol::new(&topo, db));
    e.enable_obs(1 << 16);
    e.begin_phase("converge");
    match workers {
        None => e.run_to_quiescence(),
        Some(w) => e.run_to_quiescence_parallel(w),
    };
    e.begin_phase("chaos");
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
    let horizon_ms = 20;
    let plan = FaultPlan::draw(&topo, &spec, e.now(), horizon_ms).with_partition(
        &topo,
        (topo.num_ads() / 2) as u32,
        e.now().plus_us(500),
        e.now().plus_us(horizon_ms * 500),
    );
    plan.apply(&mut e);
    match workers {
        None => e.run_to_quiescence(),
        Some(w) => e.run_to_quiescence_parallel(w),
    };
    e.obs.log.export_jsonl()
}

#[test]
fn chaos_parallel_trace_matches_golden_at_every_worker_count() {
    let seq = chaos_parallel_export(None);
    assert!(seq.contains("\"kind\":\"fault-plan\""));
    assert!(seq.contains("\"kind\":\"partition-cut\""));
    assert!(seq.contains("\"kind\":\"partition-heal\""));
    assert!(seq.contains("\"kind\":\"chan-loss\""));
    assert!(seq.contains("\"kind\":\"chan-dup\""));
    for workers in [2usize, 8] {
        for run in 0..2 {
            assert_eq!(
                chaos_parallel_export(Some(workers)),
                seq,
                "faulted parallel trace ({workers} workers, run {run}) diverged"
            );
        }
    }
    check_golden("chaos_parallel_trace.jsonl", &seq);
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
}

/// Stress scenario (a shrunk `adroute stress` lifecycle): a short open
/// storm crosses a 15-AD internet's serving saturation under tight
/// admission watermarks, a mid-storm Route Server crash fails over to
/// its warm standby, and shed clients retry under the deadline budget —
/// exported as the overload event stream with defer/shed/retry/admit
/// spans and the rs-crash → rs-failover pair.
fn stress_export() -> String {
    use adroute::core::{run_load_ramp, AdmissionConfig, StressConfig};
    use adroute::sim::{OpenStorm, RouterOutage, StormPhase};

    let seed = 1990u64;
    let topo = HierarchyConfig {
        backbones: 1,
        regionals_per_backbone: 2,
        metros_per_regional: 2,
        campuses_per_metro: 2,
        lateral_prob: 0.25,
        bypass_prob: 0.15,
        multihome_prob: 0.25,
        seed,
    }
    .generate();
    let db = PolicyWorkload::structural(seed).generate(&topo);
    let mut net = OrwgNetwork::converged(&topo, &db);
    net.enable_obs(1 << 14);
    let phases = [
        StormPhase {
            duration_ms: 10,
            opens_per_sec: 1_500,
        },
        StormPhase {
            duration_ms: 20,
            opens_per_sec: 8_000,
        },
    ];
    let storm = OpenStorm::draw(&topo, &phases, SimTime::ZERO, seed);
    let cfg = StressConfig {
        seed,
        service_full_us: 6_000,
        service_cached_us: 1_200,
        service_stored_us: 600,
        admission: AdmissionConfig {
            queue_capacity: 4,
            full_depth: 1,
            cached_depth: 2,
            ..AdmissionConfig::default()
        },
        crash: Some(RouterOutage {
            ad: AdId(0),
            down_at: SimTime(15_000),
            up_at: SimTime(21_000),
        }),
        ..StressConfig::default()
    };
    run_load_ramp(&mut net, &storm, &[10_000, 20_000], &cfg);
    net.obs.log.export_jsonl()
}

/// The stress scenario served by the sharded batch engine: caches warmed
/// and then partially invalidated by a trunk failure (so idle slots have
/// refill work), the same storm and mid-storm Route Server crash, but
/// every service slot batches opens — cached-rung slots answer through
/// one shared `request_batch` (the `synth-batch` span) and drained-queue
/// slots run the background-precompute scheduler (`precompute-refill`).
fn stress_sharded_export(shards: usize) -> String {
    use adroute::core::{run_load_ramp, AdmissionConfig, ShardConfig, StressConfig};
    use adroute::sim::{OpenStorm, RouterOutage, StormPhase};

    let seed = 1990u64;
    let topo = HierarchyConfig {
        backbones: 1,
        regionals_per_backbone: 2,
        metros_per_regional: 2,
        campuses_per_metro: 2,
        lateral_prob: 0.25,
        bypass_prob: 0.15,
        multihome_prob: 0.25,
        seed,
    }
    .generate();
    let db = PolicyWorkload::structural(seed).generate(&topo);
    let mut net = OrwgNetwork::converged(&topo, &db);
    net.enable_obs(1 << 14);
    // Warm the caches, then fail the trunk: the invalidated entries
    // queue for background refill, which idle sharded slots run.
    for f in &sample_flows(&topo, 24, seed) {
        let _ = net.synthesize(f);
    }
    net.fail_link(trunk(&topo));
    let phases = [
        StormPhase {
            duration_ms: 10,
            opens_per_sec: 1_500,
        },
        StormPhase {
            duration_ms: 20,
            opens_per_sec: 8_000,
        },
    ];
    let storm = OpenStorm::draw(&topo, &phases, SimTime::ZERO, seed);
    let cfg = StressConfig {
        seed,
        sharding: Some(ShardConfig {
            shards,
            max_batch: 4,
            refill_budget: 4,
        }),
        service_full_us: 6_000,
        service_cached_us: 1_200,
        service_stored_us: 600,
        admission: AdmissionConfig {
            queue_capacity: 4,
            full_depth: 1,
            cached_depth: 2,
            ..AdmissionConfig::default()
        },
        crash: Some(RouterOutage {
            ad: AdId(0),
            down_at: SimTime(15_000),
            up_at: SimTime(21_000),
        }),
        ..StressConfig::default()
    };
    run_load_ramp(&mut net, &storm, &[10_000, 20_000], &cfg);
    net.obs.log.export_jsonl()
}

#[test]
fn stress_trace_matches_golden_and_reruns_identically() {
    let a = stress_export();
    let b = stress_export();
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
    let a = stress_sharded_export(8);
    let b = stress_sharded_export(1);
    assert_eq!(a, b, "identically-seeded runs must export identical traces");
    assert!(a.contains("\"kind\":\"synth-batch\""));
    assert!(a.contains("\"kind\":\"precompute-refill\""));
    assert!(a.contains("\"kind\":\"setup-shed\""));
    assert!(a.contains("\"kind\":\"rs-crash\""));
    assert!(a.contains("\"kind\":\"rs-failover\""));
    check_golden("stress_sharded_trace.jsonl", &a);
}
