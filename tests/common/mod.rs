//! Fixtures shared by the integration tests (each test crate uses a
//! subset, hence the `dead_code` allowance).
#![allow(dead_code)]

use adroute::core::{run_load_ramp, AdmissionConfig, OrwgNetwork, StressConfig};
use adroute::policy::workload::PolicyWorkload;
use adroute::policy::{AdSet, PolicyAction, PolicyCondition, PolicyDb, QosClass, UserClass};
use adroute::protocols::forwarding::sample_flows;
use adroute::sim::{Engine, FaultPlan, FaultSpec, OpenStorm, Protocol, SimTime, StormPhase};
use adroute::topology::{analysis, generate, AdId, HierarchyConfig, Topology};
use proptest::test_runner::ProptestConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// `default` cases per property, or `PROPTEST_CASES` when it parses: an
/// explicit [`ProptestConfig::with_cases`] ignores the variable, so a
/// battery with its own default could otherwise never be run harder.
pub fn cases(default: u32) -> ProptestConfig {
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok());
    ProptestConfig::with_cases(cases.unwrap_or(default))
}

/// A 15-AD single-backbone hierarchy with the given link-mix
/// probabilities.
pub fn fifteen_ads(
    lateral_prob: f64,
    bypass_prob: f64,
    multihome_prob: f64,
    seed: u64,
) -> Topology {
    HierarchyConfig {
        backbones: 1,
        regionals_per_backbone: 2,
        metros_per_regional: 2,
        campuses_per_metro: 2,
        lateral_prob,
        bypass_prob,
        multihome_prob,
        seed,
    }
    .generate()
}

/// The proptest batteries' internet: 15 ADs, dense in detours.
pub fn small_internet(seed: u64) -> Topology {
    fifteen_ads(0.3, 0.2, 0.3, seed)
}

/// A random small connected topology (ring/grid/clique by selector).
pub fn small_topo(kind: u8, size: u8) -> Topology {
    let n = 4 + (size % 4) as usize;
    match kind % 3 {
        0 => generate::ring(n),
        1 => generate::grid(2, n / 2 + 1),
        _ => generate::clique(n),
    }
}

/// Random policies over a topology, driven by a seed.
pub fn random_policies(topo: &Topology, seed: u64) -> PolicyDb {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut db = PolicyDb::permissive(topo);
    for ad in topo.ad_ids() {
        let p = db.policy_mut(ad);
        for _ in 0..rng.gen_range(0..3) {
            let denied: Vec<AdId> = topo.ad_ids().filter(|_| rng.gen_bool(0.25)).collect();
            let cond = match rng.gen_range(0..4) {
                0 => PolicyCondition::SrcIn(AdSet::only(denied)),
                1 => PolicyCondition::DstIn(AdSet::only(denied)),
                2 => PolicyCondition::QosIn(vec![QosClass(rng.gen_range(0..3))]),
                _ => PolicyCondition::UciIn(vec![UserClass(rng.gen_range(0..3))]),
            };
            let action = if rng.gen_bool(0.6) {
                PolicyAction::Deny
            } else {
                PolicyAction::Permit {
                    cost: rng.gen_range(0..5),
                }
            };
            p.push_term(vec![cond], action);
        }
        if rng.gen_bool(0.2) {
            p.default = PolicyAction::Deny;
        }
    }
    db
}

/// The shrunk goldens' internet: 15 ADs at the Figure-1 link mix. (An
/// E-series internet clamps to a 49-AD backbone subtree, too chatty for a
/// committed golden.)
pub fn golden_internet(seed: u64) -> Topology {
    fifteen_ads(0.25, 0.15, 0.25, seed)
}

/// Convergence, then a `chaos` phase under a plan drawn from `spec` at
/// the quiescent time — which is itself part of the determinism
/// contract, so every run derives the identical plan. `partition`
/// additionally splits the domain at the AD-index midpoint for the first
/// half of the horizon and heals it.
pub fn chaos_lifecycle<P: Protocol>(
    topo: &Topology,
    protocol: P,
    spec: &FaultSpec,
    partition: bool,
    horizon_ms: u64,
) -> Engine<P> {
    let mut e = Engine::new(topo.clone(), protocol);
    e.enable_obs(1 << 16);
    e.begin_phase("converge");
    e.run_to_quiescence();
    e.begin_phase("chaos");
    let mut plan = FaultPlan::draw(topo, spec, e.now(), horizon_ms);
    if partition {
        let at = e.now().plus_us(500);
        let heal_at = e.now().plus_us(horizon_ms * 500);
        plan = plan.with_partition(topo, (topo.num_ads() / 2) as u32, at, heal_at);
    }
    plan.apply(&mut e);
    e.run_to_quiescence();
    e
}

/// The shrunk `adroute stress` lifecycle, exported as the overload event
/// stream: a two-phase open storm (`ramp` = (ms, opens/s) per phase)
/// crosses the [`golden_internet`]'s serving saturation under tight
/// admission watermarks. `cfg` carries what callers vary beyond that
/// (service costs, a crash, sharding). `warm` first warms the caches and
/// fails the trunk, so the invalidated entries queue for the background
/// refill idle sharded slots run.
pub fn stress_export(seed: u64, ramp: [(u64, u64); 2], warm: bool, cfg: StressConfig) -> String {
    let topo = golden_internet(seed);
    let db = PolicyWorkload::structural(seed).generate(&topo);
    let mut net = OrwgNetwork::converged(&topo, &db);
    net.enable_obs(1 << 14);
    if warm {
        for f in &sample_flows(&topo, 24, seed) {
            let _ = net.synthesize(f);
        }
        net.fail_link(analysis::trunk(&topo).unwrap());
    }
    let phases = ramp.map(|(duration_ms, opens_per_sec)| StormPhase {
        duration_ms,
        opens_per_sec,
    });
    let storm = OpenStorm::draw(&topo, &phases, SimTime::ZERO, seed);
    let cfg = StressConfig {
        seed,
        admission: AdmissionConfig {
            queue_capacity: 4,
            full_depth: 1,
            cached_depth: 2,
            ..AdmissionConfig::default()
        },
        ..cfg
    };
    run_load_ramp(&mut net, &storm, &ramp.map(|(ms, _)| ms * 1000), &cfg);
    net.obs.log.export_jsonl()
}
