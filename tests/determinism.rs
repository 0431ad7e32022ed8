//! Determinism contract: a run is a pure function of its inputs. For
//! each golden scenario the engine's typed JSONL export and counters are
//! produced twice and compared byte for byte — clean, and under a mixed
//! channel-fault plan with a partition/heal — so an iteration-order or
//! RNG-plumbing bug shows up as a diff, not a flake. Proptests repeat the
//! check over random internets, failure points and fault plans.

use adroute::core::OrwgProtocol;
use adroute::policy::workload::PolicyWorkload;
use adroute::policy::PolicyDb;
use adroute::protocols::ecma::Ecma;
use adroute::protocols::ls_hbh::LsHbh;
use adroute::protocols::naive_dv::NaiveDv;
use adroute::protocols::path_vector::PathVector;
use adroute::sim::{ChannelFaults, CrashModel, Engine, FailureModel, FaultSpec, Protocol};
use adroute::topology::{analysis, HierarchyConfig, Topology};
use adroute_cli::scenario::{self, Scenario};
use proptest::prelude::*;

mod common;

/// What two runs must agree on: the typed JSONL export (the retained
/// window of it) followed by the engine's cumulative counters.
fn artifact<P: Protocol>(e: &Engine<P>) -> String {
    format!("{}{}\n", e.obs.log.export_jsonl(), e.stats.to_json())
}

/// Runs `protocol` on `topo` through the CLI's own control-plane
/// lifecycle (convergence, a trunk failure, reconvergence) and returns
/// the run's [`artifact`].
fn lifecycle_jsonl<P: Protocol>(topo: &Topology, protocol: P) -> String {
    let mut e = Engine::new(topo.clone(), protocol);
    e.enable_obs(1 << 16);
    scenario::converge_then_cut(&mut e, &[analysis::trunk(topo).unwrap()]);
    artifact(&e)
}

/// Asserts the determinism contract for one scenario: double-run
/// identity clean, and again under a mixed channel-fault plan with a
/// partition/heal.
fn assert_double_run_identical<P: Protocol>(topo: &Topology, make: impl Fn() -> P, what: &str) {
    assert_eq!(
        lifecycle_jsonl(topo, make()),
        lifecycle_jsonl(topo, make()),
        "{what}: double-run must be byte-identical"
    );
    let spec = FaultSpec {
        link_model: None,
        crash_model: None,
        channel: Some(ChannelFaults {
            loss: 0.1,
            corrupt: 0.03,
            duplicate: 0.05,
            reorder: 0.05,
            jitter_us: 300,
            seed: 0x33,
            ..ChannelFaults::default()
        }),
        misbehavior: Default::default(),
    };
    let chaos = || artifact(&common::chaos_lifecycle(topo, make(), &spec, true, 40));
    let faulted = chaos();
    assert!(
        !faulted.contains("\"msgs_corrupted\":0,"),
        "{what}: the fault plan must bite"
    );
    assert_eq!(
        faulted,
        chaos(),
        "{what}: faulted double-run must be byte-identical"
    );
}

/// The quickstart golden scenario's engine: the Figure-1 internet's ORWG
/// control plane converging and absorbing a trunk failure.
#[test]
fn quickstart_double_run_is_byte_identical() {
    let topo = Scenario::quickstart().topo;
    assert_double_run_identical(
        &topo,
        || OrwgProtocol::new(&topo, PolicyDb::permissive(&topo)),
        "quickstart",
    );
}

/// The e7b golden scenario's internet (E-series, ~120 ADs) under the
/// ORWG control plane.
#[test]
fn e7b_internet_double_run_is_byte_identical() {
    let topo = Scenario::e_series().topo;
    assert_double_run_identical(
        &topo,
        || OrwgProtocol::new(&topo, PolicyDb::permissive(&topo)),
        "e7b-internet",
    );
}

/// The hop-by-hop design points, which lean hardest on `Ctx::emit`
/// anchors and timers. Path vector stays at the 15-AD size where its
/// per-event policy evaluation is affordable.
#[test]
fn hop_by_hop_double_runs_are_byte_identical() {
    let topo = HierarchyConfig::e_series(49, 23).generate();
    let db = PolicyWorkload::default_mix(23).generate(&topo);
    assert_double_run_identical(&topo, || Ecma::hierarchical(&topo), "ecma");
    assert_double_run_identical(&topo, || LsHbh::new(&topo, db.clone()), "ls-hbh");
    assert_double_run_identical(&topo, NaiveDv::default, "naive-dv");

    let small = common::fifteen_ads(0.25, 0.1, 0.2, 23);
    assert!(small.num_ads() <= 19);
    let small_db = PolicyWorkload::default_mix(23).generate(&small);
    assert_double_run_identical(&small, || PathVector::idrp(small_db.clone()), "path-vector");
}

/// The stress golden scenario runs the ORWG serving path (`run_load_ramp`),
/// which is a mini event loop outside the engine — so its determinism
/// contract is double-run byte identity of the exported stream, under the same storm-crosses-saturation shape as the golden.
#[test]
fn stress_ramp_double_run_is_byte_identical() {
    let export = || {
        let ramp = [(8, 1_200), (12, 7_000)];
        common::stress_export(77, ramp, false, adroute::core::StressConfig::default())
    };
    let a = export();
    assert_eq!(
        a,
        export(),
        "stress: double-run must export identical JSONL"
    );
    assert!(a.contains("\"kind\":\"setup-shed\""));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random internets: two runs of the lifecycle export the same
    /// JSONL, byte for byte.
    #[test]
    fn random_internets_double_run_identically(
        seed in 0u64..1_000,
        approx in 30usize..90,
    ) {
        let topo = HierarchyConfig::e_series(approx, seed).generate();
        let a = lifecycle_jsonl(&topo, NaiveDv::default());
        let b = lifecycle_jsonl(&topo, NaiveDv::default());
        prop_assert_eq!(a, b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The chaos battery: random fault plans — lossy / corrupting /
    /// duplicating / reordering channels keyed on event identity,
    /// optional link churn and router crashes, optional partition/heal —
    /// must replay byte-identically.
    #[test]
    fn random_fault_plans_double_run_identically(
        seed in 0u64..1_000,
        approx in 30usize..80,
        loss in 0.0f64..0.25,
        shape in 0u64..4,
    ) {
        // Two fault-plan shape bits: link/router churn, partition/heal.
        let (churn, partition) = (shape & 1 != 0, shape & 2 != 0);
        let topo = HierarchyConfig::e_series(approx, seed).generate();
        let horizon_ms = 40;
        let spec = FaultSpec {
            link_model: churn.then_some(FailureModel {
                mtbf_ms: 15.0,
                mttr_ms: 5.0,
                fallible_fraction: 0.3,
                seed: seed ^ 0x11,
            }),
            crash_model: churn.then_some(CrashModel {
                mtbf_ms: 25.0,
                mttr_ms: 6.0,
                fallible_fraction: 0.15,
                seed: seed ^ 0x22,
            }),
            channel: Some(ChannelFaults {
                jitter_us: 300,
                ..ChannelFaults::lossy(loss, seed ^ 0x33)
            }),
            misbehavior: Default::default(),
        };
        let run = || artifact(&common::chaos_lifecycle(
            &topo, NaiveDv::default(), &spec, partition, horizon_ms,
        ));
        prop_assert_eq!(
            run(), run(),
            "chaos divergence (loss {}, churn {}, partition {})",
            loss, churn, partition
        );
    }
}
