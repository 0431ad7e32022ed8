//! Parallel-determinism contract: region-parallel execution must be
//! invisible in every observable artifact. For each golden scenario the
//! parallel engine's typed JSONL export is compared byte-for-byte
//! against the sequential engine at worker counts {1, 2, 8}, and every
//! configuration is run twice (double-run identity) — so a scheduling
//! or journal-replay bug shows up as a diff, not a flake. A proptest
//! sweep repeats the check over random internets, failure points, and
//! worker counts.

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

/// What must not depend on the worker count: the typed JSONL export (the
/// retained window of it) followed by the engine's cumulative counters.
fn artifact<P: Protocol>(e: &Engine<P>) -> String {
    format!("{}{}\n", e.obs.log.export_jsonl(), e.stats.to_json())
}

/// Runs `protocol` on `topo` through the CLI's own control-plane
/// lifecycle (convergence, a trunk failure, reconvergence) — sequentially
/// when `workers` is `None`, else with the region-parallel engine — and
/// returns the run's [`artifact`].
fn lifecycle_jsonl<P>(topo: &Topology, protocol: P, workers: Option<usize>) -> String
where
    P: Protocol + Sync,
    P::Router: Send,
    P::Msg: Send,
{
    let mut e = Engine::new(topo.clone(), protocol);
    e.enable_obs(1 << 16);
    scenario::converge_then_cut(&mut e, &[analysis::trunk(topo).unwrap()], workers);
    artifact(&e)
}

/// Asserts the full determinism contract for one scenario: sequential
/// double-run identity, then parallel == sequential (twice) at each
/// worker count — clean, and once more per worker count under a mixed
/// channel-fault plan with a partition/heal.
fn assert_parallel_matches<P, F>(topo: &Topology, make: F, what: &str)
where
    P: Protocol + Sync,
    P::Router: Send,
    P::Msg: Send,
    F: Fn() -> P,
{
    let seq = lifecycle_jsonl(topo, make(), None);
    assert_eq!(
        seq,
        lifecycle_jsonl(topo, make(), None),
        "{what}: sequential double-run must be byte-identical"
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
    let chaos = |workers| {
        artifact(&common::chaos_lifecycle(
            topo,
            make(),
            &spec,
            true,
            40,
            workers,
        ))
    };
    let faulted = chaos(None);
    assert!(
        !faulted.contains("\"msgs_corrupted\":0,"),
        "{what}: the fault plan must bite"
    );
    for workers in [1, 2, 8] {
        for run in 0..2 {
            let par = lifecycle_jsonl(topo, make(), Some(workers));
            assert_eq!(
                par, seq,
                "{what}: parallel ({workers} workers, run {run}) diverged from sequential"
            );
        }
        let par = chaos(Some(workers));
        assert_eq!(
            par, faulted,
            "{what}: faulted parallel ({workers} workers) diverged from sequential"
        );
    }
}

/// The quickstart golden scenario's engine: the Figure-1 internet's ORWG
/// control plane converging and absorbing a trunk failure.
#[test]
fn quickstart_parallel_is_byte_identical() {
    let topo = Scenario::quickstart().topo;
    assert_parallel_matches(
        &topo,
        || OrwgProtocol::new(&topo, PolicyDb::permissive(&topo)),
        "quickstart",
    );
}

/// The e7b golden scenario's internet (E-series, ~120 ADs) under the
/// ORWG control plane.
#[test]
fn e7b_internet_parallel_is_byte_identical() {
    let topo = Scenario::e_series().topo;
    assert_parallel_matches(
        &topo,
        || OrwgProtocol::new(&topo, PolicyDb::permissive(&topo)),
        "e7b-internet",
    );
}

/// The hop-by-hop design points, which lean hardest on `Ctx::emit`
/// anchors and timers. Path vector stays at the 15-AD size where its
/// per-event policy evaluation is affordable.
#[test]
fn hop_by_hop_design_points_parallel_are_byte_identical() {
    let topo = HierarchyConfig::e_series(49, 23).generate();
    let db = PolicyWorkload::default_mix(23).generate(&topo);
    assert_parallel_matches(&topo, || Ecma::hierarchical(&topo), "ecma");
    assert_parallel_matches(&topo, || LsHbh::new(&topo, db.clone()), "ls-hbh");
    assert_parallel_matches(&topo, NaiveDv::default, "naive-dv");

    let small = common::fifteen_ads(0.25, 0.1, 0.2, 23);
    assert!(small.num_ads() <= 19);
    let small_db = PolicyWorkload::default_mix(23).generate(&small);
    assert_parallel_matches(&small, || PathVector::idrp(small_db.clone()), "path-vector");
}

/// The stress golden scenario runs the ORWG serving path (`run_load_ramp`),
/// which is a mini event loop outside the region-parallel engine — so its
/// determinism contract is double-run byte identity of the exported
/// stream, under the same storm-crosses-saturation shape as the golden.
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

    /// Random internets and worker counts: the parallel engine's JSONL
    /// must match the sequential engine's, byte for byte.
    #[test]
    fn random_internets_parallel_matches_sequential(
        seed in 0u64..1_000,
        approx in 30usize..90,
        workers in 2usize..9,
    ) {
        let topo = HierarchyConfig::e_series(approx, seed).generate();
        let seq = lifecycle_jsonl(&topo, NaiveDv::default(), None);
        let par = lifecycle_jsonl(&topo, NaiveDv::default(), Some(workers));
        prop_assert_eq!(seq, par);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The chaos battery: random fault plans — lossy / corrupting /
    /// duplicating / reordering channels keyed on event identity,
    /// optional link churn and router crashes, optional partition/heal —
    /// must leave the parallel engine byte-identical to the sequential
    /// one at every required worker count.
    #[test]
    fn random_fault_plans_parallel_matches_sequential(
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
        let seq = artifact(&common::chaos_lifecycle(
            &topo, NaiveDv::default(), &spec, partition, horizon_ms, None,
        ));
        for workers in [1usize, 2, 8] {
            let par = artifact(&common::chaos_lifecycle(
                &topo, NaiveDv::default(), &spec, partition, horizon_ms, Some(workers),
            ));
            prop_assert_eq!(
                &seq, &par,
                "chaos divergence at {} workers (loss {}, churn {}, partition {})",
                workers, loss, churn, partition
            );
        }
    }
}
