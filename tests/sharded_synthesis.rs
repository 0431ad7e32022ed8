//! Differential battery for the batched Route Server synthesis engine:
//! [`RouteServer::request_batch`] must be **byte-identical** to a
//! [`RouteServer::request`] loop at every batch size — same routes,
//! same NACKs (`None` answers), same [`SynthStats`], same cache contents
//! and recency order — and [`OrwgNetwork::serve_batch`] with
//! `max_batch == 1` must *be* [`OrwgNetwork::serve_next`], so an
//! unsharded load ramp is a batch of one. The batched
//! path is allowed to do measurably less work (the sweep keys of the
//! server's ledger, kept apart from the synthesis keys), never to answer
//! differently.

use adroute::core::{
    run_load_ramp, OrwgNetwork, PendingOpen, PolicyRoute, RouteServer, ServeOutcome, ShardConfig,
    Strategy, StressConfig, SynthStats,
};
use adroute::policy::workload::PolicyWorkload;
use adroute::policy::{FlowSpec, PolicyDb, QosClass};
use adroute::protocols::forwarding::sample_flows;
use adroute::sim::{OpenStorm, RouterOutage, SimTime, StormPhase};
use adroute::topology::{AdId, Topology};
use proptest::prelude::*;

mod common;
use common::small_internet;

/// A storm-shaped request sequence: sampled flows replayed with
/// repetitions (cache hits), a sprinkle of distinct QoS classes (distinct
/// compatibility classes within one batch), and deterministic order.
fn request_sequence(topo: &Topology, seed: u64) -> Vec<FlowSpec> {
    let base = sample_flows(topo, 24, seed);
    let mut seq = Vec::new();
    for round in 0..3usize {
        for (i, f) in base.iter().enumerate() {
            let mut f = *f;
            if (i + round) % 5 == 0 {
                f.qos = QosClass((i % 3) as u8);
            }
            seq.push(f);
        }
    }
    seq
}

fn twin_servers(topo: &Topology, db: &PolicyDb, capacity: usize) -> (RouteServer, RouteServer) {
    let a = RouteServer::new(
        AdId(0),
        topo.clone(),
        db.clone(),
        Strategy::Hybrid { capacity },
    );
    let b = RouteServer::new(
        AdId(0),
        topo.clone(),
        db.clone(),
        Strategy::Hybrid { capacity },
    );
    (a, b)
}

/// Offers `flow` at `at` with the given deadline slack.
fn offer_at(net: &mut OrwgNetwork, flow: FlowSpec, at: SimTime, deadline_us: u64) {
    net.set_clock(at);
    let _ = net.offer_open(PendingOpen {
        flow,
        offered_at: at,
        arrival: at,
        deadline: at.plus_us(deadline_us),
        attempt: 0,
        phase: 0,
        cause: None,
    });
}

/// The observable answer of one serve outcome: which flow, what kind of
/// answer, the exact route (for serves), and the NACK hint (for sheds).
/// Event ids and handles are allocation-order artifacts and excluded.
fn outcome_key(o: &ServeOutcome) -> (FlowSpec, &'static str, Option<Vec<AdId>>, u64) {
    match o {
        ServeOutcome::Served {
            open, rung, setup, ..
        } => (open.flow, rung.tag(), Some(setup.route.clone()), 0),
        ServeOutcome::Shed {
            open,
            retry_after_us,
            ..
        } => (open.flow, "shed", None, *retry_after_us),
        ServeOutcome::NoRoute { open, rung } => (open.flow, rung.tag(), None, 1),
        ServeOutcome::Failed { open, rung, .. } => (open.flow, rung.tag(), None, 2),
        ServeOutcome::Expired { open } => (open.flow, "expired", None, 3),
    }
}

proptest! {
    #![proptest_config(common::cases(12))]

    /// The twin oracle: for random internets, policy workloads, request
    /// sequences and batch boundaries, a batched server and a monolithic
    /// (request-loop) server return byte-identical routes and `None`
    /// answers, accrue byte-identical [`SynthStats`], and end with
    /// byte-identical caches — contents *and* recency order.
    #[test]
    fn request_batch_twins_the_request_loop(seed in 0u64..150, chunk in 1usize..9) {
        let topo = small_internet(seed);
        let db = PolicyWorkload::default_mix(seed).generate(&topo);
        let seq = request_sequence(&topo, seed);
        let (mut mono, mut batched) = twin_servers(&topo, &db, 32);
        for window in seq.chunks(chunk) {
            let solo: Vec<Option<PolicyRoute>> =
                window.iter().map(|f| mono.request(f)).collect();
            let swept = batched.request_batch(window, 8);
            prop_assert_eq!(&solo, &swept, "answers diverged at chunk={}", chunk);
        }
        prop_assert_eq!(
            SynthStats::from(&mono.ledger),
            SynthStats::from(&batched.ledger),
            "SynthStats diverged"
        );
        prop_assert_eq!(
            mono.cache_snapshot(), batched.cache_snapshot(),
            "cache contents or recency order diverged"
        );
    }

    /// `request_batch`'s second argument is inert until `benchmark/` stops
    /// passing it: answers, stats, final cache state and the sweep count
    /// are a pure function of the request sequence.
    #[test]
    fn batched_answers_are_shard_count_invariant(seed in 0u64..100, chunk in 2usize..9) {
        let topo = small_internet(seed);
        let db = PolicyWorkload::default_mix(seed).generate(&topo);
        let seq = request_sequence(&topo, seed);
        let run = |shards: usize| {
            let mut rs = RouteServer::new(
                AdId(0), topo.clone(), db.clone(), Strategy::Hybrid { capacity: 32 },
            );
            let answers: Vec<Option<PolicyRoute>> = seq
                .chunks(chunk)
                .flat_map(|w| rs.request_batch(w, shards))
                .collect();
            (answers, rs.ledger.clone(), rs.cache_snapshot())
        };
        prop_assert_eq!(run(1), run(8));
    }

    /// At the serving layer, `serve_batch` with `max_batch == 1` *is*
    /// `serve_next`: draining twin networks under identical offered load
    /// (including some already-expired opens) yields identical outcome
    /// streams — same flows in the same order, same rungs, same routes,
    /// same NACK retry-after hints — and identical synthesis counters.
    #[test]
    fn serve_batch_of_one_is_serve_next(seed in 0u64..80) {
        let topo = small_internet(seed);
        let db = PolicyWorkload::structural(seed).generate(&topo);
        let mut a = OrwgNetwork::converged(&topo, &db);
        let mut b = OrwgNetwork::converged(&topo, &db);
        let flows = sample_flows(&topo, 40, seed);
        for (i, f) in flows.iter().enumerate() {
            let at = SimTime((i as u64 + 1) * 50);
            // Every fourth open gets a deadline that will have passed by
            // drain time, so expired cancellation is exercised too.
            let deadline = if i % 4 == 0 { 100 } else { 60_000_000 };
            offer_at(&mut a, *f, at, deadline);
            offer_at(&mut b, *f, at, deadline);
        }
        let drain_at = SimTime(1_000_000);
        a.set_clock(drain_at);
        b.set_clock(drain_at);
        let one = ShardConfig { shards: 8, max_batch: 1, refill_budget: 0 };
        for ad in topo.ad_ids() {
            let mut mono = Vec::new();
            while let Some(o) = a.serve_next(ad) {
                mono.push(outcome_key(&o));
            }
            let mut batched = Vec::new();
            loop {
                let outcomes = b.serve_batch(ad, one);
                if outcomes.is_empty() {
                    break;
                }
                batched.extend(outcomes.iter().map(outcome_key));
            }
            prop_assert_eq!(&mono, &batched, "outcome streams diverged at {}", ad);
            prop_assert_eq!(
                SynthStats::from(&a.server(ad).ledger),
                SynthStats::from(&b.server(ad).ledger),
                "SynthStats diverged at {}", ad
            );
        }
    }

    /// The same at the storm level: `run_load_ramp` under batched service
    /// produces the same report — every phase counter, every latency
    /// percentile — whatever the inert `ShardConfig::shards` says.
    #[test]
    fn storm_reports_are_shard_count_invariant(seed in 0u64..40) {
        let topo = small_internet(seed);
        let db = PolicyWorkload::structural(seed).generate(&topo);
        let phases = [
            StormPhase { duration_ms: 10, opens_per_sec: 2_000 },
            StormPhase { duration_ms: 15, opens_per_sec: 20_000 },
        ];
        let storm = OpenStorm::draw(&topo, &phases, SimTime::ZERO, seed);
        let durations: Vec<u64> = phases.iter().map(|p| p.duration_ms * 1000).collect();
        let run = |shards: usize| {
            let mut net = OrwgNetwork::converged(&topo, &db);
            let cfg = StressConfig {
                seed,
                sharding: Some(ShardConfig { shards, ..ShardConfig::default() }),
                ..StressConfig::default()
            };
            let r = run_load_ramp(&mut net, &storm, &durations, &cfg);
            let phases: Vec<_> = r.phases.iter().map(|p| {
                (p.offered, p.served, p.served_full, p.served_cached, p.served_stored,
                 p.shed, p.abandoned, p.no_route, p.failed)
            }).collect();
            (phases, r.served, r.shed, r.abandoned, r.retries, r.p50_wait_us, r.p99_wait_us)
        };
        prop_assert_eq!(run(1), run(8));
    }

    /// The load ramp has one service path: `sharding: None` is a batch of
    /// one with no background refill, event for event — through a
    /// mid-storm Route Server crash, over cold caches and over warm ones a
    /// trunk failure partially invalidated.
    #[test]
    fn unsharded_ramp_is_a_batch_of_one(seed in 0u64..40) {
        let one = ShardConfig { max_batch: 1, refill_budget: 0, ..ShardConfig::default() };
        for warm in [false, true] {
            let export = |sharding| {
                let cfg = StressConfig {
                    sharding,
                    crash: Some(RouterOutage {
                        ad: AdId(0),
                        down_at: SimTime(15_000),
                        up_at: SimTime(21_000),
                    }),
                    ..StressConfig::default()
                };
                common::stress_export(seed, [(10, 1_500), (20, 8_000)], warm, cfg)
            };
            prop_assert_eq!(export(None), export(Some(one)), "warm: {}", warm);
        }
    }
}
