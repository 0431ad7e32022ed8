//! Fixtures shared by the integration tests (each test crate uses a
//! subset, hence the `dead_code` allowance), and the suite's invariants,
//! each defined once: the data-plane checks on a [`FlowScore`]
//! ([`Invariant`]), message conservation ([`assert_conserves`]), the fault
//! lifecycle ([`chaos_lifecycle`]) and the scripted twin run ([`twin`]).
#![allow(dead_code)]

use std::fmt::Display;

use adroute::core::{run_load_ramp, AdmissionConfig, OrwgNetwork, StressConfig};
use adroute::policy::workload::PolicyWorkload;
use adroute::policy::{
    AdSet, FlowSpec, PolicyAction, PolicyCondition, PolicyDb, QosClass, UserClass,
};
use adroute::protocols::forwarding::{
    forward, sample_flows, score_flows, DataPlane, FlowScore, ForwardOutcome,
};
use adroute::sim::{
    ChannelFaults, Engine, FaultPlan, FaultSpec, OpenStorm, Protocol, SimTime, Stats, StormPhase,
};
use adroute::topology::{
    analysis, generate, AdId, HierarchyConfig, LinkId, PartialOrder, Topology,
};
use proptest::prop_assert;
use proptest::test_runner::{ProptestConfig, TestCaseError};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A data-plane invariant: one assertion on the [`FlowScore`] that
/// [`score_flows`] measures against the policy-legality oracle. Each
/// variant includes the ones above it.
#[derive(Clone, Copy, Debug)]
pub enum Invariant {
    /// No packet revisits an AD: `loops == 0`.
    LoopFree,
    /// Loop-free, and no delivered path crosses an AD whose transit
    /// policy refuses it: `violating == 0`.
    NeverViolates,
    /// Never violates, and delivers exactly the flows the oracle finds a
    /// legal route for: never "no available route when in fact a legal
    /// route exists", and nothing where none exists.
    Exact,
    /// Exact, and every route costs what the oracle's does (a route can
    /// only cost more, so equal sums mean equal costs).
    Optimal,
}

impl Invariant {
    /// Whether `s` satisfies the invariant.
    pub fn holds(self, s: &FlowScore) -> bool {
        match self {
            Invariant::LoopFree => s.loops == 0,
            Invariant::NeverViolates => Invariant::LoopFree.holds(s) && s.violating == 0,
            Invariant::Exact => {
                Invariant::NeverViolates.holds(s)
                    && s.compliant_of_legal == s.legal_exists
                    && s.delivered == s.legal_exists
            }
            Invariant::Optimal => Invariant::Exact.holds(s) && s.cost_sum == s.oracle_cost_sum,
        }
    }

    /// Panics, printing `what` and the whole score, unless `s` satisfies
    /// the invariant.
    pub fn assert(self, s: &FlowScore, what: impl Display) {
        assert!(self.holds(s), "{what}: not {self:?}: {s:?}");
    }

    /// Scores `dp` on `flows` against the oracle over `topo` and `db`,
    /// asserts the invariant and returns the score.
    pub fn check<D: DataPlane>(
        self,
        dp: &mut D,
        topo: &Topology,
        db: &PolicyDb,
        flows: &[FlowSpec],
        what: impl Display,
    ) -> FlowScore {
        let s = score_flows(dp, topo, db, flows);
        self.assert(&s, what);
        s
    }
}

/// Asserts that every path `dp` delivers for `flows` over `topo` is
/// valley-free in the hierarchy's partial order (up, then down): the
/// ordering ECMA routes by (Section 5.1.1).
pub fn assert_valley_free<D: DataPlane>(dp: &mut D, topo: &Topology, flows: &[FlowSpec]) {
    let po = PartialOrder::from_levels(topo);
    for f in flows {
        if let ForwardOutcome::Delivered { path } = forward(dp, topo, f) {
            assert!(po.is_valley_free(&path), "{f} took a valley: {path:?}");
        }
    }
}

/// Checks message conservation in `P`'s run: every message sent, plus
/// each duplicate a faulty channel minted, was delivered, lost or
/// corrupted exactly once — in the totals and inside every phase. It holds
/// only at quiescence, where phase boundaries also sit, so nothing is in
/// flight across one. An `Err` inside a proptest reports the failing case;
/// plain tests `unwrap` it.
pub fn assert_conserves<P>(s: &Stats) -> Result<(), TestCaseError> {
    let who = std::any::type_name::<P>();
    prop_assert!(
        s.conserves_messages(),
        "{} does not conserve messages in its totals: {}",
        who,
        s.to_json()
    );
    for phase in s.phase_names() {
        let d = s.phase_delta(phase).expect("a named phase has a delta");
        prop_assert!(
            d.conserves_messages(),
            "{} does not conserve messages in phase '{}': {}",
            who,
            phase,
            d.to_json()
        );
    }
    Ok(())
}

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

/// A fresh engine running `protocol` on `topo` with its event log on.
pub fn logged<P: Protocol>(topo: &Topology, protocol: P, capacity: usize) -> Engine<P> {
    let mut e = Engine::new(topo.clone(), protocol);
    e.enable_obs(capacity);
    e
}

/// The one fault lifecycle, on a fresh engine `e` (log it with [`logged`]
/// to read its trace): convergence, then a `chaos` phase under a plan
/// drawn from `spec` over `horizon_ms` at the quiescent time — which is
/// itself part of the determinism contract, so every run derives the
/// identical plan — then quiescence again, with messages conserved at
/// both. `partition` additionally splits the domain at the AD-index
/// midpoint for the first half of the horizon and heals it.
pub fn chaos_lifecycle<P: Protocol>(
    mut e: Engine<P>,
    spec: &FaultSpec,
    partition: bool,
    horizon_ms: u64,
) -> Result<Engine<P>, TestCaseError> {
    e.begin_phase("converge");
    e.run_to_quiescence();
    assert_conserves::<P>(&e.stats)?;
    e.begin_phase("chaos");
    let topo = e.topo().clone();
    let mut plan = FaultPlan::draw(&topo, spec, e.now(), horizon_ms);
    if partition {
        let at = e.now().plus_us(500);
        let heal_at = e.now().plus_us(horizon_ms * 500);
        plan = plan.with_partition(&topo, (topo.num_ads() / 2) as u32, at, heal_at);
    }
    plan.apply(&mut e);
    e.run_to_quiescence();
    assert_conserves::<P>(&e.stats)?;
    Ok(e)
}

/// One step of a fault script, taken 1 ms after the current time.
#[derive(Clone, Copy, Debug)]
pub enum Step {
    /// Nothing: the cold start, or a pause.
    Quiesce,
    /// A link goes down (`false`) or comes back up.
    Link(LinkId, bool),
    /// A router crashes (`false`) or restarts.
    Router(AdId, bool),
}

/// Takes `step` on `e`, runs to quiescence and checks conservation.
pub fn take<P: Protocol>(e: &mut Engine<P>, step: Step) -> Result<(), TestCaseError> {
    let at = e.now().plus_us(1000);
    match step {
        Step::Quiesce => {}
        Step::Link(link, up) => e.schedule_link_change(link, up, at),
        Step::Router(ad, up) => e.schedule_router_change(ad, up, at),
    }
    e.run_to_quiescence();
    assert_conserves::<P>(&e.stats)
}

/// What a scripted run does to its internet besides running the protocol.
#[derive(Clone, Copy, Debug)]
pub struct Case {
    /// `ChannelFaults::lossy(0.2, seed)` on every link.
    pub lossy: Option<u64>,
    /// The link that flaps.
    pub link: LinkId,
    /// The router that crashes and restarts.
    pub victim: AdId,
}

impl Case {
    /// A clean case on `topo`, its flapped link and crashed router drawn
    /// from `seed`.
    pub fn clean(topo: &Topology, seed: u64) -> Case {
        Case {
            lossy: None,
            link: LinkId((seed % topo.num_links() as u64) as u32),
            victim: AdId(((seed / 7) % topo.num_ads() as u64) as u32),
        }
    }

    /// A flap of the case's link.
    pub fn flap(&self) -> [Step; 2] {
        [Step::Link(self.link, false), Step::Link(self.link, true)]
    }

    /// A crash and restart of the case's victim.
    pub fn crash_restart(&self) -> [Step; 2] {
        [
            Step::Router(self.victim, false),
            Step::Router(self.victim, true),
        ]
    }

    /// The whole script: cold start, the flap, the crash and restart.
    pub fn script(&self) -> Vec<Step> {
        let mut steps = vec![Step::Quiesce];
        steps.extend(self.flap());
        steps.extend(self.crash_restart());
        steps
    }

    /// A fresh engine running `protocol` on `topo` over the case's channel.
    pub fn engine<P: Protocol>(&self, topo: &Topology, protocol: P) -> Engine<P> {
        let mut e = Engine::new(topo.clone(), protocol);
        e.set_channel_faults(self.lossy.map(|seed| ChannelFaults::lossy(0.2, seed)));
        e
    }
}

/// Runs twins `a` (the library) and `b` (its oracle) through `script` in
/// lockstep. After every step their work ledgers (`Stats::to_json`) must
/// be equal, their event logs identical, and `same` must hold.
pub fn twin<A: Protocol, B: Protocol>(
    mut a: Engine<A>,
    mut b: Engine<B>,
    script: &[Step],
    mut same: impl FnMut(&Engine<A>, &Engine<B>, Step) -> Result<(), TestCaseError>,
) -> Result<(), TestCaseError> {
    a.enable_obs(1 << 16);
    b.enable_obs(1 << 16);
    for &step in script {
        take(&mut a, step)?;
        take(&mut b, step)?;
        let (sa, sb) = (a.stats.to_json(), b.stats.to_json());
        prop_assert!(
            sa == sb,
            "work ledgers differ after {:?}:\n  library: {}\n  oracle:  {}",
            step,
            sa,
            sb
        );
        // Identical, not merely matching: two ring buffers that dropped
        // the same number of records could hide a divergence.
        let logs = a.obs.log.first_divergence(&b.obs.log);
        prop_assert!(
            logs.is_identical(),
            "event logs differ after {:?}: {:?}",
            step,
            logs
        );
        same(&a, &b, step)?;
    }
    Ok(())
}

/// The shrunk `adroute stress` lifecycle, exported as the overload event
/// stream: a two-phase open storm (`ramp` = (ms, opens/s) per phase)
/// crosses the [`golden_internet`]'s serving saturation under tight
/// admission watermarks. `cfg` carries what callers vary beyond that
/// (a crash, sharding); its seed and admission are overridden. `warm`
/// first warms the caches and fails the trunk, so the invalidated entries
/// queue for the background refill idle slots run when the batch allows
/// refills (an unsharded ramp's batch of one does not).
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
