//! The common data-plane harness.
//!
//! After a control plane converges, experiments push packets through the
//! network hop-by-hop and audit the result: was the packet delivered, did
//! it loop, did every transit AD's policy actually permit the traversal?
//! Comparing the outcome against the oracle
//! ([`adroute_policy::legality::legal_route`]) yields the route-availability
//! and policy-integrity numbers of the design-space experiments.

use adroute_policy::{legality, FlowSpec, PolicyDb};
use adroute_topology::{AdId, Topology};

/// A converged data plane: given a packet at AD `at` (arriving from
/// `prev`, `None` at the source), decide the next AD.
///
/// `Mark` is protocol-defined per-packet state carried in the packet
/// header — e.g. ECMA's "has traversed a down link" bit, or the ORWG
/// route handle. `next_hop` takes `&mut self` because hop-by-hop
/// link-state forwarders compute routes lazily and cache them.
pub trait DataPlane {
    /// Per-packet header state.
    type Mark: Default + Clone;

    /// The forwarding decision at `at`. Returns `None` when the protocol
    /// has no (willing) route — the packet is dropped.
    fn next_hop(
        &mut self,
        at: AdId,
        flow: &FlowSpec,
        prev: Option<AdId>,
        mark: &mut Self::Mark,
    ) -> Option<AdId>;
}

/// What happened to a forwarded packet.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ForwardOutcome {
    /// Delivered to the destination along `path`.
    Delivered {
        /// The complete AD path, source to destination.
        path: Vec<AdId>,
    },
    /// Dropped at the last AD of `path`: no next hop.
    NoRoute {
        /// Path up to and including the AD that dropped the packet.
        path: Vec<AdId>,
    },
    /// A forwarding loop was detected (an AD revisited).
    Loop {
        /// Path up to and including the first revisited AD.
        path: Vec<AdId>,
    },
}

impl ForwardOutcome {
    /// Whether the packet reached its destination.
    pub fn delivered(&self) -> bool {
        matches!(self, ForwardOutcome::Delivered { .. })
    }

    /// The traversed path regardless of outcome.
    pub fn path(&self) -> &[AdId] {
        match self {
            ForwardOutcome::Delivered { path }
            | ForwardOutcome::NoRoute { path }
            | ForwardOutcome::Loop { path } => path,
        }
    }
}

/// Drives one packet for `flow` from its source hop-by-hop until delivery,
/// drop, loop, or a hop budget of `2 * num_ads` (catching protocols that
/// wander without revisiting).
///
/// The hop from `a` to `b` is taken only if an operational link exists —
/// a data plane that names a non-neighbor is treated as dropping the
/// packet (defensive: none of the implementations should).
pub fn forward<D: DataPlane>(dp: &mut D, topo: &Topology, flow: &FlowSpec) -> ForwardOutcome {
    let mut path = vec![flow.src];
    if flow.src == flow.dst {
        return ForwardOutcome::Delivered { path };
    }
    let mut visited = vec![false; topo.num_ads()];
    visited[flow.src.index()] = true;
    let mut mark = D::Mark::default();
    let mut prev = None;
    let mut at = flow.src;
    let budget = 2 * topo.num_ads() + 2;
    for _ in 0..budget {
        let Some(next) = dp.next_hop(at, flow, prev, &mut mark) else {
            return ForwardOutcome::NoRoute { path };
        };
        let link_ok = topo
            .link_between(at, next)
            .map(|l| topo.link(l).up)
            .unwrap_or(false);
        if !link_ok {
            return ForwardOutcome::NoRoute { path };
        }
        path.push(next);
        if next == flow.dst {
            return ForwardOutcome::Delivered { path };
        }
        if visited[next.index()] {
            return ForwardOutcome::Loop { path };
        }
        visited[next.index()] = true;
        prev = Some(at);
        at = next;
    }
    // Budget exhausted without revisiting: report as a loop (pathological).
    ForwardOutcome::Loop { path }
}

/// Audit of a delivered path against ground-truth policy.
#[derive(Clone, Debug, Default)]
pub struct Audit {
    /// Transit ADs whose policy the path violates.
    pub violations: Vec<AdId>,
    /// Total cost if the path is legal.
    pub cost: Option<u64>,
}

impl Audit {
    /// Whether the path is fully policy-compliant.
    pub fn compliant(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Audits a complete path: which transit ADs' policies does it violate?
pub fn audit_path(topo: &Topology, db: &PolicyDb, flow: &FlowSpec, path: &[AdId]) -> Audit {
    let mut audit = Audit::default();
    if path.len() >= 3 {
        for i in 1..path.len() - 1 {
            if db
                .policy(path[i])
                .evaluate(flow, Some(path[i - 1]), Some(path[i + 1]))
                .is_none()
            {
                audit.violations.push(path[i]);
            }
        }
    }
    if audit.violations.is_empty() {
        audit.cost = legality::route_is_legal(topo, db, flow, path);
    }
    audit
}

/// Aggregated delivery/compliance/availability statistics over a set of
/// flows — the per-architecture row of the design-space experiments.
#[derive(Clone, Debug, Default)]
pub struct FlowScore {
    /// Flows attempted.
    pub flows: usize,
    /// Flows for which the oracle found a legal route.
    pub legal_exists: usize,
    /// Flows delivered by the protocol.
    pub delivered: usize,
    /// Delivered flows whose path violated some transit policy.
    pub violating: usize,
    /// Flows with a legal route that the protocol delivered compliantly.
    pub compliant_of_legal: usize,
    /// Forwarding loops observed.
    pub loops: usize,
    /// Sum of protocol path cost over flows where both protocol and
    /// oracle delivered compliantly (for stretch).
    pub cost_sum: u64,
    /// Sum of oracle cost over the same flows.
    pub oracle_cost_sum: u64,
}

impl FlowScore {
    /// Availability: of the flows with a legal route, the fraction the
    /// protocol delivered policy-compliantly. The paper's "no available
    /// route when in fact a legal route exists" measure.
    pub fn availability(&self) -> f64 {
        if self.legal_exists == 0 {
            return 1.0;
        }
        self.compliant_of_legal as f64 / self.legal_exists as f64
    }

    /// Fraction of delivered flows that violated policy (integrity
    /// failure).
    pub fn violation_rate(&self) -> f64 {
        if self.delivered == 0 {
            return 0.0;
        }
        self.violating as f64 / self.delivered as f64
    }

    /// Mean path-cost stretch vs the oracle on comparably-delivered flows.
    pub fn stretch(&self) -> f64 {
        if self.oracle_cost_sum == 0 {
            return 1.0;
        }
        self.cost_sum as f64 / self.oracle_cost_sum as f64
    }
}

/// Scores a data plane over a set of flows against the oracle.
pub fn score_flows<D: DataPlane>(
    dp: &mut D,
    topo: &Topology,
    db: &PolicyDb,
    flows: &[FlowSpec],
) -> FlowScore {
    let mut score = FlowScore {
        flows: flows.len(),
        ..FlowScore::default()
    };
    for flow in flows {
        let oracle = legality::legal_route(topo, db, flow);
        if oracle.is_some() {
            score.legal_exists += 1;
        }
        let outcome = forward(dp, topo, flow);
        match &outcome {
            ForwardOutcome::Delivered { path } => {
                score.delivered += 1;
                let audit = audit_path(topo, db, flow, path);
                if audit.compliant() {
                    if let Some(oracle) = &oracle {
                        score.compliant_of_legal += 1;
                        if let Some(cost) = audit.cost {
                            score.cost_sum += cost;
                            score.oracle_cost_sum += oracle.cost;
                        }
                    }
                } else {
                    score.violating += 1;
                }
            }
            ForwardOutcome::Loop { .. } => score.loops += 1,
            ForwardOutcome::NoRoute { .. } => {}
        }
    }
    score
}

/// One monitoring tick's worth of forwarding-plane probes: pushes every
/// flow through the data plane and translates the outcomes into
/// [`Observation`](adroute_sim::Observation)s for a
/// [`MonitorBank`](adroute_sim::MonitorBank) — the protocol-agnostic glue
/// between the four design-point data planes and the runtime safety
/// monitors. The caller closes the tick with
/// [`MonitorBank::end_tick`](adroute_sim::MonitorBank::end_tick).
///
/// Mapping:
/// - delivered → [`Observation::Delivered`] with the policy violators
///   from [`audit_path`] (the tripwire's evidence),
/// - looped → [`Observation::Looped`] with the repeating cycle,
///   `reachable` from the same oracle as drops (a loop toward an
///   unreachable destination is reconvergence churn, not misbehavior),
/// - dropped → [`Observation::Blackholed`], `reachable` taken from the
///   policy-legality oracle ([`legality::legal_route`]): a drop is only
///   suspicious when a policy-legal route exists right now. A
///   policy-honoring protocol refusing a policy-forbidden flow is thus
///   never accused — the false-positive discipline the monitors.rs
///   proptest battery enforces (each design point is paired with the
///   policy regime it actually honors).
///
/// [`Observation::Delivered`]: adroute_sim::Observation::Delivered
/// [`Observation::Looped`]: adroute_sim::Observation::Looped
/// [`Observation::Blackholed`]: adroute_sim::Observation::Blackholed
pub fn observe_flows<D: DataPlane>(
    dp: &mut D,
    topo: &Topology,
    db: &PolicyDb,
    flows: &[FlowSpec],
    bank: &mut adroute_sim::MonitorBank,
) {
    use adroute_sim::Observation;
    for flow in flows {
        match forward(dp, topo, flow) {
            ForwardOutcome::Delivered { path } => {
                let audit = audit_path(topo, db, flow, &path);
                bank.observe(Observation::Delivered {
                    src: flow.src,
                    dst: flow.dst,
                    violators: audit.violations,
                });
            }
            ForwardOutcome::Loop { path } => {
                // The cycle is the suffix starting at the first visit of
                // the revisited AD (budget-exhaustion "loops" degrade to
                // the whole path).
                let last = *path.last().expect("loop path is never empty");
                let start = path.iter().position(|&a| a == last).unwrap_or(0);
                bank.observe(Observation::Looped {
                    src: flow.src,
                    dst: flow.dst,
                    cycle: path[start..path.len() - 1].to_vec(),
                    reachable: legality::legal_route(topo, db, flow).is_some(),
                });
            }
            ForwardOutcome::NoRoute { path } => {
                let at = *path.last().expect("drop path is never empty");
                bank.observe(Observation::Blackholed {
                    src: flow.src,
                    dst: flow.dst,
                    at,
                    reachable: legality::legal_route(topo, db, flow).is_some(),
                });
            }
        }
    }
}

/// Generates a deterministic sample of distinct-endpoint best-effort flows.
pub fn sample_flows(topo: &Topology, count: usize, seed: u64) -> Vec<FlowSpec> {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = topo.num_ads() as u32;
    let mut flows = Vec::with_capacity(count);
    if n < 2 {
        return flows;
    }
    while flows.len() < count {
        let s = AdId(rng.gen_range(0..n));
        let d = AdId(rng.gen_range(0..n));
        if s != d {
            flows.push(FlowSpec::best_effort(s, d));
        }
    }
    flows
}

#[cfg(test)]
mod tests {
    use super::*;
    use adroute_policy::TransitPolicy;
    use adroute_topology::generate::line;

    /// A static data plane from a fixed next-hop matrix.
    struct Table(Vec<Vec<Option<AdId>>>); // [at][dst]
    impl DataPlane for Table {
        type Mark = ();
        fn next_hop(
            &mut self,
            at: AdId,
            flow: &FlowSpec,
            _prev: Option<AdId>,
            _mark: &mut (),
        ) -> Option<AdId> {
            self.0[at.index()][flow.dst.index()]
        }
    }

    fn line_table(n: usize) -> Table {
        // Correct next hops on a line.
        let mut t = vec![vec![None; n]; n];
        for (at, row) in t.iter_mut().enumerate() {
            for (dst, cell) in row.iter_mut().enumerate() {
                if dst > at {
                    *cell = Some(AdId(at as u32 + 1));
                } else if dst < at {
                    *cell = Some(AdId(at as u32 - 1));
                }
            }
        }
        Table(t)
    }

    #[test]
    fn forward_delivers_on_correct_table() {
        let topo = line(4);
        let mut dp = line_table(4);
        let f = FlowSpec::best_effort(AdId(0), AdId(3));
        let out = forward(&mut dp, &topo, &f);
        assert!(out.delivered());
        assert_eq!(out.path(), &[AdId(0), AdId(1), AdId(2), AdId(3)]);
    }

    #[test]
    fn forward_detects_loop() {
        let topo = line(3);
        // 0 -> 1 -> 0 bounce.
        let mut t = vec![vec![None; 3]; 3];
        t[0][2] = Some(AdId(1));
        t[1][2] = Some(AdId(0));
        let mut dp = Table(t);
        let out = forward(&mut dp, &topo, &FlowSpec::best_effort(AdId(0), AdId(2)));
        assert!(matches!(out, ForwardOutcome::Loop { .. }));
    }

    #[test]
    fn forward_detects_no_route_and_dead_link() {
        let mut topo = line(3);
        let mut dp = line_table(3);
        let f = FlowSpec::best_effort(AdId(0), AdId(2));
        topo.set_link_up(adroute_topology::LinkId(1), false);
        let out = forward(&mut dp, &topo, &f);
        assert!(matches!(out, ForwardOutcome::NoRoute { .. }));
        // Table with a hole.
        dp.0[1][2] = None;
        let out2 = forward(&mut dp, &topo, &f);
        assert_eq!(
            out2,
            ForwardOutcome::NoRoute {
                path: vec![AdId(0), AdId(1)]
            }
        );
    }

    #[test]
    fn trivial_self_flow() {
        let topo = line(2);
        let mut dp = line_table(2);
        let out = forward(&mut dp, &topo, &FlowSpec::best_effort(AdId(0), AdId(0)));
        assert_eq!(
            out,
            ForwardOutcome::Delivered {
                path: vec![AdId(0)]
            }
        );
    }

    #[test]
    fn audit_flags_violations() {
        let topo = line(4);
        let mut db = PolicyDb::permissive(&topo);
        db.set_policy(TransitPolicy::deny_all(AdId(2)));
        let f = FlowSpec::best_effort(AdId(0), AdId(3));
        let path = [AdId(0), AdId(1), AdId(2), AdId(3)];
        let audit = audit_path(&topo, &db, &f, &path);
        assert!(!audit.compliant());
        assert_eq!(audit.violations, vec![AdId(2)]);
        assert_eq!(audit.cost, None);

        let db2 = PolicyDb::permissive(&topo);
        let audit2 = audit_path(&topo, &db2, &f, &path);
        assert!(audit2.compliant());
        assert_eq!(audit2.cost, Some(3));
    }

    #[test]
    fn score_flows_measures_violations_and_availability() {
        let topo = line(4);
        let mut db = PolicyDb::permissive(&topo);
        db.set_policy(TransitPolicy::deny_all(AdId(1)));
        let mut dp = line_table(4); // ignores policy => violates
        let flows = vec![
            FlowSpec::best_effort(AdId(0), AdId(3)), // no legal route, delivered violating
            FlowSpec::best_effort(AdId(2), AdId(3)), // legal (no transit), delivered
        ];
        let s = score_flows(&mut dp, &topo, &db, &flows);
        assert_eq!(s.flows, 2);
        assert_eq!(s.legal_exists, 1);
        assert_eq!(s.delivered, 2);
        assert_eq!(s.violating, 1);
        assert_eq!(s.compliant_of_legal, 1);
        assert!(s.violation_rate() > 0.0);
        assert_eq!(s.availability(), 1.0);
        assert_eq!(s.stretch(), 1.0);
    }

    #[test]
    fn sample_flows_deterministic_and_valid() {
        let topo = line(5);
        let a = sample_flows(&topo, 20, 9);
        let b = sample_flows(&topo, 20, 9);
        assert_eq!(a.len(), 20);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x, y);
            assert_ne!(x.src, x.dst);
        }
    }
}
