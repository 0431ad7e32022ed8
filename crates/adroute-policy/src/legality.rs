//! The route-legality oracle: exact policy-constrained route search.
//!
//! Paper Section 5.1 observes that hop-by-hop designs can leave a source
//! with "no available route when in fact a legal route exists (i.e., a
//! route that is permitted by the policies of all transit ADs involved)".
//! This module decides, with complete information, whether such a legal
//! route exists — and finds the least-cost one. Every protocol in the
//! workspace is scored against it.
//!
//! Because Policy Terms may condition on the **previous** and **next** AD
//! of a traversal, path legality is not a per-edge property: the search
//! runs over the product state `(current AD, previous AD)`, which is
//! exactly the state space a Route Server must explore (`adroute-core`
//! uses the same routine for synthesis).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};

use adroute_topology::{AdId, Topology};

use crate::class::FlowSpec;
use crate::db::PolicyDb;
use crate::terms::RouteSelection;

/// A legal route found by the oracle.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LegalRoute {
    /// The AD-level path, `src … dst`.
    pub path: Vec<AdId>,
    /// Total cost: link metrics plus transit charges from the permitting
    /// Policy Terms.
    pub cost: u64,
}

impl LegalRoute {
    /// Number of inter-AD hops.
    pub fn hops(&self) -> usize {
        self.path.len() - 1
    }
}

/// Search-effort statistics, for the synthesis experiments.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct SearchStats {
    /// `(state, edge)` relaxations attempted.
    pub relaxations: u64,
    /// States settled (popped with best cost).
    pub settled: u64,
}

/// Finds the least-cost policy-legal route for `flow`, or `None` if no
/// legal route exists.
///
/// A route is legal when every *transit* AD on it permits the traversal —
/// given the flow attributes and that AD's previous/next neighbors on the
/// path — and every link is operational. Endpoint ADs do not evaluate
/// transit policy (Section 2.3: policy routing is resource control, not
/// end-system access control).
pub fn legal_route(topo: &Topology, db: &PolicyDb, flow: &FlowSpec) -> Option<LegalRoute> {
    legal_route_with(
        topo,
        db,
        flow,
        &RouteSelection::unconstrained(),
        &mut SearchStats::default(),
    )
}

/// Full-control variant of [`legal_route`]: honors the source's
/// [`RouteSelection`] criteria and accumulates [`SearchStats`].
///
/// The avoid-set is enforced during the search (avoided ADs are never used
/// for transit); `max_cost`/`max_hops` are checked on the result.
pub fn legal_route_with(
    topo: &Topology,
    db: &PolicyDb,
    flow: &FlowSpec,
    selection: &RouteSelection,
    stats: &mut SearchStats,
) -> Option<LegalRoute> {
    if let Some(answer) = unsearched(topo, flow) {
        return answer;
    }
    let only = |ad: AdId| (ad == flow.dst).then_some(0);
    let (route, effort) =
        search(topo, db, flow, 1, only, selection).answer(topo, db, flow, selection, 0);
    stats.relaxations += effort.relaxations;
    stats.settled += effort.settled;
    route
}

/// Batched multi-destination variant of [`legal_route_with`]: one search
/// from `template.src` answers every destination in `dsts`, with results
/// and per-destination [`SearchStats`] **exactly equal** to calling
/// [`legal_route_with`] once per destination (flow `i` is `template` with
/// `dst = dsts[i]`, starting from fresh stats).
///
/// Both run the same search loop: a solo search is a sweep with one
/// target. The loop reads each target's answer and effort off at its
/// first settle (settled *includes* that pop; relaxations exclude its
/// outgoing edges) and stops once every target has settled. Up to a
/// target's settle the pop/relax sequence does not depend on the other
/// targets, as long as neither transit evaluation nor the avoid test
/// depends on the destination. So only destinations meeting both
/// preconditions share a search: no Policy Term in `db` conditions on the
/// destination, and the selection does not avoid the destination (the
/// avoid test admits every target, which would let the others transit
/// it). The rest get their own searches, so the equivalence contract is
/// unconditional.
pub fn legal_routes_sweep(
    topo: &Topology,
    db: &PolicyDb,
    template: &FlowSpec,
    dsts: &[AdId],
    selection: &RouteSelection,
) -> Vec<(Option<LegalRoute>, SearchStats)> {
    let flow_for = |d: AdId| FlowSpec {
        dst: d,
        ..*template
    };
    // Each destination the shared search answers gets a slot in it;
    // trivial and out-of-range flows never search. Transit policy is
    // evaluated for the first of them, which stands for every one.
    let mut slots: HashMap<AdId, usize> = HashMap::new();
    let mut probe = None;
    if !db.dst_sensitive() {
        for &d in dsts {
            let f = flow_for(d);
            if unsearched(topo, &f).is_none() && selection.allows_transit(d) {
                let next = slots.len();
                slots.entry(d).or_insert(next);
                probe.get_or_insert(f);
            }
        }
    }
    let slot = |ad: AdId| slots.get(&ad).copied();
    let shared = probe.map(|p| search(topo, db, &p, slots.len(), slot, selection));
    dsts.iter()
        .map(|&d| {
            let f = flow_for(d);
            match (&shared, slots.get(&d)) {
                (Some(s), Some(&i)) => s.answer(topo, db, &f, selection, i),
                _ => {
                    let mut stats = SearchStats::default();
                    let route = legal_route_with(topo, db, &f, selection, &mut stats);
                    (route, stats)
                }
            }
        })
        .collect()
}

/// The answer for a flow that needs no search: the trivial route when
/// source and destination coincide, none when either is out of range.
fn unsearched(topo: &Topology, flow: &FlowSpec) -> Option<Option<LegalRoute>> {
    if flow.src == flow.dst {
        return Some(Some(LegalRoute {
            path: vec![flow.src],
            cost: 0,
        }));
    }
    let n = topo.num_ads();
    (flow.src.index() >= n || flow.dst.index() >= n).then_some(None)
}

/// Search state: `(current AD, previous AD)`. The start state uses
/// prev = current (a sentinel, never consulted because the source's own
/// policy is not evaluated).
type State = (AdId, AdId);

/// A target's first settle: its final state and cost, and the effort
/// counted up to and including that pop.
#[derive(Clone, Copy)]
struct Settle {
    state: State,
    cost: u64,
    stats: SearchStats,
}

/// A finished search: the tree it grew, each target's first settle, and
/// the effort of the whole run.
struct Search {
    start: State,
    parent: HashMap<State, State>,
    settles: Vec<Option<Settle>>,
    total: SearchStats,
}

/// The policy-constrained Dijkstra: settles `(current, previous)` states
/// from `probe.src` until each of the `targets` ADs that `slot` numbers
/// has settled, or the frontier is empty. A solo search's `slot` compares
/// with its one destination, so the hot path hashes nothing. Transit
/// policy is evaluated for `probe`, so every target must get the same
/// verdicts from it as from its own flow.
///
/// Kept out of line: inlined into `legal_route_with`, it left the hash
/// and heap calls of its loop out of line instead, and solo searches on a
/// 392-AD internet ran about 10 % slower (2-CPU x86-64 host).
#[inline(never)]
fn search(
    topo: &Topology,
    db: &PolicyDb,
    probe: &FlowSpec,
    targets: usize,
    slot: impl Fn(AdId) -> Option<usize>,
    selection: &RouteSelection,
) -> Search {
    let src = probe.src;
    let start: State = (src, src);
    let mut dist: HashMap<State, u64> = HashMap::new();
    let mut parent: HashMap<State, State> = HashMap::new();
    let mut heap: BinaryHeap<Reverse<(u64, AdId, AdId)>> = BinaryHeap::new();
    dist.insert(start, 0);
    heap.push(Reverse((0, src, src)));

    let mut stats = SearchStats::default();
    let mut settles = vec![None; targets];
    let mut unsettled = targets;
    while let Some(Reverse((cost, cur, prev))) = heap.pop() {
        let state = (cur, prev);
        if dist.get(&state).is_none_or(|&d| cost > d) {
            continue;
        }
        stats.settled += 1;
        if let Some(i) = slot(cur) {
            // The first settle is optimal. A search for this target alone
            // stops here, before relaxing its edges.
            if settles[i].is_none() {
                settles[i] = Some(Settle { state, cost, stats });
                unsettled -= 1;
                if unsettled == 0 {
                    break;
                }
            }
        }
        for (nbr, link) in topo.neighbors(cur) {
            stats.relaxations += 1;
            if nbr == prev && cur != src {
                continue; // immediate backtrack is never useful
            }
            // The *current* AD (if transit) must permit forwarding from
            // `prev` to `nbr`.
            let transit_cost = if cur == src {
                0
            } else {
                match db.policy(cur).evaluate(probe, Some(prev), Some(nbr)) {
                    Some(c) => u64::from(c),
                    None => continue,
                }
            };
            // Source route-selection: never transit an avoided AD. A
            // target is reached, not transited.
            if !selection.allows_transit(nbr) && slot(nbr).is_none() {
                continue;
            }
            let ncost = cost + u64::from(topo.link(link).metric) + transit_cost;
            let nstate: State = (nbr, cur);
            if dist.get(&nstate).is_none_or(|&d| ncost < d) {
                dist.insert(nstate, ncost);
                parent.insert(nstate, state);
                heap.push(Reverse((ncost, nbr, cur)));
            }
        }
    }
    Search {
        start,
        parent,
        settles,
        total: stats,
    }
}

impl Search {
    /// The answer for `flow`, whose destination holds `slot`, with the
    /// effort a search for it alone reports. A target that never settled
    /// saw the whole frontier exhausted, as its own search would.
    fn answer(
        &self,
        topo: &Topology,
        db: &PolicyDb,
        flow: &FlowSpec,
        selection: &RouteSelection,
        slot: usize,
    ) -> (Option<LegalRoute>, SearchStats) {
        match self.settles[slot] {
            None => (None, self.total),
            Some(s) => {
                let path = walk_back(&self.parent, self.start, s.state);
                (finish(topo, db, flow, selection, path, s.cost), s.stats)
            }
        }
    }
}

/// The AD path from `start` to `end` down a search tree.
fn walk_back(parent: &HashMap<State, State>, start: State, end: State) -> Vec<AdId> {
    let mut path = vec![end.0];
    let mut cur = end;
    while cur != start {
        cur = parent[&cur];
        path.push(cur.0);
    }
    path.reverse();
    path
}

/// Turns the least-cost walk to `flow.dst` into the oracle's answer.
///
/// The `(current, previous)` state graph searches *walks*; with policies
/// conditioned on the previous AD the optimal walk can, in adversarial
/// cases, revisit an AD. Inter-AD routes must be loop-free (paper Section
/// 2.1), so a revisiting walk falls back to an exact simple-path search.
/// When the source's criteria reject the route and a hop bound is set,
/// the search is retried minimizing hops instead of cost (best-effort:
/// the full bicriteria problem is out of scope for the oracle). Neither
/// fallback counts toward [`SearchStats`].
fn finish(
    topo: &Topology,
    db: &PolicyDb,
    flow: &FlowSpec,
    selection: &RouteSelection,
    path: Vec<AdId>,
    cost: u64,
) -> Option<LegalRoute> {
    let mut seen = HashSet::new();
    let route = if path.iter().all(|a| seen.insert(*a)) {
        LegalRoute { path, cost }
    } else {
        legal_route_bruteforce(topo, db, flow)?
    };
    if selection.accepts(&route.path, route.cost) {
        return Some(route);
    }
    selection
        .max_hops
        .and_then(|_| legal_route_min_hops(topo, db, flow, selection))
        .filter(|r| selection.accepts(&r.path, r.cost))
}

/// Hop-minimizing variant: BFS over the same `(current, previous)` state
/// graph, used when a source's `max_hops` criterion rejects the least-cost
/// route.
fn legal_route_min_hops(
    topo: &Topology,
    db: &PolicyDb,
    flow: &FlowSpec,
    selection: &RouteSelection,
) -> Option<LegalRoute> {
    let start: State = (flow.src, flow.src);
    let mut parent: HashMap<State, State> = HashMap::new();
    let mut visited: HashSet<State> = HashSet::from([start]);
    let mut queue = VecDeque::from([start]);
    while let Some(state @ (cur, prev)) = queue.pop_front() {
        if cur == flow.dst {
            let path = walk_back(&parent, start, state);
            let cost = route_is_legal(topo, db, flow, &path)?;
            return Some(LegalRoute { path, cost });
        }
        for (nbr, _) in topo.neighbors(cur) {
            if nbr == prev && cur != flow.src {
                continue;
            }
            if cur != flow.src
                && db
                    .policy(cur)
                    .evaluate(flow, Some(prev), Some(nbr))
                    .is_none()
            {
                continue;
            }
            if nbr != flow.dst && !selection.allows_transit(nbr) {
                continue;
            }
            let nstate = (nbr, cur);
            if visited.insert(nstate) {
                parent.insert(nstate, state);
                queue.push_back(nstate);
            }
        }
    }
    None
}

/// Checks a complete candidate route for legality, returning the total
/// cost if legal. This is what a chain of Policy Gateways does during
/// route setup, and what the forwarding harness uses to audit protocols.
pub fn route_is_legal(
    topo: &Topology,
    db: &PolicyDb,
    flow: &FlowSpec,
    path: &[AdId],
) -> Option<u64> {
    if path.len() == 1 {
        return (path[0] == flow.src && flow.src == flow.dst).then_some(0);
    }
    if path.first() != Some(&flow.src) || path.last() != Some(&flow.dst) {
        return None;
    }
    if !topo.is_simple_path(path) {
        return None;
    }
    let mut cost = 0u64;
    for w in path.windows(2) {
        let link = topo.link_between(w[0], w[1])?;
        cost += u64::from(topo.link(link).metric);
    }
    for i in 1..path.len() - 1 {
        let c = db
            .policy(path[i])
            .evaluate(flow, Some(path[i - 1]), Some(path[i + 1]))?;
        cost += u64::from(c);
    }
    Some(cost)
}

/// Exhaustive reference implementation: enumerates **all simple paths**
/// and returns the least-cost legal one. Exponential; only for testing the
/// oracle on small graphs.
pub fn legal_route_bruteforce(
    topo: &Topology,
    db: &PolicyDb,
    flow: &FlowSpec,
) -> Option<LegalRoute> {
    fn rec(
        topo: &Topology,
        db: &PolicyDb,
        flow: &FlowSpec,
        path: &mut Vec<AdId>,
        on_path: &mut Vec<bool>,
        best: &mut Option<LegalRoute>,
    ) {
        let cur = *path.last().unwrap();
        if cur == flow.dst {
            if let Some(cost) = route_is_legal(topo, db, flow, path) {
                if best.as_ref().is_none_or(|b| cost < b.cost) {
                    *best = Some(LegalRoute {
                        path: path.clone(),
                        cost,
                    });
                }
            }
            return;
        }
        for (nbr, _) in topo.neighbors(cur) {
            if !on_path[nbr.index()] {
                on_path[nbr.index()] = true;
                path.push(nbr);
                rec(topo, db, flow, path, on_path, best);
                path.pop();
                on_path[nbr.index()] = false;
            }
        }
    }
    if flow.src == flow.dst {
        return Some(LegalRoute {
            path: vec![flow.src],
            cost: 0,
        });
    }
    let mut best = None;
    let mut on_path = vec![false; topo.num_ads()];
    on_path[flow.src.index()] = true;
    rec(topo, db, flow, &mut vec![flow.src], &mut on_path, &mut best);
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::terms::{AdSet, PolicyAction, PolicyCondition, TransitPolicy};
    use adroute_topology::generate::{line, ring};

    #[test]
    fn permissive_oracle_matches_shortest_path() {
        let t = ring(6);
        let db = PolicyDb::permissive(&t);
        let f = FlowSpec::best_effort(AdId(0), AdId(3));
        let r = legal_route(&t, &db, &f).unwrap();
        assert_eq!(r.cost, 3);
        assert_eq!(r.hops(), 3);
    }

    #[test]
    fn deny_all_transit_blocks_route() {
        let t = line(3);
        let mut db = PolicyDb::permissive(&t);
        db.set_policy(TransitPolicy::deny_all(AdId(1)));
        let f = FlowSpec::best_effort(AdId(0), AdId(2));
        assert!(legal_route(&t, &db, &f).is_none());
        // But the middle AD can still originate/terminate.
        let f2 = FlowSpec::best_effort(AdId(0), AdId(1));
        assert!(legal_route(&t, &db, &f2).is_some());
    }

    #[test]
    fn oracle_routes_around_denials() {
        let t = ring(6); // two paths 0->3: via 1,2 and via 5,4
        let mut db = PolicyDb::permissive(&t);
        db.set_policy(TransitPolicy::deny_all(AdId(1)));
        let f = FlowSpec::best_effort(AdId(0), AdId(3));
        let r = legal_route(&t, &db, &f).unwrap();
        assert_eq!(r.path, vec![AdId(0), AdId(5), AdId(4), AdId(3)]);
    }

    #[test]
    fn transit_charges_affect_choice() {
        let t = ring(4); // 0->2 via 1 or via 3
        let mut db = PolicyDb::permissive(&t);
        db.policy_mut(AdId(1)).default = PolicyAction::Permit { cost: 10 };
        let f = FlowSpec::best_effort(AdId(0), AdId(2));
        let r = legal_route(&t, &db, &f).unwrap();
        assert_eq!(r.path, vec![AdId(0), AdId(3), AdId(2)]);
        assert_eq!(r.cost, 2);
    }

    #[test]
    fn prev_next_conditions_enforced() {
        // 0 - 1 - 2 and 0 - 3 - 1: AD1 refuses packets arriving from AD0
        // directly but accepts them via AD3.
        let t = ring(4); // edges 0-1, 1-2, 2-3, 0-3
        let mut db = PolicyDb::permissive(&t);
        let mut p1 = TransitPolicy::permit_all(AdId(1));
        p1.push_term(
            vec![PolicyCondition::PrevIn(AdSet::only([AdId(0)]))],
            PolicyAction::Deny,
        );
        db.set_policy(p1);
        let f = FlowSpec::best_effort(AdId(0), AdId(2));
        let r = legal_route(&t, &db, &f).unwrap();
        // Direct 0-1-2 is illegal (prev=0 at AD1); 0-3-2 works.
        assert_eq!(r.path, vec![AdId(0), AdId(3), AdId(2)]);
    }

    #[test]
    fn route_is_legal_checks_everything() {
        let t = line(4);
        let mut db = PolicyDb::permissive(&t);
        db.policy_mut(AdId(1)).default = PolicyAction::Permit { cost: 5 };
        let f = FlowSpec::best_effort(AdId(0), AdId(3));
        let p = [AdId(0), AdId(1), AdId(2), AdId(3)];
        assert_eq!(route_is_legal(&t, &db, &f, &p), Some(3 + 5));
        // wrong endpoints
        assert_eq!(
            route_is_legal(&t, &db, &f, &[AdId(1), AdId(2), AdId(3)]),
            None
        );
        // non-adjacent
        assert_eq!(
            route_is_legal(&t, &db, &f, &[AdId(0), AdId(2), AdId(3)]),
            None
        );
        // denial on path
        db.set_policy(TransitPolicy::deny_all(AdId(2)));
        assert_eq!(route_is_legal(&t, &db, &f, &p), None);
    }

    #[test]
    fn route_selection_avoidance() {
        let t = ring(6);
        let db = PolicyDb::permissive(&t);
        let f = FlowSpec::best_effort(AdId(0), AdId(3));
        let sel = RouteSelection::avoiding([AdId(1), AdId(2)]);
        let mut stats = SearchStats::default();
        let r = legal_route_with(&t, &db, &f, &sel, &mut stats).unwrap();
        assert_eq!(r.path, vec![AdId(0), AdId(5), AdId(4), AdId(3)]);
        assert!(stats.settled > 0 && stats.relaxations > 0);
    }

    #[test]
    fn route_selection_max_cost_rejects() {
        let t = line(5);
        let db = PolicyDb::permissive(&t);
        let f = FlowSpec::best_effort(AdId(0), AdId(4));
        let sel = RouteSelection {
            max_cost: Some(3),
            ..RouteSelection::unconstrained()
        };
        let mut stats = SearchStats::default();
        assert!(legal_route_with(&t, &db, &f, &sel, &mut stats).is_none());
    }

    #[test]
    fn oracle_agrees_with_bruteforce_on_random_policies() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(42);
        for trial in 0..30 {
            let t = if trial % 2 == 0 {
                ring(6)
            } else {
                adroute_topology::generate::grid(2, 3)
            };
            let mut db = PolicyDb::permissive(&t);
            for ad in t.ad_ids() {
                if rng.gen_bool(0.4) {
                    let p = db.policy_mut(ad);
                    let denied: Vec<AdId> = t.ad_ids().filter(|_| rng.gen_bool(0.3)).collect();
                    p.push_term(
                        vec![PolicyCondition::SrcIn(AdSet::only(denied))],
                        PolicyAction::Deny,
                    );
                }
                if rng.gen_bool(0.3) {
                    db.policy_mut(ad).default = PolicyAction::Permit {
                        cost: rng.gen_range(0..5),
                    };
                }
            }
            let src = AdId(rng.gen_range(0..t.num_ads() as u32));
            let dst = AdId(rng.gen_range(0..t.num_ads() as u32));
            let f = FlowSpec::best_effort(src, dst);
            let fast = legal_route(&t, &db, &f);
            let slow = legal_route_bruteforce(&t, &db, &f);
            match (&fast, &slow) {
                (Some(a), Some(b)) => assert_eq!(a.cost, b.cost, "trial {trial}: {f}"),
                (None, None) => {}
                _ => panic!("trial {trial}: oracle {fast:?} vs brute {slow:?} for {f}"),
            }
            if let Some(r) = fast {
                assert_eq!(route_is_legal(&t, &db, &f, &r.path), Some(r.cost));
            }
        }
    }

    #[test]
    fn trivial_flow() {
        let t = line(2);
        let db = PolicyDb::permissive(&t);
        let f = FlowSpec::best_effort(AdId(0), AdId(0));
        let r = legal_route(&t, &db, &f).unwrap();
        assert_eq!(r.path, vec![AdId(0)]);
        assert_eq!(r.cost, 0);
        assert_eq!(route_is_legal(&t, &db, &f, &[AdId(0)]), Some(0));
    }

    /// The sweep's contract is exact equivalence with one solo search per
    /// destination — routes AND effort counters.
    fn assert_sweep_matches_solo(
        t: &Topology,
        db: &PolicyDb,
        template: &FlowSpec,
        dsts: &[AdId],
        sel: &RouteSelection,
        what: &str,
    ) {
        let swept = legal_routes_sweep(t, db, template, dsts, sel);
        assert_eq!(swept.len(), dsts.len());
        for (i, &d) in dsts.iter().enumerate() {
            let f = FlowSpec {
                dst: d,
                ..*template
            };
            let mut st = SearchStats::default();
            let solo = legal_route_with(t, db, &f, sel, &mut st);
            assert_eq!(swept[i].0, solo, "{what}: route for dst {d} diverged");
            assert_eq!(swept[i].1, st, "{what}: stats for dst {d} diverged");
        }
    }

    use adroute_topology::Topology;

    #[test]
    fn sweep_matches_solo_on_ring() {
        let t = ring(8);
        let mut db = PolicyDb::permissive(&t);
        db.set_policy(TransitPolicy::deny_all(AdId(2)));
        db.policy_mut(AdId(5)).default = PolicyAction::Permit { cost: 3 };
        let template = FlowSpec::best_effort(AdId(0), AdId(0));
        let dsts: Vec<AdId> = t.ad_ids().collect();
        assert_sweep_matches_solo(
            &t,
            &db,
            &template,
            &dsts,
            &RouteSelection::unconstrained(),
            "ring",
        );
    }

    #[test]
    fn sweep_matches_solo_with_avoided_and_trivial_dsts() {
        let t = ring(8);
        let db = PolicyDb::permissive(&t);
        let template = FlowSpec::best_effort(AdId(0), AdId(0));
        // Avoid 3: dst 3 takes the private-search path; dst 0 is trivial;
        // dst 99 is out of range; duplicates must each be answered.
        let sel = RouteSelection::avoiding([AdId(3)]);
        let dsts = [AdId(4), AdId(3), AdId(0), AdId(99), AdId(4), AdId(6)];
        assert_sweep_matches_solo(&t, &db, &template, &dsts, &sel, "avoid");
    }

    #[test]
    fn sweep_falls_back_on_dst_sensitive_policies() {
        let t = ring(6);
        let mut db = PolicyDb::permissive(&t);
        let mut p = TransitPolicy::permit_all(AdId(1));
        p.push_term(
            vec![PolicyCondition::DstIn(AdSet::only([AdId(3)]))],
            PolicyAction::Deny,
        );
        db.set_policy(p);
        assert!(db.dst_sensitive());
        let template = FlowSpec::best_effort(AdId(0), AdId(0));
        let dsts: Vec<AdId> = t.ad_ids().collect();
        assert_sweep_matches_solo(
            &t,
            &db,
            &template,
            &dsts,
            &RouteSelection::unconstrained(),
            "dst-sensitive",
        );
    }

    #[test]
    fn sweep_matches_solo_on_random_policies() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(1990);
        for trial in 0..40 {
            let t = match trial % 3 {
                0 => ring(7),
                1 => adroute_topology::generate::grid(3, 3),
                _ => adroute_topology::generate::grid(2, 4),
            };
            let mut db = PolicyDb::permissive(&t);
            for ad in t.ad_ids() {
                if rng.gen_bool(0.35) {
                    let denied: Vec<AdId> = t.ad_ids().filter(|_| rng.gen_bool(0.3)).collect();
                    db.policy_mut(ad).push_term(
                        vec![PolicyCondition::PrevIn(AdSet::only(denied))],
                        PolicyAction::Deny,
                    );
                }
                if rng.gen_bool(0.3) {
                    db.policy_mut(ad).default = PolicyAction::Permit {
                        cost: rng.gen_range(0..5),
                    };
                }
                if rng.gen_bool(0.15) {
                    // Exercise the dst-sensitivity fallback in some trials.
                    let picked: Vec<AdId> = t.ad_ids().filter(|_| rng.gen_bool(0.2)).collect();
                    db.policy_mut(ad).push_term(
                        vec![PolicyCondition::DstIn(AdSet::only(picked))],
                        PolicyAction::Deny,
                    );
                }
            }
            let src = AdId(rng.gen_range(0..t.num_ads() as u32));
            let template = FlowSpec::best_effort(src, src);
            let sel = if rng.gen_bool(0.4) {
                let avoided: Vec<AdId> = t.ad_ids().filter(|_| rng.gen_bool(0.2)).collect();
                RouteSelection {
                    max_hops: rng.gen_bool(0.3).then(|| rng.gen_range(1..5)),
                    ..RouteSelection::avoiding(avoided)
                }
            } else {
                RouteSelection::unconstrained()
            };
            let dsts: Vec<AdId> = t.ad_ids().collect();
            assert_sweep_matches_solo(&t, &db, &template, &dsts, &sel, &format!("trial {trial}"));
        }
    }
}
