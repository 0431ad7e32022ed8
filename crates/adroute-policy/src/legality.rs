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
use std::collections::BinaryHeap;

use adroute_topology::{AdId, Link, LinkId, Topology};

use crate::class::FlowSpec;
use crate::db::PolicyDb;
use crate::terms::{FlowVerdict, RouteSelection};

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
/// The avoid-set is enforced during the search: avoided ADs are never
/// used for transit.
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
    // Each destination the shared search answers gets a slot in it,
    // indexed by AD; trivial and out-of-range flows never search. Transit
    // policy is evaluated for the first of them, which stands for every
    // one.
    let mut slots = vec![NO_SLOT; topo.num_ads()];
    let mut targets = 0;
    let mut probe = None;
    if !db.dst_sensitive() {
        for &d in dsts {
            let f = flow_for(d);
            if unsearched(topo, &f).is_none() && selection.allows_transit(d) {
                let s = &mut slots[d.index()];
                if *s == NO_SLOT {
                    *s = targets;
                    targets += 1;
                }
                probe.get_or_insert(f);
            }
        }
    }
    let slot = |ad: AdId| {
        slots
            .get(ad.index())
            .filter(|&&s| s != NO_SLOT)
            .map(|&s| s as usize)
    };
    let shared = probe.map(|p| search(topo, db, &p, targets as usize, slot, selection));
    dsts.iter()
        .map(|&d| {
            let f = flow_for(d);
            match (&shared, slot(d)) {
                (Some(s), Some(i)) => s.answer(topo, db, &f, selection, i),
                _ => {
                    let mut stats = SearchStats::default();
                    let route = legal_route_with(topo, db, &f, selection, &mut stats);
                    (route, stats)
                }
            }
        })
        .collect()
}

/// The sweep's mark for an AD that is not one of its targets.
const NO_SLOT: u32 = u32::MAX;

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

/// Search state `(current AD, previous AD)`, as a dense index. Every state
/// but the start is entered over one link in one direction, so the state
/// entered at `cur` over link `l` is `1 + 2·l`, plus one when `cur` is the
/// link's `b` end. The start state `(src, src)` is [`START`] (its previous
/// AD is a sentinel, never consulted because the source's own policy is
/// not evaluated).
type State = u32;

/// The start state's index.
const START: State = 0;

/// The number of states a search over `topo` can reach, the start included.
fn num_states(topo: &Topology) -> usize {
    2 * topo.num_links() + 1
}

/// The state entered at `cur` over `link`.
fn entered(link: &Link, cur: AdId) -> State {
    1 + 2 * link.id.0 + State::from(cur == link.b)
}

/// The current AD of `state` in a search from `src`.
fn current(topo: &Topology, src: AdId, state: State) -> AdId {
    if state == START {
        return src;
    }
    let link = topo.link(LinkId((state - 1) / 2));
    if (state - 1) % 2 == 1 {
        link.b
    } else {
        link.a
    }
}

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
    src: AdId,
    parent: Vec<State>,
    settles: Vec<Option<Settle>>,
    total: SearchStats,
}

/// The policy-constrained Dijkstra: settles `(current, previous)` states
/// from `probe.src` until each of the `targets` ADs that `slot` numbers
/// has settled, or the frontier is empty. States are dense indices into
/// per-search `dist` and `parent` arrays, and a solo search's `slot`
/// compares with its one destination, so the hot path hashes nothing.
/// The heap orders by `(cost, current, previous)`; the state index rides
/// along as a function of the last two. Transit policy is evaluated for
/// `probe`, so every target must get the same verdicts from it as from
/// its own flow. Each transit AD is asked its `flow_verdict` for `probe`
/// once, at its first relaxation; only an AD whose verdict turns on the
/// previous or next AD is evaluated again at every relaxation.
///
/// Kept out of line: inlined into `legal_route_with`, solo searches on a
/// ~200-AD internet ran about 12 % slower (`micro`'s
/// `oracle_legal_route_200ads`, median ratio of ten alternated runs, 9 of
/// them slower, 2-CPU x86-64 host).
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
    let mut dist = vec![u64::MAX; num_states(topo)];
    let mut parent = vec![START; num_states(topo)];
    let mut heap: BinaryHeap<Reverse<(u64, AdId, AdId, State)>> = BinaryHeap::new();
    let mut verdicts: Vec<Option<FlowVerdict>> = vec![None; topo.num_ads()];
    dist[START as usize] = 0;
    heap.push(Reverse((0, src, src, START)));

    let mut stats = SearchStats::default();
    let mut settles = vec![None; targets];
    let mut unsettled = targets;
    while let Some(Reverse((cost, cur, prev, state))) = heap.pop() {
        if cost > dist[state as usize] {
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
        // The source does not evaluate transit policy; any other AD is
        // asked once per search what the probe flow alone decides.
        let verdict = if cur == src {
            FlowVerdict::Fixed(Some(0))
        } else {
            *verdicts[cur.index()].get_or_insert_with(|| db.policy(cur).flow_verdict(probe))
        };
        for (nbr, link) in topo.neighbors(cur) {
            stats.relaxations += 1;
            if nbr == prev && cur != src {
                continue; // immediate backtrack is never useful
            }
            // The *current* AD (if transit) must permit forwarding from
            // `prev` to `nbr`.
            let transit_cost = match verdict {
                FlowVerdict::Fixed(Some(c)) => u64::from(c),
                FlowVerdict::Fixed(None) => continue,
                FlowVerdict::PerNeighbor => {
                    match db.policy(cur).evaluate(probe, Some(prev), Some(nbr)) {
                        Some(c) => u64::from(c),
                        None => continue,
                    }
                }
            };
            // Source route-selection: never transit an avoided AD. A
            // target is reached, not transited.
            if !selection.allows_transit(nbr) && slot(nbr).is_none() {
                continue;
            }
            let link = topo.link(link);
            let ncost = cost + u64::from(link.metric) + transit_cost;
            let nstate = entered(link, nbr);
            if ncost < dist[nstate as usize] {
                dist[nstate as usize] = ncost;
                parent[nstate as usize] = state;
                heap.push(Reverse((ncost, nbr, cur, nstate)));
            }
        }
    }
    Search {
        src,
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
                let path = walk_back(topo, &self.parent, self.src, s.state);
                (finish(topo, db, flow, selection, path, s.cost), s.stats)
            }
        }
    }
}

/// The AD path from `src` to the AD of `end` down a search tree.
fn walk_back(topo: &Topology, parent: &[State], src: AdId, end: State) -> Vec<AdId> {
    let mut path = vec![current(topo, src, end)];
    let mut state = end;
    while state != START {
        state = parent[state as usize];
        path.push(current(topo, src, state));
    }
    path.reverse();
    path
}

/// Turns the least-cost walk to `flow.dst` into the oracle's answer.
///
/// The `(current, previous)` state graph searches *walks*; with policies
/// conditioned on the previous AD the optimal walk can, in adversarial
/// cases, revisit an AD. Inter-AD routes must be loop-free (paper Section
/// 2.1), so a revisiting walk falls back to an exact simple-path search
/// that honors the avoid-set. The fallback does not count toward
/// [`SearchStats`].
fn finish(
    topo: &Topology,
    db: &PolicyDb,
    flow: &FlowSpec,
    selection: &RouteSelection,
    path: Vec<AdId>,
    cost: u64,
) -> Option<LegalRoute> {
    let mut seen = vec![false; topo.num_ads()];
    let route = if path
        .iter()
        .all(|a| !std::mem::replace(&mut seen[a.index()], true))
    {
        LegalRoute { path, cost }
    } else {
        bruteforce(topo, db, flow, selection)?
    };
    selection.accepts(&route.path).then_some(route)
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
    bruteforce(topo, db, flow, &RouteSelection::unconstrained())
}

/// [`legal_route_bruteforce`] over the simple paths whose transit ADs the
/// selection allows.
fn bruteforce(
    topo: &Topology,
    db: &PolicyDb,
    flow: &FlowSpec,
    selection: &RouteSelection,
) -> Option<LegalRoute> {
    fn rec(
        topo: &Topology,
        db: &PolicyDb,
        flow: &FlowSpec,
        selection: &RouteSelection,
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
            if !on_path[nbr.index()] && (nbr == flow.dst || selection.allows_transit(nbr)) {
                on_path[nbr.index()] = true;
                path.push(nbr);
                rec(topo, db, flow, selection, path, on_path, best);
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
    rec(
        topo,
        db,
        flow,
        selection,
        &mut vec![flow.src],
        &mut on_path,
        &mut best,
    );
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
                RouteSelection::avoiding(avoided)
            } else {
                RouteSelection::unconstrained()
            };
            let dsts: Vec<AdId> = t.ad_ids().collect();
            assert_sweep_matches_solo(&t, &db, &template, &dsts, &sel, &format!("trial {trial}"));
        }
    }

    /// `n` ADs joined by `edges` (`(a, b, metric)`), all permissive except
    /// that AD1 refuses traffic from `AD0` straight on to `next`.
    fn ad1_refusing(n: u32, edges: &[(u32, u32, u32)], next: u32) -> (Topology, PolicyDb) {
        use adroute_topology::graph::make_ad;
        use adroute_topology::AdLevel;
        let ads = (0..n).map(|i| make_ad(i, AdLevel::Regional)).collect();
        let edges: Vec<_> = edges
            .iter()
            .map(|&(a, b, m)| (AdId(a), AdId(b), m))
            .collect();
        let t = Topology::new(ads, &edges);
        let mut db = PolicyDb::permissive(&t);
        db.policy_mut(AdId(1)).push_term(
            vec![
                PolicyCondition::PrevIn(AdSet::only([AdId(0)])),
                PolicyCondition::NextIn(AdSet::only([AdId(next)])),
            ],
            PolicyAction::Deny,
        );
        (t, db)
    }

    /// `n` ADs holding the revisit gadget at `metric` (0–1, 1–2, 2–3, 3–1
    /// and 1–4, where AD1 refuses traffic from AD0 straight on to AD4, so
    /// the cheapest walk through it loops 1–2–3–1) plus each listed AD0 …
    /// AD4 path at its own per-hop metric.
    fn revisit_gadget(n: u32, metric: u32, paths: &[(&[u32], u32)]) -> (Topology, PolicyDb) {
        let mut edges: Vec<_> = [(0, 1), (1, 2), (2, 3), (3, 1), (1, 4)]
            .map(|(a, b)| (a, b, metric))
            .into();
        for &(path, m) in paths {
            edges.extend(path.windows(2).map(|w| (w[0], w[1], m)));
        }
        ad1_refusing(n, &edges, 4)
    }

    #[test]
    fn a_link_entered_either_way_is_two_states() {
        // AD1 is first reached from AD0 and AD2 from AD1, yet the route is
        // 0-2-1-3: it enters AD1 over 1-2 after AD2 was entered over it.
        let (t, db) = ad1_refusing(4, &[(0, 1, 1), (0, 2, 5), (1, 2, 1), (1, 3, 1)], 3);
        let r = legal_route(&t, &db, &FlowSpec::best_effort(AdId(0), AdId(3))).unwrap();
        assert_eq!(r.path, vec![AdId(0), AdId(2), AdId(1), AdId(3)]);
        assert_eq!(r.cost, 7);
    }

    #[test]
    fn simple_path_fallback_honors_the_avoid_set() {
        // The least-cost walk revisits AD1; of the simple paths, 0-5-4 is
        // cheaper but transits the avoided AD5.
        let (t, db) = revisit_gadget(7, 1, &[(&[0, 5, 4], 10), (&[0, 6, 4], 15)]);
        let f = FlowSpec::best_effort(AdId(0), AdId(4));
        let sel = RouteSelection::avoiding([AdId(5)]);
        let r = legal_route_with(&t, &db, &f, &sel, &mut SearchStats::default()).unwrap();
        assert_eq!(r.path, vec![AdId(0), AdId(6), AdId(4)]);
        assert_eq!(r.cost, 30);
        // Unconstrained, the same fallback takes AD5.
        assert_eq!(legal_route(&t, &db, &f).unwrap().cost, 20);
    }
}
