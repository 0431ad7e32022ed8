//! Can one global partial ordering express a set of policies?
//!
//! The ECMA design (paper Section 5.1.1) encodes *all* policy in a single
//! partial ordering of ADs plus the up/down forwarding rule. The paper's
//! core objection: "policies of different ADs may not be mutually
//! satisfiable. That is to say, there may not be a single partial ordering
//! that simultaneously expresses the policies of all ADs" — and when
//! policies change, "the partial ordering may need to be recomputed and may
//! require another round of negotiation".
//!
//! This module makes that claim measurable. A policy statement is reduced
//! to ordering constraints over AD ranks:
//!
//! * **Deny(b, a, c)** — AD `a` refuses to carry traffic from neighbor `b`
//!   to neighbor `c`. Expressible iff `a` sits *below* both, making the
//!   `b→a→c` traversal a valley the up/down rule forbids:
//!   `rank(a) < rank(b) ∧ rank(a) < rank(c)`.
//! * **Permit(d, a, e)** — AD `a` insists on carrying traffic from `d` to
//!   `e` (a paid transit agreement). Expressible iff the traversal is *not*
//!   a valley: `rank(a) ≥ rank(d) ∨ rank(a) ≥ rank(e)`.
//!
//! Satisfiability of a mixed set is decided exactly by a least-fixpoint
//! computation: every constraint is a monotone lower bound on some rank
//! (`rank(b) > rank(a)` raises `b`; the permit disjunction is the monotone
//! bound `rank(a) ≥ min(rank(d), rank(e))`). Starting from all-zero ranks
//! and iterating to a fixpoint yields the least solution; divergence past
//! the finite bound `n + #constraints` proves no finite solution exists.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use adroute_topology::{AdId, Topology};

/// One ordering constraint derived from an AD's policy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OrderingConstraint {
    /// `Deny { via, from, to }`: AD `via` refuses transit from `from` to
    /// `to`; requires `rank(via) < rank(from)` and `rank(via) < rank(to)`.
    Deny {
        /// The refusing transit AD.
        via: AdId,
        /// Traffic arriving from this neighbor…
        from: AdId,
        /// …must not be forwarded to this neighbor.
        to: AdId,
    },
    /// `Permit { via, from, to }`: AD `via` must be able to carry transit
    /// from `from` to `to`; requires `rank(via) ≥ rank(from)` or
    /// `rank(via) ≥ rank(to)`.
    Permit {
        /// The transit AD that insists on carrying the traffic.
        via: AdId,
        /// Traffic arriving from this neighbor…
        from: AdId,
        /// …must be forwardable to this neighbor.
        to: AdId,
    },
}

/// Result of the satisfiability computation.
#[derive(Clone, Debug)]
pub enum OrderingSolution {
    /// A rank assignment satisfying every constraint (the least one).
    Satisfiable(Vec<u32>),
    /// No single ordering satisfies the constraint set; the paper's
    /// "negotiation" would be required to weaken policies.
    Unsatisfiable,
}

impl OrderingSolution {
    /// Whether a single ordering exists.
    pub fn is_satisfiable(&self) -> bool {
        matches!(self, OrderingSolution::Satisfiable(_))
    }
}

/// Decides whether a single global ordering of the `n` ADs satisfies all
/// `constraints`, by least-fixpoint iteration (exact; see module docs).
pub fn solve_ordering(n: usize, constraints: &[OrderingConstraint]) -> OrderingSolution {
    let mut rank = vec![0u32; n];
    // Any finite solution can be compressed to ranks ≤ n + #constraints
    // (only relative order matters and each strict constraint forces at
    // most one extra level). Exceeding the bound therefore proves
    // divergence.
    let bound = (n + constraints.len() + 1) as u32;
    loop {
        let mut changed = false;
        for c in constraints {
            match *c {
                OrderingConstraint::Deny { via, from, to } => {
                    // rank(from) > rank(via) and rank(to) > rank(via).
                    let need = rank[via.index()] + 1;
                    if rank[from.index()] < need {
                        rank[from.index()] = need;
                        changed = true;
                    }
                    if rank[to.index()] < need {
                        rank[to.index()] = need;
                        changed = true;
                    }
                }
                OrderingConstraint::Permit { via, from, to } => {
                    // rank(via) ≥ min(rank(from), rank(to)).
                    let need = rank[from.index()].min(rank[to.index()]);
                    if rank[via.index()] < need {
                        rank[via.index()] = need;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            return OrderingSolution::Satisfiable(rank);
        }
        if rank.iter().any(|&r| r > bound) {
            return OrderingSolution::Unsatisfiable;
        }
    }
}

/// Decides satisfiability when ADs may be **logically replicated** into up
/// to `replicas` clusters at different ranks — the escape hatch of the
/// paper's footnote 4: "the same physical group of AD resources may be
/// replicated and represented as multiple logical clusters for the sake of
/// reflecting policy in the topology, thus allowing a wider range of
/// policies to coexist. However, logical replication requires that the
/// replicated region be assigned multiple network addresses".
///
/// Each constraint whose *via* AD is replicated is assigned to one logical
/// cluster of that AD (deny constraints round-robin; permit constraints to
/// a dedicated high cluster), and the least-fixpoint solver runs over the
/// expanded variable set. The assignment is a deterministic heuristic, so
/// `true` is sound (a replicated ordering exists) while `false` may be
/// conservative — exactly the right direction for measuring how much
/// replication *helps* (experiment E3 reports it alongside the exact
/// single-ordering result).
///
/// Returns `(satisfiable, logical_nodes)` where `logical_nodes` is the
/// total number of logical clusters (= network addresses) used.
pub fn solve_with_replication(
    n: usize,
    constraints: &[OrderingConstraint],
    replicas: usize,
) -> (bool, usize) {
    assert!(replicas >= 1);
    if replicas == 1 {
        return (solve_ordering(n, constraints).is_satisfiable(), n);
    }
    // Which ADs need replication: those appearing as `via` in any
    // constraint. Others keep one cluster.
    let mut via_count = vec![0usize; n];
    for c in constraints {
        let via = match *c {
            OrderingConstraint::Deny { via, .. } | OrderingConstraint::Permit { via, .. } => via,
        };
        via_count[via.index()] += 1;
    }
    // Logical index assignment: base[i] is the first cluster id of AD i.
    let mut base = vec![0usize; n];
    let mut total = 0usize;
    for i in 0..n {
        base[i] = total;
        total += if via_count[i] > 0 { replicas } else { 1 };
    }
    // Rewrite constraints over logical clusters. Non-via references use
    // the AD's cluster 0 (its primary address): data destined *through*
    // a replicated AD picks the FIB by address, but plain references to
    // neighbors use their primary identity.
    let mut next_deny_replica = vec![0usize; n];
    let logical =
        |ad: AdId, cluster: usize, base: &[usize]| AdId((base[ad.index()] + cluster) as u32);
    let rewritten: Vec<OrderingConstraint> = constraints
        .iter()
        .map(|c| match *c {
            OrderingConstraint::Deny { via, from, to } => {
                // Cluster layout per replicated AD: cluster 0 is the
                // primary address (what other ADs' constraints reference,
                // and where this AD's own permits live); denials
                // round-robin over the extra clusters 1..replicas, which
                // nothing else constrains.
                let r = 1 + next_deny_replica[via.index()] % (replicas - 1);
                next_deny_replica[via.index()] += 1;
                OrderingConstraint::Deny {
                    via: logical(via, r, &base),
                    from: logical(from, 0, &base),
                    to: logical(to, 0, &base),
                }
            }
            OrderingConstraint::Permit { via, from, to } => OrderingConstraint::Permit {
                // Permits stay on the primary cluster, which denials no
                // longer constrain.
                via: logical(via, 0, &base),
                from: logical(from, 0, &base),
                to: logical(to, 0, &base),
            },
        })
        .collect();
    (solve_ordering(total, &rewritten).is_satisfiable(), total)
}

/// Checks a rank assignment against a constraint set (test/audit helper).
pub fn check_ordering(rank: &[u32], constraints: &[OrderingConstraint]) -> bool {
    constraints.iter().all(|c| match *c {
        OrderingConstraint::Deny { via, from, to } => {
            rank[via.index()] < rank[from.index()] && rank[via.index()] < rank[to.index()]
        }
        OrderingConstraint::Permit { via, from, to } => {
            rank[via.index()] >= rank[from.index()] || rank[via.index()] >= rank[to.index()]
        }
    })
}

/// Generates a random mixed constraint set over the neighborhoods of
/// `topo`: each constraint picks a transit AD and two distinct neighbors,
/// deny with probability `deny_frac`. This is the E3 workload.
pub fn random_constraints(
    topo: &Topology,
    count: usize,
    deny_frac: f64,
    seed: u64,
) -> Vec<OrderingConstraint> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let candidates: Vec<AdId> = topo
        .ad_ids()
        .filter(|&a| topo.full_degree(a) >= 2)
        .collect();
    let mut out = Vec::with_capacity(count);
    if candidates.is_empty() {
        return out;
    }
    let mut guard = 0;
    while out.len() < count && guard < count * 50 {
        guard += 1;
        let via = candidates[rng.gen_range(0..candidates.len())];
        let nbrs: Vec<AdId> = topo.all_neighbors(via).map(|(n, _)| n).collect();
        if nbrs.len() < 2 {
            continue;
        }
        let i = rng.gen_range(0..nbrs.len());
        let mut j = rng.gen_range(0..nbrs.len());
        if i == j {
            j = (j + 1) % nbrs.len();
        }
        let (from, to) = (nbrs[i], nbrs[j]);
        let c = if rng.gen_bool(deny_frac) {
            OrderingConstraint::Deny { via, from, to }
        } else {
            OrderingConstraint::Permit { via, from, to }
        };
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use adroute_topology::generate::{clique, line, HierarchyConfig};
    use adroute_topology::PartialOrder;

    /// The ranks of a satisfiable solution.
    fn ranks(s: &OrderingSolution) -> &[u32] {
        match s {
            OrderingSolution::Satisfiable(r) => r,
            OrderingSolution::Unsatisfiable => panic!("no ordering exists"),
        }
    }

    #[test]
    fn empty_set_is_satisfiable() {
        let s = solve_ordering(4, &[]);
        assert!(s.is_satisfiable());
        assert_eq!(ranks(&s), &[0, 0, 0, 0]);
    }

    #[test]
    fn single_deny_is_satisfiable() {
        let c = [OrderingConstraint::Deny {
            via: AdId(1),
            from: AdId(0),
            to: AdId(2),
        }];
        let s = solve_ordering(3, &c);
        let r = ranks(&s).to_vec();
        assert!(check_ordering(&r, &c));
        assert!(r[1] < r[0] && r[1] < r[2]);
    }

    #[test]
    fn deny_cycle_is_unsatisfiable() {
        // a below b&c; b below c&a; c below a&b — impossible.
        let c = [
            OrderingConstraint::Deny {
                via: AdId(0),
                from: AdId(1),
                to: AdId(2),
            },
            OrderingConstraint::Deny {
                via: AdId(1),
                from: AdId(2),
                to: AdId(0),
            },
            OrderingConstraint::Deny {
                via: AdId(2),
                from: AdId(0),
                to: AdId(1),
            },
        ];
        assert!(!solve_ordering(3, &c).is_satisfiable());
    }

    #[test]
    fn permit_alone_is_trivially_satisfiable() {
        let c = [OrderingConstraint::Permit {
            via: AdId(0),
            from: AdId(1),
            to: AdId(2),
        }];
        let s = solve_ordering(3, &c);
        assert!(check_ordering(ranks(&s), &c));
    }

    #[test]
    fn conflicting_deny_and_permit() {
        // Deny forces via below both; a Permit on the same triple demands
        // the opposite. Unsatisfiable.
        let c = [
            OrderingConstraint::Deny {
                via: AdId(0),
                from: AdId(1),
                to: AdId(2),
            },
            OrderingConstraint::Permit {
                via: AdId(0),
                from: AdId(1),
                to: AdId(2),
            },
        ];
        assert!(!solve_ordering(3, &c).is_satisfiable());
    }

    #[test]
    fn permit_chain_resolved_by_raising() {
        // Deny raises 1 and 2 above 0; Permit(via=3, from=1, to=2) then
        // requires 3 ≥ min(1,2)'s rank — solvable by raising 3.
        let c = [
            OrderingConstraint::Deny {
                via: AdId(0),
                from: AdId(1),
                to: AdId(2),
            },
            OrderingConstraint::Permit {
                via: AdId(3),
                from: AdId(1),
                to: AdId(2),
            },
        ];
        let s = solve_ordering(4, &c);
        let r = ranks(&s).to_vec();
        assert!(check_ordering(&r, &c));
        assert!(r[3] >= r[1].min(r[2]));
    }

    #[test]
    fn least_fixpoint_is_minimal() {
        let c = [OrderingConstraint::Deny {
            via: AdId(0),
            from: AdId(1),
            to: AdId(2),
        }];
        let s = solve_ordering(3, &c);
        // Least solution: via stays at 0, others at 1.
        assert_eq!(ranks(&s), &[0, 1, 1]);
    }

    #[test]
    fn solution_converts_to_partial_order() {
        let t = line(3);
        let c = [OrderingConstraint::Deny {
            via: AdId(1),
            from: AdId(0),
            to: AdId(2),
        }];
        let ranks = ranks(&solve_ordering(3, &c)).to_vec();
        let po = PartialOrder::from_ranks(&t, ranks);
        // 0 -> 1 is down, 1 -> 2 is up: valley forbidden — AD1's policy
        // is enforced by the ordering.
        assert!(!po.is_valley_free(&[AdId(0), AdId(1), AdId(2)]));
    }

    #[test]
    fn random_constraints_generate_and_mostly_solve_when_sparse() {
        let t = HierarchyConfig::default().generate();
        let cs = random_constraints(&t, 10, 0.5, 3);
        assert_eq!(cs.len(), 10);
        // Sparse sets on a hierarchy are usually satisfiable; just check
        // the solver terminates and any solution verifies.
        if let OrderingSolution::Satisfiable(r) = solve_ordering(t.num_ads(), &cs) {
            assert!(check_ordering(&r, &cs));
        }
    }

    #[test]
    fn dense_conflicts_eventually_unsatisfiable() {
        let t = clique(6);
        // With many deny constraints on a clique, conflicts are likely;
        // verify the solver classifies *some* dense set as unsatisfiable
        // across seeds (statistical, but deterministic given seeds).
        let mut any_unsat = false;
        for seed in 0..10 {
            let cs = random_constraints(&t, 60, 1.0, seed);
            if !solve_ordering(t.num_ads(), &cs).is_satisfiable() {
                any_unsat = true;
                break;
            }
        }
        assert!(any_unsat, "expected dense deny sets to conflict");
    }

    #[test]
    fn replication_rescues_conflicting_denials() {
        // The deny 3-cycle is unsatisfiable with one ordering, but each
        // deny can live on its AD's low-ranked logical cluster while the
        // primaries stay unordered:
        let c = [
            OrderingConstraint::Deny {
                via: AdId(0),
                from: AdId(1),
                to: AdId(2),
            },
            OrderingConstraint::Deny {
                via: AdId(1),
                from: AdId(2),
                to: AdId(0),
            },
            OrderingConstraint::Deny {
                via: AdId(2),
                from: AdId(0),
                to: AdId(1),
            },
        ];
        assert!(!solve_ordering(3, &c).is_satisfiable());
        let (sat, nodes) = solve_with_replication(3, &c, 2);
        assert!(sat, "per-AD deny clusters should break the cycle");
        assert_eq!(nodes, 6, "every AD appears as via, so all replicate");
        // A deny/permit conflict on one AD is likewise rescued: the permit
        // stays on the (unconstrained) primary cluster.
        let c2 = [
            OrderingConstraint::Deny {
                via: AdId(0),
                from: AdId(1),
                to: AdId(2),
            },
            OrderingConstraint::Permit {
                via: AdId(0),
                from: AdId(1),
                to: AdId(2),
            },
        ];
        assert!(!solve_ordering(3, &c2).is_satisfiable());
        let (sat, nodes) = solve_with_replication(3, &c2, 2);
        assert!(sat, "one extra logical cluster should resolve the conflict");
        assert!(nodes > 3, "replication costs extra addresses: {nodes}");
    }

    #[test]
    fn replication_with_one_replica_is_exact() {
        let c = [OrderingConstraint::Deny {
            via: AdId(0),
            from: AdId(1),
            to: AdId(2),
        }];
        let (sat, nodes) = solve_with_replication(3, &c, 1);
        assert!(sat);
        assert_eq!(nodes, 3);
    }

    #[test]
    fn replication_improves_satisfiable_fraction_statistically() {
        let t = clique(8);
        let mut single = 0;
        let mut doubled = 0;
        let trials = 30;
        for seed in 0..trials {
            let cs = random_constraints(&t, 30, 0.5, seed);
            if solve_ordering(t.num_ads(), &cs).is_satisfiable() {
                single += 1;
            }
            if solve_with_replication(t.num_ads(), &cs, 3).0 {
                doubled += 1;
            }
        }
        assert!(
            doubled >= single,
            "replication must never hurt: {doubled} vs {single}"
        );
        assert!(
            doubled > single,
            "with 3 clusters some conflicts should resolve"
        );
    }

    proptest::proptest! {
        /// Whenever the solver says satisfiable, the produced ranks satisfy
        /// every constraint (soundness).
        #[test]
        fn solver_soundness(seed in 0u64..500, count in 0usize..40, deny in 0.0f64..1.0) {
            let t = clique(8);
            let cs = random_constraints(&t, count, deny, seed);
            if let OrderingSolution::Satisfiable(r) = solve_ordering(t.num_ads(), &cs) {
                proptest::prop_assert!(check_ordering(&r, &cs));
            }
        }
    }
}
