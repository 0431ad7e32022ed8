//! Policy impact prediction — the network-management tool the paper's
//! Section 6 calls for.
//!
//! "Given the interaction between local policies and the policies of other
//! ADs, it will be possible to specify local policies that will result in
//! poor service … Thus, it will be imperative for these administrators to
//! have available network management tools to assist them in predicting
//! the impact of their policies on the service received from the routing
//! architecture."
//!
//! [`PolicyImpact::assess`] evaluates a *candidate* transit policy for one
//! AD against a traffic sample, **without** deploying it: it re-runs the
//! oracle over the hypothetical policy database and reports what the
//! change would do to the assessing AD itself (transit traffic carried,
//! revenue proxy) and to the internet (flows broken, re-routed, or newly
//! enabled; cost shifts; synthesis work).

use adroute_policy::legality::legal_route;
use adroute_policy::{FlowSpec, PolicyDb, TransitPolicy};
use adroute_topology::{transit, AdId, Topology};

/// The predicted effect of deploying one candidate policy.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PolicyImpact {
    /// Flows evaluated.
    pub flows: usize,
    /// Flows routable before and after.
    pub routable_before: usize,
    /// Flows routable after the change.
    pub routable_after: usize,
    /// Flows that lose their only legal route ("broken").
    pub broken: Vec<FlowSpec>,
    /// Flows that become routable ("enabled").
    pub enabled: Vec<FlowSpec>,
    /// Flows whose best route changes path (still routable).
    pub rerouted: usize,
    /// Flows whose best route transits the assessed AD, before.
    pub transit_before: usize,
    /// Flows whose best route transits the assessed AD, after — the AD's
    /// share of traffic (and charging revenue) under the candidate.
    pub transit_after: usize,
    /// Sum of transit charges the AD would collect from the sampled
    /// best routes, before and after (`(before, after)`).
    pub revenue: (u64, u64),
    /// Mean best-route cost over commonly-routable flows, before/after.
    pub mean_cost: (f64, f64),
}

impl PolicyImpact {
    /// Predicts the impact of `candidate` (a policy for `candidate.ad`)
    /// over the sampled `flows`, against the current `db`.
    pub fn assess(
        topo: &Topology,
        db: &PolicyDb,
        candidate: TransitPolicy,
        flows: &[FlowSpec],
    ) -> PolicyImpact {
        let ad = candidate.ad;
        let mut hypothetical = db.clone();
        hypothetical.set_policy(candidate);
        let mut out = PolicyImpact {
            flows: flows.len(),
            ..PolicyImpact::default()
        };
        let mut cost_before = 0u64;
        let mut cost_after = 0u64;
        let mut both = 0usize;
        for f in flows {
            let before = legal_route(topo, db, f);
            let after = legal_route(topo, &hypothetical, f);
            if before.is_some() {
                out.routable_before += 1;
            }
            if after.is_some() {
                out.routable_after += 1;
            }
            match (&before, &after) {
                (Some(b), Some(a)) => {
                    both += 1;
                    cost_before += b.cost;
                    cost_after += a.cost;
                    if b.path != a.path {
                        out.rerouted += 1;
                    }
                }
                (Some(_), None) => out.broken.push(*f),
                (None, Some(_)) => out.enabled.push(*f),
                (None, None) => {}
            }
            // Transit share and revenue proxy.
            if let Some(b) = &before {
                if transit_position(&b.path, ad).is_some() {
                    out.transit_before += 1;
                    out.revenue.0 += transit_charge(db, f, &b.path, ad);
                }
            }
            if let Some(a) = &after {
                if transit_position(&a.path, ad).is_some() {
                    out.transit_after += 1;
                    out.revenue.1 += transit_charge(&hypothetical, f, &a.path, ad);
                }
            }
        }
        if both > 0 {
            out.mean_cost = (
                cost_before as f64 / both as f64,
                cost_after as f64 / both as f64,
            );
        }
        out
    }

    /// True when the candidate breaks no sampled flow.
    pub fn is_safe(&self) -> bool {
        self.broken.is_empty()
    }

    /// Net change in the AD's transit load (positive = more traffic).
    pub fn transit_delta(&self) -> i64 {
        self.transit_after as i64 - self.transit_before as i64
    }
}

fn transit_position(path: &[AdId], ad: AdId) -> Option<usize> {
    transit(path).iter().position(|&a| a == ad).map(|i| i + 1)
}

fn transit_charge(db: &PolicyDb, f: &FlowSpec, path: &[AdId], ad: AdId) -> u64 {
    let Some(i) = transit_position(path, ad) else {
        return 0;
    };
    db.policy(ad)
        .evaluate(f, Some(path[i - 1]), Some(path[i + 1]))
        .map(u64::from)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adroute_policy::{AdSet, PolicyAction, PolicyCondition};
    use adroute_topology::generate::{line, ring};

    #[test]
    fn deny_all_on_a_cut_vertex_breaks_flows() {
        let topo = line(4); // 0-1-2-3: AD1 and AD2 are cut vertices
        let db = PolicyDb::permissive(&topo);
        let flows = [
            FlowSpec::best_effort(AdId(0), AdId(3)),
            FlowSpec::best_effort(AdId(0), AdId(2)),
            FlowSpec::best_effort(AdId(2), AdId(3)),
        ];
        let impact = PolicyImpact::assess(&topo, &db, TransitPolicy::deny_all(AdId(1)), &flows);
        assert!(!impact.is_safe());
        assert_eq!(impact.broken.len(), 2); // 0->3 and 0->2 die
        assert_eq!(impact.routable_before, 3);
        assert_eq!(impact.routable_after, 1);
        assert_eq!(impact.transit_delta(), -2);
        // Nothing was deployed: the live database is untouched.
        assert_eq!(
            db.policy(AdId(1))
                .evaluate(&flows[0], Some(AdId(0)), Some(AdId(2))),
            Some(0)
        );
    }

    #[test]
    fn redundant_topology_reroutes_instead_of_breaking() {
        let topo = ring(6);
        let db = PolicyDb::permissive(&topo);
        let flows = [FlowSpec::best_effort(AdId(0), AdId(3))];
        let impact = PolicyImpact::assess(&topo, &db, TransitPolicy::deny_all(AdId(1)), &flows);
        assert!(impact.is_safe());
        assert_eq!(impact.rerouted, 1);
        assert_eq!(impact.routable_after, 1);
    }

    #[test]
    fn charging_more_loses_traffic_and_revenue_tradeoff_is_visible() {
        let topo = ring(4); // 0->2 via 1 or via 3
        let db = PolicyDb::permissive(&topo);
        let flows = [
            FlowSpec::best_effort(AdId(0), AdId(2)),
            FlowSpec::best_effort(AdId(2), AdId(0)),
        ];
        // AD1 considers charging 10 for transit: traffic shifts to AD3.
        let mut pricey = TransitPolicy::permit_all(AdId(1));
        pricey.default = PolicyAction::Permit { cost: 10 };
        let impact = PolicyImpact::assess(&topo, &db, pricey, &flows);
        assert!(impact.is_safe());
        assert_eq!(
            impact.transit_after, 0,
            "traffic routes around the expensive AD"
        );
        assert!(impact.mean_cost.1 <= impact.mean_cost.0 + 2.0);
        // A modest price keeps (tie-broken) traffic only if competitive;
        // free transit certainly keeps it.
        let free = TransitPolicy::permit_all(AdId(1));
        let impact2 = PolicyImpact::assess(&topo, &db, free, &flows);
        assert!(impact2.transit_after >= impact.transit_after);
    }

    #[test]
    fn relaxing_policy_enables_flows() {
        let topo = line(3);
        let mut db = PolicyDb::permissive(&topo);
        db.set_policy(TransitPolicy::deny_all(AdId(1)));
        let flows = [FlowSpec::best_effort(AdId(0), AdId(2))];
        let impact = PolicyImpact::assess(&topo, &db, TransitPolicy::permit_all(AdId(1)), &flows);
        assert_eq!(impact.enabled.len(), 1);
        assert_eq!(impact.routable_before, 0);
        assert_eq!(impact.routable_after, 1);
        assert_eq!(impact.transit_delta(), 1);
    }

    #[test]
    fn source_specific_candidate_breaks_only_that_source() {
        let topo = line(4);
        let db = PolicyDb::permissive(&topo);
        let flows = [
            FlowSpec::best_effort(AdId(0), AdId(3)),
            FlowSpec::best_effort(AdId(1), AdId(3)),
        ];
        let mut cand = TransitPolicy::permit_all(AdId(2));
        cand.push_term(
            vec![PolicyCondition::SrcIn(AdSet::only([AdId(0)]))],
            PolicyAction::Deny,
        );
        let impact = PolicyImpact::assess(&topo, &db, cand, &flows);
        assert_eq!(impact.broken, vec![flows[0]]);
        assert_eq!(impact.routable_after, 1);
    }

    #[test]
    fn revenue_accounting_counts_charges() {
        let topo = line(3);
        let mut db = PolicyDb::permissive(&topo);
        db.policy_mut(AdId(1)).default = PolicyAction::Permit { cost: 4 };
        let flows = [FlowSpec::best_effort(AdId(0), AdId(2))];
        let mut cand = TransitPolicy::permit_all(AdId(1));
        cand.default = PolicyAction::Permit { cost: 7 };
        let impact = PolicyImpact::assess(&topo, &db, cand, &flows);
        assert_eq!(
            impact.revenue,
            (4, 7),
            "captive traffic pays the higher charge"
        );
        assert_eq!(impact.mean_cost.0 + 3.0, impact.mean_cost.1);
    }
}
