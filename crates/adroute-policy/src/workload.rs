//! Seeded policy workload generators.
//!
//! The paper's scaling arguments all hinge on **policy granularity** — how
//! many distinct packet classifications (source AD, UCI, QOS, time) transit
//! policies discriminate between. [`PolicyWorkload`] generates per-AD
//! [`TransitPolicy`]s with tunable granularity so the experiments can sweep
//! it, holding topology fixed.
//!
//! The ingredients model the policies of paper Sections 2.1/2.3:
//!
//! * **no-transit stubs** — stub and multi-homed-stub ADs deny all transit
//!   ("multi-homed ADs … wish to disallow any transit traffic");
//! * **customer-cone transit** — a transit AD carries only traffic sourced
//!   or destined within its hierarchical subtree (the classic
//!   provider/customer AUP, e.g. the NSFNET academic-use policy), backbones
//!   excepted;
//! * **source-specific denials** — a transit AD refuses traffic from a
//!   random set of source ADs (political/economic exclusions);
//! * **class terms** — UCI- and QOS-specific permits with distinct charges,
//!   multiplying the distinct classifications;
//! * **time windows** — off-peak-only transit for some classes.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use adroute_topology::{AdId, AdRole, LinkKind, Topology};

use crate::class::{QosClass, TimeOfDay, UserClass};
use crate::db::PolicyDb;
use crate::terms::{AdSet, PolicyAction, PolicyCondition, TransitPolicy};

/// Configuration of a random policy workload. Stub and multi-homed-stub
/// ADs always deny all transit; the fields shape the transit ADs' policies.
#[derive(Clone, Debug)]
pub struct PolicyWorkload {
    /// Non-backbone transit ADs restrict transit to their customer cone.
    pub(crate) customer_cone: bool,
    /// Fraction of transit ADs that deny a random set of source ADs.
    pub(crate) source_specific_frac: f64,
    /// Expected number of ADs in each source-specific denial set.
    pub(crate) denial_set_size: usize,
    /// Number of distinct QOS classes (beyond best effort) that receive
    /// dedicated permit terms with class-specific charges.
    pub qos_classes: u8,
    /// Number of distinct user classes that receive dedicated terms.
    pub(crate) uci_classes: u8,
    /// Fraction of transit ADs whose low-priority term is restricted to an
    /// off-peak time window.
    pub(crate) time_window_frac: f64,
    /// Base transit charge range (inclusive) for permit terms.
    pub(crate) cost_range: (u32, u32),
    /// RNG seed.
    pub seed: u64,
}

impl PolicyWorkload {
    /// A permissive workload: only the structural no-transit-stub policies.
    pub fn structural(seed: u64) -> PolicyWorkload {
        PolicyWorkload {
            customer_cone: false,
            source_specific_frac: 0.0,
            denial_set_size: 0,
            qos_classes: 0,
            uci_classes: 0,
            time_window_frac: 0.0,
            cost_range: (0, 0),
            seed,
        }
    }

    /// The default mixed workload used across experiments: structural
    /// policies plus moderate customer-cone and source-specific policy.
    pub fn default_mix(seed: u64) -> PolicyWorkload {
        PolicyWorkload {
            customer_cone: true,
            source_specific_frac: 0.3,
            denial_set_size: 3,
            qos_classes: 2,
            uci_classes: 2,
            time_window_frac: 0.2,
            cost_range: (0, 4),
            seed,
        }
    }

    /// A workload whose granularity (number of distinct classifications
    /// each transit AD discriminates) scales with `g`; used by the
    /// table-blowup experiments.
    pub fn granularity(g: u8, seed: u64) -> PolicyWorkload {
        PolicyWorkload {
            customer_cone: false,
            source_specific_frac: 0.5,
            denial_set_size: g as usize,
            qos_classes: g,
            uci_classes: g,
            time_window_frac: 0.0,
            cost_range: (0, 4),
            seed,
        }
    }

    /// Generates the per-AD policies for `topo`.
    pub fn generate(&self, topo: &Topology) -> PolicyDb {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let cones = if self.customer_cone {
            Some(customer_cones(topo))
        } else {
            None
        };

        let policies = topo
            .ads()
            .map(|ad| {
                if matches!(ad.role, AdRole::Stub | AdRole::MultiHomedStub) {
                    return TransitPolicy::deny_all(ad.id);
                }
                let mut p = TransitPolicy::permit_all(ad.id);

                // Source-specific denials first (first match wins).
                if self.source_specific_frac > 0.0
                    && rng.gen_bool(self.source_specific_frac)
                    && self.denial_set_size > 0
                    && topo.num_ads() > 2
                {
                    let denied: Vec<AdId> = (0..self.denial_set_size)
                        .map(|_| AdId(rng.gen_range(0..topo.num_ads() as u32)))
                        .filter(|&d| d != ad.id)
                        .collect();
                    if !denied.is_empty() {
                        p.push_term(
                            vec![PolicyCondition::SrcIn(AdSet::only(denied))],
                            PolicyAction::Deny,
                        );
                    }
                }

                // Class-specific permit terms with distinct charges.
                for q in 1..=self.qos_classes {
                    let cost = rng.gen_range(self.cost_range.0..=self.cost_range.1 + u32::from(q));
                    p.push_term(
                        vec![PolicyCondition::QosIn(vec![QosClass(q)])],
                        PolicyAction::Permit { cost },
                    );
                }
                for u in 1..=self.uci_classes {
                    let cost = rng.gen_range(self.cost_range.0..=self.cost_range.1);
                    let mut conds = vec![PolicyCondition::UciIn(vec![UserClass(u)])];
                    if rng.gen_bool(self.time_window_frac) {
                        // Off-peak only: 19:00-07:00.
                        conds.push(PolicyCondition::TimeWindow(
                            TimeOfDay::hm(19, 0),
                            TimeOfDay::hm(7, 0),
                        ));
                    }
                    p.push_term(conds, PolicyAction::Permit { cost });
                }

                // Customer-cone restriction: permit only traffic sourced or
                // destined inside the cone; backbones carry everything.
                if let Some(cones) = &cones {
                    if ad.level != adroute_topology::AdLevel::Backbone {
                        let cone = &cones[ad.id.index()];
                        if !cone.is_empty() {
                            p.push_term(
                                vec![PolicyCondition::SrcIn(AdSet::only(cone.iter().copied()))],
                                PolicyAction::Permit {
                                    cost: rng.gen_range(self.cost_range.0..=self.cost_range.1),
                                },
                            );
                            p.push_term(
                                vec![PolicyCondition::DstIn(AdSet::only(cone.iter().copied()))],
                                PolicyAction::Permit {
                                    cost: rng.gen_range(self.cost_range.0..=self.cost_range.1),
                                },
                            );
                            p.default = PolicyAction::Deny;
                            return p;
                        }
                    }
                }

                let base = rng.gen_range(self.cost_range.0..=self.cost_range.1);
                p.default = PolicyAction::Permit { cost: base };
                p
            })
            .collect();

        PolicyDb::from_policies(policies)
    }
}

/// For each AD, the set of ADs in its hierarchical subtree (its "customer
/// cone"), itself included: descendants reachable by repeatedly following
/// hierarchical links downward (higher level → lower level).
pub(crate) fn customer_cones(topo: &Topology) -> Vec<Vec<AdId>> {
    let n = topo.num_ads();
    let mut cones: Vec<Vec<AdId>> = vec![Vec::new(); n];
    for ad in topo.ad_ids() {
        // BFS downward over hierarchical links.
        let mut cone = vec![ad];
        let mut seen = vec![false; n];
        seen[ad.index()] = true;
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(ad);
        while let Some(cur) = queue.pop_front() {
            let cur_level = topo.ad(cur).level;
            for (nbr, link) in topo.all_neighbors(cur) {
                if topo.link(link).kind == LinkKind::Hierarchical
                    && topo.ad(nbr).level < cur_level
                    && !seen[nbr.index()]
                {
                    seen[nbr.index()] = true;
                    cone.push(nbr);
                    queue.push_back(nbr);
                }
            }
        }
        cone.sort_unstable();
        cones[ad.index()] = cone;
    }
    cones
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::FlowSpec;
    use crate::legality::legal_route;
    use adroute_topology::generate::HierarchyConfig;
    use adroute_topology::AdLevel;

    #[test]
    fn structural_workload_denies_stub_transit() {
        let topo = HierarchyConfig::default().generate();
        let db = PolicyWorkload::structural(1).generate(&topo);
        for ad in topo.ads() {
            let f = FlowSpec::best_effort(AdId(0), AdId(1));
            let verdict = db.policy(ad.id).evaluate(&f, Some(AdId(0)), Some(AdId(1)));
            match ad.role {
                AdRole::Stub | AdRole::MultiHomedStub => assert_eq!(verdict, None),
                _ => assert!(verdict.is_some()),
            }
        }
    }

    #[test]
    fn workload_is_deterministic() {
        let topo = HierarchyConfig::default().generate();
        let a = PolicyWorkload::default_mix(5).generate(&topo);
        let b = PolicyWorkload::default_mix(5).generate(&topo);
        assert_eq!(a.total_terms(), b.total_terms());
        assert_eq!(a.total_encoded_size(), b.total_encoded_size());
    }

    #[test]
    fn granularity_scales_terms() {
        let topo = HierarchyConfig::default().generate();
        let small = PolicyWorkload::granularity(1, 2).generate(&topo);
        let large = PolicyWorkload::granularity(16, 2).generate(&topo);
        assert!(large.total_terms() > small.total_terms() * 4);
    }

    #[test]
    fn customer_cones_contain_descendants() {
        let topo = HierarchyConfig::default().generate();
        let cones = customer_cones(&topo);
        for ad in topo.ads() {
            assert!(cones[ad.id.index()].contains(&ad.id));
            if ad.level == AdLevel::Backbone {
                // Backbone cone should include at least its regionals.
                assert!(cones[ad.id.index()].len() > 1);
            }
            if ad.level == AdLevel::Campus {
                assert_eq!(cones[ad.id.index()], vec![ad.id]);
            }
        }
    }

    #[test]
    fn default_mix_leaves_network_usable() {
        let topo = HierarchyConfig::default().generate();
        let db = PolicyWorkload::default_mix(9).generate(&topo);
        // Sample flows between campuses: most should still have a legal
        // route (the paper: ADs "should adopt the least restrictive
        // policies possible" — the mix is moderate).
        let campuses: Vec<AdId> = topo
            .ads()
            .filter(|a| a.level == AdLevel::Campus)
            .map(|a| a.id)
            .collect();
        let mut found = 0;
        let mut total = 0;
        for (i, &s) in campuses.iter().enumerate().take(8) {
            for &d in campuses.iter().skip(i + 1).take(8) {
                total += 1;
                if legal_route(&topo, &db, &FlowSpec::best_effort(s, d)).is_some() {
                    found += 1;
                }
            }
        }
        assert!(total > 0);
        assert!(
            found * 2 >= total,
            "only {found}/{total} flows routable under default mix"
        );
    }

    #[test]
    fn qos_terms_charge_differently() {
        let topo = HierarchyConfig::default().generate();
        let db = PolicyWorkload::default_mix(11).generate(&topo);
        // Find a transit AD with QOS terms and check evaluation differs by
        // class in at least the cost dimension being present.
        let transit = topo.ads().find(|a| a.role == AdRole::Transit).unwrap();
        let p = db.policy(transit.id);
        assert!(p.num_terms() > 0);
    }
}
