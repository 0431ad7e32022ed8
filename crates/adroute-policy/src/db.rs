//! The global policy view: one [`TransitPolicy`] per AD.
//!
//! In link-state architectures this is the database every AD converges to
//! after Policy Terms are flooded; in the oracle it is simply ground truth.

use adroute_topology::{AdId, Topology};

use crate::terms::TransitPolicy;

/// One transit policy per AD, indexed by AD id.
#[derive(Clone, Debug)]
pub struct PolicyDb {
    policies: Vec<TransitPolicy>,
}

impl PolicyDb {
    /// A database in which every AD permits all transit at cost zero.
    pub fn permissive(topo: &Topology) -> PolicyDb {
        PolicyDb {
            policies: topo.ad_ids().map(TransitPolicy::permit_all).collect(),
        }
    }

    /// Builds from an explicit per-AD vector.
    ///
    /// # Panics
    /// Panics if `policies[i].ad != i` for some `i`.
    pub fn from_policies(policies: Vec<TransitPolicy>) -> PolicyDb {
        for (i, p) in policies.iter().enumerate() {
            assert_eq!(p.ad.index(), i, "policy vector must be dense and in order");
        }
        PolicyDb { policies }
    }

    /// The policy of `ad`.
    #[inline]
    pub fn policy(&self, ad: AdId) -> &TransitPolicy {
        &self.policies[ad.index()]
    }

    /// Mutable access, for policy-change experiments.
    #[inline]
    pub fn policy_mut(&mut self, ad: AdId) -> &mut TransitPolicy {
        &mut self.policies[ad.index()]
    }

    /// Replaces the policy of one AD (a "policy change" event).
    pub fn set_policy(&mut self, policy: TransitPolicy) {
        let i = policy.ad.index();
        self.policies[i] = policy;
    }

    /// Iterator over all policies in AD order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &TransitPolicy> {
        self.policies.iter()
    }

    /// Total number of policy terms across all ADs.
    pub fn total_terms(&self) -> usize {
        self.policies.iter().map(|p| p.num_terms()).sum()
    }

    /// Whether any AD's policy conditions on the flow **destination**.
    ///
    /// When false, transit evaluation is identical for every flow in a
    /// batch that shares `src`/`qos`/`uci`/`time`, and a single
    /// multi-destination search ([`crate::legality::legal_routes_sweep`])
    /// is exactly equivalent to one search per destination.
    pub fn dst_sensitive(&self) -> bool {
        self.policies.iter().any(|p| p.conditions_on_dst())
    }

    /// Total encoded size of all policies (the flooding payload of a
    /// link-state policy architecture).
    pub fn total_encoded_size(&self) -> usize {
        self.policies.iter().map(|p| p.encoded_size()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::terms::{PolicyAction, TransitPolicy};
    use adroute_topology::generate::line;

    #[test]
    fn permissive_covers_all() {
        let t = line(4);
        let db = PolicyDb::permissive(&t);
        assert_eq!(db.policies.len(), 4);
        assert_eq!(db.total_terms(), 0);
        for ad in t.ad_ids() {
            assert_eq!(db.policy(ad).ad, ad);
        }
    }

    #[test]
    fn set_and_mutate() {
        let t = line(3);
        let mut db = PolicyDb::permissive(&t);
        db.set_policy(TransitPolicy::deny_all(AdId(1)));
        let f = crate::FlowSpec::best_effort(AdId(0), AdId(2));
        assert_eq!(
            db.policy(AdId(1))
                .evaluate(&f, Some(AdId(0)), Some(AdId(2))),
            None
        );
        db.policy_mut(AdId(1)).default = PolicyAction::Permit { cost: 3 };
        assert_eq!(
            db.policy(AdId(1))
                .evaluate(&f, Some(AdId(0)), Some(AdId(2))),
            Some(3)
        );
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn misordered_policies_rejected() {
        PolicyDb::from_policies(vec![TransitPolicy::permit_all(AdId(1))]);
    }

    #[test]
    fn sizes_accumulate() {
        let t = line(3);
        let mut db = PolicyDb::permissive(&t);
        let before = db.total_encoded_size();
        db.policy_mut(AdId(1)).push_term(vec![], PolicyAction::Deny);
        assert!(db.total_encoded_size() > before);
        assert_eq!(db.total_terms(), 1);
        assert_eq!(db.iter().count(), 3);
    }
}
