//! Policy Terms: explicit, advertisable policy statements (RFC 1102 /
//! paper Section 4.2).
//!
//! "Link or path updates contain administrative constraints and service
//! guarantees that apply to the resources they advertise. We refer to these
//! constraints as Policy Terms (PTs)." Each AD groups its PTs into a
//! [`TransitPolicy`]; sources hold private [`RouteSelection`] criteria.

use adroute_topology::{transit, AdId};
use std::fmt;

use crate::class::{FlowSpec, QosClass, TimeOfDay, UserClass};

/// The members of an [`AdSet::Only`] or [`AdSet::Except`]: sorted and
/// deduplicated, which the private field guarantees. Equal sets are
/// therefore equal slices, and the derived `Ord` and `Hash` compare
/// member by member — the order IDRP's RIBs and every golden rely on.
///
/// Policy sets hold at most a few hundred ADs, so membership is a binary
/// search and set algebra a merge or a filter.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct AdList(Box<[AdId]>);

impl AdList {
    fn from_ids(ids: impl IntoIterator<Item = AdId>) -> AdList {
        let mut ids: Vec<AdId> = ids.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        AdList(ids.into())
    }

    fn contains(&self, ad: AdId) -> bool {
        self.0.binary_search(&ad).is_ok()
    }

    /// The members of `self` whose membership in `other` is `keep`.
    fn filter(&self, other: &AdList, keep: bool) -> AdList {
        let kept = self.0.iter().filter(|&&ad| other.contains(ad) == keep);
        AdList(kept.copied().collect())
    }

    fn intersect(&self, other: &AdList) -> AdList {
        if self.0.len() <= other.0.len() {
            self.filter(other, true)
        } else {
            other.filter(self, true)
        }
    }

    fn difference(&self, other: &AdList) -> AdList {
        self.filter(other, false)
    }

    fn union(&self, other: &AdList) -> AdList {
        let (a, b) = (&self.0, &other.0);
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let (x, y) = (a[i], b[j]);
            out.push(x.min(y));
            i += usize::from(x <= y);
            j += usize::from(y <= x);
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        AdList(out.into())
    }
}

impl fmt::Display for AdList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, ad) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{ad}")?;
        }
        Ok(())
    }
}

/// A set of ADs, as appears in policy conditions.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum AdSet {
    /// Matches every AD.
    Any,
    /// Matches exactly the listed ADs.
    Only(AdList),
    /// Matches every AD except the listed ones.
    Except(AdList),
}

impl AdSet {
    /// Builds an [`AdSet::Only`] from an iterator, sorting and deduplicating.
    pub fn only(ads: impl IntoIterator<Item = AdId>) -> AdSet {
        AdSet::Only(AdList::from_ids(ads))
    }

    /// Builds an [`AdSet::Except`] from an iterator, sorting and deduplicating.
    pub fn except(ads: impl IntoIterator<Item = AdId>) -> AdSet {
        AdSet::Except(AdList::from_ids(ads))
    }

    /// Membership test.
    pub fn contains(&self, ad: AdId) -> bool {
        match self {
            AdSet::Any => true,
            AdSet::Only(v) => v.contains(ad),
            AdSet::Except(v) => !v.contains(ad),
        }
    }

    /// Approximate encoded size in bytes, for message accounting: 1 tag
    /// byte + 4 bytes per member.
    pub fn encoded_size(&self) -> usize {
        match self {
            AdSet::Any => 1,
            AdSet::Only(v) | AdSet::Except(v) => 1 + 4 * v.0.len(),
        }
    }

    /// Whether this set matches no AD at all.
    pub fn is_empty_set(&self) -> bool {
        matches!(self, AdSet::Only(v) if v.0.is_empty())
    }

    /// Set intersection. Path-vector protocols narrow a route's
    /// distribution scope by intersecting it with each transit AD's policy
    /// scope (paper Section 5.2: "additional policy constraints can be
    /// added" as updates propagate).
    pub fn intersect(&self, other: &AdSet) -> AdSet {
        use AdSet::*;
        match (self, other) {
            (Any, x) | (x, Any) => x.clone(),
            (Only(a), Only(b)) => AdSet::Only(a.intersect(b)),
            (Only(a), Except(b)) | (Except(b), Only(a)) => AdSet::Only(a.difference(b)),
            (Except(a), Except(b)) => AdSet::Except(a.union(b)),
        }
    }

    /// Set difference `self \ removed` where `removed` is a plain list.
    pub fn subtract(&self, removed: &[AdId]) -> AdSet {
        self.intersect(&AdSet::except(removed.iter().copied()))
    }

    /// Set union. Route Servers widen a *avoid* set with additional ADs
    /// while hunting for alternate routes; union (not replacement) keeps
    /// the source's original selection criteria in force.
    pub fn union(&self, other: &AdSet) -> AdSet {
        use AdSet::*;
        match (self, other) {
            (Any, _) | (_, Any) => Any,
            (Only(a), Only(b)) => AdSet::Only(a.union(b)),
            (Only(a), Except(b)) | (Except(b), Only(a)) => AdSet::Except(b.difference(a)),
            (Except(a), Except(b)) => AdSet::Except(a.intersect(b)),
        }
    }
}

impl fmt::Display for AdSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdSet::Any => f.write_str("*"),
            AdSet::Only(v) => write!(f, "{{{v}}}"),
            AdSet::Except(v) => write!(f, "!{{{v}}}"),
        }
    }
}

/// One condition of a Policy Term. A term matches a traversal when **all**
/// its conditions match (conjunction).
///
/// The ORWG architecture's "path constraints restrict access to the path
/// based on source AD, destination AD, previous AD, or next AD in the
/// path" (paper Section 5.4.1), plus QOS, user class, and "other global
/// conditions" such as time of day.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PolicyCondition {
    /// Source AD of the flow must be in the set.
    SrcIn(AdSet),
    /// Destination AD of the flow must be in the set.
    DstIn(AdSet),
    /// The AD the packet arrives from must be in the set. Matches only
    /// when a previous AD exists (i.e. the evaluating AD is not the
    /// source).
    PrevIn(AdSet),
    /// The AD the packet will be handed to must be in the set. Matches
    /// only when a next AD exists (i.e. the evaluating AD is not the
    /// destination).
    NextIn(AdSet),
    /// Requested QOS must be one of the listed classes.
    QosIn(Vec<QosClass>),
    /// User class must be one of the listed classes.
    UciIn(Vec<UserClass>),
    /// Flow time must lie in `[start, end)` (may wrap midnight).
    TimeWindow(TimeOfDay, TimeOfDay),
}

impl PolicyCondition {
    /// Evaluates this condition for a traversal of the policy's AD by
    /// `flow`, arriving from `prev` and departing toward `next` (`None`
    /// when the evaluating AD is the flow's source / destination
    /// respectively).
    pub(crate) fn matches(&self, flow: &FlowSpec, prev: Option<AdId>, next: Option<AdId>) -> bool {
        match self {
            PolicyCondition::SrcIn(s) => s.contains(flow.src),
            PolicyCondition::DstIn(s) => s.contains(flow.dst),
            PolicyCondition::PrevIn(s) => prev.is_some_and(|p| s.contains(p)),
            PolicyCondition::NextIn(s) => next.is_some_and(|n| s.contains(n)),
            PolicyCondition::QosIn(qs) => qs.contains(&flow.qos),
            PolicyCondition::UciIn(us) => us.contains(&flow.uci),
            PolicyCondition::TimeWindow(s, e) => flow.time.in_window(*s, *e),
        }
    }

    /// Approximate encoded size in bytes.
    pub(crate) fn encoded_size(&self) -> usize {
        1 + match self {
            PolicyCondition::SrcIn(s)
            | PolicyCondition::DstIn(s)
            | PolicyCondition::PrevIn(s)
            | PolicyCondition::NextIn(s) => s.encoded_size(),
            PolicyCondition::QosIn(v) => 1 + v.len(),
            PolicyCondition::UciIn(v) => 1 + v.len(),
            PolicyCondition::TimeWindow(..) => 4,
        }
    }
}

/// What a matching Policy Term decides.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PolicyAction {
    /// Transit permitted, at the given advertised cost (charging /
    /// accounting surrogate; added to the route metric).
    Permit {
        /// Cost the AD charges for this class of transit.
        cost: u32,
    },
    /// Transit denied.
    Deny,
}

/// Identifier of a Policy Term: the advertising AD plus a per-AD serial.
/// Setup packets cite PT ids so Policy Gateways can validate against the
/// exact terms the source believed it was using.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PtId {
    /// Advertising AD.
    pub ad: AdId,
    /// Serial within the AD's policy.
    pub serial: u16,
}

impl fmt::Display for PtId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.ad, self.serial)
    }
}

/// One Policy Term: conditions plus an action.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PolicyTerm {
    /// Identifier (advertising AD + serial).
    pub id: PtId,
    /// Conjunctive conditions; an empty list matches everything.
    pub conditions: Vec<PolicyCondition>,
    /// Permit (with cost) or deny.
    pub action: PolicyAction,
}

impl PolicyTerm {
    /// Whether every condition matches the given traversal.
    pub(crate) fn matches(&self, flow: &FlowSpec, prev: Option<AdId>, next: Option<AdId>) -> bool {
        self.conditions.iter().all(|c| c.matches(flow, prev, next))
    }

    /// Approximate encoded size in bytes (id + action + conditions).
    pub(crate) fn encoded_size(&self) -> usize {
        6 + 5
            + self
                .conditions
                .iter()
                .map(|c| c.encoded_size())
                .sum::<usize>()
    }
}

/// The transit policy of one AD: an ordered list of Policy Terms with
/// first-match-wins semantics and a default action.
///
/// Per paper Section 2.3 this controls **use of the AD's resources for
/// transit**, not end-system access: flows sourced at or destined to the
/// AD itself are always permitted (network access control is a separate,
/// orthogonal mechanism — Section 3).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TransitPolicy {
    /// The AD whose policy this is.
    pub ad: AdId,
    /// Ordered terms; the first matching term decides.
    pub terms: Vec<PolicyTerm>,
    /// Action when no term matches.
    pub default: PolicyAction,
}

impl TransitPolicy {
    /// A policy that permits all transit at cost 0 — the "least restrictive
    /// polic\[y\] possible" the paper urges ADs to adopt.
    pub fn permit_all(ad: AdId) -> TransitPolicy {
        TransitPolicy {
            ad,
            terms: Vec::new(),
            default: PolicyAction::Permit { cost: 0 },
        }
    }

    /// A policy that denies all transit — what a stub or multi-homed stub
    /// advertises.
    pub fn deny_all(ad: AdId) -> TransitPolicy {
        TransitPolicy {
            ad,
            terms: Vec::new(),
            default: PolicyAction::Deny,
        }
    }

    /// Appends a term, assigning the next serial. Returns the new term's id.
    pub fn push_term(&mut self, conditions: Vec<PolicyCondition>, action: PolicyAction) -> PtId {
        let id = PtId {
            ad: self.ad,
            serial: self.terms.len() as u16,
        };
        self.terms.push(PolicyTerm {
            id,
            conditions,
            action,
        });
        id
    }

    /// Whether this policy is a *restriction* of `old`: every traversal it
    /// permits, `old` permitted at the same cost — so replacing `old` with
    /// `self` can only remove routes, never create or cheapen one.
    ///
    /// The check is conservative (sound, not complete). It returns true
    /// when the policies are identical, when `self` permits nothing at all,
    /// or when `self` is `old` with extra `Deny` terms inserted (term ids
    /// may be renumbered; conditions and actions must match). Anything the
    /// check cannot prove restrictive is reported `false`, and consumers
    /// fall back to treating the change as potentially route-creating.
    pub fn is_restriction_of(&self, old: &TransitPolicy) -> bool {
        if self.ad != old.ad {
            return false;
        }
        // A policy that permits no transit at all restricts anything.
        if self.default == PolicyAction::Deny
            && self.terms.iter().all(|t| t.action == PolicyAction::Deny)
        {
            return true;
        }
        if self.default != old.default {
            return false;
        }
        // `old.terms` must appear as a subsequence of `self.terms`, and
        // every inserted term must deny: first-match-wins then either hits
        // an inserted Deny (traversal newly denied — restrictive) or the
        // same deciding term as before.
        let mut remaining = old.terms.iter().peekable();
        for t in &self.terms {
            if let Some(o) = remaining.peek() {
                if t.conditions == o.conditions && t.action == o.action {
                    remaining.next();
                    continue;
                }
            }
            if t.action != PolicyAction::Deny {
                return false;
            }
        }
        remaining.peek().is_none()
    }

    /// Evaluates a transit traversal: the first matching term decides,
    /// otherwise the default.
    ///
    /// Returns `Some(cost)` if permitted (the AD's advertised transit
    /// charge) or `None` if denied. `prev`/`next` are `None` at the flow's
    /// source / destination respectively — but note that an AD never
    /// evaluates its own transit policy for flows it originates or
    /// terminates (see [`crate::legality::route_is_legal`]).
    pub fn evaluate(&self, flow: &FlowSpec, prev: Option<AdId>, next: Option<AdId>) -> Option<u32> {
        let action = self
            .terms
            .iter()
            .find(|t| t.matches(flow, prev, next))
            .map(|t| t.action)
            .unwrap_or(self.default);
        match action {
            PolicyAction::Permit { cost } => Some(cost),
            PolicyAction::Deny => None,
        }
    }

    /// Like [`TransitPolicy::evaluate`], but also returns the id of the
    /// deciding term (`None` for the default action). Policy Gateways use
    /// this to check the PT ids cited in setup packets.
    pub fn evaluate_with_term(
        &self,
        flow: &FlowSpec,
        prev: Option<AdId>,
        next: Option<AdId>,
    ) -> (Option<u32>, Option<PtId>) {
        if let Some(t) = self.terms.iter().find(|t| t.matches(flow, prev, next)) {
            match t.action {
                PolicyAction::Permit { cost } => (Some(cost), Some(t.id)),
                PolicyAction::Deny => (None, Some(t.id)),
            }
        } else {
            match self.default {
                PolicyAction::Permit { cost } => (Some(cost), None),
                PolicyAction::Deny => (None, None),
            }
        }
    }

    /// Whether any term conditions on the flow's **destination** AD.
    ///
    /// Destination-conditioned terms make transit evaluation vary across
    /// flows that differ only in `dst` — the one flow attribute a batched
    /// multi-destination synthesis sweep does not hold fixed — so batching
    /// layers use this to decide when a shared search is sound.
    pub(crate) fn conditions_on_dst(&self) -> bool {
        self.terms.iter().any(|t| {
            t.conditions
                .iter()
                .any(|c| matches!(c, PolicyCondition::DstIn(_)))
        })
    }

    /// What [`TransitPolicy::evaluate`] answers for `flow` over every
    /// previous and next AD, when the flow alone decides it.
    ///
    /// First-match over the flow's own conditions: a term one of whose
    /// flow conditions fails never matches and is skipped; the first term
    /// whose flow conditions all hold decides, unless it also conditions
    /// on the previous or next AD; no such term leaves the default.
    pub(crate) fn flow_verdict(&self, flow: &FlowSpec) -> FlowVerdict {
        let on_neighbor = |c: &PolicyCondition| {
            matches!(c, PolicyCondition::PrevIn(_) | PolicyCondition::NextIn(_))
        };
        let decider = self.terms.iter().find(|t| {
            t.conditions
                .iter()
                .all(|c| on_neighbor(c) || c.matches(flow, None, None))
        });
        let action = match decider {
            Some(t) if t.conditions.iter().any(on_neighbor) => return FlowVerdict::PerNeighbor,
            Some(t) => t.action,
            None => self.default,
        };
        FlowVerdict::Fixed(match action {
            PolicyAction::Permit { cost } => Some(cost),
            PolicyAction::Deny => None,
        })
    }

    /// Approximate encoded size in bytes of the whole policy as advertised.
    pub fn encoded_size(&self) -> usize {
        4 + 1 + self.terms.iter().map(|t| t.encoded_size()).sum::<usize>()
    }

    /// Number of terms.
    pub(crate) fn num_terms(&self) -> usize {
        self.terms.len()
    }
}

/// A transit policy's answer for one flow before the previous and next AD
/// are known: see [`TransitPolicy::flow_verdict`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum FlowVerdict {
    /// [`TransitPolicy::evaluate`]'s answer for every previous and next AD.
    Fixed(Option<u32>),
    /// The deciding term conditions on the previous or next AD, so each
    /// traversal is evaluated on its own.
    PerNeighbor,
}

/// Source-side route selection criteria (paper Section 2.3: "policies of
/// the source", which under source routing "can [be kept] private from
/// other ADs" — Section 5.4).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RouteSelection {
    /// ADs the source refuses to route through (e.g. untrusted carriers).
    pub avoid: AdSet,
}

impl RouteSelection {
    /// No source-side constraints.
    pub fn unconstrained() -> RouteSelection {
        RouteSelection {
            avoid: AdSet::Only(AdList::default()),
        }
    }

    /// Avoid the listed transit ADs.
    pub fn avoiding(ads: impl IntoIterator<Item = AdId>) -> RouteSelection {
        RouteSelection {
            avoid: AdSet::only(ads),
        }
    }

    /// Whether a complete route avoids every AD in the avoid-set. Only
    /// *transit* ADs are checked (a source cannot avoid itself or its
    /// destination).
    pub fn accepts(&self, path: &[AdId]) -> bool {
        !transit(path).iter().any(|&ad| self.avoid.contains(ad))
    }

    /// Whether a transit AD is acceptable to this source.
    pub fn allows_transit(&self, ad: AdId) -> bool {
        !self.avoid.contains(ad)
    }
}

impl Default for RouteSelection {
    fn default() -> Self {
        RouteSelection::unconstrained()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::FlowSpec;

    fn flow() -> FlowSpec {
        FlowSpec::best_effort(AdId(0), AdId(9))
    }

    #[test]
    fn adset_membership() {
        assert!(AdSet::Any.contains(AdId(5)));
        let only = AdSet::only([AdId(3), AdId(1), AdId(3)]);
        assert!(only.contains(AdId(1)));
        assert!(!only.contains(AdId(2)));
        let except = AdSet::except([AdId(4)]);
        assert!(except.contains(AdId(5)));
        assert!(!except.contains(AdId(4)));
    }

    #[test]
    fn adset_intersection() {
        let only12 = AdSet::only([AdId(1), AdId(2)]);
        let only23 = AdSet::only([AdId(2), AdId(3)]);
        let except2 = AdSet::except([AdId(2)]);
        assert_eq!(AdSet::Any.intersect(&only12), only12);
        assert_eq!(only12.intersect(&only23), AdSet::only([AdId(2)]));
        assert_eq!(only12.intersect(&except2), AdSet::only([AdId(1)]));
        assert_eq!(
            except2.intersect(&AdSet::except([AdId(3)])),
            AdSet::except([AdId(2), AdId(3)])
        );
        assert!(only12.intersect(&AdSet::only([AdId(9)])).is_empty_set());
        assert!(!AdSet::Any.is_empty_set());
        assert!(!except2.is_empty_set());
    }

    #[test]
    fn adset_subtraction() {
        let s = AdSet::only([AdId(1), AdId(2), AdId(3)]);
        assert_eq!(s.subtract(&[AdId(2)]), AdSet::only([AdId(1), AdId(3)]));
        assert_eq!(AdSet::Any.subtract(&[AdId(5)]), AdSet::except([AdId(5)]));
        // Subtracting from Except accumulates exclusions.
        assert_eq!(
            AdSet::except([AdId(1)]).subtract(&[AdId(2), AdId(2)]),
            AdSet::except([AdId(1), AdId(2)])
        );
    }

    #[test]
    fn adset_union() {
        let only12 = AdSet::only([AdId(1), AdId(2)]);
        let only23 = AdSet::only([AdId(2), AdId(3)]);
        let except12 = AdSet::except([AdId(1), AdId(2)]);
        assert_eq!(AdSet::Any.union(&only12), AdSet::Any);
        assert_eq!(
            only12.union(&only23),
            AdSet::only([AdId(1), AdId(2), AdId(3)])
        );
        // Only ∪ Except removes the named ADs from the exclusion list.
        assert_eq!(only12.union(&except12), AdSet::except([]));
        assert_eq!(
            AdSet::only([AdId(1)]).union(&except12),
            AdSet::except([AdId(2)])
        );
        // Except ∪ Except keeps only shared exclusions.
        assert_eq!(
            except12.union(&AdSet::except([AdId(2), AdId(3)])),
            AdSet::except([AdId(2)])
        );
        // Union never shrinks membership.
        for ad in [AdId(1), AdId(2), AdId(3), AdId(4)] {
            for (x, y) in [(&only12, &only23), (&only12, &except12)] {
                let u = x.union(y);
                assert_eq!(u.contains(ad), x.contains(ad) || y.contains(ad));
            }
        }
    }

    #[test]
    fn restriction_check_is_sound_and_conservative() {
        let base = {
            let mut p = TransitPolicy::permit_all(AdId(5));
            p.push_term(
                vec![PolicyCondition::SrcIn(AdSet::only([AdId(0)]))],
                PolicyAction::Permit { cost: 2 },
            );
            p
        };
        // Identity.
        assert!(base.is_restriction_of(&base));
        // Permits-nothing restricts anything.
        assert!(TransitPolicy::deny_all(AdId(5)).is_restriction_of(&base));
        // Inserting a Deny term (before or after) is a restriction even
        // though later term serials shift.
        let mut narrowed = TransitPolicy::permit_all(AdId(5));
        narrowed.push_term(
            vec![PolicyCondition::DstIn(AdSet::only([AdId(9)]))],
            PolicyAction::Deny,
        );
        narrowed.push_term(
            vec![PolicyCondition::SrcIn(AdSet::only([AdId(0)]))],
            PolicyAction::Permit { cost: 2 },
        );
        assert!(narrowed.is_restriction_of(&base));
        assert!(!base.is_restriction_of(&narrowed), "loosening is not");
        // A new Permit term is not provably restrictive.
        let mut widened = base.clone();
        widened.push_term(vec![], PolicyAction::Permit { cost: 1 });
        assert!(!widened.is_restriction_of(&base));
        // Different AD or flipped default: rejected.
        assert!(!TransitPolicy::deny_all(AdId(6)).is_restriction_of(&base));
        assert!(!TransitPolicy::permit_all(AdId(5))
            .is_restriction_of(&TransitPolicy::deny_all(AdId(5))));
        // Dropping one of old's terms is rejected (could cheapen a route).
        assert!(!TransitPolicy::permit_all(AdId(5)).is_restriction_of(&base));
    }

    #[test]
    fn adset_display_and_size() {
        assert_eq!(AdSet::Any.to_string(), "*");
        assert_eq!(AdSet::only([AdId(1), AdId(2)]).to_string(), "{AD1,AD2}");
        assert_eq!(AdSet::except([AdId(1)]).to_string(), "!{AD1}");
        assert_eq!(AdSet::Any.encoded_size(), 1);
        assert_eq!(AdSet::only([AdId(1), AdId(2)]).encoded_size(), 9);
    }

    #[test]
    fn conditions_match() {
        let f = flow();
        assert!(PolicyCondition::SrcIn(AdSet::only([AdId(0)])).matches(&f, None, None));
        assert!(!PolicyCondition::SrcIn(AdSet::only([AdId(1)])).matches(&f, None, None));
        assert!(PolicyCondition::DstIn(AdSet::Any).matches(&f, None, None));
        // Prev/Next require the hop to exist.
        let prev = PolicyCondition::PrevIn(AdSet::Any);
        assert!(prev.matches(&f, Some(AdId(2)), None));
        assert!(!prev.matches(&f, None, None));
        let next = PolicyCondition::NextIn(AdSet::only([AdId(7)]));
        assert!(next.matches(&f, None, Some(AdId(7))));
        assert!(!next.matches(&f, None, Some(AdId(8))));
        assert!(!next.matches(&f, None, None));
        assert!(PolicyCondition::QosIn(vec![QosClass(0)]).matches(&f, None, None));
        assert!(!PolicyCondition::QosIn(vec![QosClass(1)]).matches(&f, None, None));
        assert!(PolicyCondition::UciIn(vec![UserClass(0)]).matches(&f, None, None));
        assert!(
            PolicyCondition::TimeWindow(TimeOfDay::hm(9, 0), TimeOfDay::hm(17, 0))
                .matches(&f, None, None)
        );
        assert!(
            !PolicyCondition::TimeWindow(TimeOfDay::hm(0, 0), TimeOfDay::hm(1, 0))
                .matches(&f, None, None)
        );
    }

    #[test]
    fn first_match_wins() {
        let mut p = TransitPolicy::permit_all(AdId(5));
        // Deny traffic sourced at AD0 …
        p.push_term(
            vec![PolicyCondition::SrcIn(AdSet::only([AdId(0)]))],
            PolicyAction::Deny,
        );
        // … but this later, broader permit never fires for AD0 sources.
        p.push_term(vec![], PolicyAction::Permit { cost: 7 });
        let f = flow();
        assert_eq!(p.evaluate(&f, Some(AdId(1)), Some(AdId(2))), None);
        let f2 = FlowSpec::best_effort(AdId(3), AdId(9));
        assert_eq!(p.evaluate(&f2, Some(AdId(1)), Some(AdId(2))), Some(7));
    }

    #[test]
    fn default_action_applies() {
        let p = TransitPolicy::deny_all(AdId(5));
        assert_eq!(p.evaluate(&flow(), Some(AdId(1)), Some(AdId(2))), None);
        let p2 = TransitPolicy::permit_all(AdId(5));
        assert_eq!(p2.evaluate(&flow(), Some(AdId(1)), Some(AdId(2))), Some(0));
    }

    #[test]
    fn evaluate_with_term_reports_decider() {
        let mut p = TransitPolicy::deny_all(AdId(5));
        let id = p.push_term(
            vec![PolicyCondition::SrcIn(AdSet::only([AdId(0)]))],
            PolicyAction::Permit { cost: 2 },
        );
        let (cost, pt) = p.evaluate_with_term(&flow(), Some(AdId(1)), Some(AdId(2)));
        assert_eq!(cost, Some(2));
        assert_eq!(pt, Some(id));
        let f2 = FlowSpec::best_effort(AdId(3), AdId(9));
        let (cost2, pt2) = p.evaluate_with_term(&f2, Some(AdId(1)), Some(AdId(2)));
        assert_eq!(cost2, None);
        assert_eq!(pt2, None); // default decided
    }

    #[test]
    fn endpoints_always_permitted() {
        // Transit policy governs transit only: a route is legal even
        // though both of its endpoints deny everything.
        let topo = adroute_topology::generate::line(3);
        let mut db = crate::PolicyDb::permissive(&topo);
        db.set_policy(TransitPolicy::deny_all(AdId(0)));
        db.set_policy(TransitPolicy::deny_all(AdId(2)));
        let f = FlowSpec::best_effort(AdId(0), AdId(2));
        let path = [AdId(0), AdId(1), AdId(2)];
        assert!(crate::route_is_legal(&topo, &db, &f, &path).is_some());
    }

    #[test]
    fn route_selection_criteria() {
        let rs = RouteSelection::avoiding([AdId(5)]);
        assert!(!rs.accepts(&[AdId(0), AdId(5), AdId(9)]));
        assert!(rs.accepts(&[AdId(0), AdId(6), AdId(9)]));
        // endpoints not subject to avoid
        assert!(rs.accepts(&[AdId(0), AdId(9)]));
        assert!(!rs.allows_transit(AdId(5)));
    }

    #[test]
    fn term_serials_increment() {
        let mut p = TransitPolicy::permit_all(AdId(3));
        let a = p.push_term(vec![], PolicyAction::Deny);
        let b = p.push_term(vec![], PolicyAction::Deny);
        assert_eq!(a.serial, 0);
        assert_eq!(b.serial, 1);
        assert_eq!(a.ad, AdId(3));
        assert_eq!(p.num_terms(), 2);
    }

    #[test]
    fn encoded_sizes_positive() {
        let mut p = TransitPolicy::permit_all(AdId(3));
        let empty = p.encoded_size();
        p.push_term(
            vec![PolicyCondition::SrcIn(AdSet::only([AdId(0), AdId(1)]))],
            PolicyAction::Deny,
        );
        assert!(p.encoded_size() > empty);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::class::FlowSpec;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Ids for one set: a few small ids (so sets overlap and repeat ids),
    /// ids on both sides of 65 536 up to 200 000, or a run of 4 000–5 000
    /// consecutive ids — the spans and sizes a chunked or dense layout
    /// would treat specially.
    fn arb_ids() -> impl Strategy<Value = Vec<AdId>> {
        let wide = prop_oneof![0u32..20, 65_530u32..65_545, 0u32..200_000];
        prop_oneof![
            proptest::collection::vec(0u32..20, 0..6),
            proptest::collection::vec(wide, 0..12),
            (0u32..70_000).prop_map(|lo| (lo..lo + 4_000 + lo % 1_000).collect::<Vec<u32>>()),
        ]
        .prop_map(|v| v.into_iter().map(AdId).collect())
    }

    fn arb_adset() -> impl Strategy<Value = AdSet> {
        prop_oneof![
            Just(AdSet::Any),
            arb_ids().prop_map(AdSet::only),
            arb_ids().prop_map(AdSet::except),
        ]
    }

    /// The listed members of a set (none for `Any`).
    fn members(s: &AdSet) -> &[AdId] {
        match s {
            AdSet::Any => &[],
            AdSet::Only(v) | AdSet::Except(v) => &v.0,
        }
    }

    /// Ids worth probing: every listed member of either set, its
    /// neighbours, and a few fixed ids.
    fn probes(a: &AdSet, b: &AdSet) -> BTreeSet<AdId> {
        let listed = members(a).iter().chain(members(b));
        let near = listed.flat_map(|ad| [ad.0.saturating_sub(1), ad.0, ad.0 + 1]);
        let fixed = [0, 7, 65_535, 65_536, 199_999];
        near.chain(fixed).map(AdId).collect()
    }

    proptest! {
        /// Intersection agrees with pointwise conjunction of membership.
        #[test]
        fn intersection_is_pointwise_and(a in arb_adset(), b in arb_adset()) {
            let i = a.intersect(&b);
            for ad in probes(&a, &b) {
                prop_assert_eq!(i.contains(ad), a.contains(ad) && b.contains(ad), "{}", ad);
            }
        }

        /// Union agrees with pointwise disjunction of membership.
        #[test]
        fn union_is_pointwise_or(a in arb_adset(), b in arb_adset()) {
            let u = a.union(&b);
            for ad in probes(&a, &b) {
                prop_assert_eq!(u.contains(ad), a.contains(ad) || b.contains(ad), "{}", ad);
            }
        }

        /// Intersection is commutative.
        #[test]
        fn intersection_commutes(a in arb_adset(), b in arb_adset()) {
            prop_assert_eq!(a.intersect(&b), b.intersect(&a));
        }

        /// Subtraction removes exactly the listed members.
        #[test]
        fn subtraction_is_pointwise(a in arb_adset(), removed in arb_ids()) {
            let s = a.subtract(&removed);
            let gone: BTreeSet<AdId> = removed.iter().copied().collect();
            for ad in probes(&a, &AdSet::only(gone.iter().copied())) {
                prop_assert_eq!(s.contains(ad), a.contains(ad) && !gone.contains(&ad), "{}", ad);
            }
        }

        /// Sets order as their sorted, deduplicated member lists do.
        #[test]
        fn order_is_member_order(a in arb_ids(), b in arb_ids()) {
            let sorted = |ids: &[AdId]| ids.iter().copied().collect::<BTreeSet<_>>();
            let joined: Vec<AdId> = a.iter().chain(&b).copied().collect();
            for (x, y) in [(&a, &b), (&a, &joined), (&joined, &a)] {
                let expected = sorted(x).cmp(&sorted(y));
                prop_assert_eq!(AdSet::only(x.clone()).cmp(&AdSet::only(y.clone())), expected);
                prop_assert_eq!(AdSet::except(x.clone()).cmp(&AdSet::except(y.clone())), expected);
            }
        }

        /// Equal sets are equal and hash equal, however their ids were listed.
        #[test]
        fn equal_sets_hash_equal(ids in arb_ids()) {
            use std::collections::hash_map::DefaultHasher;
            use std::hash::{Hash, Hasher};
            let hash = |s: &AdSet| {
                let mut h = DefaultHasher::new();
                s.hash(&mut h);
                h.finish()
            };
            let listed = AdSet::only(ids.iter().copied());
            let relisted = AdSet::only(ids.iter().rev().chain(&ids).copied());
            prop_assert_eq!(&listed, &relisted);
            prop_assert_eq!(hash(&listed), hash(&relisted));
        }

        /// `Display` and `encoded_size` follow the sorted, deduplicated
        /// member list.
        #[test]
        fn display_and_size_follow_members(ids in arb_ids()) {
            let members: BTreeSet<AdId> = ids.iter().copied().collect();
            let listed: Vec<String> = members.iter().map(|ad| ad.to_string()).collect();
            let listed = listed.join(",");
            prop_assert_eq!(AdSet::only(ids.clone()).to_string(), format!("{{{listed}}}"));
            prop_assert_eq!(AdSet::except(ids.clone()).to_string(), format!("!{{{listed}}}"));
            prop_assert_eq!(AdSet::only(ids).encoded_size(), 1 + 4 * members.len());
        }

        /// An empty-set check is consistent with membership.
        #[test]
        fn emptiness_consistent(a in arb_adset()) {
            if a.is_empty_set() {
                for x in 0..25u32 {
                    prop_assert!(!a.contains(AdId(x)));
                }
            }
        }

        /// `evaluate` and `evaluate_with_term` always agree on the verdict,
        /// and any cited PT really is the first matching term.
        #[test]
        fn evaluate_consistency(seed in 0u64..500, nterms in 0usize..5) {
            use rand::rngs::SmallRng;
            use rand::{Rng, SeedableRng};
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut p = TransitPolicy::permit_all(AdId(9));
            for _ in 0..nterms {
                let cond = match rng.gen_range(0..3) {
                    0 => PolicyCondition::SrcIn(AdSet::only(
                        (0..rng.gen_range(0..4)).map(|_| AdId(rng.gen_range(0..6))))),
                    1 => PolicyCondition::QosIn(vec![QosClass(rng.gen_range(0..3))]),
                    _ => PolicyCondition::PrevIn(AdSet::only(
                        (0..rng.gen_range(0..4)).map(|_| AdId(rng.gen_range(0..6))))),
                };
                let action = if rng.gen_bool(0.5) {
                    PolicyAction::Deny
                } else {
                    PolicyAction::Permit { cost: rng.gen_range(0..9) }
                };
                p.push_term(vec![cond], action);
            }
            let flow = FlowSpec::best_effort(AdId(rng.gen_range(0..6)), AdId(rng.gen_range(0..6)))
                .with_qos(QosClass(rng.gen_range(0..3)));
            let prev = Some(AdId(rng.gen_range(0..6)));
            let next = Some(AdId(rng.gen_range(0..6)));
            let v1 = p.evaluate(&flow, prev, next);
            let (v2, cited) = p.evaluate_with_term(&flow, prev, next);
            prop_assert_eq!(v1, v2);
            if let Some(pt) = cited {
                let first = p.terms.iter().find(|t| t.matches(&flow, prev, next)).unwrap();
                prop_assert_eq!(first.id, pt);
            } else {
                prop_assert!(p.terms.iter().all(|t| !t.matches(&flow, prev, next)));
            }
        }

        /// A fixed flow verdict is what `evaluate` answers for every
        /// previous and next AD, none included, under terms of all seven
        /// condition kinds, flow conditions mixed with neighbour ones.
        #[test]
        fn flow_verdict_is_exact(seed in 0u64..100_000, nterms in 0usize..6) {
            use rand::rngs::SmallRng;
            use rand::{Rng, SeedableRng};
            const UNIVERSE: u32 = 6;
            let mut rng = SmallRng::seed_from_u64(seed);
            let set = |rng: &mut SmallRng| match rng.gen_range(0..4) {
                0 => AdSet::Any,
                1 => AdSet::except((0..rng.gen_range(0..3)).map(|_| AdId(rng.gen_range(0..UNIVERSE)))),
                _ => AdSet::only((0..rng.gen_range(0..4)).map(|_| AdId(rng.gen_range(0..UNIVERSE)))),
            };
            let hour = |rng: &mut SmallRng| TimeOfDay::hm(rng.gen_range(0..24), 0);
            let mut p = TransitPolicy::permit_all(AdId(UNIVERSE - 1));
            if rng.gen_bool(0.3) {
                p.default = PolicyAction::Deny;
            }
            for _ in 0..nterms {
                let conds = (0..rng.gen_range(0..4))
                    .map(|_| match rng.gen_range(0..7) {
                        0 => PolicyCondition::SrcIn(set(&mut rng)),
                        1 => PolicyCondition::DstIn(set(&mut rng)),
                        2 => PolicyCondition::PrevIn(set(&mut rng)),
                        3 => PolicyCondition::NextIn(set(&mut rng)),
                        4 => PolicyCondition::QosIn(vec![QosClass(rng.gen_range(0..3))]),
                        5 => PolicyCondition::UciIn(vec![UserClass(rng.gen_range(0..3))]),
                        _ => PolicyCondition::TimeWindow(hour(&mut rng), hour(&mut rng)),
                    })
                    .collect();
                let action = if rng.gen_bool(0.5) {
                    PolicyAction::Deny
                } else {
                    PolicyAction::Permit { cost: rng.gen_range(0..9) }
                };
                p.push_term(conds, action);
            }
            let flow = FlowSpec::best_effort(
                AdId(rng.gen_range(0..UNIVERSE)),
                AdId(rng.gen_range(0..UNIVERSE)),
            )
            .with_qos(QosClass(rng.gen_range(0..3)))
            .with_uci(UserClass(rng.gen_range(0..3)))
            .at(TimeOfDay::hm(rng.gen_range(0..24), rng.gen_range(0..60)));
            if let FlowVerdict::Fixed(v) = p.flow_verdict(&flow) {
                let hops = || std::iter::once(None).chain((0..UNIVERSE).map(|a| Some(AdId(a))));
                for prev in hops() {
                    for next in hops() {
                        prop_assert_eq!(p.evaluate(&flow, prev, next), v, "{:?} -> {:?}", prev, next);
                    }
                }
            }
        }
    }
}
