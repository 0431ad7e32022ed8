//! IDRP re-selects and re-exports only what an update touched, and shares
//! paths and scopes by handle; this battery checks that neither changed
//! anything a router stores or sends. The oracle is computed here, the
//! slow way the routers used to — the bodies `protocols::path_vector`
//! deleted, on owned routes: at every quiescence, every router's loc-RIB
//! must be the from-scratch best-per-`(dest, attrs)` selection over the
//! tables it stores, and on a clean channel the table `v` stores from `u`
//! must be the from-scratch export of `u`'s loc-RIB toward `v` with `u`
//! prepended — through link flaps, a router crash and restart, a route
//! leaker, batched and immediate advertisement. On a lossy channel a
//! stored table may be any update the neighbor ever sent, so the export
//! side is checked once the channel is clean and every router has
//! re-advertised.

use std::collections::BTreeMap;

use adroute::policy::{
    AdSet, PolicyAction, PolicyCondition, QosClass, TimeOfDay, TransitPolicy, UserClass,
};
use adroute::protocols::path_vector::{PathVector, PvRoute};
use adroute::sim::{Engine, MisbehaviorModel, MisbehaviorSpec};
use adroute::topology::{AdId, LinkId, Topology};
use proptest::prelude::*;

mod common;
use common::{random_policies, small_internet, small_topo, take, Case, Step};

/// A route as the routers used to hold it: everything owned.
#[derive(Clone, PartialEq, Eq, Debug)]
struct OwnedRoute {
    dest: AdId,
    path: Vec<AdId>,
    attrs: OwnedAttrs,
    cost: u32,
}

#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct OwnedAttrs {
    qos: Option<QosClass>,
    uci: Option<UserClass>,
    scope: AdSet,
}

impl From<&PvRoute> for OwnedRoute {
    fn from(r: &PvRoute) -> OwnedRoute {
        OwnedRoute {
            dest: r.dest,
            path: r.path.to_vec(),
            attrs: OwnedAttrs {
                qos: r.attrs.qos,
                uci: r.attrs.uci,
                scope: (*r.attrs.scope).clone(),
            },
            cost: r.cost,
        }
    }
}

fn owned(routes: &[PvRoute]) -> Vec<OwnedRoute> {
    routes.iter().map(OwnedRoute::from).collect()
}

/// The deleted `recompute`: every candidate of every up neighbor's table
/// cloned into a `BTreeMap` keyed on `(dest, attrs)`.
fn reference_selection(
    topo: &Topology,
    me: AdId,
    adj_in: &[Option<Vec<PvRoute>>],
) -> Vec<OwnedRoute> {
    let mut best: BTreeMap<(AdId, OwnedAttrs), OwnedRoute> = BTreeMap::new();
    for (nbr, link) in topo.neighbors(me) {
        let slot = topo.neighbor_slot(me, nbr).unwrap();
        let Some(routes) = adj_in[slot].as_ref() else {
            continue; // nothing heard from this neighbor yet
        };
        let w = topo.link(link).metric;
        for route in routes {
            if route.path.contains(&me) {
                continue; // loop avoidance via full path information
            }
            let mut cand = OwnedRoute::from(route);
            cand.cost = cand.cost.saturating_add(w);
            let key = (cand.dest, cand.attrs.clone());
            match best.get(&key) {
                Some(cur)
                    if (cur.cost, cur.path.len(), &cur.path)
                        <= (cand.cost, cand.path.len(), &cand.path) => {}
                _ => {
                    best.insert(key, cand);
                }
            }
        }
    }
    best.into_values().collect()
}

struct Offering {
    qos: Option<Vec<QosClass>>,
    uci: Option<Vec<UserClass>>,
    scope: AdSet,
    cost: u32,
}

/// The policy conversion as the deleted `advertise` called it.
fn offerings(
    policy: &TransitPolicy,
    dst: AdId,
    prev: AdId,
    next: AdId,
    time: TimeOfDay,
) -> Vec<Offering> {
    let mut out = Vec::new();
    let mut remaining = AdSet::Any;
    for term in &policy.terms {
        let mut src_cond: Option<&AdSet> = None;
        let mut qos_cond: Option<&Vec<QosClass>> = None;
        let mut uci_cond: Option<&Vec<UserClass>> = None;
        let mut applicable = true;
        for cond in &term.conditions {
            match cond {
                PolicyCondition::SrcIn(s) => src_cond = Some(s),
                PolicyCondition::QosIn(q) => qos_cond = Some(q),
                PolicyCondition::UciIn(u) => uci_cond = Some(u),
                PolicyCondition::DstIn(s) => applicable &= s.contains(dst),
                PolicyCondition::PrevIn(s) => applicable &= s.contains(prev),
                PolicyCondition::NextIn(s) => applicable &= s.contains(next),
                PolicyCondition::TimeWindow(a, b) => applicable &= time.in_window(*a, *b),
            }
        }
        if !applicable {
            continue;
        }
        match term.action {
            PolicyAction::Deny => {
                match src_cond {
                    Some(AdSet::Only(v)) => {
                        remaining = remaining.intersect(&AdSet::Except(v.clone()))
                    }
                    Some(AdSet::Except(v)) => {
                        remaining = remaining.intersect(&AdSet::Only(v.clone()))
                    }
                    Some(AdSet::Any) | None => return out,
                }
                if remaining.is_empty_set() {
                    return out;
                }
            }
            PolicyAction::Permit { cost } => {
                let scope = match src_cond {
                    Some(s) => remaining.intersect(s),
                    None => remaining.clone(),
                };
                if scope.is_empty_set() {
                    continue;
                }
                let unconditional = src_cond.is_none() && qos_cond.is_none() && uci_cond.is_none();
                out.push(Offering {
                    qos: qos_cond.cloned(),
                    uci: uci_cond.cloned(),
                    scope,
                    cost,
                });
                if unconditional {
                    return out;
                }
            }
        }
    }
    if let PolicyAction::Permit { cost } = policy.default {
        if !remaining.is_empty_set() {
            out.push(Offering {
                qos: None,
                uci: None,
                scope: remaining,
                cost,
            });
        }
    }
    out
}

/// The deleted `combine`: one selected route under one offering.
fn combine(route: &OwnedRoute, off: &Offering, scope_attrs: bool) -> Vec<OwnedRoute> {
    let scope = if scope_attrs {
        let s = route.attrs.scope.intersect(&off.scope);
        if s.is_empty_set() {
            return Vec::new();
        }
        s
    } else {
        AdSet::Any
    };
    fn options<T: Copy + PartialEq>(have: Option<T>, offered: &Option<Vec<T>>) -> Vec<Option<T>> {
        match (have, offered) {
            (None, None) => vec![None],
            (Some(c), None) => vec![Some(c)],
            (None, Some(list)) => list.iter().map(|c| Some(*c)).collect(),
            (Some(c), Some(list)) if list.contains(&c) => vec![Some(c)],
            (Some(_), Some(_)) => Vec::new(),
        }
    }
    let mut out = Vec::new();
    for q in options(route.attrs.qos, &off.qos) {
        for u in options(route.attrs.uci, &off.uci) {
            out.push(OwnedRoute {
                dest: route.dest,
                path: route.path.clone(),
                attrs: OwnedAttrs {
                    qos: q,
                    uci: u,
                    scope: scope.clone(),
                },
                cost: route.cost.saturating_add(off.cost),
            });
        }
    }
    out
}

/// The deleted `advertise`, for one neighbor: the whole table derived
/// from the whole loc-RIB — then what importing it at `nbr` stores (the
/// sender prepended, destination-sorted).
fn reference_table(pv: &PathVector, me: AdId, loc_rib: &[PvRoute], nbr: AdId) -> Vec<OwnedRoute> {
    let policy = pv.policies.policy(me);
    let leaking = pv.misbehavior.model_of(me) == Some(MisbehaviorModel::RouteLeak);
    let any = OwnedAttrs {
        qos: None,
        uci: None,
        scope: AdSet::Any,
    };
    let mut routes = vec![OwnedRoute {
        dest: me,
        path: vec![me],
        attrs: any.clone(),
        cost: 0,
    }];
    let mut per_dest: BTreeMap<AdId, Vec<OwnedRoute>> = BTreeMap::new();
    for route in &owned(loc_rib) {
        if route.path.contains(&nbr) {
            continue;
        }
        if leaking {
            per_dest.entry(route.dest).or_default().push(OwnedRoute {
                attrs: any.clone(),
                ..route.clone()
            });
            continue;
        }
        for off in offerings(policy, route.dest, nbr, route.path[0], TimeOfDay::NOON) {
            per_dest
                .entry(route.dest)
                .or_default()
                .extend(combine(route, &off, pv.scope_attrs));
        }
    }
    for (_dest, cands) in per_dest {
        let mut best: BTreeMap<OwnedAttrs, OwnedRoute> = BTreeMap::new();
        for c in cands {
            match best.get(&c.attrs) {
                Some(cur)
                    if (cur.cost, cur.path.len(), &cur.path) <= (c.cost, c.path.len(), &c.path) => {
                }
                _ => {
                    best.insert(c.attrs.clone(), c);
                }
            }
        }
        let mut cands: Vec<OwnedRoute> = best.into_values().collect();
        cands.sort_by(|a, b| {
            (a.cost, a.path.len(), &a.path, &a.attrs).cmp(&(
                b.cost,
                b.path.len(),
                &b.path,
                &b.attrs,
            ))
        });
        cands.truncate(pv.max_routes_per_dest);
        routes.extend(cands);
    }
    for route in &mut routes {
        if route.path.first() != Some(&me) {
            route.path.insert(0, me);
        }
    }
    routes.sort_by_key(|route| route.dest);
    routes
}

/// Every live router against the oracle: its loc-RIB over its own stored
/// tables, and (when `exports`) each stored table against its sender.
fn check(e: &Engine<PathVector>, exports: bool) -> Result<(), TestCaseError> {
    let topo = e.topo();
    for v in topo.ad_ids().filter(|&v| e.router_is_up(v)) {
        let r = e.router(v);
        prop_assert_eq!(
            owned(&r.loc_rib),
            reference_selection(topo, v, r.adj_rib_in()),
            "{}'s loc-RIB is not the selection over its tables",
            v
        );
        let stored: usize = r.adj_rib_in().iter().flatten().map(Vec::len).sum();
        prop_assert_eq!(r.adj_rib_size(), stored);
        if !exports {
            continue;
        }
        for (u, _) in topo.neighbors(v) {
            let table = r.adj_rib_in()[topo.neighbor_slot(v, u).unwrap()].as_deref();
            prop_assert_eq!(
                table.map(owned),
                Some(reference_table(e.protocol(), u, &e.router(u).loc_rib, v)),
                "{} does not hold what {} exports to it",
                v,
                u
            );
        }
    }
    Ok(())
}

proptest! {
    /// Cold start, a link flap, a router crash and restart — the oracle
    /// agrees at every quiescence.
    #[test]
    fn incremental_equals_from_scratch(
        kind in 0u8..4,
        size in 0u8..4,
        seed in 0u64..400,
        lossy in 0u8..2,
        batched in 0u8..2,
        leak in 0u8..2,
    ) {
        let topo = if kind == 3 { small_internet(seed % 8) } else { small_topo(kind, size) };
        let mut pv = PathVector::idrp(random_policies(&topo, seed));
        pv.mrai_us = if batched == 1 { 2_000 } else { 0 };
        if leak == 1 {
            let leaker = AdId((seed % topo.num_ads() as u64) as u32);
            pv.misbehavior = MisbehaviorSpec::single(leaker, MisbehaviorModel::RouteLeak);
        }
        let clean = lossy == 0;
        let case = Case { lossy: (!clean).then_some(seed), ..Case::clean(&topo, seed) };
        let mut e = case.engine(&topo, pv);
        for step in case.script() {
            take(&mut e, step)?;
            check(&e, clean)?;
        }

        if !clean {
            // A clean channel, and every link reported up again: both ends
            // of each re-advertise, so every stored table is current.
            e.set_channel_faults(None);
            for l in 0..topo.num_links() {
                let at = e.now().plus_us(1000);
                e.schedule_link_change(LinkId(l as u32), true, at);
            }
            take(&mut e, Step::Quiesce)?;
            check(&e, true)?;
        }
    }
}
