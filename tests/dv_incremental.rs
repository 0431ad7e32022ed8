//! Naive DV and ECMA send one shared table per advertisement and
//! re-select only the destinations an update or a link event touched;
//! this battery checks that neither changed anything a router stores,
//! sends or logs. The oracle is computed here, the slow way the routers
//! used to: the deleted full-table protocols, which rebuilt a dense vector
//! from every update, re-selected every destination over every neighbor
//! on every event and built each neighbor its own table. Library and
//! oracle run side by side on the same engine inputs — ring, grid and
//! 15-AD internets, each configuration the experiments use, clean and
//! lossy channels, cold start, a link flap, a router crash and restart —
//! and must agree on the work ledger (`Stats::to_json`), the JSONL event
//! log and every router's FIB at every quiescence.
//!
//! Two wire conditions no honest run produces are fed to both sides
//! alike: updates garbled on receipt (short and long tables, metrics past
//! infinity, destinations and classes out of range, entries out of order
//! and duplicated), and a neighbor's last update heard again just after
//! its link went down — a late delivery, which the receiver must ignore
//! until the link comes back and then count at once.

use std::fmt::Debug;

use adroute::policy::AdSet;
use adroute::protocols::ecma::{Ecma, EcmaEntry, EcmaUpdate};
use adroute::protocols::naive_dv::{DvUpdate, NaiveDv};
use adroute::sim::{Counter, Ctx, EventRecord, MisbehaviorModel, MisbehaviorSpec, Protocol};
use adroute::topology::{generate, AdId, LinkId, LinkKind, Topology};
use proptest::prelude::*;

mod common;
use common::{small_internet, twin, Case};

// ---------------------------------------------------------------------
// The oracle: the deleted full-table protocols, on the library's
// configuration values.
// ---------------------------------------------------------------------

/// The deleted naive DV.
#[derive(Clone, Debug)]
struct FullDv(NaiveDv);

/// Its update: `(destination, metric)` pairs, built per neighbor.
#[derive(Clone, Debug)]
struct FullDvUpdate {
    entries: Vec<(AdId, u32)>,
}

#[derive(Clone, Debug)]
struct FullDvRouter {
    me: AdId,
    metric: Vec<u32>,
    next_hop: Vec<Option<AdId>>,
    adv_in: Vec<Option<Vec<u32>>>,
}

impl FullDv {
    fn peers(&self, ctx: &Ctx<'_, FullDvUpdate>) -> Vec<(AdId, LinkId)> {
        ctx.neighbors()
            .into_iter()
            .filter(|&(_, l)| {
                !self.0.hierarchical_only || ctx.link_kind(l) == LinkKind::Hierarchical
            })
            .collect()
    }

    fn recompute(&self, r: &mut FullDvRouter, ctx: &Ctx<'_, FullDvUpdate>) -> bool {
        let inf = self.0.infinity;
        let mut changed = false;
        let neighbors: Vec<(AdId, LinkId, usize)> = self
            .peers(ctx)
            .into_iter()
            .filter_map(|(nbr, link)| ctx.neighbor_slot(nbr).map(|slot| (nbr, link, slot)))
            .collect();
        for dest in 0..r.metric.len() {
            let (mut best, mut hop) = if dest == r.me.index() {
                (0u32, None)
            } else {
                (inf, None)
            };
            if dest != r.me.index() {
                for &(nbr, link, slot) in &neighbors {
                    if let Some(v) = &r.adv_in[slot] {
                        let m = v[dest].saturating_add(ctx.link_metric(link)).min(inf);
                        if m < best || (m == best && hop.is_some_and(|h| nbr < h)) {
                            best = m;
                            hop = Some(nbr);
                        }
                    }
                }
            }
            if r.metric[dest] != best || r.next_hop[dest] != hop {
                r.metric[dest] = best;
                r.next_hop[dest] = if best >= inf { None } else { hop };
                changed = true;
            }
        }
        changed
    }

    fn advertise(&self, r: &FullDvRouter, ctx: &mut Ctx<'_, FullDvUpdate>) {
        let falsify =
            self.0.misbehavior.model_of(r.me) == Some(MisbehaviorModel::DistanceFalsification);
        for (nbr, _) in self.peers(ctx) {
            let entries = r
                .metric
                .iter()
                .enumerate()
                .map(|(dest, &m)| {
                    if falsify && dest != r.me.index() {
                        return (AdId(dest as u32), 1);
                    }
                    let poisoned = self.0.split_horizon
                        && r.next_hop[dest] == Some(nbr)
                        && dest != r.me.index();
                    (
                        AdId(dest as u32),
                        if poisoned { self.0.infinity } else { m },
                    )
                })
                .collect();
            ctx.send(nbr, FullDvUpdate { entries });
        }
    }
}

impl Protocol for FullDv {
    type Router = FullDvRouter;
    type Msg = FullDvUpdate;

    fn make_router(&self, topo: &Topology, ad: AdId) -> FullDvRouter {
        let n = topo.num_ads();
        let mut metric = vec![self.0.infinity; n];
        metric[ad.index()] = 0;
        FullDvRouter {
            me: ad,
            metric,
            next_hop: vec![None; n],
            adv_in: vec![None; topo.full_degree(ad)],
        }
    }

    fn on_start(&self, r: &mut FullDvRouter, ctx: &mut Ctx<'_, FullDvUpdate>) {
        self.advertise(r, ctx);
    }

    fn on_message(
        &self,
        r: &mut FullDvRouter,
        ctx: &mut Ctx<'_, FullDvUpdate>,
        from: AdId,
        link: LinkId,
        msg: FullDvUpdate,
    ) {
        if self.0.hierarchical_only && ctx.link_kind(link) != LinkKind::Hierarchical {
            return;
        }
        let mut v = vec![self.0.infinity; r.metric.len()];
        for (dest, m) in msg.entries {
            if let Some(slot) = v.get_mut(dest.index()) {
                *slot = m.min(self.0.infinity);
            }
        }
        if let Some(slot) = ctx.neighbor_slot(from) {
            r.adv_in[slot] = Some(v);
        }
        ctx.count(Counter::DvRecompute, 1);
        let changed = self.recompute(r, ctx);
        ctx.emit(EventRecord::RouteRecompute {
            ad: ctx.me(),
            proto: "dv",
            changed,
        });
        if changed {
            self.advertise(r, ctx);
        }
    }

    fn on_link_event(
        &self,
        r: &mut FullDvRouter,
        ctx: &mut Ctx<'_, FullDvUpdate>,
        _link: LinkId,
        neighbor: AdId,
        up: bool,
    ) {
        if !up {
            if let Some(slot) = ctx.neighbor_slot(neighbor) {
                r.adv_in[slot] = None;
            }
        }
        ctx.count(Counter::DvRecompute, 1);
        let changed = self.recompute(r, ctx);
        ctx.emit(EventRecord::RouteRecompute {
            ad: ctx.me(),
            proto: "dv",
            changed,
        });
        if changed || up {
            self.advertise(r, ctx);
        }
    }

    fn msg_size(&self, msg: &FullDvUpdate) -> usize {
        4 + 8 * msg.entries.len()
    }
}

/// The deleted ECMA.
#[derive(Clone, Debug)]
struct FullEcma(Ecma);

/// Its update: the sparse entry list, cloned per neighbor.
#[derive(Clone, Debug)]
struct FullEcmaUpdate {
    entries: Vec<(AdId, u8, u32, u32)>,
}

#[derive(Clone, Debug)]
struct FullEcmaRouter {
    me: AdId,
    num_ads: usize,
    table: Vec<EcmaEntry>,
    adv_in: Vec<Option<Vec<(u32, u32)>>>,
}

impl FullEcma {
    fn unreachable(&self) -> EcmaEntry {
        EcmaEntry {
            any: (self.0.infinity, None),
            alldown: (self.0.infinity, None),
        }
    }

    fn hop_is_up(&self, from: AdId, to: AdId) -> bool {
        let (rf, rt) = (self.0.ranks[from.index()], self.0.ranks[to.index()]);
        rt > rf || (rt == rf && to > from)
    }

    fn supports(&self, ad: AdId, qos: u8) -> bool {
        qos == 0
            || self.0.ad_config[ad.index()]
                .supported_qos
                .iter()
                .any(|q| q.0 == qos)
    }

    fn recompute(&self, r: &mut FullEcmaRouter, ctx: &Ctx<'_, FullEcmaUpdate>) -> bool {
        let inf = self.0.infinity;
        let mut changed = false;
        let neighbors: Vec<(AdId, LinkId, usize)> = ctx
            .neighbors()
            .into_iter()
            .filter_map(|(nbr, link)| ctx.neighbor_slot(nbr).map(|s| (nbr, link, s)))
            .collect();
        let nq = self.0.qos_classes as usize;
        for dest_i in 0..r.num_ads {
            for qos in 0..nq {
                let slot = dest_i * nq + qos;
                let mut best = self.unreachable();
                if dest_i == r.me.index() {
                    best = EcmaEntry {
                        any: (0, None),
                        alldown: (0, None),
                    };
                } else {
                    for &(nbr, link, nslot) in &neighbors {
                        let Some(v) = &r.adv_in[nslot] else {
                            continue;
                        };
                        let adv = v[slot];
                        let w = ctx.link_metric(link);
                        if self.hop_is_up(r.me, nbr) {
                            let m = adv.0.saturating_add(w).min(inf);
                            if m < best.any.0 {
                                best.any = (m, Some(nbr));
                            }
                        } else {
                            let m = adv.1.saturating_add(w).min(inf);
                            if m < best.any.0 {
                                best.any = (m, Some(nbr));
                            }
                            if m < best.alldown.0 {
                                best.alldown = (m, Some(nbr));
                            }
                        }
                    }
                }
                if r.table[slot] != best {
                    r.table[slot] = best;
                    changed = true;
                }
            }
        }
        changed
    }

    fn advertise(&self, r: &FullEcmaRouter, ctx: &mut Ctx<'_, FullEcmaUpdate>) {
        let cfg = &self.0.ad_config[r.me.index()];
        let nq = self.0.qos_classes as usize;
        let mut entries = Vec::new();
        for dest_i in 0..r.num_ads {
            let dest = AdId(dest_i as u32);
            let is_self = dest == r.me;
            if !is_self {
                if cfg.no_transit {
                    continue;
                }
                if let Some(filter) = &cfg.transit_dests {
                    if !filter.contains(dest) {
                        continue;
                    }
                }
            }
            for qos in 0..nq as u8 {
                if !is_self && !self.supports(r.me, qos) {
                    continue;
                }
                let e = &r.table[dest_i * nq + qos as usize];
                if e.any.0 < self.0.infinity || e.alldown.0 < self.0.infinity {
                    let alldown = if self.0.misbehavior.model_of(r.me)
                        == Some(MisbehaviorModel::UpDownViolation)
                    {
                        e.any.0
                    } else {
                        e.alldown.0
                    };
                    entries.push((dest, qos, e.any.0, alldown));
                }
            }
        }
        for (nbr, _) in ctx.neighbors() {
            ctx.send(
                nbr,
                FullEcmaUpdate {
                    entries: entries.clone(),
                },
            );
        }
    }
}

impl Protocol for FullEcma {
    type Router = FullEcmaRouter;
    type Msg = FullEcmaUpdate;

    fn make_router(&self, topo: &Topology, ad: AdId) -> FullEcmaRouter {
        let n = topo.num_ads();
        let nq = self.0.qos_classes as usize;
        let mut table = vec![self.unreachable(); n * nq];
        for q in 0..nq {
            table[ad.index() * nq + q] = EcmaEntry {
                any: (0, None),
                alldown: (0, None),
            };
        }
        FullEcmaRouter {
            me: ad,
            num_ads: n,
            table,
            adv_in: vec![None; topo.full_degree(ad)],
        }
    }

    fn on_start(&self, r: &mut FullEcmaRouter, ctx: &mut Ctx<'_, FullEcmaUpdate>) {
        self.advertise(r, ctx);
    }

    fn on_message(
        &self,
        r: &mut FullEcmaRouter,
        ctx: &mut Ctx<'_, FullEcmaUpdate>,
        from: AdId,
        _link: LinkId,
        msg: FullEcmaUpdate,
    ) {
        let inf = self.0.infinity;
        let nq = self.0.qos_classes as usize;
        let mut v = vec![(inf, inf); r.num_ads * nq];
        for (dest, qos, any, alldown) in msg.entries {
            if (qos as usize) < nq && dest.index() < r.num_ads {
                v[dest.index() * nq + qos as usize] = (any.min(inf), alldown.min(inf));
            }
        }
        if let Some(slot) = ctx.neighbor_slot(from) {
            r.adv_in[slot] = Some(v);
        }
        ctx.count(Counter::EcmaRecompute, 1);
        let changed = self.recompute(r, ctx);
        ctx.emit(EventRecord::RouteRecompute {
            ad: ctx.me(),
            proto: "ecma",
            changed,
        });
        if changed {
            self.advertise(r, ctx);
        }
    }

    fn on_link_event(
        &self,
        r: &mut FullEcmaRouter,
        ctx: &mut Ctx<'_, FullEcmaUpdate>,
        _link: LinkId,
        neighbor: AdId,
        up: bool,
    ) {
        if !up {
            if let Some(slot) = ctx.neighbor_slot(neighbor) {
                r.adv_in[slot] = None;
            }
        }
        ctx.count(Counter::EcmaRecompute, 1);
        let changed = self.recompute(r, ctx);
        ctx.emit(EventRecord::RouteRecompute {
            ad: ctx.me(),
            proto: "ecma",
            changed,
        });
        if changed || up {
            self.advertise(r, ctx);
        }
    }

    fn msg_size(&self, msg: &FullEcmaUpdate) -> usize {
        4 + 13 * msg.entries.len()
    }
}

// ---------------------------------------------------------------------
// What the battery compares, and how it reaches into an update.
// ---------------------------------------------------------------------

/// A router's forwarding state, in a form library and oracle share.
trait Fib: Protocol {
    type Fib: PartialEq + Debug;
    fn fib(r: &Self::Router) -> Self::Fib;
}

impl Fib for NaiveDv {
    type Fib = (Vec<u32>, Vec<Option<AdId>>);
    fn fib(r: &Self::Router) -> Self::Fib {
        (r.metric.clone(), r.next_hop.clone())
    }
}

impl Fib for FullDv {
    type Fib = (Vec<u32>, Vec<Option<AdId>>);
    fn fib(r: &Self::Router) -> Self::Fib {
        (r.metric.clone(), r.next_hop.clone())
    }
}

impl Fib for Ecma {
    type Fib = Vec<EcmaEntry>;
    fn fib(r: &Self::Router) -> Self::Fib {
        r.table.clone()
    }
}

impl Fib for FullEcma {
    type Fib = Vec<EcmaEntry>;
    fn fib(r: &Self::Router) -> Self::Fib {
        r.table.clone()
    }
}

/// An update as the entries it carries, and back. The library's and the
/// oracle's update of one protocol carry the same entries: a naive-DV
/// table is its metrics in destination order, an ECMA update its
/// `(dest, qos, any, alldown)` list.
trait Wire: Clone {
    type Entry: Garble;
    fn read(&self) -> Vec<Self::Entry>;
    fn make(entries: Vec<Self::Entry>) -> Self;
}

impl Wire for DvUpdate {
    type Entry = u32;
    fn read(&self) -> Vec<u32> {
        self.metrics.to_vec()
    }
    fn make(entries: Vec<u32>) -> DvUpdate {
        DvUpdate {
            metrics: entries.into(),
        }
    }
}

impl Wire for FullDvUpdate {
    type Entry = u32;
    fn read(&self) -> Vec<u32> {
        self.entries.iter().map(|&(_, m)| m).collect()
    }
    fn make(entries: Vec<u32>) -> FullDvUpdate {
        FullDvUpdate {
            entries: (0..).map(AdId).zip(entries).collect(),
        }
    }
}

type EcmaAdvert = (AdId, u8, u32, u32);

impl Wire for EcmaUpdate {
    type Entry = EcmaAdvert;
    fn read(&self) -> Vec<EcmaAdvert> {
        self.entries.to_vec()
    }
    fn make(entries: Vec<EcmaAdvert>) -> EcmaUpdate {
        EcmaUpdate {
            entries: entries.into(),
        }
    }
}

impl Wire for FullEcmaUpdate {
    type Entry = EcmaAdvert;
    fn read(&self) -> Vec<EcmaAdvert> {
        self.entries.clone()
    }
    fn make(entries: Vec<EcmaAdvert>) -> FullEcmaUpdate {
        FullEcmaUpdate { entries }
    }
}

/// One named wire fault, fixed per link direction (so a garbled run still
/// quiesces): how a buggy sender's update reads on receipt.
trait Garble: Clone + Sized {
    /// The faults, by name; `fault` picks one, `h` its details.
    const FAULTS: &'static [&'static str];
    fn garble(entries: Vec<Self>, fault: usize, h: u64, num_ads: usize) -> Vec<Self>;
}

impl Garble for u32 {
    const FAULTS: &'static [&'static str] = &["short table", "long table", "past infinity"];
    fn garble(mut table: Vec<u32>, fault: usize, h: u64, num_ads: usize) -> Vec<u32> {
        match fault {
            // The tail reads as unreachable.
            0 => table.truncate(num_ads - 1 - (h % (num_ads as u64 / 2)) as usize),
            // Entries past the last destination are ignored.
            1 => table.extend((0..1 + h % 4).map(|i| i as u32)),
            // A metric past infinity is unreachable.
            _ => table[h as usize % num_ads] = u32::MAX - (h % 2) as u32,
        }
        table
    }
}

impl Garble for EcmaAdvert {
    const FAULTS: &'static [&'static str] = &[
        "out of range",
        "out of order",
        "duplicated",
        "duplicated out of order",
    ];
    fn garble(mut entries: Vec<EcmaAdvert>, fault: usize, h: u64, num_ads: usize) -> Vec<Self> {
        let dest = AdId((h % num_ads as u64) as u32);
        let pos = entries.iter().position(|e| e.0 == dest);
        match fault {
            // A destination past the last AD and a class past the last
            // class, both ignored.
            0 => {
                let past = AdId(num_ads as u32 + (h % 3) as u32);
                entries.insert(0, (past, 0, 1, 1));
                entries.push((dest, 200, 0, 0));
            }
            1 => {
                let len = entries.len().max(1);
                entries.rotate_left(h as usize % len);
                entries.reverse();
            }
            // An earlier duplicate the original overrides, then a later,
            // costlier one that overrides the original; reversed, the
            // roles swap and the zero-metric copy wins.
            _ => {
                if let Some(pos) = pos {
                    let (d, q, any, down) = entries[pos];
                    entries.insert(0, (d, q, 0, 0));
                    entries.push((d, q, any.saturating_add(3), down.saturating_add(3)));
                }
                if fault == 3 {
                    entries.reverse();
                }
            }
        }
        entries
    }
}

/// A 64-bit mix of a few words (SplitMix64's finaliser).
fn mix(words: &[u64]) -> u64 {
    words.iter().fold(0x9E37_79B9_7F4A_7C15, |acc, &w| {
        let mut z = (acc ^ w).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    })
}

/// Garble every update on receipt: `(seed, fault)`; the fault `None`
/// draws one per link direction.
type Garbling = Option<(u64, Option<usize>)>;

/// The same protocol (library or oracle) with the battery's wire
/// conditions around it.
#[derive(Clone, Debug)]
struct Harness<P> {
    inner: P,
    num_ads: usize,
    garble: Garbling,
    /// Re-deliver a neighbor's last update just after its link goes down.
    late: bool,
}

/// A router, plus the last update it heard per adjacency slot.
struct HarnessRouter<R, M> {
    inner: R,
    last: Vec<Option<M>>,
}

impl<P> Protocol for Harness<P>
where
    P: Protocol,
    P::Msg: Wire,
{
    type Router = HarnessRouter<P::Router, P::Msg>;
    type Msg = P::Msg;

    fn make_router(&self, topo: &Topology, ad: AdId) -> Self::Router {
        HarnessRouter {
            inner: self.inner.make_router(topo, ad),
            last: vec![None; topo.full_degree(ad)],
        }
    }

    fn on_start(&self, r: &mut Self::Router, ctx: &mut Ctx<'_, P::Msg>) {
        self.inner.on_start(&mut r.inner, ctx);
    }

    fn on_message(
        &self,
        r: &mut Self::Router,
        ctx: &mut Ctx<'_, P::Msg>,
        from: AdId,
        link: LinkId,
        msg: P::Msg,
    ) {
        let msg = match self.garble {
            Some((seed, fault)) => {
                let h = mix(&[seed, from.0 as u64, ctx.me().0 as u64]);
                let faults = <<P::Msg as Wire>::Entry as Garble>::FAULTS.len();
                let fault = fault.unwrap_or(h as usize % faults);
                P::Msg::make(Garble::garble(msg.read(), fault, h >> 8, self.num_ads))
            }
            None => msg,
        };
        if let Some(slot) = ctx.neighbor_slot(from) {
            r.last[slot] = Some(msg.clone());
        }
        self.inner.on_message(&mut r.inner, ctx, from, link, msg);
    }

    fn on_link_event(
        &self,
        r: &mut Self::Router,
        ctx: &mut Ctx<'_, P::Msg>,
        link: LinkId,
        neighbor: AdId,
        up: bool,
    ) {
        self.inner
            .on_link_event(&mut r.inner, ctx, link, neighbor, up);
        let late = ctx.neighbor_slot(neighbor).and_then(|s| r.last[s].clone());
        if let Some(msg) = late.filter(|_| self.late && !up) {
            self.inner
                .on_message(&mut r.inner, ctx, neighbor, link, msg);
        }
    }

    fn msg_size(&self, msg: &P::Msg) -> usize {
        self.inner.msg_size(msg)
    }
}

/// Runs library `lib` and oracle `full` through `case`'s script, both
/// under the same wire conditions, and compares every live router's FIB
/// after every step (the ledgers and logs [`twin`] compares itself).
fn lockstep<A, B>(
    topo: &Topology,
    lib: A,
    full: B,
    case: Case,
    garble: Garbling,
    late: bool,
) -> Result<(), TestCaseError>
where
    A: Fib,
    B: Fib<Fib = A::Fib>,
    A::Msg: Wire,
    B::Msg: Wire<Entry = <A::Msg as Wire>::Entry>,
{
    let num_ads = topo.num_ads();
    let a = case.engine(
        topo,
        Harness {
            inner: lib,
            num_ads,
            garble,
            late,
        },
    );
    let b = case.engine(
        topo,
        Harness {
            inner: full,
            num_ads,
            garble,
            late,
        },
    );
    twin(a, b, &case.script(), |a, b, step| {
        for ad in topo.ad_ids() {
            prop_assert_eq!(a.router_is_up(ad), b.router_is_up(ad));
            if a.router_is_up(ad) {
                let (fa, fb) = (A::fib(&a.router(ad).inner), B::fib(&b.router(ad).inner));
                prop_assert_eq!(
                    &fa,
                    &fb,
                    "{}'s FIB differs after {:?}:\n  library: {:?}\n  oracle:  {:?}",
                    ad,
                    step,
                    fa,
                    fb
                );
            }
        }
        Ok(())
    })
}

/// The battery's internets: a ring, a grid, a 15-AD hierarchy.
fn internet(kind: u8, seed: u64) -> Topology {
    match kind % 3 {
        0 => generate::ring(4 + (seed % 6) as usize),
        1 => generate::grid(2 + (seed % 2) as usize, 3 + (seed % 3) as usize),
        _ => small_internet(seed % 8),
    }
}

/// Naive DV as the experiments configure it: default, split horizon,
/// EGP, one distance falsifier, one blackholer.
fn dv_config(config: u8, topo: &Topology, seed: u64) -> NaiveDv {
    let rogue = AdId((seed % topo.num_ads() as u64) as u32);
    match config % 5 {
        0 => NaiveDv::default(),
        1 => NaiveDv {
            infinity: 16,
            split_horizon: true,
            ..NaiveDv::default()
        },
        2 => NaiveDv::egp(),
        3 => NaiveDv {
            misbehavior: MisbehaviorSpec::single(rogue, MisbehaviorModel::DistanceFalsification),
            ..NaiveDv::default()
        },
        _ => NaiveDv {
            misbehavior: MisbehaviorSpec::single(rogue, MisbehaviorModel::Blackhole),
            ..NaiveDv::default()
        },
    }
}

/// ECMA as the experiments configure it: the hierarchy's ordering, three
/// QOS classes half-supported, destination filters at a third of the ADs,
/// one up/down violator (under a small infinity). On a ring or grid
/// (every AD a campus) every AD offers transit, or nothing would be
/// routed.
fn ecma_config(config: u8, topo: &Topology, seed: u64, transit_everywhere: bool) -> Ecma {
    let mut ecma = match config % 4 {
        1 => Ecma::hierarchical_with_qos(topo, 3, 0.5, seed),
        _ => Ecma::hierarchical(topo),
    };
    if transit_everywhere {
        for cfg in &mut ecma.ad_config {
            cfg.no_transit = false;
        }
    }
    let n = topo.num_ads() as u64;
    match config % 4 {
        2 => {
            for (ad, cfg) in ecma.ad_config.iter_mut().enumerate() {
                if (ad as u64 + seed).is_multiple_of(3) {
                    let dests = topo
                        .ad_ids()
                        .filter(|d| (d.0 as u64 + seed).is_multiple_of(2));
                    cfg.transit_dests = Some(AdSet::only(dests));
                }
            }
        }
        3 => {
            let rogue = AdId((seed % n) as u32);
            ecma.misbehavior = MisbehaviorSpec::single(rogue, MisbehaviorModel::UpDownViolation);
            // The violator's loops count to infinity once a router dies;
            // a small bound keeps that count short.
            ecma.infinity = 64;
        }
        _ => {}
    }
    ecma
}

proptest! {
    /// Naive DV, every configuration, every wire condition: the library
    /// is the oracle, update for update.
    #[test]
    fn naive_dv_is_the_full_table_protocol(
        kind in 0u8..3,
        seed in 0u64..400,
        config in 0u8..5,
        lossy in 0u8..2,
        garbled in 0u8..2,
        late in 0u8..2,
    ) {
        let topo = internet(kind, seed);
        let dv = dv_config(config, &topo, seed);
        let case = Case { lossy: (lossy == 1).then_some(seed), ..Case::clean(&topo, seed) };
        let garble = (garbled == 1).then_some((seed, None));
        lockstep(&topo, dv.clone(), FullDv(dv), case, garble, late == 1)?;
    }

    /// ECMA, every configuration, every wire condition: the library is
    /// the oracle, update for update.
    #[test]
    fn ecma_is_the_full_table_protocol(
        kind in 0u8..3,
        seed in 0u64..400,
        config in 0u8..4,
        lossy in 0u8..2,
        garbled in 0u8..2,
        late in 0u8..2,
    ) {
        let topo = internet(kind, seed);
        let ecma = ecma_config(config, &topo, seed, kind % 3 != 2);
        let case = Case { lossy: (lossy == 1).then_some(seed), ..Case::clean(&topo, seed) };
        let garble = (garbled == 1).then_some((seed, None));
        lockstep(&topo, ecma.clone(), FullEcma(ecma), case, garble, late == 1)?;
    }
}

/// Each malformed-update case on its own, on the 15-AD internets, every
/// update garbled the same way: the library never panics and reads the
/// update exactly as the parent's dense rebuild did.
#[test]
fn malformed_updates_mean_what_they_meant() {
    for seed in 0..8 {
        let topo = small_internet(seed);
        let case = Case::clean(&topo, seed);
        for (fault, name) in <u32 as Garble>::FAULTS.iter().enumerate() {
            let dv = dv_config(seed as u8, &topo, seed);
            let garble = Some((seed, Some(fault)));
            lockstep(&topo, dv.clone(), FullDv(dv), case, garble, false)
                .unwrap_or_else(|e| panic!("naive DV, {name}: {e}"));
        }
        for (fault, name) in <EcmaAdvert as Garble>::FAULTS.iter().enumerate() {
            let ecma = ecma_config(seed as u8, &topo, seed, false);
            let garble = Some((seed, Some(fault)));
            lockstep(&topo, ecma.clone(), FullEcma(ecma), case, garble, false)
                .unwrap_or_else(|e| panic!("ECMA, {name}: {e}"));
        }
    }
}
