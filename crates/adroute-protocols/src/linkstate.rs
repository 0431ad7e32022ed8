//! Shared link-state machinery: policy-bearing LSAs, the link-state
//! database, and reliable flooding with duplicate suppression.
//!
//! In both link-state design points (Sections 5.3 and 5.4 of the paper),
//! "link state updates can be augmented to include policy related
//! attributes of the resources they advertise". An [`Lsa`] therefore
//! carries, besides the origin's adjacencies and metrics, the origin's
//! full advertised [`TransitPolicy`] (its Policy Terms) and hierarchy
//! level. Flooding these gives every AD the complete topology *and* policy
//! view from which routes satisfying any set of policy constraints can be
//! computed.
//!
//! A flooded LSA is **one immutable allocation**: the origin builds it
//! once, and every message carrying it, every database slot holding it and
//! every Route-Server view derived from it share that [`Arc<Lsa>`]. Nothing
//! mutates an `Lsa` after origination (a forger builds a new one), so two
//! holders of the same allocation hold the same content — which lets
//! consumers detect "this origin's advertisement changed" by pointer
//! comparison ([`LsDb::slots`]) instead of by content or sequence number.
//!
//! The same identity makes the *derived* state shareable: databases that
//! hold the very same allocations describe the same view, so a
//! [`ViewStore`] reconstructs it once per distinct database (one, at
//! quiescence) and hands every holder the same [`Arc<LsView>`], and
//! remembers each flow's legal route over it so the search runs once per
//! (view, flow) however many routers ask.

use std::collections::HashMap;
use std::sync::Arc;

use adroute_policy::{legality, FlowSpec, PolicyDb, TransitPolicy};
use adroute_sim::{Ctx, EventRecord};
use adroute_topology::{graph::Ad, AdId, AdLevel, AdRole, Topology};

/// A link-state advertisement: one AD's adjacencies plus its Policy Terms.
#[derive(Clone, Debug)]
pub struct Lsa {
    /// Originating AD.
    pub origin: AdId,
    /// Monotonic sequence number; higher supersedes.
    pub seq: u64,
    /// Hierarchy level of the origin (lets receivers reconstruct the
    /// Figure-1 structure for link classification).
    pub level: AdLevel,
    /// Operational adjacencies: `(neighbor, metric, delay_us)`.
    pub links: Vec<(AdId, u32, u64)>,
    /// The origin's advertised transit policy (its PTs).
    pub policy: TransitPolicy,
}

impl Lsa {
    /// Approximate encoded size in bytes.
    pub fn encoded_size(&self) -> usize {
        4 + 8 + 1 + 16 * self.links.len() + self.policy.encoded_size()
    }
}

/// A link-state database: the newest LSA per origin (shared, not
/// copied), plus a version counter consumers use to invalidate derived
/// caches.
#[derive(Clone, Debug)]
pub struct LsDb {
    lsas: Vec<Option<Arc<Lsa>>>,
    version: u64,
}

impl LsDb {
    /// An empty database sized for `num_ads` ADs.
    pub fn new(num_ads: usize) -> LsDb {
        LsDb {
            lsas: vec![None; num_ads],
            version: 0,
        }
    }

    /// Inserts `lsa` if it is newer than the stored one. Returns `true`
    /// if the database changed.
    pub fn insert(&mut self, lsa: Arc<Lsa>) -> bool {
        let slot = &mut self.lsas[lsa.origin.index()];
        let newer = slot.as_ref().is_none_or(|cur| lsa.seq > cur.seq);
        if newer {
            *slot = Some(lsa);
            self.version += 1;
        }
        newer
    }

    /// The stored LSA of `origin`, if any.
    pub fn get(&self, origin: AdId) -> Option<&Lsa> {
        self.lsas[origin.index()].as_deref()
    }

    /// Every origin's slot, indexed by AD. Consumers that derive state
    /// from the database keep the `Arc` they derived it from and compare
    /// pointers ([`Arc::ptr_eq`]) to find the origins that changed since:
    /// an `Lsa` is immutable, so the same allocation is the same content.
    /// Sequence numbers are *not* a sound change detector — a restarted
    /// origin reuses them, and a replayed forgery inflates them.
    pub fn slots(&self) -> &[Option<Arc<Lsa>>] {
        &self.lsas
    }

    /// Whether two slots hold the very same allocation, or the same
    /// absence.
    pub fn same_slot(a: &Option<Arc<Lsa>>, b: &Option<Arc<Lsa>>) -> bool {
        match (a, b) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        }
    }

    /// Whether `other` holds the same slot content throughout
    /// ([`LsDb::same_slot`]) — and therefore describes the same view.
    pub fn shares_all_lsas_with(&self, other: &LsDb) -> bool {
        self.lsas.len() == other.lsas.len()
            && (self.lsas.iter().zip(&other.lsas)).all(|(a, b)| LsDb::same_slot(a, b))
    }

    /// Monotonic change counter (bumps on every accepted insert).
    pub(crate) fn version(&self) -> u64 {
        self.version
    }

    /// Number of LSAs present.
    pub fn num_lsas(&self) -> usize {
        self.lsas.iter().filter(|l| l.is_some()).count()
    }

    /// Number of AD slots (present or not).
    pub fn num_ads(&self) -> usize {
        self.lsas.len()
    }

    /// The position of `nbr` in `origin`'s advertised adjacency list, if
    /// `origin` has an LSA here and it lists `nbr`. A link is part of the
    /// view only when both endpoints advertise each other (bidirectional
    /// confirmation).
    pub fn advertises(&self, origin: AdId, nbr: AdId) -> Option<usize> {
        self.get(origin)?
            .links
            .iter()
            .position(|&(n, _, _)| n == nbr)
    }

    /// Reconstructs the AD-level view this database describes: a
    /// [`Topology`] containing every **bidirectionally confirmed**
    /// operational link, and the [`PolicyDb`] of advertised policies
    /// (ADs with no LSA yet default to deny-all — an unknown AD cannot
    /// be used for transit).
    ///
    /// Route Servers install this once (and again on a structural
    /// change); between those, they derive incremental deltas from the
    /// LSAs that changed ([`LsDb::slots`]) under the same confirmation
    /// rule, rather than rebuilding and comparing whole views.
    pub fn view(&self) -> (Topology, PolicyDb) {
        let n = self.lsas.len();
        let mut ads = Vec::with_capacity(n);
        let mut policies = Vec::with_capacity(n);
        for (i, slot) in self.lsas.iter().enumerate() {
            let id = AdId(i as u32);
            match slot {
                Some(lsa) => {
                    ads.push(Ad {
                        id,
                        level: lsa.level,
                        role: AdRole::Hybrid,
                    });
                    policies.push(lsa.policy.clone());
                }
                None => {
                    ads.push(Ad {
                        id,
                        level: AdLevel::Campus,
                        role: AdRole::Stub,
                    });
                    policies.push(TransitPolicy::deny_all(id));
                }
            }
        }
        let mut edges: Vec<(AdId, AdId, u32)> = Vec::new();
        let mut delays: Vec<u64> = Vec::new();
        for lsa in self.lsas.iter().flatten() {
            for &(nbr, metric, delay) in &lsa.links {
                // Confirm the reverse adjacency before accepting.
                if lsa.origin < nbr && self.advertises(nbr, lsa.origin).is_some() {
                    edges.push((lsa.origin, nbr, metric));
                    delays.push(delay);
                }
            }
        }
        let mut topo = Topology::new(ads, &edges);
        for (i, d) in delays.into_iter().enumerate() {
            topo.set_delay(adroute_topology::LinkId(i as u32), d);
        }
        topo.reclassify_roles();
        (topo, PolicyDb::from_policies(policies))
    }
}

/// The view one distinct database describes, reconstructed once
/// ([`LsDb::view`]) and never mutated: every router whose database
/// [`LsDb::shares_all_lsas_with`] the one it was built from holds the same
/// `Arc<LsView>`.
#[derive(Debug)]
pub struct LsView {
    /// The database the view was built from. Holding it pins every
    /// `Arc<Lsa>` the view derives from, so pointer equality against it
    /// cannot be fooled by an address freed and reused.
    db: LsDb,
    /// Every bidirectionally confirmed operational link.
    pub topo: Topology,
    /// Every advertised policy (deny-all for ADs not heard from).
    pub policies: PolicyDb,
}

/// One reconstructed view per distinct database, and one route per
/// (view, flow).
///
/// This is where the simulator shares the work the protocol replicates:
/// under link-state hop-by-hop routing every AD rebuilds the view and
/// repeats the source's search, and each router is still *charged* for
/// both in its own counters — but identical inputs give identical
/// outputs, so the store computes each once. Identity is
/// [`LsDb::shares_all_lsas_with`] — the `Arc<Lsa>` pointers, never
/// sequence numbers, which a restarted origin reuses and a forger
/// inflates — so routers whose databases differ (mid-flood, partitioned,
/// fed a forgery) get different views by construction.
#[derive(Clone, Debug, Default)]
pub struct ViewStore {
    views: Vec<StoredView>,
    /// Views reconstructed so far — work done, not a protocol charge.
    pub(crate) views_built: u64,
    /// Route searches run so far — work done, not a protocol charge (each
    /// router's own `route_computations` is that).
    pub(crate) searches: u64,
}

#[derive(Clone, Debug)]
struct StoredView {
    view: Arc<LsView>,
    /// The legal route per flow over `view`, as a range of `hops` (`None`
    /// = none exists).
    routes: HashMap<FlowSpec, Option<(u32, u32)>>,
    /// Every remembered path end to end, in the order they were searched:
    /// one growing allocation instead of one per flow, so what the store
    /// allocates and frees never follows the map's per-process hash order.
    hops: Vec<AdId>,
}

impl ViewStore {
    /// The view `db` describes: the stored one if some held view was built
    /// from a database sharing all of `db`'s LSAs, else a fresh
    /// reconstruction. Every lookup first drops the views no one outside
    /// the store still holds (a caller moving on releases its old `Arc`
    /// before asking), so the store never outlives its holders: at
    /// quiescence it is one view.
    pub(crate) fn view_of(&mut self, db: &LsDb) -> Arc<LsView> {
        self.views.retain(|v| Arc::strong_count(&v.view) > 1);
        if let Some(v) = self
            .views
            .iter()
            .find(|v| v.view.db.shares_all_lsas_with(db))
        {
            return v.view.clone();
        }
        let (topo, policies) = db.view();
        let view = Arc::new(LsView {
            db: db.clone(),
            topo,
            policies,
        });
        self.views_built += 1;
        self.views.push(StoredView {
            view: view.clone(),
            routes: HashMap::new(),
            hops: Vec::new(),
        });
        view
    }

    /// The legal route for `flow` over `view`, searched from the flow's
    /// source the first time anyone asks and remembered with the view.
    ///
    /// # Panics
    /// If `view` did not come from this store's `ViewStore::view_of`
    /// (a view still held is never dropped).
    pub(crate) fn route(&mut self, view: &Arc<LsView>, flow: &FlowSpec) -> Option<&[AdId]> {
        let stored = (self.views.iter_mut())
            .find(|v| Arc::ptr_eq(&v.view, view))
            .expect("a held view stays in the store that built it");
        let (searches, hops) = (&mut self.searches, &mut stored.hops);
        let range = *stored.routes.entry(*flow).or_insert_with(|| {
            *searches += 1;
            let route = legality::legal_route(&view.topo, &view.policies, flow)?;
            let start = hops.len() as u32;
            hops.extend_from_slice(&route.path);
            Some((start, hops.len() as u32))
        });
        range.map(|(start, end)| &stored.hops[start as usize..end as usize])
    }

    /// Views currently stored.
    pub fn num_views(&self) -> usize {
        self.views.len()
    }
}

/// Flooding state embedded in each link-state router: the database plus
/// origination bookkeeping.
#[derive(Clone, Debug)]
pub struct Flooder {
    /// This router's AD.
    pub me: AdId,
    /// The local copy of the link-state database. Its slot for `me` always
    /// holds our own latest origination ([`Flooder::handle`] never stores
    /// a received copy of our own LSA), so a sequence-number jump can
    /// re-originate from it without protocol help.
    pub db: LsDb,
    /// Own LSA sequence number (bumped on each origination).
    pub seq: u64,
}

/// Messages exchanged by flooding: a single LSA per message (a
/// simplification of OSPF-style bundling that keeps byte accounting
/// transparent). The message *is* the origin's allocation: sending,
/// storing, re-flooding and channel duplication clone the pointer.
pub type FloodMsg = Arc<Lsa>;

impl Flooder {
    /// A flooder for `me` in a network of `num_ads` ADs.
    pub fn new(me: AdId, num_ads: usize) -> Flooder {
        Flooder {
            me,
            db: LsDb::new(num_ads),
            seq: 0,
        }
    }

    /// Originates (or re-originates) this AD's own LSA describing its
    /// current operational adjacencies, and floods it to all neighbors.
    /// This is the only place an honest router allocates an [`Lsa`].
    pub fn originate(
        &mut self,
        ctx: &mut Ctx<'_, FloodMsg>,
        level: AdLevel,
        policy: TransitPolicy,
    ) {
        self.seq += 1;
        let links: Vec<(AdId, u32, u64)> = ctx
            .neighbors()
            .into_iter()
            .map(|(nbr, link)| (nbr, ctx.link_metric(link), ctx.link_delay(link)))
            .collect();
        ctx.emit(EventRecord::LsaOriginate {
            origin: self.me,
            seq: self.seq,
            links: links.len() as u64,
        });
        let lsa = Arc::new(Lsa {
            origin: self.me,
            seq: self.seq,
            level,
            links,
            policy,
        });
        self.db.insert(lsa.clone());
        for (nbr, _) in ctx.neighbors() {
            ctx.send(nbr, lsa.clone());
        }
    }

    /// Handles a received LSA: stores and re-floods it if new. Returns
    /// `true` if the database changed.
    ///
    /// A copy of our *own* LSA that we did not issue — one with a higher
    /// sequence number, or our current number but different content — is
    /// a ghost from a previous incarnation: we crashed, lost the counter,
    /// and restarted at 1, so the network would reject everything we now
    /// say (or, seq-tied, keep the ghost's stale adjacencies). The cure is
    /// OSPF's self-originated-LSA rule: jump our counter past the ghost
    /// and re-originate with current adjacencies, which supersedes it
    /// everywhere. Ordinary flooding echoes of our own LSA are the very
    /// allocation we sent (same seq, same content) and fall through to
    /// duplicate suppression.
    pub fn handle(&mut self, ctx: &mut Ctx<'_, FloodMsg>, from: AdId, lsa: FloodMsg) -> bool {
        if lsa.origin == self.me {
            let ghost = lsa.seq > self.seq
                || (lsa.seq == self.seq
                    && self
                        .db
                        .get(self.me)
                        .is_some_and(|cur| cur.links != lsa.links));
            if !ghost {
                ctx.count("flood_dup", 1);
                ctx.emit(EventRecord::LsaDuplicate {
                    at: self.me,
                    origin: lsa.origin,
                    origin_seq: lsa.seq,
                });
                return false;
            }
            self.seq = lsa.seq;
            ctx.count("ls_seq_jump", 1);
            ctx.emit(EventRecord::LsaSeqJump {
                at: self.me,
                seq: lsa.seq,
            });
            let Some(own) = self.db.slots()[self.me.index()].clone() else {
                return false; // never originated: nothing to supersede with
            };
            self.originate(ctx, own.level, own.policy.clone());
            return true;
        }
        if self.db.insert(lsa.clone()) {
            ctx.emit(EventRecord::LsaAccept {
                at: self.me,
                origin: lsa.origin,
                origin_seq: lsa.seq,
            });
            for (nbr, _) in ctx.neighbors() {
                if nbr != from {
                    ctx.send(nbr, lsa.clone());
                }
            }
            true
        } else {
            ctx.count("flood_dup", 1);
            ctx.emit(EventRecord::LsaDuplicate {
                at: self.me,
                origin: lsa.origin,
                origin_seq: lsa.seq,
            });
            false
        }
    }

    /// Database resynchronization with a neighbor, run when an adjacency
    /// (re)appears: sends every stored LSA to `neighbor`.
    ///
    /// This is the (simplified) equivalent of OSPF's database-description
    /// exchange. Without it, an LSA originated while the network was
    /// partitioned would never cross the healed link — flooding alone is
    /// unacknowledged and provides no catch-up — and views would stay
    /// stale forever (the churn tests caught exactly that).
    pub fn resync(&mut self, ctx: &mut Ctx<'_, FloodMsg>, neighbor: AdId) {
        ctx.count("ls_resync", 1);
        ctx.emit(EventRecord::LsaResync {
            at: self.me,
            neighbor,
            lsas: self.db.num_lsas() as u64,
        });
        for lsa in self.db.slots().iter().flatten() {
            ctx.send(neighbor, lsa.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ls_hbh::LsHbh;
    use adroute_policy::workload::PolicyWorkload;
    use adroute_policy::PolicyAction;
    use adroute_topology::generate::HierarchyConfig;
    use adroute_topology::graph::make_ad;

    fn lsa(origin: u32, seq: u64, nbrs: &[u32]) -> Arc<Lsa> {
        Arc::new(Lsa {
            origin: AdId(origin),
            seq,
            level: AdLevel::Campus,
            links: nbrs.iter().map(|&n| (AdId(n), 1, 1000)).collect(),
            policy: TransitPolicy::permit_all(AdId(origin)),
        })
    }

    #[test]
    fn newer_seq_supersedes() {
        let mut db = LsDb::new(3);
        assert!(db.insert(lsa(0, 1, &[1])));
        assert!(!db.insert(lsa(0, 1, &[1, 2])), "same seq must not replace");
        assert!(db.insert(lsa(0, 2, &[1, 2])));
        assert_eq!(db.get(AdId(0)).unwrap().links.len(), 2);
        assert_eq!(db.version(), 2);
        assert_eq!(db.num_lsas(), 1);
    }

    #[test]
    fn view_requires_bidirectional_confirmation() {
        let mut db = LsDb::new(3);
        db.insert(lsa(0, 1, &[1]));
        // AD1 hasn't advertised the 0-1 adjacency yet.
        let (topo, _) = db.view();
        assert_eq!(topo.num_links(), 0);
        db.insert(lsa(1, 1, &[0, 2]));
        let (topo, _) = db.view();
        assert_eq!(topo.num_links(), 1);
        assert!(topo.link_between(AdId(0), AdId(1)).is_some());
        // 1-2 still unconfirmed.
        assert!(topo.link_between(AdId(1), AdId(2)).is_none());
    }

    #[test]
    fn view_defaults_unknown_ads_to_deny() {
        let mut db = LsDb::new(2);
        db.insert(lsa(0, 1, &[]));
        let (_, pols) = db.view();
        // AD1 never advertised: deny-all.
        assert!(matches!(pols.policy(AdId(1)).default, PolicyAction::Deny));
        assert!(matches!(
            pols.policy(AdId(0)).default,
            PolicyAction::Permit { .. }
        ));
    }

    #[test]
    fn view_preserves_levels_metrics_and_roles() {
        let mut db = LsDb::new(2);
        let mut a = Lsa::clone(&lsa(0, 1, &[1]));
        a.level = AdLevel::Backbone;
        a.links[0].1 = 7;
        db.insert(Arc::new(a));
        db.insert(lsa(1, 1, &[0]));
        let (topo, _) = db.view();
        assert_eq!(topo.ad(AdId(0)).level, AdLevel::Backbone);
        let l = topo.link_between(AdId(0), AdId(1)).unwrap();
        assert_eq!(topo.link(l).metric, 7);
        assert_eq!(topo.ad(AdId(1)).role, AdRole::Stub);
        let _ = make_ad(0, AdLevel::Campus); // exercise helper linkage
    }

    #[test]
    fn store_shares_by_allocation_and_searches_once_per_view_and_flow() {
        let (a, b) = (lsa(0, 1, &[1]), lsa(1, 1, &[0]));
        let mut db = LsDb::new(2);
        db.insert(a.clone());
        db.insert(b.clone());
        let mut twin = LsDb::new(2);
        twin.insert(b);
        twin.insert(a);
        // Equal content from other allocations is another database.
        let mut lookalike = LsDb::new(2);
        lookalike.insert(lsa(0, 1, &[1]));
        lookalike.insert(lsa(1, 1, &[0]));

        let mut store = ViewStore::default();
        let v = store.view_of(&db);
        assert!(Arc::ptr_eq(&v, &store.view_of(&twin)));
        let other = store.view_of(&lookalike);
        assert!(!Arc::ptr_eq(&v, &other));
        assert_eq!((store.num_views(), store.views_built), (2, 2));

        let f = FlowSpec::best_effort(AdId(0), AdId(1));
        let path = [AdId(0), AdId(1)];
        assert_eq!(store.route(&v, &f), Some(&path[..]));
        assert_eq!(store.route(&v, &f), Some(&path[..]));
        assert_eq!(store.searches, 1);
        assert_eq!(store.route(&other, &f), Some(&path[..]));
        assert_eq!(store.searches, 2);

        // A view goes with its last holder, at the next lookup.
        drop(other);
        let _ = store.view_of(&db);
        assert_eq!((store.num_views(), store.views_built), (1, 2));
    }

    /// After convergence every database holds the origin's own allocation,
    /// not a copy of it — however the LSA got there.
    fn assert_every_lsdb_shares_the_origins_allocation(e: &adroute_sim::Engine<LsHbh>) {
        let n = e.topo().num_ads();
        for origin in e.topo().ad_ids() {
            let own = e.router(origin).flooder.db.slots()[origin.index()]
                .as_ref()
                .expect("every AD originated");
            for ad in e.topo().ad_ids() {
                let db = &e.router(ad).flooder.db;
                assert_eq!(db.num_lsas(), n, "{ad} has a partial database");
                let held = db.slots()[origin.index()].as_ref().unwrap();
                assert!(
                    Arc::ptr_eq(own, held),
                    "{ad} holds a copy of {origin}'s LSA"
                );
            }
            assert!(e
                .router(origin)
                .flooder
                .db
                .shares_all_lsas_with(&e.router(AdId(0)).flooder.db));
        }
    }

    fn figure1_engine() -> adroute_sim::Engine<LsHbh> {
        let topo = HierarchyConfig::figure1().generate();
        let db = PolicyWorkload::default_mix(5).generate(&topo);
        let proto = LsHbh::new(&topo, db);
        adroute_sim::Engine::new(topo, proto)
    }

    #[test]
    fn converged_databases_share_one_allocation_per_origin() {
        let mut e = figure1_engine();
        e.run_to_quiescence();
        assert_every_lsdb_shares_the_origins_allocation(&e);
        // Re-origination replaces the allocation everywhere.
        let before = e.router(AdId(0)).flooder.db.slots()[0].clone().unwrap();
        let l = e.topo().neighbors(AdId(0)).next().unwrap().1;
        e.schedule_link_change(l, false, e.now().plus_us(1000));
        e.run_to_quiescence();
        assert_every_lsdb_shares_the_origins_allocation(&e);
        let after = e.router(AdId(0)).flooder.db.slots()[0].clone().unwrap();
        assert!(!Arc::ptr_eq(&before, &after));
        assert!(after.seq > before.seq);
    }

    #[test]
    fn duplicating_channel_still_shares_allocations() {
        let mut e = figure1_engine();
        e.set_channel_faults(Some(adroute_sim::ChannelFaults {
            duplicate: 0.5,
            jitter_us: 300,
            seed: 9,
            ..Default::default()
        }));
        e.run_to_quiescence();
        assert!(e.stats.msgs_duplicated > 0, "the fault never fired");
        assert_every_lsdb_shares_the_origins_allocation(&e);
    }
}
