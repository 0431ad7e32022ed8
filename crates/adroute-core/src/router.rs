//! The ORWG control plane: flooding of policy-bearing link-state
//! advertisements over the simulation engine.
//!
//! This is deliberately thin: unlike the hop-by-hop link-state design
//! (Section 5.3), no per-flow computation happens in routers at all. The
//! flooded database is handed to the AD's Route Server
//! ([`crate::synthesis::RouteServer`]); transit ADs never compute routes.

use adroute_policy::PolicyDb;
use adroute_protocols::linkstate::{FloodMsg, Flooder};
use adroute_sim::{Ctx, Engine, Protocol};
use adroute_topology::{AdId, AdLevel, LinkId, Topology};

/// Protocol configuration: what each AD advertises.
#[derive(Clone, Debug)]
pub struct OrwgProtocol {
    /// Ground-truth per-AD policies; each router advertises **its own**
    /// entry in its LSAs.
    pub policies: PolicyDb,
    /// Hierarchy level per AD (advertised for view reconstruction).
    pub levels: Vec<AdLevel>,
}

impl OrwgProtocol {
    /// Builds the configuration from a topology and its policies.
    pub fn new(topo: &Topology, policies: PolicyDb) -> OrwgProtocol {
        OrwgProtocol {
            policies,
            levels: topo.ads().map(|a| a.level).collect(),
        }
    }
}

/// Per-AD state: just the flooder.
#[derive(Clone, Debug)]
pub struct OrwgRouter {
    /// Flooding machinery and the local database copy.
    pub flooder: Flooder,
}

impl Protocol for OrwgProtocol {
    type Router = OrwgRouter;
    type Msg = FloodMsg;

    fn make_router(&self, topo: &Topology, ad: AdId) -> OrwgRouter {
        OrwgRouter {
            flooder: Flooder::new(ad, topo.num_ads()),
        }
    }

    fn on_start(&self, r: &mut OrwgRouter, ctx: &mut Ctx<'_, FloodMsg>) {
        let me = r.flooder.me;
        r.flooder.originate(
            ctx,
            self.levels[me.index()],
            self.policies.policy(me).clone(),
        );
    }

    fn on_message(
        &self,
        r: &mut OrwgRouter,
        ctx: &mut Ctx<'_, FloodMsg>,
        from: AdId,
        _link: LinkId,
        msg: FloodMsg,
    ) {
        r.flooder.handle(ctx, from, msg);
    }

    fn on_link_event(
        &self,
        r: &mut OrwgRouter,
        ctx: &mut Ctx<'_, FloodMsg>,
        _link: LinkId,
        neighbor: AdId,
        up: bool,
    ) {
        let me = r.flooder.me;
        r.flooder.originate(
            ctx,
            self.levels[me.index()],
            self.policies.policy(me).clone(),
        );
        if up {
            // Database exchange on the fresh adjacency (see
            // `Flooder::resync`): heals partitions.
            r.flooder.resync(ctx, neighbor);
        }
    }

    fn msg_size(&self, msg: &FloodMsg) -> usize {
        msg.encoded_size()
    }
}

/// Convenience: runs the flooding control plane to quiescence and returns
/// the converged engine.
pub fn converge_control_plane(topo: Topology, policies: PolicyDb) -> Engine<OrwgProtocol> {
    let proto = OrwgProtocol::new(&topo, policies);
    let mut e = Engine::new(topo, proto);
    e.run_to_quiescence();
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use adroute_topology::generate::{ring, HierarchyConfig};

    #[test]
    fn floods_everywhere() {
        let topo = ring(6);
        let db = PolicyDb::permissive(&topo);
        let e = converge_control_plane(topo, db);
        for ad in e.topo().ad_ids() {
            assert_eq!(e.router(ad).flooder.db.num_lsas(), 6);
        }
    }

    #[test]
    fn views_are_identical_after_convergence() {
        let topo = HierarchyConfig::figure1().generate();
        let db = adroute_policy::workload::PolicyWorkload::default_mix(2).generate(&topo);
        let e = converge_control_plane(topo.clone(), db);
        let (ref_topo, ref_db) = e.router(AdId(0)).flooder.db.view();
        assert_eq!(ref_topo.num_links(), topo.num_links());
        for ad in e.topo().ad_ids() {
            let (t, d) = e.router(ad).flooder.db.view();
            assert_eq!(t.num_links(), ref_topo.num_links(), "{ad} diverges");
            assert_eq!(d.total_terms(), ref_db.total_terms());
        }
    }

    #[test]
    fn reorigination_after_failure_updates_views() {
        let topo = ring(5);
        let db = PolicyDb::permissive(&topo);
        let mut e = converge_control_plane(topo, db);
        let l = e.topo().link_between(AdId(0), AdId(1)).unwrap();
        let t = e.now().plus_us(1000);
        e.schedule_link_change(l, false, t);
        e.run_to_quiescence();
        for ad in e.topo().ad_ids() {
            let (view, _) = e.router(ad).flooder.db.view();
            assert!(
                view.link_between(AdId(0), AdId(1)).is_none(),
                "{ad} still believes the dead link exists"
            );
        }
    }
}
