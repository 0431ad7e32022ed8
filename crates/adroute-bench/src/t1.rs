//! **Table 1(b)** — the capability claims the paper makes per design
//! point, measured: every architecture run on the same internet and policy
//! workload and scored against the oracle by the shared data-plane harness.

use adroute_core::router::converge_control_plane;
use adroute_core::{OrwgNetwork, Strategy};
use adroute_policy::legality::{legal_route, legal_route_with};
use adroute_policy::{FlowSpec, RouteSelection};
use adroute_protocols::ecma::Ecma;
use adroute_protocols::forwarding::{score_flows, DataPlane, FlowScore};
use adroute_protocols::ls_hbh::LsHbh;
use adroute_protocols::naive_dv::NaiveDv;
use adroute_protocols::path_vector::PathVector;
use adroute_sim::{Engine, Protocol};
use adroute_topology::AdId;

use crate::World;

/// One design point's measured capabilities.
#[derive(Clone, Debug)]
pub struct Row {
    /// The design point.
    pub arch: &'static str,
    /// Delivery, compliance and loops against the oracle.
    pub score: FlowScore,
    /// Control messages to convergence.
    pub msgs: u64,
    /// Control bytes to convergence.
    pub bytes: u64,
    /// Fraction of imposed avoid-AD source criteria honored.
    pub honored: f64,
    /// Whether those criteria stay private to the source.
    pub private: bool,
}

/// Measures the fraction of imposable source criteria ("avoid this transit
/// AD") an architecture can actually honor.
fn probe_source_policy(
    w: &World,
    mut route_of: impl FnMut(&FlowSpec, &RouteSelection) -> Option<Vec<AdId>>,
) -> f64 {
    let mut applicable = 0;
    let mut honored = 0;
    for f in &w.flows {
        let Some(base) = legal_route(&w.topo, &w.db, f) else {
            continue;
        };
        if base.path.len() < 3 {
            continue;
        }
        let avoid = base.path[1];
        let sel = RouteSelection::avoiding([avoid]);
        let mut stats = Default::default();
        if legal_route_with(&w.topo, &w.db, f, &sel, &mut stats).is_none() {
            continue; // no legal alternative exists; not a fair probe
        }
        applicable += 1;
        if let Some(path) = route_of(f, &sel) {
            if path.first() == Some(&f.src)
                && path.last() == Some(&f.dst)
                && !path[1..path.len().saturating_sub(1)].contains(&avoid)
            {
                honored += 1;
            }
        }
    }
    if applicable == 0 {
        1.0
    } else {
        honored as f64 / applicable as f64
    }
}

/// A hop-by-hop design point's row (no source criteria honored) and its
/// converged engine.
fn hop_by_hop<P: Protocol>(arch: &'static str, w: &World, proto: P) -> (Engine<P>, Row)
where
    Engine<P>: DataPlane,
{
    let (e, score) = w.score(proto);
    let row = Row {
        arch,
        score,
        msgs: e.stats.msgs_sent,
        bytes: e.stats.bytes_sent,
        honored: 0.0,
        private: false,
    };
    (e, row)
}

/// The five design points on `w`, in the paper's order.
pub fn rows(w: &World) -> Vec<Row> {
    // IDRP: sources choose among advertised routes; criteria cannot be
    // pushed into the network. Best the source can do: filter what it
    // received.
    let (pv, mut idrp) = hop_by_hop("IDRP: PV+hbh+terms", w, PathVector::idrp(w.db.clone()));
    idrp.honored = probe_source_policy(w, |f, sel| {
        let path = pv.router(f.src).best_match(f).map(|r| {
            let mut p = vec![f.src];
            p.extend_from_slice(&r.path);
            p
        });
        path.filter(|p| sel.accepts(p))
    });
    drop(pv);
    vec![
        // No policy of any kind.
        hop_by_hop("naive DV (baseline)", w, NaiveDv::default()).1,
        // Source policy only through the global ordering.
        hop_by_hop("ECMA: DV+hbh+topology", w, Ecma::hierarchical(&w.topo)).1,
        idrp,
        // Consistency forces all ADs to know source criteria.
        hop_by_hop("LS+hbh+terms", w, LsHbh::new(&w.topo, w.db.clone())).1,
        orwg(w),
    ]
}

/// ORWG: the source synthesizes under private criteria.
fn orwg(w: &World) -> Row {
    let ctl = converge_control_plane(w.topo.clone(), w.db.clone());
    let mut net = OrwgNetwork::from_engine(&ctl, Strategy::Cached { capacity: 512 }, 8192);
    Row {
        arch: "ORWG: LS+source+terms",
        msgs: ctl.stats.msgs_sent,
        bytes: ctl.stats.bytes_sent,
        score: score_flows(&mut net, &w.topo, &w.db, &w.flows),
        honored: probe_source_policy(w, |f, sel| {
            net.server_mut(f.src).set_selection(sel.clone());
            let r = net.policy_route(f);
            net.server_mut(f.src)
                .set_selection(RouteSelection::unconstrained());
            r
        }),
        private: true,
    }
}
