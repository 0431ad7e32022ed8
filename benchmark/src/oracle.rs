//! The route-legality oracle (`policy::legality`), as the benchmark uses
//! it: ground truth against which every design point's outputs are
//! checked, outside the timed phases.

use adroute_policy::legality::{legal_route_with, SearchStats};
use adroute_policy::{FlowSpec, PolicyDb, RouteSelection};
use adroute_topology::Topology;

use crate::harness::Cx;

/// Whether a legal route for `f` exists on `topo` under `db`, and the
/// states the search settled.
pub fn routable(topo: &Topology, db: &PolicyDb, f: &FlowSpec, cx: &mut Cx) -> (bool, u64) {
    let mut stats = SearchStats::default();
    let route = cx.tr.call("policy.legality.search", || {
        legal_route_with(topo, db, f, &RouteSelection::unconstrained(), &mut stats)
    });
    (route.is_some(), stats.settled)
}

/// [`routable`] for every flow: the expected outputs, computed as part
/// of set-up.
pub fn truth(topo: &Topology, db: &PolicyDb, flows: &[FlowSpec], cx: &mut Cx) -> Vec<bool> {
    let mut settled = 0u64;
    let truth = flows
        .iter()
        .map(|f| {
            let (legal, work) = routable(topo, db, f, cx);
            settled += work;
            legal
        })
        .collect();
    if cx.traced() && !flows.is_empty() {
        cx.put(
            "policy.legality.settled_per_search",
            settled as f64 / flows.len() as f64,
        );
    }
    truth
}
