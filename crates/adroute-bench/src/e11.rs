//! **E11** (paper §2.1/§3) — integrity with non-hierarchical links.
//!
//! "Inter-AD routing protocols should work efficiently for the general
//! hierarchical case, but they must accommodate lateral and bypass links
//! in a graceful manner … functionally, the integrity of the routing must
//! be maintained in the presence of non-hierarchical structures." And for
//! EGP: "there can be no cycles in the EGP graph … an unreasonable
//! restriction for a global internet."
//!
//! Per density of lateral/bypass links: (a) that every architecture keeps
//! loop-free, policy-compliant delivery, and (b) what the EGP-style tree
//! restriction costs — an EGP internet can only use the hierarchical
//! links, so the extra connectivity is wasted, measured as path stretch
//! and unreachability versus the full graph.

use adroute_policy::workload::PolicyWorkload;
use adroute_protocols::ecma::Ecma;
use adroute_protocols::forwarding::{sample_flows, FlowScore};
use adroute_protocols::ls_hbh::LsHbh;
use adroute_protocols::naive_dv::NaiveDv;
use adroute_protocols::path_vector::PathVector;
use adroute_topology::{algo, AdId, HierarchyConfig, LinkKind, Topology};

use crate::World;

/// One lateral/bypass density.
#[derive(Clone, Debug)]
pub struct Row {
    /// Lateral-link probability.
    pub lateral: f64,
    /// Bypass-link probability.
    pub bypass: f64,
    /// Links generated.
    pub links: usize,
    /// (a) ECMA, IDRP, LS/ORWG and the running EGP protocol
    /// (tree-restricted DV), each scored against the oracle.
    pub points: [(&'static str, FlowScore); 4],
    /// (b) Non-hierarchical links — what the EGP graph ignores.
    pub extra_links: usize,
    /// Mean shortest-path cost between the flows' endpoints, full graph.
    pub mean_cost_full: f64,
    /// The same on the hierarchical tree alone, over the pairs it reaches.
    pub mean_cost_tree: f64,
    /// Pairs the tree disconnects.
    pub cut_pairs: usize,
}

impl Row {
    /// Path-cost stretch of the tree restriction.
    pub fn stretch(&self) -> f64 {
        if self.mean_cost_full > 0.0 {
            self.mean_cost_tree / self.mean_cost_full
        } else {
            1.0
        }
    }
}

/// Mean shortest-path cost over the connected pairs, and how many are cut.
fn path_stats(topo: &Topology, pairs: &[(AdId, AdId)]) -> (f64, usize) {
    let reached = pairs
        .iter()
        .filter_map(|&(a, b)| match algo::dijkstra(topo, a).0[b.index()] {
            algo::PathCost::Finite(c) => Some(c),
            algo::PathCost::Unreachable => None,
        });
    let costs: Vec<u64> = reached.collect();
    let mean = costs.iter().sum::<u64>() as f64 / costs.len().max(1) as f64;
    (mean, pairs.len() - costs.len())
}

/// One row per `(lateral, bypass)` probability pair on an
/// `approx_ads` internet (seed 37, mixed policies, `flows` flows).
pub fn rows(approx_ads: usize, flows: usize, densities: &[(f64, f64)]) -> Vec<Row> {
    let row = |lateral: f64, bypass: f64| {
        let topo = HierarchyConfig {
            lateral_prob: lateral,
            bypass_prob: bypass,
            multihome_prob: 0.2,
            ..HierarchyConfig::with_approx_size(approx_ads, 37)
        }
        .generate();
        let w = World {
            db: PolicyWorkload::default_mix(37).generate(&topo),
            flows: sample_flows(&topo, flows, 37),
            topo,
        };
        let points = [
            ("ECMA", w.score(Ecma::hierarchical(&w.topo)).1),
            ("IDRP", w.score(PathVector::idrp(w.db.clone())).1),
            ("LS/ORWG", w.score(LsHbh::new(&w.topo, w.db.clone())).1),
            // The running EGP protocol (tree-restricted DV): its
            // availability decays as connectivity moves into links it
            // cannot use.
            ("EGP (tree DV)", w.score(NaiveDv::egp()).1),
        ];
        let World { topo, flows, .. } = w;

        // EGP contrast: disable every non-hierarchical link (the acyclic
        // "EGP graph") and compare shortest paths.
        let pairs: Vec<(AdId, AdId)> = flows.iter().map(|f| (f.src, f.dst)).collect();
        let (mean_cost_full, _) = path_stats(&topo, &pairs);
        let mut tree = topo.clone();
        let mut extra_links = 0;
        for l in topo.links() {
            if l.kind != LinkKind::Hierarchical {
                tree.set_link_up(l.id, false);
                extra_links += 1;
            }
        }
        let (mean_cost_tree, cut_pairs) = path_stats(&tree, &pairs);
        Row {
            lateral,
            bypass,
            links: topo.num_links(),
            points,
            extra_links,
            mean_cost_full,
            mean_cost_tree,
            cut_pairs,
        }
    };
    densities.iter().map(|&(l, b)| row(l, b)).collect()
}
