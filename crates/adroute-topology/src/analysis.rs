//! Structural analysis of AD-level internets.
//!
//! The paper's Section 2.1 justifies multi-homing and bypass links as
//! robustness measures. This module quantifies that structure:
//! articulation ADs (single points of failure whose loss partitions the
//! internet), bridge links, degree statistics, and path diversity — the
//! numbers behind the Figure-1 experiment and the redundancy tests.

use crate::graph::Topology;
use crate::ids::{AdId, LinkId};

/// Degree distribution summary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegreeStats {
    /// Minimum degree.
    pub min: usize,
    /// Maximum degree.
    pub max: usize,
    /// Mean degree.
    pub mean: f64,
}

/// Computes degree statistics over operational links.
pub fn degree_stats(topo: &Topology) -> DegreeStats {
    let mut min = usize::MAX;
    let mut max = 0;
    let mut sum = 0usize;
    let n = topo.num_ads();
    if n == 0 {
        return DegreeStats {
            min: 0,
            max: 0,
            mean: 0.0,
        };
    }
    for ad in topo.ad_ids() {
        let d = topo.degree(ad);
        min = min.min(d);
        max = max.max(d);
        sum += d;
    }
    DegreeStats {
        min,
        max,
        mean: sum as f64 / n as f64,
    }
}

/// The trunk: the operational link whose endpoints carry the most
/// adjacencies (ties to the lowest link id) — the link the trunk-failure
/// scenarios cut. `None` when no link is up.
pub fn trunk(topo: &Topology) -> Option<LinkId> {
    topo.links()
        .filter(|l| l.up)
        .max_by_key(|l| {
            (
                topo.neighbors(l.a).count() + topo.neighbors(l.b).count(),
                std::cmp::Reverse(l.id.0),
            )
        })
        .map(|l| l.id)
}

/// Finds the articulation ADs of the operational graph: ADs whose removal
/// increases the number of connected components. A transit AD that is an
/// articulation point is a single point of failure for some pair of
/// customers — exactly what multi-homing and lateral links exist to
/// eliminate.
///
/// Iterative Tarjan lowpoint computation; deterministic order.
pub fn articulation_ads(topo: &Topology) -> Vec<AdId> {
    let n = topo.num_ads();
    let mut disc = vec![0u32; n]; // 0 = unvisited; otherwise discovery time
    let mut low = vec![0u32; n];
    let mut is_art = vec![false; n];
    let mut timer = 1u32;

    for root in topo.ad_ids() {
        if disc[root.index()] != 0 {
            continue;
        }
        // Iterative DFS: stack of (node, parent, neighbor iterator index).
        let mut stack: Vec<(AdId, Option<AdId>, usize)> = vec![(root, None, 0)];
        let mut root_children = 0usize;
        disc[root.index()] = timer;
        low[root.index()] = timer;
        timer += 1;
        while let Some(&mut (ad, parent, ref mut idx)) = stack.last_mut() {
            let nbrs: Vec<AdId> = topo.neighbors(ad).map(|(n, _)| n).collect();
            if *idx < nbrs.len() {
                let nbr = nbrs[*idx];
                *idx += 1;
                if disc[nbr.index()] == 0 {
                    disc[nbr.index()] = timer;
                    low[nbr.index()] = timer;
                    timer += 1;
                    if ad == root {
                        root_children += 1;
                    }
                    stack.push((nbr, Some(ad), 0));
                } else if Some(nbr) != parent {
                    low[ad.index()] = low[ad.index()].min(disc[nbr.index()]);
                }
            } else {
                stack.pop();
                if let Some(&(pad, _, _)) = stack.last() {
                    low[pad.index()] = low[pad.index()].min(low[ad.index()]);
                    if pad != root && low[ad.index()] >= disc[pad.index()] {
                        is_art[pad.index()] = true;
                    }
                }
            }
        }
        if root_children > 1 {
            is_art[root.index()] = true;
        }
    }
    (0..n as u32)
        .map(AdId)
        .filter(|a| is_art[a.index()])
        .collect()
}

/// Counts vertex-disjoint-ish path diversity: for a pair `(a, b)`, the
/// number of neighbors of `a` from which `b` remains reachable without
/// going back through `a`. A multi-homed stub has diversity ≥ 2 to the
/// rest of the internet.
pub fn egress_diversity(topo: &Topology, a: AdId, b: AdId) -> usize {
    if a == b {
        return 0;
    }
    let mut count = 0;
    for (nbr, _) in topo.neighbors(a) {
        if nbr == b {
            count += 1;
            continue;
        }
        // BFS from nbr avoiding a.
        let mut seen = vec![false; topo.num_ads()];
        seen[a.index()] = true;
        seen[nbr.index()] = true;
        let mut queue = std::collections::VecDeque::from([nbr]);
        let mut ok = false;
        while let Some(cur) = queue.pop_front() {
            if cur == b {
                ok = true;
                break;
            }
            for (next, _) in topo.neighbors(cur) {
                if !seen[next.index()] {
                    seen[next.index()] = true;
                    queue.push_back(next);
                }
            }
        }
        if ok {
            count += 1;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{connected_components, is_connected};
    use crate::generate::{clique, grid, line, ring, HierarchyConfig};
    use crate::graph::make_ad;
    use crate::ids::AdLevel;

    /// A star: AD 0 (regional) at the hub, `n-1` campus leaves.
    fn star(n: usize) -> Topology {
        let mut ads = vec![make_ad(0, AdLevel::Regional)];
        ads.extend((1..n as u32).map(|i| make_ad(i, AdLevel::Campus)));
        let edges: Vec<_> = (1..n as u32).map(|i| (AdId(0), AdId(i), 1)).collect();
        Topology::new(ads, &edges)
    }

    /// Brute-force articulation check: remove each AD (fail its links)
    /// and count components among the rest.
    fn articulation_bruteforce(topo: &Topology) -> Vec<AdId> {
        let base_components = {
            let comp = connected_components(topo);
            comp.iter().max().map(|&m| m + 1).unwrap_or(0)
        };
        let mut out = Vec::new();
        for ad in topo.ad_ids() {
            let mut t = topo.clone();
            let links: Vec<_> = t.all_neighbors(ad).map(|(_, l)| l).collect();
            for l in links {
                t.set_link_up(l, false);
            }
            let comp = connected_components(&t);
            // Count components ignoring the isolated `ad` itself.
            let mut ids: Vec<u32> = topo
                .ad_ids()
                .filter(|&x| x != ad)
                .map(|x| comp[x.index()])
                .collect();
            ids.sort_unstable();
            ids.dedup();
            if ids.len() as u32 > base_components {
                out.push(ad);
            }
        }
        out
    }

    #[test]
    fn line_interior_ads_are_articulation_points() {
        let t = line(5);
        assert_eq!(articulation_ads(&t), vec![AdId(1), AdId(2), AdId(3)]);
    }

    #[test]
    fn ring_and_clique_have_none() {
        assert!(articulation_ads(&ring(8)).is_empty());
        assert!(articulation_ads(&clique(5)).is_empty());
        assert!(articulation_ads(&grid(3, 3)).is_empty());
    }

    #[test]
    fn star_hub_is_the_articulation_point() {
        let t = star(6);
        assert_eq!(articulation_ads(&t), vec![AdId(0)]);
    }

    #[test]
    fn matches_bruteforce_on_generated_internets() {
        for seed in [1u64, 2, 3, 4] {
            let t = HierarchyConfig {
                backbones: 1,
                regionals_per_backbone: 2,
                metros_per_regional: 2,
                campuses_per_metro: 2,
                lateral_prob: 0.3,
                bypass_prob: 0.2,
                multihome_prob: 0.3,
                seed,
            }
            .generate();
            assert!(is_connected(&t));
            let fast = articulation_ads(&t);
            let slow = articulation_bruteforce(&t);
            assert_eq!(fast, slow, "seed {seed}");
        }
    }

    #[test]
    fn multihoming_reduces_articulation_points() {
        let none = HierarchyConfig {
            lateral_prob: 0.0,
            bypass_prob: 0.0,
            multihome_prob: 0.0,
            seed: 5,
            ..HierarchyConfig::default()
        }
        .generate();
        let lots = HierarchyConfig {
            lateral_prob: 0.4,
            bypass_prob: 0.3,
            multihome_prob: 0.5,
            seed: 5,
            ..HierarchyConfig::default()
        }
        .generate();
        assert!(
            articulation_ads(&lots).len() < articulation_ads(&none).len(),
            "redundant links should remove single points of failure"
        );
    }

    #[test]
    fn trunk_prefers_busy_endpoints_then_the_lowest_up_link() {
        // Every ring link scores 2 + 2: the tie goes to the lowest id.
        let mut t = ring(5);
        assert_eq!(trunk(&t), Some(LinkId(0)));
        // A down link is not a candidate (and lowers its endpoints' count).
        t.set_link_up(LinkId(0), false);
        assert_eq!(trunk(&t), Some(LinkId(2)));
        // A star's links all touch the hub; a line's interior links win.
        assert_eq!(trunk(&star(4)), Some(LinkId(0)));
        assert_eq!(trunk(&line(4)), Some(LinkId(1)));
        // No link up, or no link at all: nothing to cut.
        let mut l = line(2);
        l.set_link_up(LinkId(0), false);
        assert_eq!(trunk(&l), None);
        assert_eq!(trunk(&line(1)), None);
    }

    #[test]
    fn degree_statistics() {
        let s = degree_stats(&star(5));
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 4);
        assert!((s.mean - 8.0 / 5.0).abs() < 1e-9);
        let r = degree_stats(&ring(7));
        assert_eq!((r.min, r.max), (2, 2));
    }

    #[test]
    fn diversity_counts_independent_egresses() {
        // Multi-homed stub on two providers joined by a backbone.
        let t = ring(4); // 0-1-2-3-0
        assert_eq!(egress_diversity(&t, AdId(0), AdId(2)), 2);
        let l = line(3);
        assert_eq!(egress_diversity(&l, AdId(0), AdId(2)), 1);
        assert_eq!(egress_diversity(&l, AdId(0), AdId(0)), 0);
        // Adjacent pair still counts the direct link.
        assert_eq!(egress_diversity(&l, AdId(0), AdId(1)), 1);
    }
}
