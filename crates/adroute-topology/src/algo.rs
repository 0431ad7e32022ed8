//! Graph algorithms over [`Topology`]: BFS, Dijkstra, connectivity.
//!
//! These are the policy-free building blocks; policy-constrained search
//! (which must track the previous AD in the path) lives in
//! `adroute-policy::legality`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::graph::Topology;
use crate::ids::AdId;

/// Cost of a shortest path, or unreachability.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PathCost {
    /// Reachable at the given total metric.
    Finite(u64),
    /// No operational path exists.
    Unreachable,
}

/// Single-source shortest paths by link metric over operational links.
///
/// Returns `(cost, parent)` vectors indexed by AD. `parent[src]` is `None`;
/// unreachable ADs have cost [`PathCost::Unreachable`] and parent `None`.
/// Ties are broken toward the smaller neighbor id, so results are
/// deterministic.
pub fn dijkstra(topo: &Topology, src: AdId) -> (Vec<PathCost>, Vec<Option<AdId>>) {
    let n = topo.num_ads();
    let mut cost = vec![u64::MAX; n];
    let mut parent: Vec<Option<AdId>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    cost[src.index()] = 0;
    heap.push(Reverse((0u64, src)));
    while let Some(Reverse((c, ad))) = heap.pop() {
        if c > cost[ad.index()] {
            continue;
        }
        for (nbr, link) in topo.neighbors(ad) {
            let nc = c + u64::from(topo.link(link).metric);
            let slot = &mut cost[nbr.index()];
            if nc < *slot || (nc == *slot && parent[nbr.index()].is_some_and(|p| ad < p)) {
                *slot = nc;
                parent[nbr.index()] = Some(ad);
                heap.push(Reverse((nc, nbr)));
            }
        }
    }
    let cost = cost
        .into_iter()
        .map(|c| {
            if c == u64::MAX {
                PathCost::Unreachable
            } else {
                PathCost::Finite(c)
            }
        })
        .collect();
    (cost, parent)
}

/// Breadth-first shortest-hop tree from `src` over operational links.
/// Returns `(hops, parent)`; unreachable ADs have `hops == u32::MAX`.
pub fn bfs_tree(topo: &Topology, src: AdId) -> (Vec<u32>, Vec<Option<AdId>>) {
    let n = topo.num_ads();
    let mut hops = vec![u32::MAX; n];
    let mut parent = vec![None; n];
    let mut queue = std::collections::VecDeque::new();
    hops[src.index()] = 0;
    queue.push_back(src);
    while let Some(ad) = queue.pop_front() {
        for (nbr, _) in topo.neighbors(ad) {
            if hops[nbr.index()] == u32::MAX {
                hops[nbr.index()] = hops[ad.index()] + 1;
                parent[nbr.index()] = Some(ad);
                queue.push_back(nbr);
            }
        }
    }
    (hops, parent)
}

/// Whether every AD can reach every other AD over operational links.
pub fn is_connected(topo: &Topology) -> bool {
    if topo.num_ads() == 0 {
        return true;
    }
    let (hops, _) = bfs_tree(topo, AdId(0));
    hops.iter().all(|&h| h != u32::MAX)
}

/// Partition of ADs into connected components (over operational links).
/// Component ids are assigned in order of lowest member AD id.
pub fn connected_components(topo: &Topology) -> Vec<u32> {
    let n = topo.num_ads();
    let mut comp = vec![u32::MAX; n];
    let mut next = 0;
    for start in 0..n {
        if comp[start] != u32::MAX {
            continue;
        }
        let mut stack = vec![AdId(start as u32)];
        comp[start] = next;
        while let Some(ad) = stack.pop() {
            for (nbr, _) in topo.neighbors(ad) {
                if comp[nbr.index()] == u32::MAX {
                    comp[nbr.index()] = next;
                    stack.push(nbr);
                }
            }
        }
        next += 1;
    }
    comp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{line, ring};
    use crate::ids::LinkId;

    /// The path `src … dst` a parent vector records (`None` if `dst` is
    /// unreachable).
    fn extract_path(parent: &[Option<AdId>], src: AdId, dst: AdId) -> Option<Vec<AdId>> {
        let mut path = vec![dst];
        while path[path.len() - 1] != src {
            path.push(parent[path[path.len() - 1].index()]?);
        }
        path.reverse();
        Some(path)
    }

    #[test]
    fn dijkstra_on_line() {
        let t = line(5);
        let (cost, parent) = dijkstra(&t, AdId(0));
        assert_eq!(cost[4], PathCost::Finite(4));
        let path = extract_path(&parent, AdId(0), AdId(4)).unwrap();
        assert_eq!(path, vec![AdId(0), AdId(1), AdId(2), AdId(3), AdId(4)]);
    }

    #[test]
    fn dijkstra_respects_metrics() {
        let mut t = ring(4); // 0-1-2-3-0
                             // Make 0-1 expensive; 0->2 should go via 3.
        let l01 = t.link_between(AdId(0), AdId(1)).unwrap();
        t.set_metric(l01, 10);
        let (cost, parent) = dijkstra(&t, AdId(0));
        assert_eq!(cost[2], PathCost::Finite(2));
        assert_eq!(
            extract_path(&parent, AdId(0), AdId(2)).unwrap(),
            vec![AdId(0), AdId(3), AdId(2)]
        );
    }

    #[test]
    fn dijkstra_unreachable_after_cut() {
        let mut t = line(3);
        t.set_link_up(LinkId(1), false);
        let (cost, parent) = dijkstra(&t, AdId(0));
        assert_eq!(cost[2], PathCost::Unreachable);
        assert!(extract_path(&parent, AdId(0), AdId(2)).is_none());
    }

    #[test]
    fn bfs_hops_on_ring() {
        let t = ring(6);
        let (hops, _) = bfs_tree(&t, AdId(0));
        assert_eq!(hops[3], 3);
        assert_eq!(hops[5], 1);
    }

    #[test]
    fn connectivity_and_components() {
        let mut t = line(4);
        assert!(is_connected(&t));
        assert_eq!(connected_components(&t), vec![0, 0, 0, 0]);
        t.set_link_up(LinkId(1), false); // cut 1-2
        assert!(!is_connected(&t));
        assert_eq!(connected_components(&t), vec![0, 0, 1, 1]);
    }

    #[test]
    fn self_path_is_trivial() {
        let t = line(2);
        let (cost, parent) = dijkstra(&t, AdId(0));
        assert_eq!((cost[0], parent[0]), (PathCost::Finite(0), None));
    }
}
