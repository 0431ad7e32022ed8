//! The NIST/ECMA global partial ordering of ADs (paper Section 5.1.1).
//!
//! The ECMA proposal avoids distance-vector looping and count-to-infinity by
//! imposing a *partial ordering* on all ADs, coordinated by a central
//! authority. Every inter-AD link is labelled **up** or **down** according
//! to the endpoints' positions in the ordering, and forwarding obeys the
//! rule: *once a packet traverses a down link, it cannot traverse another up
//! link*. Routes in distance-vector updates are marked with the kinds of
//! link they traversed so this rule can be enforced during both route
//! distribution and forwarding.
//!
//! Here the ordering is realized as a total rank per AD (a linear extension
//! of the intended partial order): level-major, id-minor by default, which
//! mirrors the paper's observation that the hierarchy itself induces the
//! natural ordering. Custom ranks can express policy — that is exactly the
//! (limited) policy mechanism of the Section 5.1 design point, and the
//! `adroute-policy::ordering` module measures how much policy a single
//! ordering can express.

use crate::graph::Topology;
use crate::ids::AdId;

/// Direction of a link traversal relative to the partial order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LinkDirection {
    /// Toward a higher-ranked AD.
    Up,
    /// Toward a lower-ranked AD.
    Down,
}

/// A global ordering of ADs: `rank[ad]` is the AD's position.
///
/// Links between ADs of *equal* rank are disambiguated by AD id, so every
/// directed traversal is unambiguously up or down (the ordering is a linear
/// extension of the partial order the administrators negotiated).
#[derive(Clone, Debug)]
pub struct PartialOrder {
    rank: Vec<u32>,
}

impl PartialOrder {
    /// The natural hierarchy ordering: rank = level-major, id-minor.
    /// Backbones rank highest.
    pub fn from_levels(topo: &Topology) -> PartialOrder {
        let rank = topo.ads().map(|ad| u32::from(ad.level.rank())).collect();
        PartialOrder { rank }
    }

    /// An ordering from explicit per-AD ranks.
    ///
    /// # Panics
    /// Panics if `rank.len() != topo.num_ads()`.
    pub fn from_ranks(topo: &Topology, rank: Vec<u32>) -> PartialOrder {
        assert_eq!(rank.len(), topo.num_ads());
        PartialOrder { rank }
    }

    /// The rank of `ad`.
    #[inline]
    pub fn rank(&self, ad: AdId) -> u32 {
        self.rank[ad.index()]
    }

    /// Direction of traversing from `from` to `to`.
    ///
    /// Equal ranks are tie-broken by AD id (toward the higher id is "up"),
    /// making the order total and every traversal well-defined.
    #[inline]
    pub(crate) fn direction(&self, from: AdId, to: AdId) -> LinkDirection {
        let (rf, rt) = (self.rank(from), self.rank(to));
        if rt > rf || (rt == rf && to > from) {
            LinkDirection::Up
        } else {
            LinkDirection::Down
        }
    }

    /// Whether a path obeys the up/down ("valley-free") rule: once a down
    /// link is traversed, no up link may follow.
    pub fn is_valley_free(&self, path: &[AdId]) -> bool {
        let mut gone_down = false;
        for w in path.windows(2) {
            match self.direction(w[0], w[1]) {
                LinkDirection::Up => {
                    if gone_down {
                        return false;
                    }
                }
                LinkDirection::Down => gone_down = true,
            }
        }
        true
    }

    /// Whether a valley-free path from `src` to `dst` exists over
    /// operational links: a two-phase BFS (up phase then down phase).
    ///
    /// This is the *reachability* ECMA can offer at best; contrast with the
    /// unconstrained reachability of link-state architectures.
    pub fn valley_free_reachable(&self, topo: &Topology, src: AdId, dst: AdId) -> bool {
        self.valley_free_path(topo, src, dst).is_some()
    }

    /// Finds a shortest (by hops) valley-free path, if any.
    ///
    /// Search state is `(ad, phase)` where phase 0 = still allowed to go up,
    /// phase 1 = has gone down. Deterministic BFS.
    pub fn valley_free_path(&self, topo: &Topology, src: AdId, dst: AdId) -> Option<Vec<AdId>> {
        if src == dst {
            return Some(vec![src]);
        }
        let n = topo.num_ads();
        // parent[state] = (ad, phase) predecessor; state = ad*2 + phase.
        let mut parent: Vec<Option<(AdId, u8)>> = vec![None; n * 2];
        let mut visited = vec![false; n * 2];
        let mut queue = std::collections::VecDeque::new();
        visited[src.index() * 2] = true;
        queue.push_back((src, 0u8));
        while let Some((ad, phase)) = queue.pop_front() {
            for (nbr, _) in topo.neighbors(ad) {
                let dir = self.direction(ad, nbr);
                let nphase = match dir {
                    LinkDirection::Up => {
                        if phase == 1 {
                            continue; // up after down: forbidden
                        }
                        0
                    }
                    LinkDirection::Down => 1,
                };
                let state = nbr.index() * 2 + nphase as usize;
                if !visited[state] {
                    visited[state] = true;
                    parent[state] = Some((ad, phase));
                    if nbr == dst {
                        // Reconstruct.
                        let mut path = vec![nbr];
                        let mut cur = (ad, phase);
                        loop {
                            path.push(cur.0);
                            if cur.0 == src && cur.1 == 0 {
                                break;
                            }
                            cur = parent[cur.0.index() * 2 + cur.1 as usize]
                                .expect("parent chain broken");
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back((nbr, nphase));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{line, HierarchyConfig};
    use crate::graph::{make_ad, Topology};
    use crate::ids::AdLevel;

    /// Backbone B(0); regionals R1(1), R2(2); campuses C1(3) under R1,
    /// C2(4) under R2. Lateral R1-R2.
    fn two_regions() -> Topology {
        let ads = vec![
            make_ad(0, AdLevel::Backbone),
            make_ad(1, AdLevel::Regional),
            make_ad(2, AdLevel::Regional),
            make_ad(3, AdLevel::Campus),
            make_ad(4, AdLevel::Campus),
        ];
        Topology::new(
            ads,
            &[
                (AdId(0), AdId(1), 1),
                (AdId(0), AdId(2), 1),
                (AdId(1), AdId(2), 1),
                (AdId(1), AdId(3), 1),
                (AdId(2), AdId(4), 1),
            ],
        )
    }

    #[test]
    fn directions_follow_levels() {
        let t = two_regions();
        let po = PartialOrder::from_levels(&t);
        assert_eq!(po.direction(AdId(3), AdId(1)), LinkDirection::Up);
        assert_eq!(po.direction(AdId(1), AdId(3)), LinkDirection::Down);
        assert_eq!(po.direction(AdId(1), AdId(0)), LinkDirection::Up);
        // Equal rank: tie-break by id.
        assert_eq!(po.direction(AdId(1), AdId(2)), LinkDirection::Up);
        assert_eq!(po.direction(AdId(2), AdId(1)), LinkDirection::Down);
    }

    #[test]
    fn valley_free_accepts_hierarchical_routes() {
        let t = two_regions();
        let po = PartialOrder::from_levels(&t);
        // C1 up to R1, up to B, down to R2, down to C2: valley-free.
        assert!(po.is_valley_free(&[AdId(3), AdId(1), AdId(0), AdId(2), AdId(4)]));
        // C1 up to R1, lateral (up, id-tiebreak) to R2, down to C2: also ok.
        assert!(po.is_valley_free(&[AdId(3), AdId(1), AdId(2), AdId(4)]));
    }

    #[test]
    fn valley_free_rejects_valleys() {
        let t = two_regions();
        let po = PartialOrder::from_levels(&t);
        // R2 down to C2? no link C2 up again... construct a valley:
        // B down to R1, down to C1 — fine; but R1 down to C1 then C1 up
        // anywhere is a valley:
        assert!(!po.is_valley_free(&[AdId(0), AdId(1), AdId(3), AdId(1)]));
        // down (R2->R1 by tiebreak) then up (R1->B) is a valley:
        assert!(!po.is_valley_free(&[AdId(2), AdId(1), AdId(0)]));
    }

    #[test]
    fn valley_free_path_search_finds_route() {
        let t = two_regions();
        let po = PartialOrder::from_levels(&t);
        let p = po.valley_free_path(&t, AdId(3), AdId(4)).unwrap();
        assert!(po.is_valley_free(&p));
        assert!(t.is_simple_path(&p));
        assert_eq!(p.first(), Some(&AdId(3)));
        assert_eq!(p.last(), Some(&AdId(4)));
    }

    #[test]
    fn valley_free_search_respects_failures() {
        let mut t = two_regions();
        let po = PartialOrder::from_levels(&t);
        // Cut both R1's upward/lateral options; C1 can then reach nothing
        // beyond R1's subtree except through B.
        let l = t.link_between(AdId(1), AdId(2)).unwrap();
        t.set_link_up(l, false);
        let p = po.valley_free_path(&t, AdId(3), AdId(4)).unwrap();
        assert_eq!(p, vec![AdId(3), AdId(1), AdId(0), AdId(2), AdId(4)]);
        let l2 = t.link_between(AdId(0), AdId(2)).unwrap();
        t.set_link_up(l2, false);
        assert!(po.valley_free_path(&t, AdId(3), AdId(4)).is_none());
        assert!(!po.valley_free_reachable(&t, AdId(3), AdId(4)));
    }

    #[test]
    fn custom_ranks_change_directions() {
        let t = line(3);
        let po = PartialOrder::from_ranks(&t, vec![5, 1, 5]);
        // 0 -> 1 is down; 1 -> 2 is up: that is a valley.
        assert!(!po.is_valley_free(&[AdId(0), AdId(1), AdId(2)]));
        assert!(po.valley_free_path(&t, AdId(0), AdId(2)).is_none());
        assert_eq!(po.rank(AdId(1)), 1);
    }

    #[test]
    fn valley_free_on_generated_hierarchy() {
        let t = HierarchyConfig::default().generate();
        let po = PartialOrder::from_levels(&t);
        // Every campus should reach every other campus valley-freely in a
        // connected hierarchy (up to the top, across, and down).
        let campuses: Vec<AdId> = t
            .ads()
            .filter(|a| a.level == AdLevel::Campus)
            .map(|a| a.id)
            .take(6)
            .collect();
        for &a in &campuses {
            for &b in &campuses {
                assert!(po.valley_free_reachable(&t, a, b), "{a} !-> {b}");
            }
        }
    }

    #[test]
    fn trivial_path() {
        let t = line(2);
        let po = PartialOrder::from_levels(&t);
        assert_eq!(
            po.valley_free_path(&t, AdId(0), AdId(0)).unwrap(),
            vec![AdId(0)]
        );
        assert!(po.is_valley_free(&[AdId(0)]));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::generate::HierarchyConfig;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Any path the valley-free search returns is simple, valley-free,
        /// and endpoint-correct; and the search agrees with reachability.
        #[test]
        fn valley_free_search_is_sound(seed in 0u64..500, s in 0u32..30, d in 0u32..30) {
            let topo = HierarchyConfig { seed, ..HierarchyConfig::figure1() }.generate();
            let n = topo.num_ads() as u32;
            let (s, d) = (AdId(s % n), AdId(d % n));
            let po = PartialOrder::from_levels(&topo);
            match po.valley_free_path(&topo, s, d) {
                Some(p) => {
                    prop_assert!(po.is_valley_free(&p));
                    prop_assert_eq!(p.first(), Some(&s));
                    prop_assert_eq!(p.last(), Some(&d));
                    prop_assert!(p.len() == 1 || topo.is_simple_path(&p));
                    prop_assert!(po.valley_free_reachable(&topo, s, d));
                }
                None => prop_assert!(!po.valley_free_reachable(&topo, s, d)),
            }
        }

        /// Direction is antisymmetric: exactly one of a->b / b->a is up.
        #[test]
        fn direction_antisymmetric(seed in 0u64..200, a in 0u32..30, b in 0u32..30) {
            let topo = HierarchyConfig { seed, ..HierarchyConfig::figure1() }.generate();
            let n = topo.num_ads() as u32;
            let (a, b) = (AdId(a % n), AdId(b % n));
            if a != b {
                let po = PartialOrder::from_levels(&topo);
                let ab = po.direction(a, b) == LinkDirection::Up;
                let ba = po.direction(b, a) == LinkDirection::Up;
                prop_assert_ne!(ab, ba);
            }
        }

        /// Generated hierarchies are connected and valley-free-connected
        /// from any campus to any campus.
        #[test]
        fn hierarchies_connected(seed in 0u64..200) {
            let topo = HierarchyConfig { seed, ..HierarchyConfig::figure1() }.generate();
            prop_assert!(crate::algo::is_connected(&topo));
        }
    }
}
