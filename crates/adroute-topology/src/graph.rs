//! The AD-level internet graph.

use crate::ids::{AdId, AdLevel, AdRole, LinkId, LinkKind};

/// An Administrative Domain: a node of the inter-AD graph.
#[derive(Clone, Debug)]
pub struct Ad {
    /// Dense identifier of this AD.
    pub id: AdId,
    /// Position in the Figure-1 hierarchy.
    pub level: AdLevel,
    /// Transit behaviour classification.
    pub role: AdRole,
}

/// An undirected inter-AD link: an edge of the inter-AD graph.
#[derive(Clone, Debug)]
pub struct Link {
    /// Dense identifier of this link.
    pub id: LinkId,
    /// One endpoint (the lower `AdId` by construction).
    pub a: AdId,
    /// The other endpoint.
    pub b: AdId,
    /// Hierarchical / lateral / bypass classification.
    pub kind: LinkKind,
    /// Abstract routing metric (cost) of traversing this link; protocols
    /// that ignore metrics treat every link as cost 1.
    pub metric: u32,
    /// Message propagation delay across this link in simulated
    /// microseconds. Used by the discrete-event engine.
    pub delay_us: u64,
    /// Whether the link is currently operational. Failure injection flips
    /// this; protocols learn about it via link events.
    pub up: bool,
}

/// An AD-level internet: the graph over which every protocol in this
/// workspace runs.
///
/// The structure is immutable except for per-link up/down state, matching
/// the paper's assumption (Section 2.2) that inter-AD *membership* changes
/// rarely while individual inter-AD links do fail and recover.
#[derive(Clone, Debug)]
pub struct Topology {
    ads: Vec<Ad>,
    links: Vec<Link>,
    /// `adj[ad] = [(neighbor, link), …]` sorted by neighbor id for
    /// determinism.
    adj: Vec<Vec<(AdId, LinkId)>>,
}

impl Topology {
    /// Creates a topology from a list of ADs (which must be densely numbered
    /// `0..n` in order) and undirected edges `(a, b, metric)`.
    ///
    /// Link kinds are derived from endpoint levels; link delay defaults to
    /// 1000 µs and may be adjusted with [`Topology::set_delay`].
    ///
    /// # Panics
    /// Panics if AD ids are not dense and in order, if an edge references a
    /// missing AD, if an edge is a self-loop, or if a duplicate edge occurs.
    pub fn new(ads: Vec<Ad>, edges: &[(AdId, AdId, u32)]) -> Topology {
        for (i, ad) in ads.iter().enumerate() {
            assert_eq!(ad.id.index(), i, "AD ids must be dense and in order");
        }
        let mut links = Vec::with_capacity(edges.len());
        let mut adj = vec![Vec::new(); ads.len()];
        let mut seen = std::collections::HashSet::new();
        for (i, &(a, b, metric)) in edges.iter().enumerate() {
            assert!(a != b, "self-loop at {a}");
            assert!(
                a.index() < ads.len() && b.index() < ads.len(),
                "edge endpoint out of range"
            );
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            assert!(seen.insert((lo, hi)), "duplicate edge {lo}-{hi}");
            let id = LinkId(i as u32);
            let kind = LinkKind::classify(ads[lo.index()].level, ads[hi.index()].level);
            links.push(Link {
                id,
                a: lo,
                b: hi,
                kind,
                metric,
                delay_us: 1000,
                up: true,
            });
            adj[lo.index()].push((hi, id));
            adj[hi.index()].push((lo, id));
        }
        for nbrs in &mut adj {
            nbrs.sort_unstable();
        }
        Topology { ads, links, adj }
    }

    /// Number of ADs.
    #[inline]
    pub fn num_ads(&self) -> usize {
        self.ads.len()
    }

    /// Number of links (up or down).
    #[inline]
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// The AD with the given id.
    #[inline]
    pub fn ad(&self, id: AdId) -> &Ad {
        &self.ads[id.index()]
    }

    /// The link with the given id.
    #[inline]
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Iterator over all ADs in id order.
    pub fn ads(&self) -> impl Iterator<Item = &Ad> {
        self.ads.iter()
    }

    /// Iterator over all links in id order.
    pub fn links(&self) -> impl Iterator<Item = &Link> {
        self.links.iter()
    }

    /// Iterator over all AD ids.
    pub fn ad_ids(&self) -> impl Iterator<Item = AdId> {
        (0..self.ads.len() as u32).map(AdId)
    }

    /// Neighbors of `ad` reachable over *up* links, with the connecting
    /// link, in deterministic (neighbor-id) order.
    pub fn neighbors(&self, ad: AdId) -> impl Iterator<Item = (AdId, LinkId)> + '_ {
        self.adj[ad.index()]
            .iter()
            .copied()
            .filter(move |&(_, l)| self.links[l.index()].up)
    }

    /// Neighbors of `ad` including those across failed links.
    pub fn all_neighbors(&self, ad: AdId) -> impl Iterator<Item = (AdId, LinkId)> + '_ {
        self.adj[ad.index()].iter().copied()
    }

    /// Degree of `ad` counting only operational links.
    pub fn degree(&self, ad: AdId) -> usize {
        self.neighbors(ad).count()
    }

    /// Degree of `ad` counting all links.
    pub fn full_degree(&self, ad: AdId) -> usize {
        self.adj[ad.index()].len()
    }

    /// Finds the link between `a` and `b`, if any (up or down).
    pub fn link_between(&self, a: AdId, b: AdId) -> Option<LinkId> {
        self.neighbor_slot(a, b)
            .map(|slot| self.adj[a.index()][slot].1)
    }

    /// The position of `b` in `a`'s adjacency list, if adjacent. Protocol
    /// state keyed per-neighbor can use this as a dense arena index (the
    /// list is sorted by neighbor id, so slots are stable for a topology).
    pub fn neighbor_slot(&self, a: AdId, b: AdId) -> Option<usize> {
        self.adj[a.index()]
            .binary_search_by_key(&b, |&(nbr, _)| nbr)
            .ok()
    }

    /// Marks a link down. Returns the previous state.
    pub fn set_link_up(&mut self, id: LinkId, up: bool) -> bool {
        std::mem::replace(&mut self.links[id.index()].up, up)
    }

    /// Overrides the propagation delay of a link.
    pub fn set_delay(&mut self, id: LinkId, delay_us: u64) {
        self.links[id.index()].delay_us = delay_us;
    }

    /// Overrides the metric of a link.
    pub fn set_metric(&mut self, id: LinkId, metric: u32) {
        self.links[id.index()].metric = metric;
    }

    /// Re-derives each AD's [`AdRole`] from its current degree: degree-1
    /// non-transit ADs become [`AdRole::Stub`], higher-degree campus ADs
    /// become [`AdRole::MultiHomedStub`] unless already marked hybrid.
    ///
    /// The generator calls this after wiring; tests may call it after
    /// hand-building topologies.
    pub fn reclassify_roles(&mut self) {
        for i in 0..self.ads.len() {
            let deg = self.adj[i].len();
            let ad = &mut self.ads[i];
            ad.role = match ad.level {
                AdLevel::Backbone | AdLevel::Regional => AdRole::Transit,
                AdLevel::Metro => AdRole::Hybrid,
                AdLevel::Campus => {
                    if deg <= 1 {
                        AdRole::Stub
                    } else {
                        AdRole::MultiHomedStub
                    }
                }
            };
        }
    }

    /// Counts links by kind: `(hierarchical, lateral, bypass)`.
    pub fn link_kind_counts(&self) -> (usize, usize, usize) {
        let mut h = 0;
        let mut l = 0;
        let mut b = 0;
        for link in &self.links {
            match link.kind {
                LinkKind::Hierarchical => h += 1,
                LinkKind::Lateral => l += 1,
                LinkKind::Bypass => b += 1,
            }
        }
        (h, l, b)
    }

    /// Counts ADs by role: `(stub, multi-homed, transit, hybrid)`.
    pub fn role_counts(&self) -> (usize, usize, usize, usize) {
        let mut s = 0;
        let mut m = 0;
        let mut t = 0;
        let mut h = 0;
        for ad in &self.ads {
            match ad.role {
                AdRole::Stub => s += 1,
                AdRole::MultiHomedStub => m += 1,
                AdRole::Transit => t += 1,
                AdRole::Hybrid => h += 1,
            }
        }
        (s, m, t, h)
    }

    /// Validates that a path is a sequence of adjacent, operational links
    /// with no repeated AD. Returns `false` for paths shorter than 1 hop.
    pub fn is_simple_path(&self, path: &[AdId]) -> bool {
        if path.len() < 2 {
            return false;
        }
        let mut seen = std::collections::HashSet::new();
        for ad in path {
            if !seen.insert(*ad) {
                return false;
            }
        }
        path.windows(2).all(|w| {
            self.link_between(w[0], w[1])
                .map(|l| self.link(l).up)
                .unwrap_or(false)
        })
    }
}

/// Convenience constructor for an [`Ad`] used by generators and tests.
pub fn make_ad(id: u32, level: AdLevel) -> Ad {
    let role = match level {
        AdLevel::Backbone | AdLevel::Regional => AdRole::Transit,
        AdLevel::Metro => AdRole::Hybrid,
        AdLevel::Campus => AdRole::Stub,
    };
    Ad {
        id: AdId(id),
        level,
        role,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Topology {
        // 0(backbone) - 1(regional) - 2(campus), plus bypass 0-2
        let ads = vec![
            make_ad(0, AdLevel::Backbone),
            make_ad(1, AdLevel::Regional),
            make_ad(2, AdLevel::Campus),
        ];
        Topology::new(
            ads,
            &[
                (AdId(0), AdId(1), 1),
                (AdId(1), AdId(2), 1),
                (AdId(0), AdId(2), 5),
            ],
        )
    }

    #[test]
    fn construction_and_queries() {
        let t = tiny();
        assert_eq!(t.num_ads(), 3);
        assert_eq!(t.num_links(), 3);
        assert_eq!(t.degree(AdId(0)), 2);
        assert_eq!(t.link_between(AdId(0), AdId(2)), Some(LinkId(2)));
        assert_eq!(t.link(LinkId(2)).kind, LinkKind::Bypass);
        assert_eq!(t.link(LinkId(0)).kind, LinkKind::Hierarchical);
        // Regional-Campus skips Metro => bypass per classify (difference 2).
        assert_eq!(t.link(LinkId(1)).kind, LinkKind::Bypass);
    }

    #[test]
    fn link_other_endpoint() {
        let t = tiny();
        let l = t.link(LinkId(0));
        assert_eq!((l.a, l.b), (AdId(0), AdId(1)));
        assert_eq!(t.link_between(AdId(1), AdId(0)), Some(LinkId(0)));
    }

    #[test]
    fn link_failure_hides_neighbors() {
        let mut t = tiny();
        assert_eq!(t.neighbors(AdId(0)).count(), 2);
        t.set_link_up(LinkId(0), false);
        assert_eq!(t.neighbors(AdId(0)).count(), 1);
        assert_eq!(t.all_neighbors(AdId(0)).count(), 2);
        assert_eq!(t.degree(AdId(0)), 1);
        assert_eq!(t.full_degree(AdId(0)), 2);
        t.set_link_up(LinkId(0), true);
        assert_eq!(t.degree(AdId(0)), 2);
    }

    #[test]
    fn simple_path_validation() {
        let mut t = tiny();
        assert!(t.is_simple_path(&[AdId(0), AdId(1), AdId(2)]));
        assert!(t.is_simple_path(&[AdId(0), AdId(2)]));
        // too short
        assert!(!t.is_simple_path(&[AdId(0)]));
        // repeated AD
        assert!(!t.is_simple_path(&[AdId(0), AdId(1), AdId(0)]));
        // not adjacent after failure
        t.set_link_up(LinkId(2), false);
        assert!(!t.is_simple_path(&[AdId(0), AdId(2)]));
    }

    #[test]
    fn reclassify_roles_by_degree() {
        let ads = vec![
            make_ad(0, AdLevel::Regional),
            make_ad(1, AdLevel::Regional),
            make_ad(2, AdLevel::Campus),
        ];
        let mut t = Topology::new(
            ads,
            &[
                (AdId(0), AdId(1), 1),
                (AdId(0), AdId(2), 1),
                (AdId(1), AdId(2), 1),
            ],
        );
        t.reclassify_roles();
        assert_eq!(t.ad(AdId(2)).role, AdRole::MultiHomedStub);
        assert_eq!(t.ad(AdId(0)).role, AdRole::Transit);
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn duplicate_edge_rejected() {
        let ads = vec![make_ad(0, AdLevel::Campus), make_ad(1, AdLevel::Campus)];
        Topology::new(ads, &[(AdId(0), AdId(1), 1), (AdId(1), AdId(0), 2)]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let ads = vec![make_ad(0, AdLevel::Campus)];
        Topology::new(ads, &[(AdId(0), AdId(0), 1)]);
    }

    #[test]
    fn counts() {
        let t = tiny();
        let (h, l, b) = t.link_kind_counts();
        assert_eq!((h, l, b), (1, 0, 2));
        let (s, _m, tr, _hy) = t.role_counts();
        assert_eq!(s, 1);
        assert_eq!(tr, 2);
    }
}
