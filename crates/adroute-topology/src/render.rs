//! ASCII rendering of internets, for terminals and docs.
//!
//! [`render_tree`] draws the hierarchy: children indented under their
//! hierarchical parents, non-tree links annotated inline.

use std::fmt::Write as _;

use crate::graph::Topology;
use crate::ids::{AdId, LinkKind};

/// Renders the hierarchy as an indented tree.
///
/// Every AD appears exactly once, under its first (lowest-id) hierarchical
/// parent; additional hierarchical parents, lateral links and bypass links
/// are annotated on the child's line. Deterministic output.
pub fn render_tree(topo: &Topology) -> String {
    let n = topo.num_ads();
    // parent[i] = first hierarchical neighbor with a higher level.
    let mut parent: Vec<Option<AdId>> = vec![None; n];
    for ad in topo.ad_ids() {
        let me = topo.ad(ad);
        parent[ad.index()] = topo
            .all_neighbors(ad)
            .filter(|&(nbr, l)| {
                topo.link(l).kind == LinkKind::Hierarchical && topo.ad(nbr).level > me.level
            })
            .map(|(nbr, _)| nbr)
            .min();
    }
    let mut children: Vec<Vec<AdId>> = vec![Vec::new(); n];
    let mut roots = Vec::new();
    for ad in topo.ad_ids() {
        match parent[ad.index()] {
            Some(p) => children[p.index()].push(ad),
            None => roots.push(ad),
        }
    }

    fn annotations(topo: &Topology, ad: AdId, parent: Option<AdId>) -> String {
        let mut notes = Vec::new();
        for (nbr, l) in topo.all_neighbors(ad) {
            let link = topo.link(l);
            let dead = if link.up { "" } else { " (down)" };
            match link.kind {
                LinkKind::Lateral => notes.push(format!("~{nbr}{dead}")),
                LinkKind::Bypass => notes.push(format!("^{nbr}{dead}")),
                LinkKind::Hierarchical => {
                    // Extra hierarchical parents beyond the tree edge.
                    if topo.ad(nbr).level > topo.ad(ad).level && Some(nbr) != parent {
                        notes.push(format!("+{nbr}{dead}"));
                    }
                }
            }
        }
        if notes.is_empty() {
            String::new()
        } else {
            format!("  [{}]", notes.join(" "))
        }
    }

    fn rec(
        topo: &Topology,
        out: &mut String,
        ad: AdId,
        parent: Option<AdId>,
        children: &[Vec<AdId>],
        depth: usize,
    ) {
        let a = topo.ad(ad);
        let _ = writeln!(
            out,
            "{}{} ({} {}){}",
            "  ".repeat(depth),
            ad,
            a.level,
            a.role,
            annotations(topo, ad, parent)
        );
        for &c in &children[ad.index()] {
            rec(topo, out, c, Some(ad), children, depth + 1);
        }
    }

    let mut out = String::new();
    for r in roots {
        rec(topo, &mut out, r, None, &children, 0);
    }
    out.push_str("legend: ~lateral  ^bypass  +extra hierarchical parent\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::HierarchyConfig;
    use crate::graph::make_ad;
    use crate::ids::AdLevel;

    #[test]
    fn tree_lists_every_ad_once() {
        let topo = HierarchyConfig::figure1().generate();
        let text = render_tree(&topo);
        for ad in topo.ad_ids() {
            let needle = format!("{ad} (");
            assert_eq!(
                text.matches(&needle).count(),
                1,
                "{ad} should appear exactly once:\n{text}"
            );
        }
        assert!(text.contains("legend:"));
    }

    #[test]
    fn tree_annotates_non_tree_links() {
        // R(0) - M(1) - C(2), plus bypass C-R and a lateral metro M(3).
        let ads = vec![
            make_ad(0, AdLevel::Regional),
            make_ad(1, AdLevel::Metro),
            make_ad(2, AdLevel::Campus),
            make_ad(3, AdLevel::Metro),
        ];
        let mut topo = Topology::new(
            ads,
            &[
                (AdId(0), AdId(1), 1),
                (AdId(1), AdId(2), 1),
                (AdId(0), AdId(2), 1), // bypass
                (AdId(1), AdId(3), 1), // lateral
            ],
        );
        topo.reclassify_roles();
        let text = render_tree(&topo);
        assert!(text.contains("^AD0"), "bypass annotation missing:\n{text}");
        assert!(text.contains("~AD3"), "lateral annotation missing:\n{text}");
        // Indentation: regional under backbone, campus under regional.
        assert!(text.contains("\n  AD1 "), "{text}");
        assert!(text.contains("\n    AD2 "), "{text}");
    }

    #[test]
    fn down_links_marked() {
        let topo = {
            let ads = vec![make_ad(0, AdLevel::Regional), make_ad(1, AdLevel::Regional)];
            let mut t = Topology::new(ads, &[(AdId(0), AdId(1), 1)]);
            t.set_link_up(crate::ids::LinkId(0), false);
            t
        };
        let text = render_tree(&topo);
        assert!(text.contains("(down)"), "{text}");
    }

    #[test]
    fn tree_labels_each_ad_with_its_level() {
        let topo = HierarchyConfig::figure1().generate();
        let text = render_tree(&topo);
        for ad in topo.ads() {
            assert!(
                text.contains(&format!("{} ({} ", ad.id, ad.level)),
                "{text}"
            );
        }
    }
}
