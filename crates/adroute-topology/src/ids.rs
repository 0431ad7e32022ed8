//! Identifier and classification types for Administrative Domains and links.

use std::fmt;

/// Identifier of an Administrative Domain (AD).
///
/// ADs are numbered densely from zero within a [`crate::Topology`], so an
/// `AdId` doubles as an index into per-AD vectors.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AdId(pub u32);

impl AdId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for AdId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AD{}", self.0)
    }
}

impl From<u32> for AdId {
    fn from(v: u32) -> Self {
        AdId(v)
    }
}

/// The transit ADs of an AD path: all but its two endpoints, and none for
/// a path of one or two ADs (a self-flow's route is its source alone).
pub fn transit(path: &[AdId]) -> &[AdId] {
    path.get(1..path.len().saturating_sub(1)).unwrap_or(&[])
}

/// Identifier of an inter-AD link.
///
/// Links are numbered densely from zero within a [`crate::Topology`]. A link
/// is an undirected adjacency between two ADs; protocols may treat the two
/// directions separately.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkId(pub u32);

impl LinkId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// Position of an AD in the hierarchy of paper Figure 1.
///
/// The paper's model internet consists of "long haul backbone, regional,
/// metropolitan, and campus networks" (Section 2.1). Level ordering is
/// `Backbone > Regional > Metro > Campus`; the ECMA partial order
/// ([`crate::order::PartialOrder`]) ranks ADs level-major.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum AdLevel {
    /// Campus / organization network — the leaves of the hierarchy.
    Campus,
    /// Metropolitan-area network.
    Metro,
    /// Regional network.
    Regional,
    /// Long-haul backbone network.
    Backbone,
}

impl AdLevel {
    /// Numeric rank: `Campus = 0` … `Backbone = 3`. Higher is closer to the
    /// top of the hierarchy.
    #[inline]
    pub(crate) fn rank(self) -> u8 {
        match self {
            AdLevel::Campus => 0,
            AdLevel::Metro => 1,
            AdLevel::Regional => 2,
            AdLevel::Backbone => 3,
        }
    }

    /// All levels from leaf to root.
    pub const ALL: [AdLevel; 4] = [
        AdLevel::Campus,
        AdLevel::Metro,
        AdLevel::Regional,
        AdLevel::Backbone,
    ];
}

impl fmt::Display for AdLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AdLevel::Campus => "campus",
            AdLevel::Metro => "metro",
            AdLevel::Regional => "regional",
            AdLevel::Backbone => "backbone",
        };
        f.write_str(s)
    }
}

/// Transit behaviour of an AD, per the taxonomy of paper Section 2.1.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AdRole {
    /// A *stub* AD is "not used for transit by anyone outside of the AD";
    /// it has exactly one inter-AD connection.
    Stub,
    /// A *multi-homed* stub has more than one inter-AD connection "but
    /// wish\[es\] to disallow any transit traffic".
    MultiHomedStub,
    /// A *transit* AD's "primary function is to provide transit services
    /// for many other ADs" — backbones and regionals.
    Transit,
    /// A *hybrid* (limited-transit) AD supports access to end systems as
    /// well as limited forms of transit.
    Hybrid,
}

impl AdRole {
    /// Whether this AD is willing to carry any third-party transit traffic
    /// at all (policy may still restrict which).
    #[inline]
    pub fn offers_transit(self) -> bool {
        matches!(self, AdRole::Transit | AdRole::Hybrid)
    }
}

impl fmt::Display for AdRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AdRole::Stub => "stub",
            AdRole::MultiHomedStub => "multi-homed-stub",
            AdRole::Transit => "transit",
            AdRole::Hybrid => "hybrid",
        };
        f.write_str(s)
    }
}

/// Classification of an inter-AD link, per paper Section 2.1: the topology
/// is "a hierarchy augmented with special purpose lateral links … as well as
/// special purpose bypass links".
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LinkKind {
    /// A parent–child link of the hierarchy (adjacent levels).
    Hierarchical,
    /// A link between two ADs at the same hierarchy level (e.g. two
    /// regionals, or two campuses with a private line).
    Lateral,
    /// A link that skips at least one hierarchy level (e.g. a campus
    /// connected directly to a backbone).
    Bypass,
}

impl fmt::Display for LinkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LinkKind::Hierarchical => "hierarchical",
            LinkKind::Lateral => "lateral",
            LinkKind::Bypass => "bypass",
        };
        f.write_str(s)
    }
}

impl LinkKind {
    /// Classify a link by the levels of its endpoints.
    pub(crate) fn classify(a: AdLevel, b: AdLevel) -> LinkKind {
        let (lo, hi) = if a.rank() <= b.rank() { (a, b) } else { (b, a) };
        if lo == hi {
            LinkKind::Lateral
        } else if hi.rank() - lo.rank() == 1 {
            LinkKind::Hierarchical
        } else {
            LinkKind::Bypass
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_rank_ordering() {
        assert!(AdLevel::Backbone.rank() > AdLevel::Regional.rank());
        assert!(AdLevel::Regional.rank() > AdLevel::Metro.rank());
        assert!(AdLevel::Metro.rank() > AdLevel::Campus.rank());
        assert!(AdLevel::Backbone > AdLevel::Campus);
    }

    #[test]
    fn link_kind_classification() {
        use AdLevel::*;
        assert_eq!(LinkKind::classify(Campus, Metro), LinkKind::Hierarchical);
        assert_eq!(LinkKind::classify(Metro, Campus), LinkKind::Hierarchical);
        assert_eq!(LinkKind::classify(Regional, Regional), LinkKind::Lateral);
        assert_eq!(LinkKind::classify(Campus, Backbone), LinkKind::Bypass);
        assert_eq!(LinkKind::classify(Campus, Regional), LinkKind::Bypass);
        assert_eq!(
            LinkKind::classify(Backbone, Regional),
            LinkKind::Hierarchical
        );
    }

    #[test]
    fn roles_transit_willingness() {
        assert!(!AdRole::Stub.offers_transit());
        assert!(!AdRole::MultiHomedStub.offers_transit());
        assert!(AdRole::Transit.offers_transit());
        assert!(AdRole::Hybrid.offers_transit());
    }

    #[test]
    fn display_forms() {
        assert_eq!(AdId(7).to_string(), "AD7");
        assert_eq!(LinkId(3).to_string(), "L3");
        assert_eq!(AdLevel::Backbone.to_string(), "backbone");
        assert_eq!(AdRole::MultiHomedStub.to_string(), "multi-homed-stub");
        assert_eq!(LinkKind::Bypass.to_string(), "bypass");
    }

    #[test]
    fn transit_drops_both_endpoints() {
        let ids = |v: &[u32]| v.iter().map(|&i| AdId(i)).collect::<Vec<_>>();
        assert_eq!(transit(&ids(&[0, 1, 2, 3])), &ids(&[1, 2])[..]);
        assert!(transit(&ids(&[0, 3])).is_empty());
        assert!(transit(&ids(&[2])).is_empty());
        assert!(transit(&[]).is_empty());
    }

    #[test]
    fn id_round_trip() {
        let id: AdId = 42u32.into();
        assert_eq!(id.index(), 42);
        assert_eq!(LinkId(9).index(), 9);
    }
}
