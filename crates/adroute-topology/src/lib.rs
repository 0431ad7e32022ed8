//! AD-level internet topology model for inter-Administrative-Domain routing.
//!
//! This crate implements the topology model of Section 2.1 of *Design of
//! Inter-Administrative Domain Routing Protocols* (Breslau & Estrin, SIGCOMM
//! 1990): an internet is a graph whose nodes are **Administrative Domains**
//! (ADs) — sets of hosts, networks and gateways under a single authority —
//! and whose edges are inter-AD links. Following Section 4.1 of the paper,
//! routing is treated entirely at the granularity of ADs: an inter-AD route
//! is a sequence of ADs, and intra-AD detail is deliberately abstracted away.
//!
//! The expected topology (paper Figure 1) is a hierarchy — backbone,
//! regional, metropolitan, and campus networks — *augmented* with lateral
//! links between peers and bypass links that skip hierarchy levels. The
//! [`generate`] module produces seeded random internets of exactly this
//! shape at any scale, plus canonical graphs for protocol unit tests.
//!
//! The [`order`] module implements the global partial ordering of ADs used
//! by the NIST/ECMA proposal (paper Section 5.1.1) together with the
//! up/down link labelling and the valley-freedom rule that the ordering
//! induces.

pub mod algo;
pub mod analysis;
pub mod delta;
pub mod generate;
pub mod graph;
pub mod ids;
pub mod io;
pub mod order;
pub mod render;

pub use algo::{bfs_tree, connected_components, dijkstra, is_connected, PathCost};
pub use analysis::{articulation_ads, degree_stats, egress_diversity, DegreeStats};
pub use delta::TopoDelta;
pub use generate::{clique, grid, line, ring, star, HierarchyConfig};
pub use graph::{Ad, Link, Topology};
pub use ids::{AdId, AdLevel, AdRole, LinkId, LinkKind};
pub use io::{dump, parse, TopologyParseError};
pub use order::{LinkDirection, PartialOrder};
pub use render::{render_path, render_tree};
