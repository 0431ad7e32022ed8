//! Policy model for inter-AD routing, after Section 2.3 of *Design of
//! Inter-Administrative Domain Routing Protocols* (Breslau & Estrin,
//! SIGCOMM 1990) and D. Clark's *Policy Routing in Internet Protocols*
//! (RFC 1102).
//!
//! The paper distinguishes **transit policies** — what a carrier AD is
//! willing to carry — from **route selection criteria** — what a source AD
//! wants from the routes it uses. Both may depend on the source and
//! destination of traffic, the other ADs in the path, the Quality of
//! Service, the User Class Identifier, and the time of day. This crate
//! provides:
//!
//! * [`FlowSpec`] and the classification dimensions ([`QosClass`],
//!   [`UserClass`], time of day);
//! * [`PolicyTerm`]s — explicit, advertisable policy statements with
//!   conditions over (source, destination, previous AD, next AD, QOS, UCI,
//!   time) and a permit/deny action, grouped into per-AD [`TransitPolicy`];
//! * [`RouteSelection`] — the source-side criteria;
//! * [`PolicyDb`] — the global policy view that link-state architectures
//!   flood to every AD;
//! * [`legality`] — the **oracle**: exact policy-constrained route search
//!   used to score every protocol's route availability;
//! * [`workload`] — seeded random policy workloads with tunable
//!   granularity;
//! * [`ordering`] — satisfiability of a policy set by a single global
//!   partial ordering (the ECMA question of paper Section 5.1.1).

pub mod class;
pub mod db;
pub mod legality;
pub mod ordering;
pub mod terms;
pub mod text;
pub mod workload;

pub use class::{FlowSpec, QosClass, TimeOfDay, UserClass};
pub use db::PolicyDb;
pub use legality::{legal_route, legal_routes_sweep, route_is_legal, LegalRoute};
pub use terms::{
    AdSet, PolicyAction, PolicyCondition, PolicyTerm, PtId, RouteSelection, TransitPolicy,
};
