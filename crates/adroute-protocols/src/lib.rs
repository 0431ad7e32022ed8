//! The hop-by-hop design points of the inter-AD routing design space
//! (paper Sections 5.1–5.3), plus the shared machinery they are built
//! from.
//!
//! | Module | Design point | Paper anchor |
//! |---|---|---|
//! | [`naive_dv`] | distance vector, hop-by-hop, **no** policy | the pre-policy baseline whose count-to-infinity Section 5.1 contrasts |
//! | [`ecma`] | distance vector, hop-by-hop, policy **in topology** | the NIST/ECMA proposal (Section 5.1.1) |
//! | [`path_vector`] | distance vector (path vector), hop-by-hop, explicit policy terms | IDRP / BGP-2 (Section 5.2.1) |
//! | [`ls_hbh`] | link state, hop-by-hop, explicit policy terms | Section 5.3 |
//!
//! The fourth viable design point — link state, **source routing**,
//! explicit policy terms (the ORWG architecture of Section 5.4) — is the
//! paper's primary recommendation and lives in its own crate,
//! `adroute-core`, built on the [`linkstate`] flooding machinery defined
//! here.
//!
//! [`gossip`] is not a design point: it is a deliberately cheap flood
//! workload whose per-event cost is a few array reads, used by
//! `exp13_engine_scaling` and `adroute profile e13` to measure the
//! discrete-event core itself rather than any protocol's computation.
//!
//! [`forwarding`] provides the common data-plane harness: every protocol
//! exposes a [`forwarding::DataPlane`], and experiments drive packets
//! hop-by-hop through the converged network, auditing loop-freedom and
//! policy compliance against the oracle.

pub mod ecma;
pub mod forwarding;
pub mod gossip;
pub mod linkstate;
pub mod ls_hbh;
pub mod naive_dv;
pub mod path_vector;

pub use forwarding::{forward, DataPlane, ForwardOutcome};
