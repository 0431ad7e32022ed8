//! The paper's endorsed architecture (Section 5.4): **link-state source
//! routing with explicit Policy Terms** — the Clark / Open Routing Working
//! Group (ORWG) design that became Inter-Domain Policy Routing (IDPR).
//!
//! The pieces, mapped to the paper's vocabulary:
//!
//! * ADs flood policy-bearing link-state advertisements (the shared
//!   [`adroute_protocols::linkstate`] machinery), giving every AD
//!   "complete knowledge concerning topology and policy".
//! * A **Route Server** per AD ([`synthesis::RouteServer`]) computes
//!   Policy Routes from that view, under one of three synthesis
//!   strategies — pure on-demand, full precomputation, or the hybrid the
//!   paper recommends ("a combination of precomputation and on-demand
//!   computation should be used").
//! * **Policy Gateways** ([`gateway::PolicyGateway`]) validate route
//!   *setup* packets against their AD's local Policy Terms, cache the
//!   result under a **handle**, and then forward data packets that carry
//!   only the handle — "the first packet … acts as a policy route setup
//!   packet"; successive packets avoid both the setup latency and the
//!   source-route header overhead.
//! * [`network::OrwgNetwork`] assembles servers and gateways into a
//!   runnable data plane; [`router::OrwgProtocol`] is the distributed
//!   control plane (flooding) for the simulation engine.
//!
//! What makes this point of the design space attractive — and what the
//! experiments measure — is the division of labour: the **source**
//! controls the entire route (its selection criteria stay private, any
//! legal route is discoverable), while **transit** ADs never compute
//! routes at all; they only validate setups against their own policy.

pub mod dataplane;
mod fxhash;
pub mod gateway;
pub mod lru;
pub mod mgmt;
pub mod network;
pub mod overload;
pub mod router;
pub mod synthesis;

pub use dataplane::{DataPacket, HandleId, SetupPacket};
pub use gateway::{DataError, PolicyGateway, SetupError};
pub use mgmt::PolicyImpact;
pub use network::{OrwgNetwork, RepairStats, ViewMaintenance};
pub use overload::{
    run_load_ramp, AdmissionConfig, AdmissionController, AdmissionVerdict, BrownoutRung,
    ExemplarChain, FailoverReport, PendingOpen, PhaseReport, ServeOutcome, ShardConfig,
    StressConfig, StressReport,
};
pub use router::OrwgProtocol;
pub use synthesis::{PolicyRoute, RouteServer, Strategy, SynthStats, ViewDelta};
