//! Deterministic discrete-event simulation of inter-AD routing protocols.
//!
//! Every protocol in this workspace is a [`Protocol`] implementation: a set
//! of per-AD routers that exchange messages over the links of a
//! [`Topology`](adroute_topology::Topology) and react to link failures and
//! policy changes. The [`Engine`] delivers messages with per-link
//! propagation delay, fires one-shot timers, injects scheduled link events,
//! and detects **quiescence** (an empty event queue), which is the
//! convergence criterion for every experiment.
//!
//! The engine is deliberately synchronous and single-threaded: events are
//! totally ordered by `(time, sequence-number)`, so a given
//! `(topology, policy, protocol, seed)` tuple always produces bit-identical
//! results. Simulated time is microseconds.

pub mod engine;
pub mod event;
pub mod faults;
pub mod monitor;
pub mod obs;
pub mod parallel;
pub mod pool;
pub mod schedule;
pub mod stats;

pub use engine::{Ctx, Engine, Protocol};
pub use event::SimTime;
pub use faults::{
    ChannelFaults, CrashModel, FaultPlan, FaultSpec, MisbehaviorModel, MisbehaviorSpec,
    RouterOutage,
};
pub use monitor::{Alarm, MonitorBank, MonitorConfig, Observation, QuarantineController};
pub use obs::causal::{CausalGraph, StormEntry};
pub use obs::json::JsonWriter;
pub use obs::prof::{Profiler, SpanNode};
pub use obs::{
    EventId, EventLog, EventRecord, Histogram, LogComparison, LoggedEvent, MetricsRegistry, Obs,
    DATA_STREAM_ID_BASE,
};
pub use schedule::{FailureModel, FailureSchedule, LinkEvent, OpenArrival, OpenStorm, StormPhase};
pub use stats::Stats;
