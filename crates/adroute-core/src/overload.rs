//! Overload-robust route serving: admission control, the brownout ladder,
//! deadline-budgeted client retries, and the stress-test driver.
//!
//! The paper names ORWG route synthesis as *the* open scaling problem —
//! "precomputation of all policy routes in a large internet is
//! computationally intractable, while on demand computation may introduce
//! excessive latency at setup time". This module treats the Route Server
//! as what it would be in deployment: a serving system that must survive
//! an open storm. Three mechanisms compose:
//!
//! 1. **Admission control** ([`AdmissionController`]): each Route Server
//!    fronts a bounded open queue. Beyond capacity, opens are *shed* with
//!    an explicit NACK carrying a retry-after hint — never silently
//!    dropped.
//! 2. **Brownout ladder** ([`BrownoutRung`]): as queue depth and head age
//!    cross watermarks, the server downgrades the work it performs per
//!    open — full synthesis with spare routes, then cached-route fast
//!    path, then stored-state-only (no search at all) — trading route
//!    quality for throughput so goodput plateaus instead of collapsing.
//!    Shedding is the ladder's fourth, implicit rung.
//! 3. **Deadline-budgeted retries**: shed clients back off exponentially
//!    (2 ms doubling to 64 ms) with up to 1 ms of seeded jitter, honor the
//!    server's retry-after, and abandon (cancelling any partial state)
//!    when the next attempt could not land inside the 200 ms setup
//!    deadline or would be their ninth.
//!
//! A Route Server crash (`OrwgNetwork::crash_route_server`)
//! drains the queue and loses all soft state; a warm standby that
//! snapshots the primary's route cache every 10 ms takes over by
//! rebuilding the precomputed table from the flooded view and replaying
//! the snapshot — revalidated entry by entry, so a takeover can never
//! resurrect a route through a quarantined AD.
//!
//! [`run_load_ramp`] is the deterministic driver behind `adroute stress`
//! and experiment E9b: a mini event loop over an
//! [`OpenStorm`](adroute_sim::OpenStorm) arrival schedule, with per-AD
//! service occupancy, an optional mid-storm Route Server outage (reusing
//! [`RouterOutage`] from `sim::faults`), and causal defer→retry→serve
//! chains in the event log.

use std::collections::{BinaryHeap, VecDeque};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use adroute_policy::FlowSpec;
use adroute_sim::{Counter, EventId, RouterOutage, SimTime};
use adroute_topology::AdId;

use crate::network::{OpenError, OrwgNetwork, SetupOutcome};

/// Client setup deadline, µs from an open's first arrival.
const DEADLINE_US: u64 = 200_000;
/// First retry backoff, µs; it doubles per attempt up to `MAX_BACKOFF_US`.
const BASE_BACKOFF_US: u64 = 2_000;
/// Retry backoff cap, µs.
const MAX_BACKOFF_US: u64 = 64_000;
/// Retry jitter is drawn uniformly from `[0, JITTER_US)` by the driver's
/// seeded RNG, in event order.
const JITTER_US: u64 = 1_000;
/// Attempts an open gets, the first offer included.
const MAX_ATTEMPTS: u32 = 8;
/// Warm-standby sync period, µs.
const STANDBY_SYNC_US: u64 = 10_000;

/// Watermarks and bounds for one Route Server's open queue.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Maximum queued opens; offers beyond this are shed.
    pub queue_capacity: usize,
    /// Queue depth up to which the server still performs full synthesis
    /// (with spare routes) per open.
    pub full_depth: usize,
    /// Queue depth up to which the server serves the cached-route fast
    /// path; beyond it, stored-state only.
    pub cached_depth: usize,
    /// Head-of-queue age beyond which the server degrades one extra rung
    /// (overload shows up as waiting even when the queue is short). The
    /// degrade is proportional: each further multiple of the watermark
    /// costs another rung, until the ladder bottoms out at stored-only.
    pub age_watermark_us: u64,
    /// Retry-after hint attached to every shed NACK.
    pub retry_after_us: u64,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            queue_capacity: 64,
            full_depth: 8,
            cached_depth: 24,
            age_watermark_us: 5_000,
            retry_after_us: 10_000,
        }
    }
}

/// The serving rung the brownout ladder selects for one admitted open.
/// Shedding — the fourth rung — happens at the admission edge and is
/// represented by the NACK, not by a variant here.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BrownoutRung {
    /// Full synthesis plus spare routes: the synthesis
    /// [`OrwgNetwork::open_repairable`](crate::OrwgNetwork::open_repairable)
    /// runs, too.
    Full,
    /// Cached-route fast path: one search at most, no spares. The
    /// synthesis [`OrwgNetwork::open`](crate::OrwgNetwork::open) runs, too.
    Cached,
    /// Stored state only — precomputed table or cache hit; a miss sheds
    /// rather than searching.
    Stored,
}

impl BrownoutRung {
    /// Short tag for event logs and report tables.
    pub fn tag(self) -> &'static str {
        match self {
            BrownoutRung::Full => "full",
            BrownoutRung::Cached => "cached",
            BrownoutRung::Stored => "stored",
        }
    }

    fn degrade(self) -> BrownoutRung {
        match self {
            BrownoutRung::Full => BrownoutRung::Cached,
            BrownoutRung::Cached | BrownoutRung::Stored => BrownoutRung::Stored,
        }
    }
}

/// One open waiting in (or returned by) a Route Server's admission queue.
#[derive(Clone, Copy, Debug)]
pub struct PendingOpen {
    /// The traffic class to open.
    pub flow: FlowSpec,
    /// When this attempt was offered to the admission controller.
    pub offered_at: SimTime,
    /// When the client first asked (attempt 0) — shed latency is measured
    /// from here.
    pub arrival: SimTime,
    /// The client's absolute setup deadline; an open still queued past it
    /// is cancelled unserved.
    pub deadline: SimTime,
    /// Retry attempt number (0 = first offer).
    pub attempt: u32,
    /// Load-ramp phase the arrival belongs to (report attribution).
    pub phase: usize,
    /// Causal parent for the defer/admit events of this attempt.
    pub cause: Option<EventId>,
}

/// The bounded open queue fronting one Route Server.
#[derive(Clone, Debug)]
pub struct AdmissionController {
    cfg: AdmissionConfig,
    queue: VecDeque<PendingOpen>,
}

impl AdmissionController {
    /// A controller with the given watermarks.
    pub(crate) fn new(cfg: AdmissionConfig) -> AdmissionController {
        AdmissionController {
            cfg,
            queue: VecDeque::new(),
        }
    }

    /// The configured watermarks.
    pub(crate) fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    /// Current queue depth.
    pub(crate) fn depth(&self) -> usize {
        self.queue.len()
    }

    /// Whether the queue is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Offers one open. `Ok(depth)` queues it and reports the depth after
    /// enqueue; `Err(retry_after_us)` sheds it.
    pub(crate) fn offer(&mut self, open: PendingOpen) -> Result<usize, u64> {
        if self.queue.len() >= self.cfg.queue_capacity {
            return Err(self.cfg.retry_after_us);
        }
        self.queue.push_back(open);
        Ok(self.queue.len())
    }

    /// The rung the ladder currently selects, from queue depth and
    /// head-of-queue age at `now`. Age degrades proportionally: one rung
    /// per full watermark the head has waited beyond admission (ages in
    /// `(w, 2w]` cost one rung, `(2w, 3w]` two), so a server that falls
    /// far behind reaches stored-only service without waiting for depth
    /// to catch up.
    pub(crate) fn rung(&self, now: SimTime) -> BrownoutRung {
        let depth = self.queue.len();
        let mut rung = if depth <= self.cfg.full_depth {
            BrownoutRung::Full
        } else if depth <= self.cfg.cached_depth {
            BrownoutRung::Cached
        } else {
            BrownoutRung::Stored
        };
        if let Some(head) = self.queue.front() {
            let age = now.as_us().saturating_sub(head.offered_at.as_us());
            // Integer form of "one rung per started watermark beyond the
            // first": 0 steps for age <= w, then +1 per multiple of w.
            let steps = age.saturating_sub(1) / self.cfg.age_watermark_us.max(1);
            // The ladder has three rungs, so two steps saturate it.
            for _ in 0..steps.min(2) {
                rung = rung.degrade();
            }
        }
        rung
    }

    /// Rewrites the causal parent of the most recently queued open —
    /// the setup-defer record is emitted *after* enqueue, and the
    /// eventual admit must chain to it.
    pub(crate) fn set_back_cause(&mut self, cause: Option<EventId>) {
        if cause.is_some() {
            if let Some(o) = self.queue.back_mut() {
                o.cause = cause;
            }
        }
    }

    /// Pops the oldest queued open.
    pub(crate) fn pop(&mut self) -> Option<PendingOpen> {
        self.queue.pop_front()
    }

    /// Empties the queue (Route Server crash), returning the cancelled
    /// opens oldest-first.
    pub(crate) fn drain(&mut self) -> Vec<PendingOpen> {
        self.queue.drain(..).collect()
    }
}

/// The wait before re-offering after attempt number `attempt` was shed:
/// the exponential backoff or the server's retry-after, whichever is
/// larger, plus `jitter` (already drawn, `< JITTER_US`).
fn retry_wait_us(attempt: u32, retry_after_us: u64, jitter: u64) -> u64 {
    let exp = BASE_BACKOFF_US
        .saturating_mul(1 << attempt.min(16))
        .min(MAX_BACKOFF_US);
    exp.max(retry_after_us) + jitter
}

/// What [`OrwgNetwork::offer_open`] decided at the admission edge.
#[derive(Clone, Copy, Debug)]
pub enum AdmissionVerdict {
    /// Queued at the given depth; a [`OrwgNetwork::serve_batch`] slot
    /// will reach it. `event` is the setup-defer record (causal parent of the
    /// eventual admit).
    Queued {
        /// Queue depth after enqueue.
        depth: usize,
        /// The setup-defer event id, if the log is enabled.
        event: Option<EventId>,
    },
    /// Shed with a NACK; the open is handed back for the client's retry
    /// logic. `event` is the setup-shed record (causal parent of the
    /// retry).
    Shed {
        /// The rejected open, returned to the client.
        open: PendingOpen,
        /// Server's retry-after hint.
        retry_after_us: u64,
        /// The setup-shed event id, if the log is enabled.
        event: Option<EventId>,
    },
}

/// What serving the head of an admission queue produced.
#[derive(Clone, Debug)]
pub enum ServeOutcome {
    /// The open was served and the route installed.
    Served {
        /// The open that was served.
        open: PendingOpen,
        /// The rung it was served on.
        rung: BrownoutRung,
        /// The installed route's setup outcome.
        setup: SetupOutcome,
        /// The setup-admit event id (parent of the route-setup span).
        admit: Option<EventId>,
    },
    /// The stored rung had nothing for this flow: shed mid-queue (the
    /// server cannot afford a search), NACK with retry-after.
    Shed {
        /// The open handed back to the client.
        open: PendingOpen,
        /// Server's retry-after hint.
        retry_after_us: u64,
        /// The setup-shed event id.
        event: Option<EventId>,
    },
    /// The view holds no legal route — an answer, not congestion.
    NoRoute {
        /// The answered open.
        open: PendingOpen,
        /// The rung that produced the answer.
        rung: BrownoutRung,
    },
    /// The setup walk failed (dead link or refusing gateway).
    Failed {
        /// The failed open.
        open: PendingOpen,
        /// The rung that attempted it.
        rung: BrownoutRung,
        /// Why the walk failed.
        error: OpenError,
    },
    /// The open's deadline passed while it queued: cancelled unserved,
    /// before any synthesis was paid for.
    Expired {
        /// The cancelled open.
        open: PendingOpen,
    },
}

/// What one [`run_load_ramp`] service slot does
/// ([`OrwgNetwork::serve_batch`]).
///
/// Service semantics per open do not depend on it — a batch of one is
/// proven byte-identical to [`OrwgNetwork::serve_next`] — but queued
/// cached-rung opens sharing a source and QoS/policy class are answered
/// by one multi-destination sweep, and idle service slots refill
/// invalidated cache entries in the background. `adroute stress
/// --sharded` runs the default; an unsharded ramp is a batch of one
/// with no refill.
///
/// [`OrwgNetwork::serve_batch`]: crate::network::OrwgNetwork::serve_batch
/// [`OrwgNetwork::serve_next`]: crate::network::OrwgNetwork::serve_next
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardConfig {
    /// Read by nothing in this workspace: a batch runs one sweep per
    /// compatibility class whatever this says. The field stays because
    /// `benchmark/` reads it; it goes with [`RouteServer::request_batch`]'s
    /// second argument (ROADMAP "Benchmark-only PR: the benchmark catches
    /// up with the tree", (b)).
    ///
    /// [`RouteServer::request_batch`]: crate::synthesis::RouteServer::request_batch
    pub shards: usize,
    /// Opens served per service slot (expired pops ride along free).
    pub max_batch: usize,
    /// Background cache refills attempted per idle serve slot.
    pub refill_budget: usize,
}

impl Default for ShardConfig {
    fn default() -> ShardConfig {
        ShardConfig {
            shards: 8,
            max_batch: 16,
            refill_budget: 4,
        }
    }
}

/// Configuration of one stress run (`adroute stress`, experiment E9b).
#[derive(Clone, Debug)]
pub struct StressConfig {
    /// Server admission watermarks (installed on every AD).
    pub admission: AdmissionConfig,
    /// Seed for client-side retry jitter.
    pub seed: u64,
    /// Route Server service time for a full-rung open, µs.
    pub service_full_us: u64,
    /// Service time for a cached-rung open, µs.
    pub service_cached_us: u64,
    /// Service time for a stored-rung open (including a stored-miss
    /// shed), µs.
    pub service_stored_us: u64,
    /// Optional mid-storm Route Server outage: `ad`'s server crashes at
    /// `down_at` and its warm standby takes over at `up_at`.
    pub crash: Option<RouterOutage>,
    /// Sharded, batched service. `None` is a batch of one with no
    /// background refill (`max_batch: 1`, `refill_budget: 0`).
    pub sharding: Option<ShardConfig>,
}

impl Default for StressConfig {
    fn default() -> StressConfig {
        StressConfig {
            admission: AdmissionConfig::default(),
            seed: 0,
            service_full_us: 6_000,
            service_cached_us: 1_200,
            service_stored_us: 600,
            crash: None,
            sharding: None,
        }
    }
}

/// Per-phase outcome counters of a stress run. An open's outcome is
/// attributed to the phase of its *arrival*, however many retries later
/// it resolved.
#[derive(Clone, Copy, Default, Debug)]
pub struct PhaseReport {
    /// First-attempt arrivals in this phase.
    pub offered: u64,
    /// Opens served (any rung).
    pub served: u64,
    /// Served on the full rung.
    pub served_full: u64,
    /// Served on the cached rung.
    pub served_cached: u64,
    /// Served on the stored rung.
    pub served_stored: u64,
    /// Shed NACKs issued (counts every shed attempt, so it can exceed
    /// `offered`).
    pub shed: u64,
    /// Opens abandoned: deadline or attempt budget exhausted.
    pub abandoned: u64,
    /// Opens answered "no legal route".
    pub no_route: u64,
    /// Setup walks that failed (dead link / refusing gateway).
    pub failed: u64,
    /// Phase length, µs.
    pub duration_us: u64,
}

impl PhaseReport {
    /// Opens served per second of simulated time.
    pub fn goodput_per_sec(&self) -> u64 {
        (self.served * 1_000_000)
            .checked_div(self.duration_us)
            .unwrap_or(0)
    }
}

/// The crash/failover timeline of a stress run.
#[derive(Clone, Copy, Debug)]
pub struct FailoverReport {
    /// The AD whose Route Server crashed.
    pub ad: AdId,
    /// When it crashed.
    pub crashed_at: SimTime,
    /// When the standby took over.
    pub takeover_at: SimTime,
    /// Queued opens the crash cancelled (clients retried them).
    pub cancelled: u64,
    /// Cache entries the standby accepted from its last sync.
    pub warmed: u64,
}

/// One shed→retry→admit causal chain, by event id, proving shed opens
/// come back and get served (visible in `adroute stress --trace`).
#[derive(Clone, Copy, Debug)]
pub struct ExemplarChain {
    /// The setup-shed NACK.
    pub shed: EventId,
    /// The client's retry decision.
    pub retry: EventId,
    /// The eventual admit that served the open.
    pub admit: EventId,
}

/// Everything a stress run produced.
#[derive(Clone, Debug)]
pub struct StressReport {
    /// Per-phase outcomes, in phase order.
    pub phases: Vec<PhaseReport>,
    /// Total first-attempt arrivals.
    pub offered: u64,
    /// Total opens served.
    pub served: u64,
    /// Total shed NACKs issued.
    pub shed: u64,
    /// Total opens abandoned.
    pub abandoned: u64,
    /// Total "no legal route" answers.
    pub no_route: u64,
    /// Total failed setup walks.
    pub failed: u64,
    /// Total retry attempts scheduled.
    pub retries: u64,
    /// Median queueing wait of admitted opens, µs.
    pub p50_wait_us: u64,
    /// 99th-percentile queueing wait, µs.
    pub p99_wait_us: u64,
    /// Crash/failover timeline, when the run had an outage.
    pub failover: Option<FailoverReport>,
    /// An exemplar defer→retry→serve chain, when one occurred with the
    /// event log enabled.
    pub chain: Option<ExemplarChain>,
}

enum Ev {
    Offer(PendingOpen),
    Serve(AdId),
    Crash(AdId),
    Failover(AdId),
    Sync(AdId),
}

struct HeapEv {
    at: SimTime,
    seq: u64,
    ev: Ev,
}

impl PartialEq for HeapEv {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for HeapEv {}
impl PartialOrd for HeapEv {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEv {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, the driver needs min-first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

struct Driver<'a> {
    net: &'a mut OrwgNetwork,
    cfg: &'a StressConfig,
    shard: ShardConfig,
    heap: BinaryHeap<HeapEv>,
    seq: u64,
    rng: SmallRng,
    next_free: Vec<SimTime>,
    serve_scheduled: Vec<bool>,
    phases: Vec<PhaseReport>,
    failover: Option<FailoverReport>,
    /// `(shed, retry, flow, attempt)` awaiting its serve to complete the
    /// exemplar chain.
    chain_candidate: Option<(EventId, EventId, FlowSpec, u32)>,
    chain: Option<ExemplarChain>,
}

impl<'a> Driver<'a> {
    fn push(&mut self, at: SimTime, ev: Ev) {
        self.seq += 1;
        let seq = self.seq;
        self.heap.push(HeapEv { at, seq, ev });
    }

    fn service_us(&self, rung: BrownoutRung) -> u64 {
        match rung {
            BrownoutRung::Full => self.cfg.service_full_us,
            BrownoutRung::Cached => self.cfg.service_cached_us,
            BrownoutRung::Stored => self.cfg.service_stored_us,
        }
    }

    /// Client reaction to a shed NACK (or a crash-cancelled open):
    /// schedule a deadline-budgeted retry, or abandon.
    fn on_shed(&mut self, now: SimTime, open: PendingOpen, retry_after_us: u64) {
        self.phases[open.phase].shed += 1;
        let next_attempt = open.attempt + 1;
        let wait = retry_wait_us(
            open.attempt,
            retry_after_us,
            self.rng.gen_range(0..JITTER_US),
        );
        let retry_at = now.plus_us(wait);
        if next_attempt >= MAX_ATTEMPTS || retry_at >= open.deadline {
            self.phases[open.phase].abandoned += 1;
            self.net.abandon_open(
                &open.flow,
                u64::from(next_attempt),
                open.arrival,
                open.cause,
            );
        } else {
            let retry_id = self
                .net
                .note_retry(&open.flow, next_attempt, wait, open.cause);
            if self.chain.is_none() && self.chain_candidate.is_none() {
                if let (Some(s), Some(r)) = (open.cause, retry_id) {
                    self.chain_candidate = Some((s, r, open.flow, next_attempt));
                }
            }
            self.push(
                retry_at,
                Ev::Offer(PendingOpen {
                    offered_at: retry_at,
                    attempt: next_attempt,
                    cause: retry_id,
                    ..open
                }),
            );
        }
    }

    fn kick_server(&mut self, now: SimTime, ad: AdId) {
        if !self.serve_scheduled[ad.index()] {
            self.serve_scheduled[ad.index()] = true;
            let at = now.max(self.next_free[ad.index()]);
            self.push(at, Ev::Serve(ad));
        }
    }

    fn on_offer(&mut self, now: SimTime, open: PendingOpen) {
        if open.attempt == 0 {
            self.phases[open.phase].offered += 1;
        }
        let src = open.flow.src;
        match self.net.offer_open(open) {
            AdmissionVerdict::Queued { .. } => self.kick_server(now, src),
            AdmissionVerdict::Shed {
                open,
                retry_after_us,
                event,
            } => {
                let open = PendingOpen {
                    cause: event.or(open.cause),
                    ..open
                };
                self.on_shed(now, open, retry_after_us);
            }
        }
    }

    /// Phase/chain/retry bookkeeping for one serve outcome. Returns the
    /// rung whose service time the slot must charge; `None` for expired
    /// opens (cancellation is free — the deadline check precedes any
    /// synthesis work).
    fn record_outcome(&mut self, now: SimTime, outcome: ServeOutcome) -> Option<BrownoutRung> {
        let rung = match &outcome {
            ServeOutcome::Expired { open } => {
                self.phases[open.phase].abandoned += 1;
                return None;
            }
            ServeOutcome::Served { rung, .. }
            | ServeOutcome::NoRoute { rung, .. }
            | ServeOutcome::Failed { rung, .. } => *rung,
            ServeOutcome::Shed { .. } => BrownoutRung::Stored,
        };
        match outcome {
            ServeOutcome::Served {
                open, rung, admit, ..
            } => {
                let p = &mut self.phases[open.phase];
                p.served += 1;
                match rung {
                    BrownoutRung::Full => p.served_full += 1,
                    BrownoutRung::Cached => p.served_cached += 1,
                    BrownoutRung::Stored => p.served_stored += 1,
                }
                if let Some((shed, retry, flow, attempt)) = self.chain_candidate {
                    if self.chain.is_none() && flow == open.flow && attempt == open.attempt {
                        if let Some(admit) = admit {
                            self.chain = Some(ExemplarChain { shed, retry, admit });
                        }
                        self.chain_candidate = None;
                    }
                }
            }
            ServeOutcome::Shed {
                open,
                retry_after_us,
                event,
            } => {
                let open = PendingOpen {
                    cause: event.or(open.cause),
                    ..open
                };
                self.on_shed(now, open, retry_after_us);
            }
            ServeOutcome::NoRoute { open, .. } => self.phases[open.phase].no_route += 1,
            ServeOutcome::Failed { open, .. } => self.phases[open.phase].failed += 1,
            ServeOutcome::Expired { .. } => unreachable!("handled above"),
        }
        Some(rung)
    }

    /// One service slot: a batch of opens answered at once (one when
    /// the ramp is unsharded), their service times charged back to back,
    /// and a drained queue's idle slot spent refilling cache entries view
    /// changes invalidated.
    ///
    /// Cached-rung batch members share one batched request, so such a
    /// slot pays the cached (one-search) price once per sweep it ran —
    /// one per compatibility class with a flow no store answered — and a
    /// stored-lookup price for every other cached-rung answer: the
    /// batch's entire point is that the fan-out is a table write, not a
    /// search. A slot that ran no batched request (a lone live open)
    /// charges each answer at its rung's price.
    fn on_serve(&mut self, now: SimTime, ad: AdId) {
        let counts = |net: &OrwgNetwork| {
            let l = &net.server(ad).ledger;
            (l.get(Counter::Batches), l.get(Counter::Sweeps))
        };
        let before = counts(self.net);
        let outcomes = self.net.serve_batch(ad, self.shard);
        let after = counts(self.net);
        let batched = after.0 > before.0;
        let sweeps = after.1 - before.1;
        let mut busy_us = 0;
        let mut cached = 0u64;
        for outcome in outcomes {
            if let Some(rung) = self.record_outcome(now, outcome) {
                if rung == BrownoutRung::Cached && batched {
                    cached += 1;
                } else {
                    busy_us += self.service_us(rung);
                }
            }
        }
        busy_us += sweeps.min(cached) * self.cfg.service_cached_us
            + cached.saturating_sub(sweeps) * self.cfg.service_stored_us;
        self.next_free[ad.index()] = now.plus_us(busy_us);
        if self.net.admission(ad).is_empty() {
            self.serve_scheduled[ad.index()] = false;
            self.net.background_refill(ad, self.shard.refill_budget);
        } else {
            let at = self.next_free[ad.index()];
            self.push(at, Ev::Serve(ad));
        }
    }
}

/// Runs one deterministic load ramp: the storm's arrivals offer opens to
/// their source ADs' admission queues, servers drain them under the
/// brownout ladder with per-rung service occupancy, shed clients retry
/// under the deadline budget, and an optional mid-storm Route Server
/// outage exercises standby failover. The network's clock follows the
/// driver, so every logged event is correctly stamped and chained.
pub fn run_load_ramp(
    net: &mut OrwgNetwork,
    storm: &adroute_sim::OpenStorm,
    phase_durations_us: &[u64],
    cfg: &StressConfig,
) -> StressReport {
    let n_ads = net.topo().num_ads();
    let shard = cfg.sharding.unwrap_or(ShardConfig {
        max_batch: 1,
        refill_budget: 0,
        ..ShardConfig::default()
    });
    // A service slot drains up to `max_batch` opens at once, so the
    // steady-state head age is `max_batch` times the per-open service
    // time. The age watermark detects a server falling behind its slot
    // cadence; left unscaled it would read healthy batching as overload
    // and pin the ladder at stored-only.
    net.set_admission(AdmissionConfig {
        age_watermark_us: cfg
            .admission
            .age_watermark_us
            .saturating_mul(shard.max_batch.max(1) as u64),
        ..cfg.admission
    });
    net.prof.enter("load_ramp");
    let retries = |net: &OrwgNetwork| net.obs.metrics.counts.get(Counter::OpenRetries);
    let retried_before = retries(net);
    let mut driver = Driver {
        net,
        cfg,
        shard,
        heap: BinaryHeap::new(),
        seq: 0,
        rng: SmallRng::seed_from_u64(cfg.seed ^ 0x6f76_6572_6c6f_6164), // "overload"
        next_free: vec![SimTime::ZERO; n_ads],
        serve_scheduled: vec![false; n_ads],
        phases: phase_durations_us
            .iter()
            .map(|&d| PhaseReport {
                duration_us: d,
                ..PhaseReport::default()
            })
            .collect(),
        failover: None,
        chain_candidate: None,
        chain: None,
    };
    for a in storm.arrivals() {
        driver.push(
            a.at,
            Ev::Offer(PendingOpen {
                flow: FlowSpec::best_effort(a.src, a.dst),
                offered_at: a.at,
                arrival: a.at,
                deadline: a.at.plus_us(DEADLINE_US),
                attempt: 0,
                phase: a.phase,
                cause: None,
            }),
        );
    }
    if let Some(outage) = cfg.crash {
        driver.push(outage.down_at, Ev::Crash(outage.ad));
        driver.push(outage.up_at, Ev::Failover(outage.ad));
        let mut t = SimTime(STANDBY_SYNC_US);
        while t < outage.down_at {
            driver.push(t, Ev::Sync(outage.ad));
            t = t.plus_us(STANDBY_SYNC_US);
        }
    }
    while let Some(HeapEv { at, ev, .. }) = driver.heap.pop() {
        driver.net.set_clock(at);
        match ev {
            Ev::Offer(open) => driver.on_offer(at, open),
            Ev::Serve(ad) => driver.on_serve(at, ad),
            Ev::Sync(ad) => {
                driver.net.standby_sync(ad);
            }
            Ev::Crash(ad) => {
                let (cancelled, crash_id) = driver.net.crash_route_server(ad);
                driver.serve_scheduled[ad.index()] = false;
                driver.failover = Some(FailoverReport {
                    ad,
                    crashed_at: at,
                    takeover_at: at,
                    cancelled: cancelled.len() as u64,
                    warmed: 0,
                });
                let retry_after = cfg.admission.retry_after_us;
                for open in cancelled {
                    let open = PendingOpen {
                        cause: crash_id.or(open.cause),
                        ..open
                    };
                    driver.on_shed(at, open, retry_after);
                }
            }
            Ev::Failover(ad) => {
                let warmed = driver.net.failover_route_server(ad);
                if let Some(f) = &mut driver.failover {
                    f.takeover_at = at;
                    f.warmed = warmed as u64;
                }
            }
        }
    }
    driver.net.prof.exit("load_ramp");
    let phases = driver.phases;
    let total = |f: fn(&PhaseReport) -> u64| phases.iter().map(f).sum::<u64>();
    let (p50, p99) = driver
        .net
        .obs
        .metrics
        .histogram("setup_wait_us")
        .map(|h| (h.quantile(0.5), h.quantile(0.99)))
        .unwrap_or((0, 0));
    StressReport {
        offered: total(|p| p.offered),
        served: total(|p| p.served),
        shed: total(|p| p.shed),
        abandoned: total(|p| p.abandoned),
        no_route: total(|p| p.no_route),
        failed: total(|p| p.failed),
        retries: retries(driver.net) - retried_before,
        p50_wait_us: p50,
        p99_wait_us: p99,
        failover: driver.failover,
        chain: driver.chain,
        phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open_at(us: u64) -> PendingOpen {
        PendingOpen {
            flow: FlowSpec::best_effort(AdId(0), AdId(1)),
            offered_at: SimTime(us),
            arrival: SimTime(us),
            deadline: SimTime(us + 100_000),
            attempt: 0,
            phase: 0,
            cause: None,
        }
    }

    #[test]
    fn admission_sheds_past_capacity() {
        let mut ac = AdmissionController::new(AdmissionConfig {
            queue_capacity: 2,
            ..AdmissionConfig::default()
        });
        assert_eq!(ac.offer(open_at(0)), Ok(1));
        assert_eq!(ac.offer(open_at(1)), Ok(2));
        let cfg = *ac.config();
        assert_eq!(ac.offer(open_at(2)), Err(cfg.retry_after_us));
        assert_eq!(ac.depth(), 2);
        assert!(ac.pop().is_some());
        assert_eq!(ac.drain().len(), 1);
        assert!(ac.is_empty());
    }

    #[test]
    fn rung_degrades_with_depth_and_age() {
        let cfg = AdmissionConfig {
            queue_capacity: 100,
            full_depth: 2,
            cached_depth: 4,
            age_watermark_us: 1_000,
            retry_after_us: 10_000,
        };
        let mut ac = AdmissionController::new(cfg);
        let now = SimTime(500);
        ac.offer(open_at(0)).unwrap();
        assert_eq!(ac.rung(now), BrownoutRung::Full);
        for i in 1..4 {
            ac.offer(open_at(i)).unwrap();
        }
        assert_eq!(ac.rung(now), BrownoutRung::Cached, "depth 4 > full_depth");
        ac.offer(open_at(4)).unwrap();
        assert_eq!(ac.rung(now), BrownoutRung::Stored, "depth 5 > cached_depth");
        // Head age beyond the watermark degrades one extra rung.
        let mut young = AdmissionController::new(cfg);
        young.offer(open_at(0)).unwrap();
        assert_eq!(young.rung(SimTime(2_000)), BrownoutRung::Cached);
        assert_eq!(young.rung(SimTime(500)), BrownoutRung::Full);
    }

    #[test]
    fn rung_age_degrade_is_proportional() {
        let cfg = AdmissionConfig {
            queue_capacity: 100,
            full_depth: 8,
            cached_depth: 24,
            age_watermark_us: 1_000,
            retry_after_us: 10_000,
        };
        let mut ac = AdmissionController::new(cfg);
        ac.offer(open_at(0)).unwrap(); // head offered at t=0, depth 1 (Full)
                                       // Boundaries are exclusive at each multiple of the watermark.
        assert_eq!(ac.rung(SimTime(1_000)), BrownoutRung::Full, "age == w");
        assert_eq!(
            ac.rung(SimTime(1_001)),
            BrownoutRung::Cached,
            "age in (w, 2w]"
        );
        assert_eq!(ac.rung(SimTime(2_000)), BrownoutRung::Cached, "age == 2w");
        assert_eq!(
            ac.rung(SimTime(2_001)),
            BrownoutRung::Stored,
            "age in (2w, 3w]"
        );
        // Further waiting saturates at the bottom rung.
        assert_eq!(ac.rung(SimTime(999_999)), BrownoutRung::Stored);
        // Proportional degrade composes with the depth-selected rung: a
        // Cached-depth queue reaches Stored after one extra watermark.
        let mut deep = AdmissionController::new(cfg);
        for i in 0..10 {
            deep.offer(open_at(i)).unwrap();
        }
        assert_eq!(deep.rung(SimTime(500)), BrownoutRung::Cached, "depth only");
        assert_eq!(deep.rung(SimTime(1_001)), BrownoutRung::Stored);
        // A zero watermark never divides by zero; it just saturates.
        let mut zero = AdmissionController::new(AdmissionConfig {
            age_watermark_us: 0,
            ..cfg
        });
        zero.offer(open_at(0)).unwrap();
        assert_eq!(zero.rung(SimTime(5)), BrownoutRung::Stored);
    }

    #[test]
    fn retry_backoff_honors_retry_after_and_caps() {
        assert_eq!(retry_wait_us(0, 0, 7), 2_007);
        assert_eq!(retry_wait_us(2, 0, 0), 8_000);
        assert_eq!(retry_wait_us(10, 0, 0), 64_000, "growth must cap");
        assert_eq!(
            retry_wait_us(0, 100_000, 0),
            100_000,
            "retry-after dominates"
        );
    }

    #[test]
    fn brownout_tags_and_degradation() {
        assert_eq!(BrownoutRung::Full.tag(), "full");
        assert_eq!(BrownoutRung::Full.degrade(), BrownoutRung::Cached);
        assert_eq!(BrownoutRung::Cached.degrade(), BrownoutRung::Stored);
        assert_eq!(BrownoutRung::Stored.degrade(), BrownoutRung::Stored);
    }
}
