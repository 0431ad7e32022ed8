//! Structured observability: typed event records, metrics, histograms.
//!
//! This module is the *source of truth* for what happened during a run.
//! The engine (and the ORWG data plane above it) emits typed
//! [`EventRecord`]s into a bounded [`EventLog`]. The human-readable text
//! trace is a rendered view over that stream ([`EventLog::render`]:
//! every line is an `EventRecord`'s `Display` form), `first_divergence`
//! is the regression primitive, and machine consumers get a stable JSONL
//! export instead of parsing text.
//!
//! Every count lives in a [`Ledger`]: one `u64` per [`Counter`] key,
//! the keys declared beside [`EventRecord`] in one table that also names
//! each key in every output ([`Output`]). Alongside the log, a
//! [`MetricsRegistry`] holds its owner's ledger and fixed-bucket
//! [`Histogram`]s (route-setup latency, per-AD message load,
//! invalidation fan-out), which is how the E-series experiments report
//! *distributions* instead of single totals. Everything here is
//! deterministic: same configuration, byte-identical export.
//!
//! Every logged record additionally carries a stable [`EventId`] and an
//! optional `cause` — the id of the event that provoked it — so the log
//! is a causality DAG, not just a sequence. The [`causal`] module builds
//! span trees over that DAG (convergence critical path, per-root storm
//! reports, per-AD timelines), which is what turns the flight recorder
//! into a debugger.

pub mod causal;
pub mod json;
pub mod prof;

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::fmt::Write as _;

use adroute_topology::{AdId, LinkId};

use crate::event::SimTime;
use json::JsonWriter;

/// The id base of the ORWG data-plane event stream. The engine's
/// control-plane log assigns ids from 0; the data plane starts here so a
/// merged export (e.g. `chaos --trace`) has globally unique ids and the
/// two streams can be joined into one causality graph.
pub const DATA_STREAM_ID_BASE: u64 = 1 << 32;

/// A stable identifier of one logged event within a run. Ids are assigned
/// monotonically per [`EventLog`] (numbering the full stream, including
/// evicted records) and never reused, so `cause < id` always holds and
/// the causality graph is acyclic by construction.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId(pub u64);

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Number of power-of-two histogram buckets: bucket 0 holds exact zeros,
/// bucket `k` (1 ≤ k < 40) holds `2^(k-1) ..= 2^k - 1`, bucket 40 holds
/// everything `≥ 2^39`.
const HIST_BUCKETS: usize = 41;

/// One typed simulation event. `Display` renders the line
/// [`EventLog::render`] prints for it, so the text trace is a pure view
/// over the typed stream; [`EventRecord::to_json`] renders the
/// machine-readable JSONL form with a fixed field order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventRecord {
    /// Router start-up at time zero (or a scheduled cold start).
    Start {
        /// The booting AD.
        ad: AdId,
    },
    /// A message handed to the channel (per-hop transmission).
    MsgSend {
        /// Sending AD.
        from: AdId,
        /// Receiving neighbor.
        to: AdId,
        /// Carrying link.
        link: LinkId,
        /// Encoded size in bytes.
        bytes: u64,
    },
    /// A message delivered to its destination's handler.
    MsgDeliver {
        /// Sending AD.
        from: AdId,
        /// Receiving neighbor.
        to: AdId,
        /// Carrying link.
        link: LinkId,
    },
    /// A message lost in flight (link died or destination crashed).
    MsgLost {
        /// Sending AD.
        from: AdId,
        /// Intended receiver.
        to: AdId,
        /// Carrying link.
        link: LinkId,
    },
    /// A send dropped at the source: no operational link to `to`.
    MsgDrop {
        /// Sending AD.
        from: AdId,
        /// Intended receiver (non-neighbor or across a failed link).
        to: AdId,
    },
    /// A live one-shot timer firing.
    TimerFire {
        /// Owning AD.
        ad: AdId,
        /// Opaque protocol token.
        token: u64,
    },
    /// A timer from a dead incarnation, discarded unfired.
    StaleTimer {
        /// Owning AD.
        ad: AdId,
        /// Opaque protocol token.
        token: u64,
    },
    /// A link becoming operational.
    LinkUp {
        /// The link.
        link: LinkId,
    },
    /// A link going out of operation.
    LinkDown {
        /// The link.
        link: LinkId,
    },
    /// A link scheduled up but held down by a crashed endpoint.
    LinkUpMasked {
        /// The link.
        link: LinkId,
    },
    /// A router crash (soft state lost, adjacent links fate-share).
    Crash {
        /// The crashing AD.
        ad: AdId,
    },
    /// A router restart (state rebuilt from scratch).
    Restart {
        /// The rebooting AD.
        ad: AdId,
    },
    /// Channel fault: message silently dropped in flight.
    ChanLoss {
        /// Sending AD.
        from: AdId,
        /// Intended receiver.
        to: AdId,
        /// Carrying link.
        link: LinkId,
    },
    /// Channel fault: payload corrupted, dropped by receiver checksum.
    ChanCorrupt {
        /// Sending AD.
        from: AdId,
        /// Intended receiver.
        to: AdId,
        /// Carrying link.
        link: LinkId,
    },
    /// Channel fault: message delayed out of order.
    ChanReorder {
        /// Sending AD.
        from: AdId,
        /// Receiver.
        to: AdId,
        /// Carrying link.
        link: LinkId,
    },
    /// Channel fault: an extra copy injected.
    ChanDup {
        /// Sending AD.
        from: AdId,
        /// Receiver.
        to: AdId,
        /// Carrying link.
        link: LinkId,
    },
    /// A [`FaultPlan`](crate::FaultPlan) installed on the engine.
    FaultPlanApplied {
        /// Scheduled link up/down events.
        link_events: u64,
        /// Scheduled router crash/restart pairs.
        outages: u64,
        /// Whether a lossy channel model was installed.
        lossy: bool,
    },
    /// A partition fault scheduled: a cut set of links goes down
    /// together, splitting the flooding domain into two islands.
    PartitionCut {
        /// Links in the cut set.
        links: u64,
        /// ADs on the low-index side of the split.
        left: u64,
        /// ADs on the high-index side of the split.
        right: u64,
    },
    /// The partition's heal scheduled: the cut set comes back up.
    PartitionHeal {
        /// Links restored.
        links: u64,
    },
    /// A measurement phase boundary (see
    /// [`Engine::begin_phase`](crate::Engine::begin_phase)).
    PhaseBegin {
        /// Phase name (`"converge"`, `"failure-response"`, `"churn"`, …).
        name: &'static str,
    },
    /// A link-state advertisement originated by its owner.
    LsaOriginate {
        /// Originating AD.
        origin: AdId,
        /// New sequence number.
        seq: u64,
        /// Links described by the LSA.
        links: u64,
    },
    /// A newer LSA accepted into a router's database.
    LsaAccept {
        /// Accepting AD.
        at: AdId,
        /// LSA originator.
        origin: AdId,
        /// Accepted sequence number.
        origin_seq: u64,
    },
    /// A duplicate (not-newer) LSA discarded without reflooding.
    LsaDuplicate {
        /// Discarding AD.
        at: AdId,
        /// LSA originator.
        origin: AdId,
        /// Stale sequence number seen.
        origin_seq: u64,
    },
    /// OSPF-style recovery: a router saw its own pre-crash LSA and jumped
    /// its sequence number past the ghost.
    LsaSeqJump {
        /// The recovering AD.
        at: AdId,
        /// The sequence number jumped to.
        seq: u64,
    },
    /// A full database resync pushed to a neighbor (link-up handshake).
    LsaResync {
        /// The sending AD.
        at: AdId,
        /// The neighbor receiving the database.
        neighbor: AdId,
        /// LSAs pushed.
        lsas: u64,
    },
    /// A distance/path-vector style route recomputation.
    RouteRecompute {
        /// Recomputing AD.
        ad: AdId,
        /// Protocol tag (`"ecma"`, `"dv"`, `"pv"`).
        proto: &'static str,
        /// Whether the routing table changed (triggering advertisement).
        changed: bool,
    },
    /// An ORWG route-setup attempt entering the network.
    RouteSetupOpen {
        /// Source AD.
        src: AdId,
        /// Destination AD.
        dst: AdId,
    },
    /// A route setup validated end-to-end (the "ack" path).
    RouteSetupAck {
        /// Source AD.
        src: AdId,
        /// Destination AD.
        dst: AdId,
        /// AD-level hop count of the installed route.
        hops: u64,
        /// End-to-end setup latency in microseconds.
        latency_us: u64,
    },
    /// A route setup rejected in-network (a dead hop or a refusing
    /// gateway): the "nack" leg of the span tree.
    RouteSetupNack {
        /// Source AD.
        src: AdId,
        /// Destination AD.
        dst: AdId,
        /// Rejection reason: `"link-down"`, `"not-on-route"`,
        /// `"policy-denied"`, `"pt-mismatch"` or `"gateway-down"`.
        reason: &'static str,
    },
    /// A lost setup packet retried after backoff; attempt numbering
    /// starts at 1 for the first retransmission.
    RouteSetupRetransmit {
        /// Source AD.
        src: AdId,
        /// Destination AD.
        dst: AdId,
        /// Which retransmission this is (1-based).
        attempt: u64,
    },
    /// A broken open flow routed around (or given up on) by repair.
    RouteSetupRepair {
        /// Source AD.
        src: AdId,
        /// Destination AD.
        dst: AdId,
        /// Repair outcome: `"alternate"`, `"synthesis"`, or `"failed"`.
        via: &'static str,
    },
    /// Route-server cache entries invalidated by a topology/policy delta.
    ViewInvalidate {
        /// One endpoint of the changed element (for a policy change, the
        /// changed AD twice).
        a: AdId,
        /// The other endpoint.
        b: AdId,
        /// Cache entries invalidated across all route servers (fan-out).
        entries: u64,
    },
    /// A view delta applied across the route-server population.
    ViewDeltaApply {
        /// Maintenance mode: `"incremental"` or `"flush"`.
        mode: &'static str,
        /// Servers that fell back to a full rebuild.
        fallbacks: u64,
    },
    /// A byzantine misbehavior model armed on an AD (the causal root of
    /// every alarm and quarantine the misbehavior later provokes).
    MisbehaviorInject {
        /// The misbehaving AD.
        ad: AdId,
        /// Model tag (see `MisbehaviorModel::tag`): `"route-leak"`,
        /// `"blackhole"`, `"forged-ack"`, ….
        model: &'static str,
    },
    /// A runtime safety monitor confirming a violation and naming a
    /// suspect.
    MonitorAlarm {
        /// Detector tag: `"policy-violation"`, `"persistent-loop"`,
        /// `"blackhole"`, or `"count-to-infinity"`.
        detector: &'static str,
        /// The AD the monitor holds responsible.
        suspect: AdId,
        /// Supporting observations accumulated before the alarm fired.
        evidence: u64,
    },
    /// The quarantine controller excising an AD from route synthesis.
    QuarantineEnter {
        /// The quarantined AD.
        ad: AdId,
    },
    /// A quarantine released (misbehavior ceased or was disproved).
    QuarantineLift {
        /// The released AD.
        ad: AdId,
    },
    /// An open deferred by the Route Server's admission controller:
    /// queued behind earlier work instead of being served immediately.
    SetupDefer {
        /// Source AD.
        src: AdId,
        /// Destination AD.
        dst: AdId,
        /// Open-queue depth after enqueue.
        depth: u64,
    },
    /// An open shed under overload: the client receives a NACK carrying
    /// a retry-after hint instead of being silently dropped.
    SetupShed {
        /// Source AD.
        src: AdId,
        /// Destination AD.
        dst: AdId,
        /// Server-suggested earliest retry delay, µs.
        retry_after_us: u64,
        /// Open-queue depth at the shed decision.
        depth: u64,
    },
    /// A shed or refused open retried by its client after backoff.
    SetupRetry {
        /// Source AD.
        src: AdId,
        /// Destination AD.
        dst: AdId,
        /// Which retry this is (1-based).
        attempt: u64,
        /// Backoff waited before this retry, µs.
        backoff_us: u64,
    },
    /// A queued open dequeued for service, with the brownout rung the
    /// admission watermarks selected.
    SetupAdmit {
        /// Source AD.
        src: AdId,
        /// Destination AD.
        dst: AdId,
        /// Brownout rung tag: `"full"`, `"cached"`, or `"stored"`.
        rung: &'static str,
        /// Time spent queued, µs.
        waited_us: u64,
    },
    /// A client giving up on an open: the setup deadline is exhausted
    /// (any queued or partially-installed work is cancelled).
    SetupAbandon {
        /// Source AD.
        src: AdId,
        /// Destination AD.
        dst: AdId,
        /// Attempts made before giving up.
        attempts: u64,
    },
    /// A Route Server crash: soft state (route cache, precomputed table,
    /// open queue) is lost and queued opens are cancelled.
    RsCrash {
        /// The AD whose Route Server crashed.
        ad: AdId,
    },
    /// A warm standby taking over a crashed Route Server: soft state is
    /// rebuilt from the flooded view, the cache preseeded from the last
    /// standby sync.
    RsFailover {
        /// The AD whose Route Server recovered.
        ad: AdId,
        /// Cached routes revalidated and preseeded by the standby.
        warmed: u64,
    },
    /// A batched synthesis sweep: one multi-destination search answered
    /// several co-routable queued opens at once (sharded service).
    SynthBatch {
        /// The AD whose Route Server ran the sweep.
        ad: AdId,
        /// Queued opens answered by this batch.
        flows: u64,
        /// Flows that needed a fresh search (the rest hit stored state).
        fresh: u64,
    },
    /// A background precompute pass refilling cache entries that a view
    /// change invalidated, ahead of the next open that wants them.
    PrecomputeRefill {
        /// The AD whose Route Server refilled.
        ad: AdId,
        /// Entries restored into the route cache.
        refilled: u64,
    },
}

impl fmt::Display for EventRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use EventRecord::*;
        match *self {
            Start { ad } => write!(f, "start {ad}"),
            MsgSend { from, to, link, .. } => write!(f, "send {from}->{to} via {link}"),
            MsgDeliver { from, to, link } => write!(f, "deliver {from}->{to} via {link}"),
            MsgLost { from, to, link } => write!(f, "lost {from}->{to} via {link}"),
            MsgDrop { from, to } => write!(f, "drop {from}->{to} at source"),
            TimerFire { ad, token } => write!(f, "timer {ad} token={token}"),
            StaleTimer { ad, token } => write!(f, "stale-timer {ad} token={token}"),
            LinkUp { link } => write!(f, "link {link} up"),
            LinkDown { link } => write!(f, "link {link} down"),
            LinkUpMasked { link } => write!(f, "link {link} up-masked"),
            Crash { ad } => write!(f, "crash {ad}"),
            Restart { ad } => write!(f, "restart {ad}"),
            ChanLoss { from, to, link } => write!(f, "chan-loss {from}->{to} via {link}"),
            ChanCorrupt { from, to, link } => write!(f, "chan-corrupt {from}->{to} via {link}"),
            ChanReorder { from, to, link } => write!(f, "chan-reorder {from}->{to} via {link}"),
            ChanDup { from, to, link } => write!(f, "chan-dup {from}->{to} via {link}"),
            FaultPlanApplied {
                link_events,
                outages,
                lossy,
            } => write!(
                f,
                "fault-plan links={link_events} outages={outages} lossy={lossy}"
            ),
            PartitionCut { links, left, right } => {
                write!(f, "partition-cut links={links} left={left} right={right}")
            }
            PartitionHeal { links } => write!(f, "partition-heal links={links}"),
            PhaseBegin { name } => write!(f, "phase {name}"),
            LsaOriginate { origin, seq, links } => {
                write!(f, "lsa-originate {origin} seq={seq} links={links}")
            }
            LsaAccept {
                at,
                origin,
                origin_seq,
            } => write!(f, "lsa-accept {at} origin={origin} seq={origin_seq}"),
            LsaDuplicate {
                at,
                origin,
                origin_seq,
            } => write!(f, "lsa-dup {at} origin={origin} seq={origin_seq}"),
            LsaSeqJump { at, seq } => write!(f, "lsa-seq-jump {at} seq={seq}"),
            LsaResync { at, neighbor, lsas } => {
                write!(f, "lsa-resync {at}->{neighbor} lsas={lsas}")
            }
            RouteRecompute { ad, proto, changed } => {
                write!(f, "recompute {ad} proto={proto} changed={changed}")
            }
            RouteSetupOpen { src, dst } => write!(f, "setup-open {src}->{dst}"),
            RouteSetupAck {
                src,
                dst,
                hops,
                latency_us,
            } => write!(
                f,
                "setup-ack {src}->{dst} hops={hops} latency={latency_us}us"
            ),
            RouteSetupNack { src, dst, reason } => {
                write!(f, "setup-nack {src}->{dst} reason={reason}")
            }
            RouteSetupRetransmit { src, dst, attempt } => {
                write!(f, "setup-retransmit {src}->{dst} attempt={attempt}")
            }
            RouteSetupRepair { src, dst, via } => {
                write!(f, "setup-repair {src}->{dst} via={via}")
            }
            ViewInvalidate { a, b, entries } => {
                write!(f, "view-invalidate {a}-{b} entries={entries}")
            }
            ViewDeltaApply { mode, fallbacks } => {
                write!(f, "view-delta mode={mode} fallbacks={fallbacks}")
            }
            MisbehaviorInject { ad, model } => {
                write!(f, "misbehavior-inject {ad} model={model}")
            }
            MonitorAlarm {
                detector,
                suspect,
                evidence,
            } => write!(
                f,
                "monitor-alarm {detector} suspect={suspect} evidence={evidence}"
            ),
            QuarantineEnter { ad } => write!(f, "quarantine-enter {ad}"),
            QuarantineLift { ad } => write!(f, "quarantine-lift {ad}"),
            SetupDefer { src, dst, depth } => {
                write!(f, "setup-defer {src}->{dst} depth={depth}")
            }
            SetupShed {
                src,
                dst,
                retry_after_us,
                depth,
            } => write!(
                f,
                "setup-shed {src}->{dst} retry-after={retry_after_us}us depth={depth}"
            ),
            SetupRetry {
                src,
                dst,
                attempt,
                backoff_us,
            } => write!(
                f,
                "setup-retry {src}->{dst} attempt={attempt} backoff={backoff_us}us"
            ),
            SetupAdmit {
                src,
                dst,
                rung,
                waited_us,
            } => write!(f, "setup-admit {src}->{dst} rung={rung} wait={waited_us}us"),
            SetupAbandon { src, dst, attempts } => {
                write!(f, "setup-abandon {src}->{dst} attempts={attempts}")
            }
            RsCrash { ad } => write!(f, "rs-crash {ad}"),
            RsFailover { ad, warmed } => write!(f, "rs-failover {ad} warmed={warmed}"),
            SynthBatch { ad, flows, fresh } => {
                write!(f, "synth-batch {ad} flows={flows} fresh={fresh}")
            }
            PrecomputeRefill { ad, refilled } => {
                write!(f, "precompute-refill {ad} refilled={refilled}")
            }
        }
    }
}

impl EventRecord {
    /// The record's kind tag as it appears in the JSON export.
    pub fn kind(&self) -> &'static str {
        use EventRecord::*;
        match self {
            Start { .. } => "start",
            MsgSend { .. } => "send",
            MsgDeliver { .. } => "deliver",
            MsgLost { .. } => "lost",
            MsgDrop { .. } => "drop",
            TimerFire { .. } => "timer",
            StaleTimer { .. } => "stale-timer",
            LinkUp { .. } => "link-up",
            LinkDown { .. } => "link-down",
            LinkUpMasked { .. } => "link-up-masked",
            Crash { .. } => "crash",
            Restart { .. } => "restart",
            ChanLoss { .. } => "chan-loss",
            ChanCorrupt { .. } => "chan-corrupt",
            ChanReorder { .. } => "chan-reorder",
            ChanDup { .. } => "chan-dup",
            FaultPlanApplied { .. } => "fault-plan",
            PartitionCut { .. } => "partition-cut",
            PartitionHeal { .. } => "partition-heal",
            PhaseBegin { .. } => "phase",
            LsaOriginate { .. } => "lsa-originate",
            LsaAccept { .. } => "lsa-accept",
            LsaDuplicate { .. } => "lsa-dup",
            LsaSeqJump { .. } => "lsa-seq-jump",
            LsaResync { .. } => "lsa-resync",
            RouteRecompute { .. } => "recompute",
            RouteSetupOpen { .. } => "setup-open",
            RouteSetupAck { .. } => "setup-ack",
            RouteSetupNack { .. } => "setup-nack",
            RouteSetupRetransmit { .. } => "setup-retransmit",
            RouteSetupRepair { .. } => "setup-repair",
            ViewInvalidate { .. } => "view-invalidate",
            ViewDeltaApply { .. } => "view-delta",
            MisbehaviorInject { .. } => "misbehavior-inject",
            MonitorAlarm { .. } => "monitor-alarm",
            QuarantineEnter { .. } => "quarantine-enter",
            QuarantineLift { .. } => "quarantine-lift",
            SetupDefer { .. } => "setup-defer",
            SetupShed { .. } => "setup-shed",
            SetupRetry { .. } => "setup-retry",
            SetupAdmit { .. } => "setup-admit",
            SetupAbandon { .. } => "setup-abandon",
            RsCrash { .. } => "rs-crash",
            RsFailover { .. } => "rs-failover",
            SynthBatch { .. } => "synth-batch",
            PrecomputeRefill { .. } => "precompute-refill",
        }
    }

    /// Renders one JSON object for this record stamped at `at`. Field
    /// order is fixed (`us`, `kind`, then per-kind fields in declaration
    /// order), so exports are byte-stable golden artifacts.
    pub fn to_json(&self, at: SimTime) -> String {
        let mut w = JsonWriter::object();
        w.put("us", at.as_us());
        self.write_json_fields(&mut w);
        w.finish()
    }

    /// Puts `kind` and the per-kind fields (no timestamp) into `w`;
    /// shared by [`EventRecord::to_json`] and [`LoggedEvent::to_json`] so
    /// both renderings stay field-identical.
    fn write_json_fields(&self, w: &mut JsonWriter) {
        use EventRecord::*;
        w.put_str("kind", self.kind());
        match *self {
            Start { ad }
            | Crash { ad }
            | Restart { ad }
            | QuarantineEnter { ad }
            | QuarantineLift { ad }
            | RsCrash { ad } => w.put("ad", ad.index()),
            MsgSend {
                from,
                to,
                link,
                bytes,
            } => w
                .put("from", from.index())
                .put("to", to.index())
                .put("link", link.index())
                .put("bytes", bytes),
            MsgDeliver { from, to, link }
            | MsgLost { from, to, link }
            | ChanLoss { from, to, link }
            | ChanCorrupt { from, to, link }
            | ChanReorder { from, to, link }
            | ChanDup { from, to, link } => w
                .put("from", from.index())
                .put("to", to.index())
                .put("link", link.index()),
            MsgDrop { from, to } => w.put("from", from.index()).put("to", to.index()),
            TimerFire { ad, token } | StaleTimer { ad, token } => {
                w.put("ad", ad.index()).put("token", token)
            }
            LinkUp { link } | LinkDown { link } | LinkUpMasked { link } => {
                w.put("link", link.index())
            }
            FaultPlanApplied {
                link_events,
                outages,
                lossy,
            } => w
                .put("link_events", link_events)
                .put("outages", outages)
                .put("lossy", lossy),
            PartitionCut { links, left, right } => {
                w.put("links", links).put("left", left).put("right", right)
            }
            PartitionHeal { links } => w.put("links", links),
            PhaseBegin { name } => w.put_str("name", name),
            LsaOriginate { origin, seq, links } => w
                .put("origin", origin.index())
                .put("seq", seq)
                .put("links", links),
            LsaAccept {
                at,
                origin,
                origin_seq,
            }
            | LsaDuplicate {
                at,
                origin,
                origin_seq,
            } => w
                .put("at", at.index())
                .put("origin", origin.index())
                .put("seq", origin_seq),
            LsaSeqJump { at, seq } => w.put("at", at.index()).put("seq", seq),
            LsaResync { at, neighbor, lsas } => w
                .put("at", at.index())
                .put("neighbor", neighbor.index())
                .put("lsas", lsas),
            RouteRecompute { ad, proto, changed } => w
                .put("ad", ad.index())
                .put_str("proto", proto)
                .put("changed", changed),
            RouteSetupOpen { src, dst } => w.put("src", src.index()).put("dst", dst.index()),
            RouteSetupAck {
                src,
                dst,
                hops,
                latency_us,
            } => w
                .put("src", src.index())
                .put("dst", dst.index())
                .put("hops", hops)
                .put("latency_us", latency_us),
            RouteSetupNack { src, dst, reason } => w
                .put("src", src.index())
                .put("dst", dst.index())
                .put_str("reason", reason),
            RouteSetupRetransmit { src, dst, attempt } => w
                .put("src", src.index())
                .put("dst", dst.index())
                .put("attempt", attempt),
            RouteSetupRepair { src, dst, via } => w
                .put("src", src.index())
                .put("dst", dst.index())
                .put_str("via", via),
            ViewInvalidate { a, b, entries } => w
                .put("a", a.index())
                .put("b", b.index())
                .put("entries", entries),
            ViewDeltaApply { mode, fallbacks } => {
                w.put_str("mode", mode).put("fallbacks", fallbacks)
            }
            MisbehaviorInject { ad, model } => w.put("ad", ad.index()).put_str("model", model),
            MonitorAlarm {
                detector,
                suspect,
                evidence,
            } => w
                .put_str("detector", detector)
                .put("suspect", suspect.index())
                .put("evidence", evidence),
            SetupDefer { src, dst, depth } => w
                .put("src", src.index())
                .put("dst", dst.index())
                .put("depth", depth),
            SetupShed {
                src,
                dst,
                retry_after_us,
                depth,
            } => w
                .put("src", src.index())
                .put("dst", dst.index())
                .put("retry_after_us", retry_after_us)
                .put("depth", depth),
            SetupRetry {
                src,
                dst,
                attempt,
                backoff_us,
            } => w
                .put("src", src.index())
                .put("dst", dst.index())
                .put("attempt", attempt)
                .put("backoff_us", backoff_us),
            SetupAdmit {
                src,
                dst,
                rung,
                waited_us,
            } => w
                .put("src", src.index())
                .put("dst", dst.index())
                .put_str("rung", rung)
                .put("waited_us", waited_us),
            SetupAbandon { src, dst, attempts } => w
                .put("src", src.index())
                .put("dst", dst.index())
                .put("attempts", attempts),
            RsFailover { ad, warmed } => w.put("ad", ad.index()).put("warmed", warmed),
            SynthBatch { ad, flows, fresh } => w
                .put("ad", ad.index())
                .put("flows", flows)
                .put("fresh", fresh),
            PrecomputeRefill { ad, refilled } => w.put("ad", ad.index()).put("refilled", refilled),
        };
    }

    /// The ADs this record directly involves (at most two), used by the
    /// causal analyses to attribute blast radius per root cause. Records
    /// about links or the run as a whole involve none.
    pub(crate) fn ads(&self) -> [Option<AdId>; 2] {
        use EventRecord::*;
        match *self {
            Start { ad }
            | Crash { ad }
            | Restart { ad }
            | TimerFire { ad, .. }
            | StaleTimer { ad, .. }
            | RouteRecompute { ad, .. } => [Some(ad), None],
            MsgSend { from, to, .. }
            | MsgDeliver { from, to, .. }
            | MsgLost { from, to, .. }
            | MsgDrop { from, to }
            | ChanLoss { from, to, .. }
            | ChanCorrupt { from, to, .. }
            | ChanReorder { from, to, .. }
            | ChanDup { from, to, .. } => [Some(from), Some(to)],
            LinkUp { .. }
            | LinkDown { .. }
            | LinkUpMasked { .. }
            | FaultPlanApplied { .. }
            | PartitionCut { .. }
            | PartitionHeal { .. }
            | PhaseBegin { .. }
            | ViewDeltaApply { .. } => [None, None],
            LsaOriginate { origin, .. } => [Some(origin), None],
            LsaAccept { at, origin, .. } | LsaDuplicate { at, origin, .. } => {
                [Some(at), Some(origin)]
            }
            LsaSeqJump { at, .. } => [Some(at), None],
            LsaResync { at, neighbor, .. } => [Some(at), Some(neighbor)],
            RouteSetupOpen { src, dst }
            | RouteSetupAck { src, dst, .. }
            | RouteSetupNack { src, dst, .. }
            | RouteSetupRetransmit { src, dst, .. }
            | RouteSetupRepair { src, dst, .. }
            | SetupDefer { src, dst, .. }
            | SetupShed { src, dst, .. }
            | SetupRetry { src, dst, .. }
            | SetupAdmit { src, dst, .. }
            | SetupAbandon { src, dst, .. } => [Some(src), Some(dst)],
            ViewInvalidate { a, b, .. } => [Some(a), Some(b)],
            MisbehaviorInject { ad, .. }
            | MonitorAlarm { suspect: ad, .. }
            | QuarantineEnter { ad }
            | QuarantineLift { ad }
            | RsCrash { ad }
            | RsFailover { ad, .. }
            | SynthBatch { ad, .. }
            | PrecomputeRefill { ad, .. } => [Some(ad), None],
        }
    }

    /// Whether this record is a wire message entering the channel; the
    /// storm report counts these separately from total events.
    pub(crate) fn is_message(&self) -> bool {
        matches!(self, EventRecord::MsgSend { .. })
    }
}

/// The outputs that print counts, each naming keys through [`Counter`]'s
/// one table. By-name reads ([`MetricsRegistry::counter`],
/// `Stats::counter`) take a key's own name.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Output {
    /// `Stats::to_json`: the keys it prints at zero are its fixed
    /// top-level fields, in table order; the rest fill `counters`.
    Stats,
    /// `metrics.counters` of `stress`, `audit` and `report`'s hop-by-hop
    /// points.
    Metrics,
    /// `metrics.counters` of `report`'s orwg point.
    Report,
    /// `profile`'s deterministic work ledger.
    Work,
}

/// How one output prints a key: not at all (`O`), under its own name
/// when nonzero (`N`) or at zero too (`Z`), or under another name when
/// nonzero (`As`) or at zero too (`AsZ`).
#[derive(Clone, Copy, Debug)]
enum Print {
    O,
    N,
    Z,
    As(&'static str),
    AsZ(&'static str),
}

/// Declares [`Counter`] and its one table from one list. Per key: its
/// own name, how `[Stats, Metrics, Report, Work]` print it, its doc.
macro_rules! ledger_table {
    ($($key:ident $name:literal [$($print:expr),*] $doc:literal;)*) => {
        /// One counted quantity: every count the simulator keeps is one
        /// key of a [`Ledger`], whichever layer counts it.
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        pub enum Counter {
            $(#[doc = $doc] $key,)*
        }

        impl Counter {
            /// Every key, in table order.
            pub(crate) const ALL: &'static [Counter] = &[$(Counter::$key),*];
        }

        /// Per key, in table order: its own name and how each [`Output`]
        /// prints it.
        const TABLE: &[(&str, [Print; 4])] = {
            use Print::*;
            &[$(($name, [$($print),*])),*]
        };
    };
}

ledger_table! {
    // An engine's, in `Stats`. The first three and `Events` are `Stats`
    // fields, which `benchmark/` reads by name; `Stats::ledger` projects
    // them (ROADMAP "One measurement stack" moves them in).
    MsgsSent "msgs_sent" [Z, O, O, As("engine/msgs_sent")] "Control messages sent, per hop.";
    BytesSent "bytes_sent" [Z, O, O, As("engine/bytes_sent")] "Encoded bytes of them.";
    MsgsDelivered "msgs_delivered" [Z, O, O, As("engine/msgs_delivered")] "Control messages delivered.";
    MsgsDropped "msgs_dropped" [Z, O, O, O] "Sends to a non-neighbor or a dead link, dropped at the source.";
    MsgsLost "msgs_lost" [Z, O, O, O] "Messages lost in flight: dead link or router, or a lossy channel.";
    MsgsCorrupted "msgs_corrupted" [Z, O, O, O] "Messages a channel fault corrupted.";
    MsgsDuplicated "msgs_duplicated" [Z, O, O, O] "Extra copies a channel fault delivered.";
    MsgsReordered "msgs_reordered" [Z, O, O, O] "Messages a channel fault delayed out of order.";
    RouterCrashes "router_crashes" [Z, O, O, O] "Router crashes.";
    RouterRestarts "router_restarts" [Z, O, O, O] "Router restarts.";
    Events "events" [Z, O, O, As("engine/events")] "Events processed.";
    DvRecompute "dv_recompute" [N, O, O, O] "Naive distance-vector route recomputations.";
    EcmaRecompute "ecma_recompute" [N, O, O, O] "ECMA route recomputations.";
    PvRecompute "pv_recompute" [N, O, O, O] "IDRP (path vector) route recomputations.";
    FloodDup "flood_dup" [N, O, O, O] "Link-state advertisements received already known.";
    LsSeqJump "ls_seq_jump" [N, O, O, O] "An origin's own advertisement came back newer than it sent.";
    LsResync "ls_resync" [N, O, O, O] "Link-state database resynchronizations.";
    LsaReplayForged "lsa_replay_forged" [N, O, O, O] "Stale advertisements a rogue origin replayed.";

    // An `Obs`'s registry: an engine's or the ORWG network's, whose repair
    // outcomes `OrwgNetwork::ledger` projects from `repair_stats`.
    EventsDropped "events_dropped" [O, N, N, O] "Event-log records the ring buffer evicted.";
    QuarantineEntered "quarantine_entered" [O, N, Z, O] "Quarantines entered.";
    QuarantineLifted "quarantine_lifted" [O, N, Z, O] "Quarantines lifted.";
    FalsePositive "false_positive" [O, N, Z, O] "Quarantines lifted off an innocent AD.";
    FlowsDelivered "flows_delivered" [O, N, N, O] "`report`'s flows that arrived.";
    FlowsUndelivered "flows_undelivered" [O, N, N, O] "`report`'s flows that did not.";
    ViewFullInstalls "view_full_installs" [O, N, N, O] "Route Server views installed whole.";
    ViewOriginsRederived "view_origins_rederived" [O, N, N, O] "Origins a view sync derived again.";
    RepairOk "repair_ok" [O, N, N, O] "Flows repair restored.";
    RepairFailed "repair_failed" [O, N, N, O] "Flows repair could not restore.";
    OpensOffered "opens_offered" [O, N, N, O] "Opens offered to admission.";
    OpensQueued "opens_queued" [O, N, N, O] "Opens queued for service.";
    OpensShed "opens_shed" [O, N, N, O] "Opens shed with a retry-after NACK.";
    OpensExpired "opens_expired" [O, N, N, O] "Queued opens whose deadline passed.";
    OpensNoRoute "opens_no_route" [O, N, N, O] "Served opens no legal route answers.";
    OpensServedFull "opens_served_full" [O, N, N, O] "Opens served by full synthesis.";
    OpensServedCached "opens_served_cached" [O, N, N, O] "Opens served on the cached rung.";
    OpensServedStored "opens_served_stored" [O, N, N, O] "Opens served from stored routes.";
    OpensSetupFailed "opens_setup_failed" [O, N, N, O] "Served opens whose setup failed.";
    OpenRetries "open_retries" [O, N, N, O] "Client retries after a shed.";
    OpensAbandoned "opens_abandoned" [O, N, N, O] "Opens a client gave up on.";
    RsCrashes "rs_crashes" [O, N, N, O] "Route Server crashes.";
    RsFailovers "rs_failovers" [O, N, N, O] "Warm-standby takeovers.";
    OpensPopped "opens_popped" [O, O, O, As("serve/opens_popped")] "Opens service slots popped.";
    OpensLive "opens_live" [O, O, O, As("serve/opens_live")] "Unexpired opens service slots popped.";
    SlotsFull "slots_full" [O, O, O, As("serve/slots_full")] "Service slots on the full rung.";
    SlotsCached "slots_cached" [O, O, O, As("serve/slots_cached")] "Service slots on the cached rung.";
    SlotsStored "slots_stored" [O, O, O, As("serve/slots_stored")] "Service slots on the stored rung.";

    // A Route Server's. The synthesis keys, `Requests` to `RevalidateHits`,
    // are equal between the batched and one-by-one paths; the sweep keys
    // after them count what batching actually did.
    Requests "requests" [O, O, O, O] "Route requests served.";
    Searches "searches" [O, O, O, As("synth/searches")] "Searches at setup time.";
    Settled "settled" [O, O, O, O] "Search states settled at setup time (CPU proxy).";
    Relaxations "relaxations" [O, O, O, O] "Search edge relaxations at setup time (CPU proxy).";
    PrecomputeSearches "precompute_searches" [O, O, O, O] "Searches (re)filling stored routes.";
    PrecomputedHits "precomputed_hits" [O, O, O, O] "Requests the precomputed table answered.";
    CacheHits "cache_hits" [O, O, O, As("synth/cache_hits")] "Requests the route cache answered.";
    EntriesInvalidated "entries_invalidated" [O, O, O, O] "Stored entries view maintenance dropped.";
    Revalidations "revalidations" [O, O, O, O] "Stored routes re-checked in place.";
    RevalidateHits "revalidate_hits" [O, O, O, O] "Re-checks that kept the route.";
    Batches "batches" [O, O, AsZ("sweep_batches"), O] "Batches `request_batch` committed.";
    BatchFlows "batch_flows" [O, O, AsZ("sweep_batch_flows"), O] "Flows in those batches.";
    Sweeps "sweeps" [O, O, AsZ("sweep_sweeps"), As("synth/sweeps")] "Shared sweeps, one per class.";
    Refills "refills" [O, As("precompute_refills"), AsZ("sweep_refills"), As("synth/refills")]
        "Entries background refill searched again.";

    // A Policy Gateway's.
    StaleForwards "stale_forwards" [O, O, O, O] "Packets on a pre-crash handle: must stay 0.";
}

impl Counter {
    /// The key's own name, which by-name reads take.
    pub(crate) fn name(self) -> &'static str {
        TABLE[self as usize].0
    }

    /// The key whose own name is `name`.
    pub(crate) fn named(name: &str) -> Option<Counter> {
        Counter::ALL.iter().copied().find(|k| k.name() == name)
    }

    /// The name `out` prints this key under and whether it prints it at
    /// zero too; `None` if `out` does not print it.
    pub(crate) fn printed_as(self, out: Output) -> Option<(&'static str, bool)> {
        let (own, print) = TABLE[self as usize];
        match print[out as usize] {
            Print::O => None,
            Print::N => Some((own, false)),
            Print::Z => Some((own, true)),
            Print::As(name) => Some((name, false)),
            Print::AsZ(name) => Some((name, true)),
        }
    }
}

/// One `u64` per [`Counter`]: the only store of a count. Each owner
/// keeps one (an engine's `Stats`, an [`Obs`]'s registry, a Route
/// Server, a Policy Gateway); outputs merge them with `+=` and print
/// them through the table. Adding is an array index.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Ledger([u64; Counter::ALL.len()]);

impl Default for Ledger {
    fn default() -> Ledger {
        Ledger([0; Counter::ALL.len()])
    }
}

impl Ledger {
    /// Adds `n` to `key`.
    #[inline]
    pub fn add(&mut self, key: Counter, n: u64) {
        self.0[key as usize] += n;
    }

    /// Reads `key`.
    #[inline]
    pub fn get(&self, key: Counter) -> u64 {
        self.0[key as usize]
    }

    /// What was counted since the `earlier` snapshot (saturating).
    pub(crate) fn since(&self, earlier: &Ledger) -> Ledger {
        Ledger(std::array::from_fn(|i| {
            self.0[i].saturating_sub(earlier.0[i])
        }))
    }

    /// `(name, value)` for every key `out` prints, those it prints at
    /// zero and the rest when nonzero, in name order.
    pub fn printed(&self, out: Output) -> Vec<(&'static str, u64)> {
        let mut rows: Vec<_> = (Counter::ALL.iter())
            .filter_map(|&k| match k.printed_as(out) {
                Some((name, zero)) if zero || self.get(k) > 0 => Some((name, self.get(k))),
                _ => None,
            })
            .collect();
        rows.sort_unstable();
        rows
    }

    /// [`Ledger::printed`] as one JSON object.
    pub fn to_json(&self, out: Output) -> String {
        let mut w = JsonWriter::object();
        for (name, v) in self.printed(out) {
            w.put(name, v);
        }
        w.finish()
    }
}

impl std::ops::AddAssign<&Ledger> for Ledger {
    fn add_assign(&mut self, other: &Ledger) {
        for (v, o) in self.0.iter_mut().zip(&other.0) {
            *v += o;
        }
    }
}

impl<'a> std::iter::Sum<&'a Ledger> for Ledger {
    fn sum<I: Iterator<Item = &'a Ledger>>(ledgers: I) -> Ledger {
        ledgers.fold(Ledger::default(), |mut total, l| {
            total += l;
            total
        })
    }
}

/// One entry in an [`EventLog`]: a typed record stamped with its
/// simulation time, its stable [`EventId`], and the id of the event that
/// caused it (`None` for causal roots: scheduled topology changes, fault
/// plans, phase markers, and externally initiated route setups).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LoggedEvent {
    /// When the event happened.
    pub at: SimTime,
    /// Stable per-stream identifier, strictly increasing in log order.
    pub id: EventId,
    /// The provoking event, if any. Always strictly smaller than `id`.
    pub cause: Option<EventId>,
    /// The typed payload.
    pub rec: EventRecord,
}

impl LoggedEvent {
    /// Renders the JSONL form with fixed field order: `us`, `id`,
    /// `cause` (omitted for roots), then the record's `kind` and fields.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::object();
        w.put("us", self.at.as_us()).put("id", self.id.0);
        if let Some(c) = self.cause {
            w.put("cause", c.0);
        }
        self.rec.write_json_fields(&mut w);
        w.finish()
    }
}

/// A bounded, in-order log of typed events (ring buffer: oldest records
/// are evicted once `capacity` is reached, counted in `dropped`).
/// Capacity 0 disables recording entirely.
#[derive(Clone, Debug, Default)]
pub struct EventLog {
    records: VecDeque<LoggedEvent>,
    capacity: usize,
    /// Records discarded because the buffer was full (or disabled).
    pub dropped: u64,
    /// Next id to assign. Ids number the whole stream (they keep
    /// advancing across eviction), so retained ids are stable references.
    next_id: u64,
}

impl EventLog {
    /// A log retaining at most `capacity` most-recent records, assigning
    /// ids from 0.
    pub(crate) fn new(capacity: usize) -> EventLog {
        EventLog::with_id_base(capacity, 0)
    }

    /// A log whose ids start at `base`. Streams exported side by side
    /// (the engine's control plane at 0, the ORWG data plane at
    /// [`DATA_STREAM_ID_BASE`]) use disjoint bases so the merged stream
    /// has globally unique ids.
    pub fn with_id_base(capacity: usize, base: u64) -> EventLog {
        EventLog {
            records: VecDeque::new(),
            capacity,
            dropped: 0,
            next_id: base,
        }
    }

    /// Appends a record caused by `cause` (evicting the oldest if full)
    /// and returns its assigned id, or `None` when the log is disabled.
    pub(crate) fn push(
        &mut self,
        at: SimTime,
        cause: Option<EventId>,
        rec: EventRecord,
    ) -> Option<EventId> {
        if self.capacity == 0 {
            self.dropped += 1;
            return None;
        }
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        let id = EventId(self.next_id);
        self.next_id += 1;
        self.records.push_back(LoggedEvent { at, id, cause, rec });
        Some(id)
    }

    /// The configured capacity (0 = disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates over retained records, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &LoggedEvent> {
        self.records.iter()
    }

    /// Renders the log as a text trace: one `time<TAB>description` line
    /// per record.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for ev in &self.records {
            let _ = writeln!(out, "{}\t{}", ev.at, ev.rec);
        }
        out
    }

    /// Exports the log as JSON Lines: one object per record followed by a
    /// trailing summary line with the retained/dropped totals. Output is
    /// deterministic, so two identically-seeded runs export byte-identical
    /// files.
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.records {
            out.push_str(&ev.to_json());
            out.push('\n');
        }
        let mut w = JsonWriter::object();
        w.put_str("kind", "trace-summary")
            .put("records", self.records.len())
            .put("dropped", self.dropped);
        out.push_str(&w.finish());
        out.push('\n');
        out
    }

    /// Compares this log against `other`, record by record. Truncation
    /// is reported: two ring buffers that overflowed can retain identical
    /// windows while the dropped prefixes differed, so agreement under
    /// truncation is flagged as inconclusive instead of silently passing
    /// differential checks.
    pub fn first_divergence<'a>(&'a self, other: &'a EventLog) -> LogComparison<'a> {
        let mut i = 0;
        let mut a = self.records.iter();
        let mut b = other.records.iter();
        loop {
            match (a.next(), b.next()) {
                (None, None) => {
                    return if self.dropped > 0 || other.dropped > 0 {
                        LogComparison::TruncatedMatch {
                            left_dropped: self.dropped,
                            right_dropped: other.dropped,
                        }
                    } else {
                        LogComparison::Identical
                    };
                }
                (x, y) if x == y => {}
                (x, y) => {
                    return LogComparison::Diverged {
                        index: i,
                        left: x,
                        right: y,
                    }
                }
            }
            i += 1;
        }
    }
}

/// Outcome of comparing two event logs record-by-record.
#[derive(Clone, Copy, Debug)]
pub enum LogComparison<'a> {
    /// Every record matches and neither log dropped anything: the runs
    /// provably produced the same event stream.
    Identical,
    /// The retained records match, but at least one log overflowed its
    /// ring buffer — the dropped prefixes may have differed, so this is
    /// *not* proof of identical runs.
    TruncatedMatch {
        /// Records the left log dropped.
        left_dropped: u64,
        /// Records the right log dropped.
        right_dropped: u64,
    },
    /// The logs disagree at `index` (a side is `None` when that log ended
    /// first).
    Diverged {
        /// Index of the first mismatching record.
        index: usize,
        /// The left log's record there, if any.
        left: Option<&'a LoggedEvent>,
        /// The right log's record there, if any.
        right: Option<&'a LoggedEvent>,
    },
}

impl LogComparison<'_> {
    /// Whether the logs are provably identical (no divergence, no
    /// truncation).
    pub fn is_identical(&self) -> bool {
        matches!(self, LogComparison::Identical)
    }
}

/// A fixed-bucket histogram of `u64` samples (power-of-two buckets), used
/// for latency and fan-out distributions. Bucketing is value-independent,
/// so merging and comparing histograms across runs is exact.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: Vec<u64>,
    /// Number of samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub(crate) fn new() -> Histogram {
        Histogram {
            buckets: vec![0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
        }
    }

    fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
        }
    }

    /// The inclusive lower bound of bucket `i`.
    fn bucket_lo(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Records one sample.
    pub(crate) fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_index(v)] += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }

    /// The inclusive upper bound of bucket `i`.
    fn bucket_top(i: usize) -> u64 {
        if i + 1 < HIST_BUCKETS {
            Self::bucket_lo(i + 1) - 1
        } else {
            u64::MAX
        }
    }

    /// An estimate of the `q`-quantile (`0.0 ..= 1.0`), interpolated
    /// within the winning bucket: the target rank's position among the
    /// bucket's samples is mapped linearly onto the bucket's value range
    /// (clamped to the observed `min`/`max`). When the rank lands on the
    /// final sample the exact `max` is reported. Empty histograms report
    /// 0.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        if target >= self.count {
            return self.max;
        }
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if c > 0 && seen >= target {
                let lo = Self::bucket_lo(i).max(self.min);
                let hi = Self::bucket_top(i).min(self.max).max(lo);
                // Rank of the target within this bucket, at the midpoint
                // of its unit interval so the estimate sweeps (lo, hi)
                // instead of pinning to an edge.
                let frac = ((target - (seen - c)) as f64 - 0.5) / c as f64;
                let off = ((hi - lo) as f64 * frac).round() as u64;
                return lo.saturating_add(off).min(hi);
            }
        }
        self.max
    }

    /// Renders the histogram as one deterministic JSON object: summary
    /// fields plus the non-empty buckets as `[lower_bound, count]` pairs.
    pub(crate) fn to_json(&self) -> String {
        let buckets = self.buckets.iter().enumerate().filter(|&(_, &c)| c > 0);
        let buckets = buckets.map(|(i, &c)| JsonWriter::array([Self::bucket_lo(i), c]));
        JsonWriter::object()
            .put("count", self.count)
            .put("sum", self.sum)
            .put("min", self.min)
            .put("max", self.max)
            .put("p50", self.quantile(0.5))
            .put("p99", self.quantile(0.99))
            .put("buckets", JsonWriter::array(buckets))
            .finish()
    }
}

/// An owner's counts beside its named histograms. Histogram names are
/// ordinary strings (conventionally `snake_case`); JSON export is in
/// name order, hence deterministic.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    /// The owner's counts.
    pub counts: Ledger,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `n` to `key`.
    pub fn add(&mut self, key: Counter, n: u64) {
        self.counts.add(key, n);
    }

    /// Reads the key named `name` (0 for a name no key has).
    pub fn counter(&self, name: &str) -> u64 {
        Counter::named(name).map_or(0, |k| self.counts.get(k))
    }

    /// Records one sample into the named histogram (created on first use).
    pub fn record(&mut self, name: &str, v: u64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.record(v);
        } else {
            let mut h = Histogram::new();
            h.record(v);
            self.histograms.insert(name.to_string(), h);
        }
    }

    /// The named histogram, if any sample was ever recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// One deterministic JSON object: `counts` as `out` prints them under
    /// `counters`, then this registry's `histograms` in name order.
    pub fn json(&self, counts: &Ledger, out: Output) -> String {
        let mut histograms = JsonWriter::object();
        for (k, h) in &self.histograms {
            histograms.put(k, h.to_json());
        }
        JsonWriter::object()
            .put("counters", counts.to_json(out))
            .put("histograms", histograms.finish())
            .finish()
    }
}

/// The observability bundle carried by an engine (or the ORWG network):
/// the typed event log plus the metrics registry. The log is off by
/// default (capacity 0); metrics are always live — they are cheap and
/// experiments read them unconditionally.
#[derive(Clone, Debug, Default)]
pub struct Obs {
    /// The typed event stream (ring buffer; capacity 0 = disabled).
    pub log: EventLog,
    /// Counts and named histograms.
    pub metrics: MetricsRegistry,
}

impl Obs {
    /// An observability bundle retaining up to `capacity` events.
    pub(crate) fn new(capacity: usize) -> Obs {
        Obs {
            log: EventLog::new(capacity),
            metrics: MetricsRegistry::new(),
        }
    }

    /// A bundle with event logging disabled (metrics still live).
    pub fn disabled() -> Obs {
        Obs::new(0)
    }

    /// Records an event into the log.
    pub fn record_event(
        &mut self,
        at: SimTime,
        cause: Option<EventId>,
        rec: EventRecord,
    ) -> Option<EventId> {
        self.log.push(at, cause, rec)
    }

    /// The registry's counts beside the records the log dropped
    /// ([`Counter::EventsDropped`], which the log keeps), so overflow
    /// shows in `report --json` even though the log only retains its
    /// window.
    pub fn ledger(&self) -> Ledger {
        let mut l = self.metrics.counts.clone();
        l.add(Counter::EventsDropped, self.log.dropped);
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_legacy_trace_strings() {
        let cases: Vec<(EventRecord, &str)> = vec![
            (EventRecord::Start { ad: AdId(0) }, "start AD0"),
            (
                EventRecord::MsgDeliver {
                    from: AdId(0),
                    to: AdId(1),
                    link: LinkId(0),
                },
                "deliver AD0->AD1 via L0",
            ),
            (
                EventRecord::MsgLost {
                    from: AdId(2),
                    to: AdId(3),
                    link: LinkId(7),
                },
                "lost AD2->AD3 via L7",
            ),
            (
                EventRecord::TimerFire {
                    ad: AdId(1),
                    token: 99,
                },
                "timer AD1 token=99",
            ),
            (
                EventRecord::StaleTimer {
                    ad: AdId(0),
                    token: 99,
                },
                "stale-timer AD0 token=99",
            ),
            (EventRecord::LinkUp { link: LinkId(1) }, "link L1 up"),
            (EventRecord::LinkDown { link: LinkId(1) }, "link L1 down"),
            (
                EventRecord::LinkUpMasked { link: LinkId(4) },
                "link L4 up-masked",
            ),
            (EventRecord::Crash { ad: AdId(5) }, "crash AD5"),
            (EventRecord::Restart { ad: AdId(5) }, "restart AD5"),
            (
                EventRecord::ChanLoss {
                    from: AdId(0),
                    to: AdId(1),
                    link: LinkId(0),
                },
                "chan-loss AD0->AD1 via L0",
            ),
            (
                EventRecord::RouteSetupNack {
                    src: AdId(1),
                    dst: AdId(2),
                    reason: "link-down",
                },
                "setup-nack AD1->AD2 reason=link-down",
            ),
            (
                EventRecord::RouteSetupRetransmit {
                    src: AdId(1),
                    dst: AdId(2),
                    attempt: 2,
                },
                "setup-retransmit AD1->AD2 attempt=2",
            ),
        ];
        for (rec, want) in cases {
            assert_eq!(rec.to_string(), want);
        }
    }

    #[test]
    fn json_export_is_stable() {
        let rec = EventRecord::MsgDeliver {
            from: AdId(0),
            to: AdId(1),
            link: LinkId(2),
        };
        assert_eq!(
            rec.to_json(SimTime(1500)),
            "{\"us\":1500,\"kind\":\"deliver\",\"from\":0,\"to\":1,\"link\":2}"
        );
        let mut log = EventLog::new(4);
        let root = log.push(SimTime(0), None, EventRecord::Start { ad: AdId(0) });
        assert_eq!(root, Some(EventId(0)));
        log.push(SimTime(1500), root, rec);
        let jsonl = log.export_jsonl();
        assert_eq!(
            jsonl,
            "{\"us\":0,\"id\":0,\"kind\":\"start\",\"ad\":0}\n\
             {\"us\":1500,\"id\":1,\"cause\":0,\"kind\":\"deliver\",\"from\":0,\"to\":1,\"link\":2}\n\
             {\"kind\":\"trace-summary\",\"records\":2,\"dropped\":0}\n"
        );
    }

    #[test]
    fn event_log_ring_and_divergence() {
        let mut a = EventLog::new(2);
        a.push(SimTime(1), None, EventRecord::Start { ad: AdId(0) });
        a.push(SimTime(2), None, EventRecord::Start { ad: AdId(1) });
        a.push(SimTime(3), None, EventRecord::Start { ad: AdId(2) });
        assert_eq!(a.records.len(), 2);
        assert_eq!(a.dropped, 1);
        // Ids number the whole stream: eviction does not recycle them.
        assert_eq!(a.iter().map(|ev| ev.id.0).collect::<Vec<_>>(), vec![1, 2]);
        let mut b = a.clone();
        // Retained records agree but both logs overflowed: agreement is
        // flagged as inconclusive, not reported as proof of identity.
        match a.first_divergence(&b) {
            LogComparison::TruncatedMatch {
                left_dropped: 1,
                right_dropped: 1,
            } => {}
            c => panic!("expected truncated match, got {c:?}"),
        }
        assert!(!a.first_divergence(&b).is_identical());
        b.push(SimTime(4), None, EventRecord::Crash { ad: AdId(0) });
        match a.first_divergence(&b) {
            LogComparison::Diverged { index, left, right } => {
                assert_eq!(index, 0);
                assert!(left.is_some() && right.is_some());
            }
            c => panic!("expected divergence, got {c:?}"),
        }
        // Untruncated identical logs are provably identical.
        let mut c1 = EventLog::new(4);
        let mut c2 = EventLog::new(4);
        for log in [&mut c1, &mut c2] {
            let r = log.push(SimTime(1), None, EventRecord::Start { ad: AdId(0) });
            log.push(SimTime(2), r, EventRecord::Crash { ad: AdId(0) });
        }
        assert!(c1.first_divergence(&c2).is_identical());
        // Disabled log drops everything silently.
        let mut z = EventLog::new(0);
        assert_eq!(
            z.push(SimTime(1), None, EventRecord::Start { ad: AdId(0) }),
            None
        );
        assert!(z.records.is_empty());
        assert_eq!(z.dropped, 1);
        assert_eq!(z.render(), "");
    }

    #[test]
    fn obs_record_event_mirrors_drops_into_metrics() {
        let mut obs = Obs::new(1);
        obs.record_event(SimTime(1), None, EventRecord::Start { ad: AdId(0) });
        assert_eq!(obs.ledger().get(Counter::EventsDropped), 0);
        obs.record_event(SimTime(2), None, EventRecord::Start { ad: AdId(1) });
        assert_eq!(obs.log.dropped, 1);
        assert_eq!(obs.ledger().get(Counter::EventsDropped), 1);
        assert!(obs
            .metrics
            .json(&obs.ledger(), Output::Metrics)
            .contains("\"events_dropped\":1"));
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        for v in [0u64, 1, 1, 2, 3, 4, 1000] {
            h.record(v);
        }
        assert_eq!(h.count, 7);
        assert_eq!(h.sum, 1011);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1000);
        // The median rank falls in the [2,3] bucket; the interpolated
        // estimate sits inside it.
        assert_eq!(h.quantile(0.5), 2);
        // Extreme quantiles are known exactly.
        assert_eq!(h.quantile(1.0), 1000);
        assert_eq!(h.quantile(0.0), 0);
        let json = h.to_json();
        assert!(json.starts_with("{\"count\":7,\"sum\":1011,\"min\":0,\"max\":1000"));
        assert!(json.contains("\"buckets\":[[0,1],[1,2],[2,2],[4,1],[512,1]]"));
        // Giant samples land in the saturating top bucket.
        let mut g = Histogram::new();
        g.record(u64::MAX);
        assert_eq!(g.quantile(0.5), u64::MAX);
    }

    #[test]
    fn quantile_interpolates_within_bucket() {
        // {0,5,9}: the median rank (2nd of 3) falls in the [4,7] bucket
        // holding the single sample 5; interpolation reports the middle
        // of the bucket's range instead of its top.
        let mut h = Histogram::new();
        for v in [0u64, 5, 9] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), 6);
        assert_eq!(h.quantile(0.99), 9, "p99 rank is the last sample");
        // A full bucket: samples 8..=15 all land in [8,15]; interpolated
        // quantiles sweep the bucket instead of pinning to its top.
        let mut u = Histogram::new();
        for v in 8u64..=15 {
            u.record(v);
        }
        let q25 = u.quantile(0.25);
        let q75 = u.quantile(0.75);
        assert!(q25 < q75, "{q25} vs {q75}");
        assert!((8..=15).contains(&q25));
        assert!((8..=15).contains(&q75));
    }

    #[test]
    fn registry_counters_histograms_and_json() {
        let mut m = MetricsRegistry::new();
        assert!(m.counts == Ledger::default() && m.histograms.is_empty());
        m.add(Counter::OpensShed, 2);
        m.add(Counter::OpenRetries, 1);
        m.add(Counter::OpensShed, 3);
        m.add(Counter::FlowsUndelivered, 0);
        m.record("lat_us", 10);
        m.record("lat_us", 20);
        assert_eq!(m.counter("opens_shed"), 5);
        assert_eq!(m.counter("missing"), 0);
        assert_eq!(m.histogram("lat_us").unwrap().count, 2);
        let json = m.json(&m.counts, Output::Metrics);
        assert!(
            json.starts_with("{\"counters\":{\"open_retries\":1,\"opens_shed\":5}"),
            "name order, zeros unprinted: {json}"
        );
        assert!(json.contains("\"lat_us\":{\"count\":2"));
    }

    /// Every key's row in the one table, per output: no key prints under
    /// two names, no name maps to two keys, every key is named somewhere,
    /// and the by-name reads answer every name `benchmark/` passes.
    #[test]
    fn the_name_table_is_one_to_one_per_output() {
        use std::collections::BTreeSet;
        assert_eq!(TABLE.len(), Counter::ALL.len());
        let own: BTreeSet<&str> = Counter::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(own.len(), Counter::ALL.len(), "two keys share a name");
        for (i, &k) in Counter::ALL.iter().enumerate() {
            assert_eq!(k as usize, i, "{k:?} is out of table order");
            assert_eq!(Counter::named(k.name()), Some(k));
        }
        let mut printed = BTreeSet::new();
        for out in [Output::Stats, Output::Metrics, Output::Report, Output::Work] {
            let mut names = BTreeSet::new();
            for &k in Counter::ALL {
                // `printed_as` yields at most one name per key and output.
                if let Some((name, _)) = k.printed_as(out) {
                    assert!(names.insert(name), "{out:?} prints two keys as {name}");
                    printed.insert(k as usize);
                }
            }
        }
        // The keys no output prints are read by name: a Route Server's
        // search effort (`SynthStats`) and the gateways' tripwire.
        for &k in Counter::ALL {
            if !printed.contains(&(k as usize)) {
                assert!(
                    k == Counter::StaleForwards
                        || (Counter::Requests as usize..=Counter::RevalidateHits as usize)
                            .contains(&(k as usize)),
                    "{k:?} appears in no output"
                );
            }
        }
        for name in [
            "dv_recompute",
            "ecma_recompute",
            "pv_recompute",
            "flood_dup",
            "view_full_installs",
        ] {
            assert!(Counter::named(name).is_some(), "no key named {name}");
        }
    }
}
