//! The simulation engine: routers, message delivery, timers, link events.

use adroute_topology::{AdId, LinkId, Topology};

use crate::event::{Event, EventKind, EventQueue, SimTime};
use crate::faults::{ChannelFaults, ChannelVerdict};
use crate::obs::prof::Profiler;
use crate::obs::{EventId, EventLog, EventRecord, Obs};
use crate::stats::Stats;

/// A routing protocol that can be run by the [`Engine`].
///
/// The protocol value itself holds *configuration* shared by all routers
/// (policies, tuning knobs); per-AD state lives in `Router`. Handlers
/// receive a [`Ctx`] through which they send messages, set one-shot
/// timers, and record work counters.
pub trait Protocol: Sized {
    /// Per-AD router state.
    type Router;
    /// Wire message type exchanged between neighbors.
    type Msg: Clone;

    /// Creates the initial router state for `ad`.
    fn make_router(&self, topo: &Topology, ad: AdId) -> Self::Router;

    /// Called once per router at simulation start (time zero).
    fn on_start(&self, router: &mut Self::Router, ctx: &mut Ctx<'_, Self::Msg>);

    /// Called when a message from neighbor `from` arrives over `link`.
    fn on_message(
        &self,
        router: &mut Self::Router,
        ctx: &mut Ctx<'_, Self::Msg>,
        from: AdId,
        link: LinkId,
        msg: Self::Msg,
    );

    /// Called when a one-shot timer set via [`Ctx::set_timer`] fires.
    fn on_timer(&self, router: &mut Self::Router, ctx: &mut Ctx<'_, Self::Msg>, token: u64) {
        let _ = (router, ctx, token);
    }

    /// Called when an adjacent link changes state. The topology has
    /// already been updated when this fires.
    fn on_link_event(
        &self,
        router: &mut Self::Router,
        ctx: &mut Ctx<'_, Self::Msg>,
        link: LinkId,
        neighbor: AdId,
        up: bool,
    ) {
        let _ = (router, ctx, link, neighbor, up);
    }

    /// Called on the dying router state just before a crash discards it.
    /// The router cannot send or set timers — it is already dead; the hook
    /// exists for protocols that mirror state outside the engine.
    fn on_crash(&self, router: &mut Self::Router) {
        let _ = router;
    }

    /// Called on the freshly rebuilt router state when a crashed router
    /// restarts. Defaults to [`Protocol::on_start`]: for most protocols a
    /// reboot looks exactly like a cold boot. Adjacent links that are
    /// operational again also deliver `on_link_event(up)` to both ends
    /// right after this hook, so neighbor-side resynchronization logic
    /// (full-table re-advertisement, database exchange) runs without any
    /// crash-specific protocol code.
    fn on_restart(&self, router: &mut Self::Router, ctx: &mut Ctx<'_, Self::Msg>) {
        self.on_start(router, ctx);
    }

    /// Encoded size in bytes of a message, for overhead accounting.
    fn msg_size(&self, msg: &Self::Msg) -> usize;
}

/// Handler-side context: everything a router may do during an event.
pub struct Ctx<'a, M> {
    pub(crate) me: AdId,
    pub(crate) topo: &'a Topology,
    pub(crate) stats: &'a mut Stats,
    /// Outgoing messages `(to, link, msg, anchor)` buffered until the
    /// handler returns; `anchor` indexes the protocol-emitted event in
    /// `events` that preceded the send, for causal attribution.
    pub(crate) outbox: Vec<(AdId, LinkId, M, Option<usize>)>,
    /// Timers `(delay_us, token, anchor)` buffered until the handler
    /// returns.
    pub(crate) timers: Vec<(u64, u64, Option<usize>)>,
    /// Typed events emitted by the protocol, drained into the engine's
    /// observability stream when the handler returns.
    pub(crate) events: Vec<EventRecord>,
    /// Index into `events` of the most recent protocol-emitted record.
    /// Sends and timers are attributed to it (protocols emit the
    /// reaction — LSA accepted, route recomputed — *before* flooding),
    /// falling back to the dispatched event itself.
    pub(crate) anchor: Option<usize>,
    /// Whether the typed event log is enabled; when false,
    /// [`Ctx::emit`] is a no-op so protocols pay nothing.
    pub(crate) observing: bool,
}

impl<'a, M> Ctx<'a, M> {
    /// The AD this router belongs to.
    #[inline]
    pub fn me(&self) -> AdId {
        self.me
    }

    /// Operational neighbors of this AD, with the connecting link.
    pub fn neighbors(&self) -> Vec<(AdId, LinkId)> {
        self.topo.neighbors(self.me).collect()
    }

    /// The routing metric of a link (for computing advertised distances).
    pub fn link_metric(&self, link: LinkId) -> u32 {
        self.topo.link(link).metric
    }

    /// The propagation delay of a link in microseconds.
    pub fn link_delay(&self, link: LinkId) -> u64 {
        self.topo.link(link).delay_us
    }

    /// The hierarchy classification of a link (hierarchical / lateral /
    /// bypass). Tree-restricted protocols (EGP-style) filter on this.
    pub fn link_kind(&self, link: LinkId) -> adroute_topology::LinkKind {
        self.topo.link(link).kind
    }

    /// The dense slot of `neighbor` in this AD's adjacency list, or
    /// `None` for non-neighbors. Slots are stable for a topology (the
    /// adjacency is sorted by neighbor id) regardless of link state, so
    /// per-neighbor protocol state can live in flat arrays of
    /// `Topology::full_degree` length instead of hash maps.
    pub fn neighbor_slot(&self, neighbor: AdId) -> Option<usize> {
        self.topo.neighbor_slot(self.me, neighbor)
    }

    /// Sends `msg` to a directly connected neighbor over the (operational)
    /// link between them. Messages to non-neighbors or over failed links
    /// are dropped at the source, mirroring a loss on a dying link; such
    /// drops are counted in `Stats::msgs_dropped`.
    pub fn send(&mut self, to: AdId, msg: M) {
        match self.topo.link_between(self.me, to) {
            Some(link) if self.topo.link(link).up => self.outbox.push((to, link, msg, self.anchor)),
            _ => {
                self.stats.msgs_dropped += 1;
                let from = self.me;
                // Recorded without moving the anchor: a source-side drop
                // is a side effect, not a protocol reaction later sends
                // should attach to.
                if self.observing {
                    self.events.push(EventRecord::MsgDrop { from, to });
                }
            }
        }
    }

    /// Sets a one-shot timer `delay_us` microseconds from now. The token
    /// is returned to [`Protocol::on_timer`].
    pub fn set_timer(&mut self, delay_us: u64, token: u64) {
        self.timers.push((delay_us, token, self.anchor));
    }

    /// Adds `n` to a named work counter (e.g. `"dijkstra"`).
    pub fn count(&mut self, name: &'static str, n: u64) {
        self.stats.count(name, n);
    }

    /// Emits a typed protocol event (LSA accepted, route recomputed, …)
    /// into the engine's observability stream. A no-op unless the typed
    /// event log is enabled, so hot paths stay free.
    pub fn emit(&mut self, rec: EventRecord) {
        if self.observing {
            self.anchor = Some(self.events.len());
            self.events.push(rec);
        }
    }
}

/// Reusable dispatch buffers. [`Engine::react`] hands these to each
/// [`Ctx`] and takes them back drained, so steady-state dispatch allocates
/// nothing — the hot-path requirement for paper-scale runs (and the whole
/// point when no observer is attached and `events` stays empty).
struct Scratch<M> {
    outbox: Vec<(AdId, LinkId, M, Option<usize>)>,
    timers: Vec<(u64, u64, Option<usize>)>,
    events: Vec<EventRecord>,
    emitted: Vec<Option<EventId>>,
}

impl<M> Default for Scratch<M> {
    fn default() -> Scratch<M> {
        Scratch {
            outbox: Vec::new(),
            timers: Vec::new(),
            events: Vec::new(),
            emitted: Vec::new(),
        }
    }
}

/// The discrete-event engine running one [`Protocol`] over one
/// [`Topology`].
pub struct Engine<P: Protocol> {
    protocol: P,
    topo: Topology,
    routers: Vec<P::Router>,
    /// Pending events of every kind, popped in `(time, seq)` order.
    queue: EventQueue<P::Msg>,
    /// The push counter: the `seq` of the next queued event.
    seq: u64,
    now: SimTime,
    /// What the link-fault process says about each link, independent of
    /// router crashes. A link is *operational* (reflected in `topo`) iff
    /// its scheduled state is up AND both endpoint routers are up.
    sched_up: Vec<bool>,
    /// Liveness of each router; crashed routers receive no events.
    router_up: Vec<bool>,
    /// Bumped on each crash so pre-crash timers die with the old state.
    incarnations: Vec<u32>,
    /// Optional channel-fault configuration (loss/corruption/dup/
    /// reorder); verdicts are drawn per message, keyed on event identity.
    faults: Option<ChannelFaults>,
    /// Reusable dispatch buffers (see [`Scratch`]).
    scratch: Scratch<P::Msg>,
    /// Safety valve: maximum events processed per `run_*` call family.
    pub max_events: u64,
    /// Accumulated measurement counters.
    pub stats: Stats,
    /// Structured observability: the typed event log (capacity 0 =
    /// disabled, see [`Engine::enable_obs`]) plus the always-live metrics
    /// registry. Because the engine is deterministic, the log is a golden
    /// artifact: equal configurations produce byte-identical logs, and
    /// [`EventLog::first_divergence`] pinpoints where two runs split.
    pub obs: Obs,
    /// The self-profiler (disabled by default; see
    /// [`Engine::enable_prof`]). Its span/wall side is measurement-only;
    /// its work ledger is fed exclusively from [`Stats`] deltas, so it
    /// obeys the determinism contract.
    pub prof: Profiler,
}

impl<P: Protocol> Engine<P> {
    /// Builds routers for every AD and schedules their start events at
    /// time zero (in AD order).
    pub fn new(topo: Topology, protocol: P) -> Engine<P> {
        let routers = topo
            .ad_ids()
            .map(|ad| protocol.make_router(&topo, ad))
            .collect::<Vec<_>>();
        let stats = Stats::new(topo.num_ads());
        let sched_up = topo.links().map(|l| l.up).collect();
        let num_ads = topo.num_ads();
        let mut e = Engine {
            protocol,
            topo,
            routers,
            queue: EventQueue::new(),
            seq: 0,
            now: SimTime::ZERO,
            sched_up,
            router_up: vec![true; num_ads],
            incarnations: vec![0; num_ads],
            faults: None,
            scratch: Scratch::default(),
            max_events: 50_000_000,
            stats,
            obs: Obs::disabled(),
            prof: Profiler::new(),
        };
        for ad in e.topo.ad_ids() {
            e.push(SimTime::ZERO, None, EventKind::Start { ad });
        }
        e
    }

    /// Queues an event under the next `seq`, so events due at the same
    /// time fire in push order.
    #[inline]
    fn push(&mut self, time: SimTime, cause: Option<EventId>, kind: EventKind<P::Msg>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Event {
            time,
            seq,
            cause,
            kind,
        });
    }

    /// The topology (current link states included).
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// Router state of `ad`.
    pub fn router(&self, ad: AdId) -> &P::Router {
        &self.routers[ad.index()]
    }

    /// Mutable router state of `ad`, for experiment-driven changes
    /// (e.g. editing a policy before poking the router).
    pub fn router_mut(&mut self, ad: AdId) -> &mut P::Router {
        &mut self.routers[ad.index()]
    }

    /// The protocol configuration.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// The protocol value and the router of `ad`, both mutable at once:
    /// for data planes whose routers share work through state the
    /// protocol value owns. Handlers never see the protocol mutably.
    pub fn protocol_and_router_mut(&mut self, ad: AdId) -> (&mut P, &mut P::Router) {
        (&mut self.protocol, &mut self.routers[ad.index()])
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Schedules a link state change at an absolute time. The topology
    /// flips when the event fires; both endpoint routers are then
    /// notified.
    pub fn schedule_link_change(&mut self, link: LinkId, up: bool, at: SimTime) {
        self.schedule_link_change_caused(link, up, at, None);
    }

    /// [`Engine::schedule_link_change`] with causal provenance: the fired
    /// link event (and everything it triggers) is attributed to `cause`
    /// in the event log. Fault injectors use this to root their blast
    /// radius at the plan that scheduled them.
    pub(crate) fn schedule_link_change_caused(
        &mut self,
        link: LinkId,
        up: bool,
        at: SimTime,
        cause: Option<EventId>,
    ) {
        assert!(at >= self.now, "cannot schedule in the past");
        self.push(at, cause, EventKind::LinkEvent { link, up });
    }

    /// Schedules a router crash (`up = false`) or restart (`up = true`) at
    /// an absolute time. A crash discards the router's entire soft state
    /// and takes its adjacent links out of operation (fate sharing: dead
    /// routers have dead interfaces); live neighbors observe ordinary
    /// link-down events. A restart rebuilds the router via
    /// [`Protocol::make_router`], runs [`Protocol::on_restart`], restores
    /// the adjacent links the link-fault process allows, and delivers
    /// link-up events to both ends of each — which is what lets existing
    /// protocol resynchronization logic heal the reborn router.
    pub fn schedule_router_change(&mut self, ad: AdId, up: bool, at: SimTime) {
        self.schedule_router_change_caused(ad, up, at, None);
    }

    /// [`Engine::schedule_router_change`] with causal provenance.
    pub(crate) fn schedule_router_change_caused(
        &mut self,
        ad: AdId,
        up: bool,
        at: SimTime,
        cause: Option<EventId>,
    ) {
        assert!(at >= self.now, "cannot schedule in the past");
        assert!(ad.index() < self.routers.len(), "unknown AD {ad}");
        self.push(at, cause, EventKind::RouterEvent { ad, up });
    }

    /// Whether router `ad` is currently alive.
    pub fn router_is_up(&self, ad: AdId) -> bool {
        self.router_up[ad.index()]
    }

    /// Installs (or clears) the channel-fault configuration. Faults apply
    /// to every message sent after this call; each message's fate is
    /// drawn by `ChannelFaults::judge` keyed on (seed, sender, per-AD
    /// send ordinal), so fault arrival is a pure function of event
    /// identity, independent of draw order.
    pub fn set_channel_faults(&mut self, faults: Option<ChannelFaults>) {
        self.faults = faults;
    }

    /// Processes a single event. Returns `false` if the queue was empty.
    pub(crate) fn step(&mut self) -> bool {
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.time >= self.now, "time went backwards");
        self.now = ev.time;
        self.stats.events += 1;
        let cause = ev.cause;
        match ev.kind {
            EventKind::Start { ad } => {
                let id = self.emit(cause, EventRecord::Start { ad }).or(cause);
                self.react(ad, id, |p, r, ctx| p.on_start(r, ctx));
            }
            EventKind::Deliver {
                to,
                from,
                link,
                msg,
            } => {
                // A message in flight when its link failed, or whose
                // destination crashed, is lost.
                if self.topo.link(link).up && self.router_up[to.index()] {
                    self.stats.msgs_delivered += 1;
                    self.stats.last_activity = self.now;
                    let id = self
                        .emit(cause, EventRecord::MsgDeliver { from, to, link })
                        .or(cause);
                    self.react(to, id, |p, r, ctx| p.on_message(r, ctx, from, link, msg));
                } else {
                    self.stats.msgs_lost += 1;
                    self.emit(cause, EventRecord::MsgLost { from, to, link });
                }
            }
            EventKind::Timer {
                ad,
                token,
                incarnation,
            } => {
                // Timers armed by a previous incarnation (or aimed at a
                // currently dead router) died with the state that set them.
                if self.router_up[ad.index()] && incarnation == self.incarnations[ad.index()] {
                    let id = self
                        .emit(cause, EventRecord::TimerFire { ad, token })
                        .or(cause);
                    self.react(ad, id, |p, r, ctx| p.on_timer(r, ctx, token));
                } else {
                    self.emit(cause, EventRecord::StaleTimer { ad, token });
                }
            }
            EventKind::LinkEvent { link, up } => {
                self.sched_up[link.index()] = up;
                let l = self.topo.link(link);
                let (a, b) = (l.a, l.b);
                // A link is only operational if both endpoint routers live.
                let eff = up && self.router_up[a.index()] && self.router_up[b.index()];
                self.topo.set_link_up(link, eff);
                self.stats.last_activity = self.now;
                let id = self.emit(
                    cause,
                    match (up, eff) {
                        (true, true) => EventRecord::LinkUp { link },
                        (true, false) => EventRecord::LinkUpMasked { link },
                        _ => EventRecord::LinkDown { link },
                    },
                );
                let link_cause = id.or(cause);
                if self.router_up[a.index()] {
                    self.react(a, link_cause, |p, r, ctx| {
                        p.on_link_event(r, ctx, link, b, eff)
                    });
                }
                if self.router_up[b.index()] {
                    self.react(b, link_cause, |p, r, ctx| {
                        p.on_link_event(r, ctx, link, a, eff)
                    });
                }
            }
            EventKind::RouterEvent { ad, up } => {
                if up {
                    self.restart_router(ad, cause);
                } else {
                    self.crash_router(ad, cause);
                }
            }
        }
        true
    }

    /// Runs handler `f` on router `ad` and applies what it buffered in its
    /// [`Ctx`]: protocol records, then sends (each through the
    /// channel-fault verdict), then timers.
    ///
    /// Forced inline: left to the inliner, the benchmark's converge stage
    /// ran ~3% slower.
    #[inline(always)]
    fn react<F>(&mut self, ad: AdId, cause: Option<EventId>, f: F)
    where
        F: FnOnce(&P, &mut P::Router, &mut Ctx<'_, P::Msg>),
    {
        // Hand the reusable buffers to the context; they come back drained
        // below, so steady-state dispatch performs no allocation.
        let observing = self.observing();
        let mut ctx = Ctx {
            me: ad,
            topo: &self.topo,
            stats: &mut self.stats,
            outbox: std::mem::take(&mut self.scratch.outbox),
            timers: std::mem::take(&mut self.scratch.timers),
            events: std::mem::take(&mut self.scratch.events),
            anchor: None,
            observing,
        };
        f(&self.protocol, &mut self.routers[ad.index()], &mut ctx);
        let Ctx {
            mut outbox,
            mut timers,
            mut events,
            ..
        } = ctx;
        // Protocol-emitted records are children of the dispatched event;
        // what each emit returns lets the sends and timers that followed
        // it attach to the precise reaction that produced them.
        let mut emitted = std::mem::take(&mut self.scratch.emitted);
        for rec in events.drain(..) {
            emitted.push(self.emit(cause, rec).or(cause));
        }
        let resolve = |anchor: Option<usize>| anchor.map_or(cause, |i| emitted[i]);
        for (to, link, msg, anchor) in outbox.drain(..) {
            let mut delay = self.topo.link(link).delay_us;
            let bytes = self.protocol.msg_size(&msg) as u64;
            self.stats.msgs_sent += 1;
            self.stats.bytes_sent += bytes;
            let sent_by_ad = &mut self.stats.per_ad_msgs[ad.index()];
            *sent_by_ad += 1;
            let ordinal = *sent_by_ad;
            // The per-hop chain: whatever happens to this message in
            // flight (channel fault, delivery) descends from its send.
            let parent = resolve(anchor);
            let hop_cause = self
                .emit(
                    parent,
                    EventRecord::MsgSend {
                        from: ad,
                        to,
                        link,
                        bytes,
                    },
                )
                .or(parent);
            let mut dup_at = None;
            // The verdict is keyed on the sender's cumulative send count,
            // so it is a pure function of the message's identity.
            let verdict = self
                .faults
                .as_ref()
                .filter(|cfg| cfg.active_at(self.now))
                .map(|cfg| cfg.judge(ad, ordinal, delay));
            if let Some(verdict) = verdict {
                match verdict {
                    ChannelVerdict::Lost => {
                        self.stats.msgs_lost += 1;
                        self.emit(hop_cause, EventRecord::ChanLoss { from: ad, to, link });
                        continue;
                    }
                    ChannelVerdict::Corrupted => {
                        self.stats.msgs_corrupted += 1;
                        self.emit(hop_cause, EventRecord::ChanCorrupt { from: ad, to, link });
                        continue;
                    }
                    ChannelVerdict::Pass {
                        delay_us,
                        duplicate_at_us,
                        reordered,
                    } => {
                        if reordered {
                            self.stats.msgs_reordered += 1;
                            self.emit(hop_cause, EventRecord::ChanReorder { from: ad, to, link });
                        }
                        if let Some(d) = duplicate_at_us {
                            self.stats.msgs_duplicated += 1;
                            self.emit(hop_cause, EventRecord::ChanDup { from: ad, to, link });
                            dup_at = Some(self.now.plus_us(d));
                        }
                        delay = delay_us;
                    }
                }
            }
            if let Some(at) = dup_at {
                self.push(
                    at,
                    hop_cause,
                    EventKind::Deliver {
                        to,
                        from: ad,
                        link,
                        msg: msg.clone(),
                    },
                );
            }
            self.push(
                self.now.plus_us(delay),
                hop_cause,
                EventKind::Deliver {
                    to,
                    from: ad,
                    link,
                    msg,
                },
            );
        }
        let incarnation = self.incarnations[ad.index()];
        for (delay_us, token, anchor) in timers.drain(..) {
            self.push(
                self.now.plus_us(delay_us),
                resolve(anchor),
                EventKind::Timer {
                    ad,
                    token,
                    incarnation,
                },
            );
        }
        emitted.clear();
        self.scratch.outbox = outbox;
        self.scratch.timers = timers;
        self.scratch.events = events;
        self.scratch.emitted = emitted;
    }

    /// Crashes router `ad`: soft state is lost, adjacent links go out of
    /// operation, live neighbors observe link-down events.
    fn crash_router(&mut self, ad: AdId, cause: Option<EventId>) {
        if !self.router_up[ad.index()] {
            return; // already down: double-crash is a no-op
        }
        self.stats.router_crashes += 1;
        self.stats.last_activity = self.now;
        let crash_id = self.emit(cause, EventRecord::Crash { ad }).or(cause);
        self.protocol.on_crash(&mut self.routers[ad.index()]);
        self.router_up[ad.index()] = false;
        self.incarnations[ad.index()] += 1;
        let adjacent: Vec<(AdId, LinkId)> = self.topo.neighbors(ad).collect();
        for (nbr, link) in adjacent {
            self.topo.set_link_up(link, false);
            // Fate-shared link-downs are children of the crash; neighbor
            // reactions chain off each link-down in turn.
            let down_id = self
                .emit(crash_id, EventRecord::LinkDown { link })
                .or(crash_id);
            if self.router_up[nbr.index()] {
                self.react(nbr, down_id, |p, r, ctx| {
                    p.on_link_event(r, ctx, link, ad, false)
                });
            }
        }
    }

    /// Restarts router `ad`: state is rebuilt from scratch via
    /// [`Protocol::make_router`], operational adjacent links come back,
    /// and link-up events fire at both ends of each restored link.
    fn restart_router(&mut self, ad: AdId, cause: Option<EventId>) {
        if self.router_up[ad.index()] {
            return; // already up: double-restart is a no-op
        }
        self.stats.router_restarts += 1;
        self.stats.last_activity = self.now;
        let restart_id = self.emit(cause, EventRecord::Restart { ad }).or(cause);
        self.router_up[ad.index()] = true;
        // Restore adjacency first so the rebuilt router boots against the
        // topology it will actually operate on. Each restored link-up is
        // a child of the restart; the link-event dispatches below chain
        // off their own link-up record.
        let mut restored: Vec<(AdId, LinkId, Option<EventId>)> = Vec::new();
        let adjacent: Vec<(AdId, LinkId)> = self.topo.all_neighbors(ad).collect();
        for (nbr, link) in adjacent {
            let eff = self.sched_up[link.index()] && self.router_up[nbr.index()];
            if eff && !self.topo.link(link).up {
                self.topo.set_link_up(link, true);
                let up_id = self
                    .emit(restart_id, EventRecord::LinkUp { link })
                    .or(restart_id);
                restored.push((nbr, link, up_id));
            }
        }
        self.routers[ad.index()] = self.protocol.make_router(&self.topo, ad);
        self.react(ad, restart_id, |p, r, ctx| p.on_restart(r, ctx));
        for (nbr, link, up_id) in restored {
            self.react(ad, up_id, |p, r, ctx| {
                p.on_link_event(r, ctx, link, nbr, true)
            });
            if self.router_up[nbr.index()] {
                self.react(nbr, up_id, |p, r, ctx| {
                    p.on_link_event(r, ctx, link, ad, true)
                });
            }
        }
    }

    /// Enables the typed event log with the given ring-buffer capacity,
    /// clearing any previously retained records. Metrics are unaffected
    /// (they are always live).
    pub fn enable_obs(&mut self, capacity: usize) {
        self.obs.log = EventLog::new(capacity);
    }

    /// Enables the self-profiler. Unlike the event log, the profiler adds
    /// no per-event work: spans wrap whole `run_*` calls, and the work
    /// ledger is fed from [`Stats`] deltas at span exits.
    pub fn enable_prof(&mut self) {
        self.prof.enable();
    }

    /// Snapshot of the counters a run span attributes work from.
    fn prof_snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.stats.events,
            self.stats.msgs_sent,
            self.stats.msgs_delivered,
            self.stats.bytes_sent,
        )
    }

    /// Credits the engine-level work ledger with everything that
    /// happened since `snap`. All four deltas are deterministic, so the
    /// ledger is too.
    fn prof_attribute(&mut self, snap: (u64, u64, u64, u64)) {
        if !self.prof.is_enabled() {
            return;
        }
        self.prof.work("engine/events", self.stats.events - snap.0);
        self.prof
            .work("engine/msgs_sent", self.stats.msgs_sent - snap.1);
        self.prof
            .work("engine/msgs_delivered", self.stats.msgs_delivered - snap.2);
        self.prof
            .work("engine/bytes_sent", self.stats.bytes_sent - snap.3);
    }

    /// Whether the typed event log is recording.
    #[inline]
    fn observing(&self) -> bool {
        self.obs.log.capacity() > 0
    }

    /// Records one typed event with its causal parent at the current
    /// simulated time. Returns the id the typed log assigned, or `None`
    /// when the log is disabled.
    #[inline]
    fn emit(&mut self, cause: Option<EventId>, rec: EventRecord) -> Option<EventId> {
        if self.observing() {
            return self.obs.record_event(self.now, cause, rec);
        }
        None
    }

    /// Records an externally produced event (fault-plan installation,
    /// experiment annotations) at the current simulated time, as a causal
    /// root. Returns its id so subsequently scheduled work can be
    /// attributed to it (see `Engine::schedule_link_change_caused`).
    pub(crate) fn note(&mut self, rec: EventRecord) -> Option<EventId> {
        self.emit(None, rec)
    }

    /// [`Engine::note`] with an explicit causal parent — for externally
    /// produced events that belong to an existing span (e.g. per-AD
    /// misbehavior injections under their fault plan, monitor alarms
    /// under the injection they detected).
    pub(crate) fn note_caused(
        &mut self,
        cause: Option<EventId>,
        rec: EventRecord,
    ) -> Option<EventId> {
        self.emit(cause, rec)
    }

    /// Marks the start of a named measurement phase in both the stats
    /// (see `Stats::begin_phase`) and the event stream.
    pub fn begin_phase(&mut self, name: &'static str) {
        self.stats.begin_phase(name);
        self.emit(None, EventRecord::PhaseBegin { name });
    }

    /// Runs until the event queue is empty (quiescence) and returns the
    /// time of the last control activity — the convergence time.
    ///
    /// # Panics
    /// Panics if more than `max_events` events are processed, which
    /// indicates a protocol that does not converge (e.g. unbounded
    /// count-to-infinity).
    pub fn run_to_quiescence(&mut self) -> SimTime {
        self.prof.enter("engine.quiesce");
        let snap = self.prof_snapshot();
        let start_events = self.stats.events;
        while self.step() {
            if self.stats.events - start_events > self.max_events {
                panic!(
                    "protocol did not quiesce within {} events (time {})",
                    self.max_events, self.now
                );
            }
        }
        self.prof_attribute(snap);
        self.prof.exit("engine.quiesce");
        self.stats.last_activity
    }

    /// [`Engine::run_to_quiescence`]; `_workers` is ignored. The name
    /// stays because `benchmark/` still calls it for its `sim.parallel.*`
    /// metrics; it goes once the benchmark drops them (ROADMAP item 2(b)).
    pub fn run_to_quiescence_parallel(&mut self, _workers: usize) -> SimTime {
        self.run_to_quiescence()
    }

    /// Runs until simulated time exceeds `until` or the queue empties.
    pub fn run_until(&mut self, until: SimTime) {
        self.prof.enter("engine.run_until");
        let snap = self.prof_snapshot();
        let start_events = self.stats.events;
        while let Some(t) = self.queue.peek().map(|ev| ev.time) {
            if t > until {
                break;
            }
            self.step();
            assert!(
                self.stats.events - start_events <= self.max_events,
                "event budget exceeded at {}",
                self.now
            );
        }
        if self.now < until {
            self.now = until;
        }
        self.prof_attribute(snap);
        self.prof.exit("engine.run_until");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adroute_topology::generate::line;

    /// A toy flooding protocol: AD0 floods a wave token; every router
    /// forwards the first copy it sees to all neighbors.
    struct Wave;
    #[derive(Default)]
    struct WaveRouter {
        seen: bool,
        heard_from: Vec<AdId>,
        timer_fired: bool,
        link_events: u32,
    }

    impl Protocol for Wave {
        type Router = WaveRouter;
        type Msg = u32;

        fn make_router(&self, _t: &Topology, _ad: AdId) -> WaveRouter {
            WaveRouter::default()
        }

        fn on_start(&self, r: &mut WaveRouter, ctx: &mut Ctx<'_, u32>) {
            if ctx.me() == AdId(0) {
                r.seen = true;
                for (nbr, _) in ctx.neighbors() {
                    ctx.send(nbr, 1);
                }
                ctx.set_timer(10, 99);
            }
        }

        fn on_message(
            &self,
            r: &mut WaveRouter,
            ctx: &mut Ctx<'_, u32>,
            from: AdId,
            _link: LinkId,
            msg: u32,
        ) {
            r.heard_from.push(from);
            ctx.count("wave_rx", 1);
            if !r.seen {
                r.seen = true;
                for (nbr, _) in ctx.neighbors() {
                    if nbr != from {
                        ctx.send(nbr, msg + 1);
                    }
                }
            }
        }

        fn on_timer(&self, r: &mut WaveRouter, _ctx: &mut Ctx<'_, u32>, token: u64) {
            assert_eq!(token, 99);
            r.timer_fired = true;
        }

        fn on_link_event(
            &self,
            r: &mut WaveRouter,
            _ctx: &mut Ctx<'_, u32>,
            _link: LinkId,
            _nbr: AdId,
            _up: bool,
        ) {
            r.link_events += 1;
        }

        fn msg_size(&self, _m: &u32) -> usize {
            4
        }
    }

    #[test]
    fn wave_reaches_everyone_and_quiesces() {
        let topo = line(5);
        let mut e = Engine::new(topo, Wave);
        let t = e.run_to_quiescence();
        assert!(t > SimTime::ZERO);
        for ad in e.topo().ad_ids() {
            assert!(e.router(ad).seen, "{ad} never saw the wave");
        }
        assert!(e.router(AdId(0)).timer_fired);
        // 4 links, each crossed exactly once forward = 4 messages.
        assert_eq!(e.stats.msgs_sent, 4);
        assert_eq!(e.stats.bytes_sent, 16);
        assert_eq!(e.stats.counter("wave_rx"), 4);
        assert_eq!(e.pending_events(), 0);
    }

    #[test]
    fn link_failure_blocks_and_notifies() {
        let topo = line(3);
        let mut e = Engine::new(topo, Wave);
        // Fail 1-2 before the wave crosses it: delays are 1000us per hop,
        // so fail at t=500 (wave 0->1 arrives at 1000, 1->2 would arrive
        // at 2000).
        e.schedule_link_change(LinkId(1), false, SimTime(500));
        e.run_to_quiescence();
        assert!(e.router(AdId(1)).seen);
        assert!(!e.router(AdId(2)).seen, "wave crossed a failed link");
        assert_eq!(e.router(AdId(1)).link_events, 1);
        assert_eq!(e.router(AdId(2)).link_events, 1);
        assert_eq!(e.router(AdId(0)).link_events, 0);
    }

    #[test]
    fn message_in_flight_on_failed_link_is_lost() {
        let topo = line(3);
        let mut e = Engine::new(topo, Wave);
        // The 1->2 message departs at t=1000; kill the link at t=1500
        // while it is in flight.
        e.schedule_link_change(LinkId(1), false, SimTime(1500));
        e.run_to_quiescence();
        assert!(!e.router(AdId(2)).seen);
    }

    #[test]
    fn run_until_stops_midway() {
        let topo = line(5);
        let mut e = Engine::new(topo, Wave);
        e.run_until(SimTime(1500)); // only the first hop (t=1000) delivered
        assert!(e.router(AdId(1)).seen);
        assert!(!e.router(AdId(2)).seen);
        assert_eq!(e.now(), SimTime(1500));
        e.run_to_quiescence();
        assert!(e.router(AdId(4)).seen);
    }

    #[test]
    fn wakeup_delivers_token() {
        // AD0 arms its timer through `Ctx::set_timer` at start, and
        // `on_timer` checks the token it gets back.
        let mut e = Engine::new(line(2), Wave);
        e.run_to_quiescence();
        assert!(e.router(AdId(0)).timer_fired);
        assert!(!e.router(AdId(1)).timer_fired);
    }

    #[test]
    fn ctx_exposes_link_attributes() {
        /// Probe protocol: records what Ctx reports at start time.
        struct Probe;
        #[derive(Default)]
        struct ProbeRouter {
            slot: Option<usize>,
            metric: Option<u32>,
            delay: Option<u64>,
            kind: Option<adroute_topology::LinkKind>,
        }
        impl Protocol for Probe {
            type Router = ProbeRouter;
            type Msg = ();
            fn make_router(&self, _t: &Topology, _a: AdId) -> ProbeRouter {
                ProbeRouter::default()
            }
            fn on_start(&self, r: &mut ProbeRouter, ctx: &mut Ctx<'_, ()>) {
                if let Some((nbr, link)) = ctx.neighbors().first().copied() {
                    r.slot = ctx.neighbor_slot(nbr);
                    r.metric = Some(ctx.link_metric(link));
                    r.delay = Some(ctx.link_delay(link));
                    r.kind = Some(ctx.link_kind(link));
                }
                // Non-neighbors have no slot and sends to them drop.
                assert_eq!(ctx.neighbor_slot(AdId(999)), None);
                ctx.send(AdId(999), ());
            }
            fn on_message(
                &self,
                _r: &mut ProbeRouter,
                _c: &mut Ctx<'_, ()>,
                _f: AdId,
                _l: LinkId,
                _m: (),
            ) {
                panic!("no message should ever be delivered");
            }
            fn msg_size(&self, _m: &()) -> usize {
                0
            }
        }
        let mut topo = line(2);
        topo.set_metric(LinkId(0), 7);
        topo.set_delay(LinkId(0), 2500);
        let mut e = Engine::new(topo, Probe);
        e.run_to_quiescence();
        let r = e.router(AdId(0));
        assert_eq!(r.slot, Some(0));
        assert_eq!(r.metric, Some(7));
        assert_eq!(r.delay, Some(2500));
        assert_eq!(r.kind, Some(adroute_topology::LinkKind::Lateral));
        assert_eq!(e.stats.msgs_sent, 0, "send to non-neighbor must drop");
    }

    #[test]
    fn tracing_captures_golden_event_log() {
        let mk = || {
            let mut e = Engine::new(line(3), Wave);
            e.enable_obs(64);
            e.schedule_link_change(LinkId(1), false, SimTime(5000));
            e.run_to_quiescence();
            e
        };
        let a = mk();
        let b = mk();
        assert!(a.obs.log.iter().next().is_some());
        assert_eq!(a.obs.log.render(), b.obs.log.render(), "log must be golden");
        assert_eq!(a.obs.log.export_jsonl(), b.obs.log.export_jsonl());
        assert!(a.obs.log.first_divergence(&b.obs.log).is_identical());
        let text = a.obs.log.render();
        assert!(text.contains("start AD0"), "{text}");
        assert!(text.contains("deliver AD0->AD1 via L0"), "{text}");
        assert!(text.contains("link L1 down"), "{text}");
        // Disabled by default: a fresh engine records nothing.
        let mut plain = Engine::new(line(3), Wave);
        plain.run_to_quiescence();
        assert!(plain.obs.log.iter().next().is_none());
    }

    #[test]
    fn typed_log_records_sends_and_drops() {
        let mut e = Engine::new(line(3), Wave);
        e.enable_obs(1024);
        e.run_to_quiescence();
        let sends = e
            .obs
            .log
            .iter()
            .filter(|ev| matches!(ev.rec, EventRecord::MsgSend { .. }))
            .count() as u64;
        let delivers = e
            .obs
            .log
            .iter()
            .filter(|ev| matches!(ev.rec, EventRecord::MsgDeliver { .. }))
            .count() as u64;
        assert_eq!(sends, e.stats.msgs_sent);
        assert_eq!(delivers, e.stats.msgs_delivered);
        let jsonl = e.obs.log.export_jsonl();
        assert!(jsonl.contains("\"kind\":\"send\""), "{jsonl}");
    }

    #[test]
    fn causal_chain_threads_send_to_deliver() {
        let mut e = Engine::new(line(3), Wave);
        e.enable_obs(1024);
        e.run_to_quiescence();
        let by_id: std::collections::BTreeMap<_, _> =
            e.obs.log.iter().map(|ev| (ev.id, ev)).collect();
        // Causes are always earlier ids: the log is a DAG by construction.
        for ev in e.obs.log.iter() {
            if let Some(c) = ev.cause {
                assert!(c < ev.id, "{:?} caused by later {c:?}", ev.id);
                assert!(by_id.contains_key(&c), "dangling cause {c:?}");
            }
        }
        // Every delivery descends from the send that put it in flight,
        // and that send from the start/deliver event it reacted to.
        let mut chained = 0;
        for ev in e.obs.log.iter() {
            if let EventRecord::MsgDeliver { .. } = ev.rec {
                let send = by_id[&ev.cause.expect("deliver has a cause")];
                assert!(matches!(send.rec, EventRecord::MsgSend { .. }));
                let origin = by_id[&send.cause.expect("send has a cause")];
                assert!(matches!(
                    origin.rec,
                    EventRecord::Start { .. } | EventRecord::MsgDeliver { .. }
                ));
                chained += 1;
            }
        }
        assert_eq!(chained as u64, e.stats.msgs_delivered);
        // Timer fires trace back to the start event that armed them.
        let fire = e
            .obs
            .log
            .iter()
            .find(|ev| matches!(ev.rec, EventRecord::TimerFire { .. }))
            .expect("wave arms a timer");
        assert!(matches!(
            by_id[&fire.cause.unwrap()].rec,
            EventRecord::Start { .. }
        ));
    }

    #[test]
    fn engine_phase_scopes_split_message_totals() {
        let mut e = Engine::new(line(4), Wave);
        e.begin_phase("converge");
        e.run_to_quiescence();
        let sent_converge = e.stats.msgs_sent;
        assert!(sent_converge > 0);
        // Crash+restart the wave origin: the failure-response phase
        // re-runs the wave from AD0.
        e.begin_phase("failure-response");
        let t = e.now();
        e.schedule_router_change(AdId(0), false, t.plus_us(10));
        e.schedule_router_change(AdId(0), true, t.plus_us(20));
        e.run_to_quiescence();
        let c = e.stats.phase_delta("converge").unwrap();
        let f = e.stats.phase_delta("failure-response").unwrap();
        assert_eq!(c.msgs_sent, sent_converge);
        assert_eq!(c.router_crashes, 0);
        assert_eq!(f.router_crashes, 1);
        assert_eq!(f.router_restarts, 1);
        assert_eq!(c.msgs_sent + f.msgs_sent, e.stats.msgs_sent);
        // Both phases end quiescent, so each conserves messages.
        assert!(c.conserves_messages());
        assert!(f.conserves_messages());
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut e = Engine::new(line(6), Wave);
            let t = e.run_to_quiescence();
            (t, e.stats.msgs_sent, e.stats.events)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn send_drops_are_counted() {
        struct Dropper;
        impl Protocol for Dropper {
            type Router = ();
            type Msg = ();
            fn make_router(&self, _t: &Topology, _a: AdId) {}
            fn on_start(&self, _r: &mut (), ctx: &mut Ctx<'_, ()>) {
                if ctx.me() == AdId(0) {
                    ctx.send(AdId(999), ()); // non-neighbor
                    ctx.send(AdId(2), ()); // not adjacent in a line of 3
                    ctx.send(AdId(1), ()); // fine
                }
            }
            fn on_message(&self, _r: &mut (), _c: &mut Ctx<'_, ()>, _f: AdId, _l: LinkId, _m: ()) {}
            fn msg_size(&self, _m: &()) -> usize {
                0
            }
        }
        let mut e = Engine::new(line(3), Dropper);
        e.run_to_quiescence();
        assert_eq!(e.stats.msgs_dropped, 2);
        assert_eq!(e.stats.msgs_sent, 1);

        // Sends over a failed link drop at the source too.
        let mut topo = line(3);
        topo.set_link_up(LinkId(0), false);
        let mut e = Engine::new(topo, Dropper);
        e.run_to_quiescence();
        assert_eq!(e.stats.msgs_dropped, 3);
        assert_eq!(e.stats.msgs_sent, 0);
    }

    #[test]
    fn crash_loses_state_and_links_share_fate() {
        let topo = line(3);
        let mut e = Engine::new(topo, Wave);
        // Crash AD1 before the wave reaches it (0->1 arrives at t=1000).
        e.schedule_router_change(AdId(1), false, SimTime(500));
        e.run_to_quiescence();
        assert!(!e.router_is_up(AdId(1)));
        assert!(
            !e.router(AdId(1)).seen,
            "crashed router processed a message"
        );
        assert!(!e.router(AdId(2)).seen, "wave crossed a dead router");
        assert_eq!(e.stats.router_crashes, 1);
        assert_eq!(e.stats.msgs_lost, 1, "the in-flight 0->1 message is lost");
        // Fate sharing: both adjacent links went down, neighbors notified.
        assert!(!e.topo().link(LinkId(0)).up);
        assert!(!e.topo().link(LinkId(1)).up);
        assert_eq!(e.router(AdId(0)).link_events, 1);
        assert_eq!(e.router(AdId(2)).link_events, 1);
    }

    #[test]
    fn restart_rebuilds_router_and_restores_links() {
        let topo = line(3);
        let mut e = Engine::new(topo, Wave);
        e.run_to_quiescence();
        assert!(e.router(AdId(1)).seen);
        e.schedule_router_change(AdId(1), false, e.now().plus_us(100));
        e.schedule_router_change(AdId(1), true, e.now().plus_us(200));
        e.run_to_quiescence();
        assert!(e.router_is_up(AdId(1)));
        assert_eq!(e.stats.router_crashes, 1);
        assert_eq!(e.stats.router_restarts, 1);
        // make_router rebuilt the state: the pre-crash wave marker is gone.
        assert!(!e.router(AdId(1)).seen, "soft state survived the crash");
        // Both links are operational again and both ends saw down+up.
        assert!(e.topo().link(LinkId(0)).up);
        assert!(e.topo().link(LinkId(1)).up);
        assert_eq!(e.router(AdId(0)).link_events, 2);
        assert_eq!(e.router(AdId(2)).link_events, 2);
        assert_eq!(
            e.router(AdId(1)).link_events,
            2,
            "restarted side gets link-up events"
        );
    }

    #[test]
    fn crash_respects_scheduled_link_state_on_restart() {
        // A link that fails *while its endpoint is down* must not come
        // back when the router restarts.
        let topo = line(3);
        let mut e = Engine::new(topo, Wave);
        e.run_to_quiescence();
        let t = e.now();
        e.schedule_router_change(AdId(1), false, t.plus_us(100));
        e.schedule_link_change(LinkId(0), false, t.plus_us(200)); // while AD1 down
        e.schedule_router_change(AdId(1), true, t.plus_us(300));
        e.run_to_quiescence();
        assert!(
            !e.topo().link(LinkId(0)).up,
            "scheduled failure survived the restart"
        );
        assert!(e.topo().link(LinkId(1)).up);
    }

    #[test]
    fn pre_crash_timers_die_with_their_incarnation() {
        let topo = line(2);
        let mut e = Engine::new(topo, Wave);
        e.enable_obs(64);
        // AD0's on_start arms a timer for t=10; crash at 5, restart at 7.
        // The old timer (incarnation 0) fires at 10 into incarnation 1 and
        // must be discarded; the restart re-runs on_start, arming a fresh
        // timer that does fire.
        e.schedule_router_change(AdId(0), false, SimTime(5));
        e.schedule_router_change(AdId(0), true, SimTime(7));
        e.run_to_quiescence();
        assert!(
            e.router(AdId(0)).timer_fired,
            "fresh incarnation timer fired"
        );
        let text = e.obs.log.render();
        assert!(text.contains("stale-timer AD0 token=99"), "{text}");
        assert!(text.contains("crash AD0"), "{text}");
        assert!(text.contains("restart AD0"), "{text}");
    }

    #[test]
    fn double_crash_and_double_restart_are_noops() {
        let topo = line(2);
        let mut e = Engine::new(topo, Wave);
        e.run_to_quiescence();
        let t = e.now();
        e.schedule_router_change(AdId(1), false, t.plus_us(10));
        e.schedule_router_change(AdId(1), false, t.plus_us(20));
        e.schedule_router_change(AdId(1), true, t.plus_us(30));
        e.schedule_router_change(AdId(1), true, t.plus_us(40));
        e.run_to_quiescence();
        assert_eq!(e.stats.router_crashes, 1);
        assert_eq!(e.stats.router_restarts, 1);
        assert!(e.router_is_up(AdId(1)));
    }

    #[test]
    fn channel_loss_eats_messages_deterministically() {
        use crate::faults::ChannelFaults;
        let run = || {
            let mut e = Engine::new(line(5), Wave);
            e.set_channel_faults(Some(ChannelFaults {
                loss: 1.0,
                seed: 1,
                ..ChannelFaults::default()
            }));
            e.run_to_quiescence();
            (e.stats.msgs_sent, e.stats.msgs_lost, e.stats.msgs_delivered)
        };
        let (sent, lost, delivered) = run();
        assert_eq!(sent, 1, "only AD0's first send happens; it is lost");
        assert_eq!(lost, 1);
        assert_eq!(delivered, 0);
        assert_eq!(
            run(),
            (sent, lost, delivered),
            "fault draws are deterministic"
        );
    }

    #[test]
    fn duplication_and_reordering_are_counted_and_survivable() {
        use crate::faults::ChannelFaults;
        let mut e = Engine::new(line(3), Wave);
        e.set_channel_faults(Some(ChannelFaults {
            duplicate: 1.0,
            reorder: 1.0,
            jitter_us: 100,
            seed: 3,
            ..ChannelFaults::default()
        }));
        e.run_to_quiescence();
        for ad in e.topo().ad_ids() {
            assert!(e.router(ad).seen, "{ad} missed the wave");
        }
        assert_eq!(e.stats.msgs_sent, 2);
        assert_eq!(e.stats.msgs_duplicated, 2);
        assert_eq!(e.stats.msgs_reordered, 2);
        assert_eq!(e.stats.msgs_delivered, 4, "each message arrives twice");
        // Duplicate deliveries reach on_message: AD1 heard 0 twice + 2's
        // copies never happen (2 only echoes back nothing in a line).
        assert!(e.router(AdId(1)).heard_from.len() >= 2);
    }

    #[test]
    fn corruption_drops_are_separated_from_loss() {
        use crate::faults::ChannelFaults;
        let mut e = Engine::new(line(2), Wave);
        e.set_channel_faults(Some(ChannelFaults {
            corrupt: 1.0,
            seed: 9,
            ..ChannelFaults::default()
        }));
        e.run_to_quiescence();
        assert_eq!(e.stats.msgs_corrupted, 1);
        assert_eq!(e.stats.msgs_lost, 0);
        assert!(!e.router(AdId(1)).seen);
    }

    #[test]
    fn channel_faults_expire_at_until() {
        use crate::faults::ChannelFaults;
        let mut e = Engine::new(line(2), Wave);
        e.set_channel_faults(Some(ChannelFaults {
            loss: 1.0,
            seed: 1,
            until: Some(SimTime::ZERO),
            ..ChannelFaults::default()
        }));
        // The start event fires at t=0, so its send is still faulted.
        e.run_to_quiescence();
        assert!(!e.router(AdId(1)).seen);
        assert_eq!(e.stats.msgs_lost, 1);
        // Drive a fresh start event via a restart: crash+restart AD0 after
        // expiry, and the resend gets through.
        let t = e.now();
        e.schedule_router_change(AdId(0), false, t.plus_us(10));
        e.schedule_router_change(AdId(0), true, t.plus_us(20));
        e.run_to_quiescence();
        assert!(
            e.router(AdId(1)).seen,
            "post-expiry resend must get through"
        );
        assert_eq!(e.stats.msgs_lost, 1);
    }

    #[test]
    #[should_panic(expected = "cannot schedule in the past")]
    fn past_scheduling_rejected() {
        let mut e = Engine::new(line(3), Wave);
        e.run_to_quiescence();
        e.schedule_link_change(LinkId(0), false, SimTime::ZERO);
    }

    #[test]
    fn final_state_stays_readable() {
        let mut e = Engine::new(line(3), Wave);
        e.run_to_quiescence();
        assert_eq!(e.topo().num_ads(), 3);
        assert!(e.topo().ad_ids().all(|ad| e.router(ad).seen));
        assert!(e.stats.events > 0);
    }
}
