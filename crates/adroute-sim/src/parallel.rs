//! Deterministically parallel region execution.
//!
//! The engine's sequential semantics — a single total order of events by
//! `(time, seq)` — is the contract every golden trace in this repo depends
//! on. This module runs the same simulation on multiple threads *without
//! changing one byte of that contract*, using conservative synchronization
//! (Chandy/Misra-style lookahead) plus a journal/commit replay:
//!
//! 1. ADs are partitioned into contiguous regions ([`RegionMap`]). The
//!    **lookahead** is the minimum propagation delay of any link crossing
//!    a region boundary: no message sent inside a window of that length
//!    can arrive in another region before the window ends.
//! 2. A window `[t0, wend)` is chosen with
//!    `wend = min(t0 + lookahead, next control event)`.
//!    Control events (link/router state changes) mutate shared topology
//!    state, so they bound every window and run sequentially between
//!    windows. Channel faults do *not* force sequential execution:
//!    every fault verdict is a pure function of the message's identity
//!    (config seed, sending AD, per-AD send ordinal — see
//!    `ChannelFaults::judge`), so a lane draws exactly the verdict the
//!    sequential engine would, with no shared RNG to race on. Fault
//!    jitter only ever *adds* delay, so delayed and duplicated copies
//!    still respect the lookahead bound (they escape the window rather
//!    than crossing a region early).
//! 3. Each region's lane processes its in-window events on its own thread
//!    against a *shared immutable* topology and a private slice of the
//!    router arena. It runs the sequential engine's own event code —
//!    `World::dispatch_event`, the one implementation of start /
//!    deliver / timer handling, fault verdicts included — and differs
//!    only in the `Sink` the effects land in: where the engine applies
//!    them at once, the lane records a **journal**: per processed event,
//!    the records it emitted and the events it pushed, with *symbolic*
//!    causes (`CauseRef`) because real [`EventId`]s cannot be assigned
//!    concurrently.
//! 4. A sequential **commit** replays the skeleton of the window — a heap
//!    of `(time, seq)` stubs — in exactly the order the sequential engine
//!    would have used, assigning global sequence numbers and event ids,
//!    resolving symbolic causes, and feeding escaped events (arrivals at
//!    or past `wend`) back into the engine queue.
//!
//! Two invariants make the replay exact:
//!
//! * **Lane-local order is sequential order restricted to the lane.**
//!   Within a lane, temporary sequence numbers are assigned in push order
//!   and all exceed the window's initial (real) sequence numbers; at
//!   commit, real numbers are assigned in the same relative order, so
//!   `(time, temp)` and `(time, real)` induce the same lane-local order.
//! * **In-window arrivals are always lane-local.** A delivery to another
//!   region crosses a boundary link, whose delay is at least the
//!   lookahead, so it arrives at or after `wend` and escapes the window.
//!
//! Consequently typed event logs (and the text traces rendered from
//! them), stats, and final router state are byte-identical to a
//! sequential run at *any* region count.

use std::collections::BinaryHeap;

use adroute_topology::{min_cross_region_delay, AdId, RegionMap};

use crate::engine::{Engine, Protocol, Scratch, Sink, World};
use crate::event::{Event, EventKind, SimTime};
use crate::obs::{EventId, EventRecord};
use crate::stats::Stats;

/// A cause that may not have a real id yet: either a known id from before
/// the window (or `None`), or the `k`-th record this lane emitted during
/// the window, resolved against the lane's symbol table at commit.
#[derive(Clone, Copy, Debug)]
enum CauseRef {
    Known(Option<EventId>),
    Local(u32),
}

/// A lane-queued event. `seq` is real for events drained from the engine
/// queue and temporary (>= the window's sequence base) for in-window
/// pushes; the two ranges never overlap, so the lane heap's `(time, seq)`
/// order matches the sequential order restricted to the lane.
struct LaneEv<M> {
    time: SimTime,
    seq: u64,
    cause: CauseRef,
    kind: EventKind<M>,
}

impl<M> PartialEq for LaneEv<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for LaneEv<M> {}
impl<M> PartialOrd for LaneEv<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for LaneEv<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: earliest first out of the max-heap.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// One record emitted during the window, with its symbolic cause.
struct JRecord {
    cause: CauseRef,
    rec: EventRecord,
}

/// One event pushed during the window. `payload: None` marks an in-window
/// push the lane processed itself (commit only mints its sequence number
/// and skeleton stub); `Some` marks an escaped event commit feeds back
/// into the engine queue.
struct JPush<M> {
    time: SimTime,
    cause: CauseRef,
    payload: Option<EventKind<M>>,
}

/// The journal of one processed event, consumed by commit in pop order.
/// Records and pushes live in the lane's flat arenas ([`LaneResult`]);
/// an entry holds only `[start, end)` ranges into them. One arena append
/// per effect replaces the two per-event `Vec` allocations the journal
/// used to make, which dominated the faulted hot path's allocator
/// traffic (every fault verdict emits an extra record). The ranges are
/// `u32`, so one lane may journal at most `u32::MAX` records and as many
/// pushes per window; [`Lane::run`] panics past that bound rather than
/// wrap a range and let commit replay the wrong effects.
struct JEntry {
    time: SimTime,
    records: (u32, u32),
    pushes: (u32, u32),
}

/// Everything a lane hands back to the committing thread.
struct LaneResult<M> {
    journal: Vec<JEntry>,
    /// Flat record arena; `JEntry::records` ranges index into it.
    rec_arena: Vec<JRecord>,
    /// Flat push arena; `JEntry::pushes` ranges index into it.
    push_arena: Vec<JPush<M>>,
    stats: Stats,
    /// Messages sent per AD of this region, indexed relative to the
    /// region base (keeps per-lane allocation proportional to the region,
    /// not the whole arena).
    per_ad: Vec<u64>,
}

impl<M> LaneResult<M> {
    /// An empty result for a region of `region_len` ADs.
    fn new(region_len: usize) -> LaneResult<M> {
        LaneResult {
            journal: Vec::new(),
            rec_arena: Vec::new(),
            push_arena: Vec::new(),
            stats: Stats::new(0),
            per_ad: vec![0; region_len],
        }
    }
}

/// A skeleton stub: the `(time, seq)` identity of one processed event and
/// the lane whose journal holds its effects.
#[derive(Clone, Copy)]
struct Stub {
    time: SimTime,
    seq: u64,
    lane: u32,
}

impl PartialEq for Stub {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Stub {}
impl PartialOrd for Stub {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Stub {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// The journaling [`Sink`]: one region's event heap for the window and
/// the journal of what processing it produced. The event semantics are
/// not here — [`Lane::run`] feeds each popped event to the same
/// [`World::dispatch_event`] the sequential engine uses, over the region's
/// private slice of the router arena.
struct Lane<'a, M> {
    region: std::ops::Range<usize>,
    wend: SimTime,
    observing: bool,
    /// Next temporary sequence number for in-window pushes.
    temp_seq: u64,
    /// Next symbolic record index ([`CauseRef::Local`]).
    symct: u32,
    heap: BinaryHeap<LaneEv<M>>,
    /// `stats.per_ad_msgs` snapshot at window fan-out. A sender's draw
    /// ordinal is `per_ad_base[ad] + out.per_ad[ad - region.start]` — the
    /// same cumulative count the sequential engine would hold, because
    /// all of an AD's dispatches happen in its one lane in
    /// sequential-restricted order.
    per_ad_base: &'a [u64],
    out: LaneResult<M>,
}

impl<M> Lane<'_, M> {
    /// Processes every queued event (initial events are seeded by the
    /// caller; in-window pushes feed back into the heap), journaling one
    /// [`JEntry`] per event.
    fn run<P>(&mut self, world: &mut World<'_, P, CauseRef>, max_events: u64)
    where
        P: Protocol<Msg = M>,
    {
        while let Some(ev) = self.heap.pop() {
            assert!(
                (self.out.journal.len() as u64) <= max_events,
                "event budget exceeded inside a parallel window at {}",
                ev.time
            );
            debug_assert!(ev.time >= world.now && ev.time < self.wend);
            world.now = ev.time;
            self.out.stats.events += 1;
            let mark = |len: usize| {
                u32::try_from(len).expect("parallel window journal exceeds u32::MAX entries")
            };
            let rec_mark = mark(self.out.rec_arena.len());
            let push_mark = mark(self.out.push_arena.len());
            world.dispatch_event(self, ev.cause, ev.kind);
            self.out.journal.push(JEntry {
                time: ev.time,
                records: (rec_mark, mark(self.out.rec_arena.len())),
                pushes: (push_mark, mark(self.out.push_arena.len())),
            });
        }
    }
}

impl<M> Sink<M> for Lane<'_, M> {
    type Cause = CauseRef;

    /// Journals the record (when observing) under the next symbolic id.
    /// When no observer is attached the sequential engine records nothing
    /// either, so nothing is journaled and effects keep citing `cause`.
    fn emit(&mut self, cause: CauseRef, rec: EventRecord) -> CauseRef {
        if !self.observing {
            return cause;
        }
        self.out.rec_arena.push(JRecord { cause, rec });
        let r = CauseRef::Local(self.symct);
        self.symct += 1;
        r
    }

    /// Journals one pushed event. In-window arrivals (guaranteed
    /// lane-local by the lookahead) also enter the lane heap under a
    /// temporary sequence number; escaped arrivals carry their payload to
    /// commit.
    fn push(&mut self, time: SimTime, cause: CauseRef, kind: EventKind<M>) {
        let payload = if time < self.wend {
            let target = kind.target_ad().expect("lanes only push targeted events");
            debug_assert!(
                self.region.contains(&target.index()),
                "in-window push crossed a region boundary: lookahead violated"
            );
            let seq = self.temp_seq;
            self.temp_seq += 1;
            self.heap.push(LaneEv {
                time,
                seq,
                cause,
                kind,
            });
            None
        } else {
            Some(kind)
        };
        self.out.push_arena.push(JPush {
            time,
            cause,
            payload,
        });
    }

    fn count_send(&mut self, ad: AdId) -> u64 {
        let n = &mut self.out.per_ad[ad.index() - self.region.start];
        *n += 1;
        self.per_ad_base[ad.index()] + *n
    }

    fn stats(&mut self) -> &mut Stats {
        &mut self.out.stats
    }
}

impl<P: Protocol> Engine<P>
where
    P: Sync,
    P::Router: Send,
    P::Msg: Send,
{
    /// [`Engine::run_to_quiescence`] on `num_regions` worker lanes.
    /// Produces byte-identical event logs, stats, and router state.
    ///
    /// The scheduler alternates sequential islands (control events,
    /// zero-lookahead points) with parallel windows, preserving the
    /// sequential total order throughout. Channel faults run inside the
    /// windows — verdicts are event-keyed, so lanes draw them
    /// independently (see the module docs).
    ///
    /// # Panics
    /// Panics if more than `max_events` events are processed, as the
    /// sequential runner does.
    pub fn run_to_quiescence_parallel(&mut self, num_regions: usize) -> SimTime {
        let start_events = self.stats.events;
        let budget_check = |e: &Engine<P>| {
            assert!(
                e.stats.events - start_events <= e.max_events,
                "protocol did not quiesce within {} events (time {})",
                e.max_events,
                e.now
            );
        };
        // The only remaining sequential path: a single region (or a
        // degenerate topology) has no parallelism to exploit. Faulted
        // configurations run parallel like everything else.
        if num_regions <= 1 || self.topo.num_ads() < 2 {
            return self.run_to_quiescence();
        }
        let map = RegionMap::contiguous(self.topo.num_ads(), num_regions);
        // The parallel path attributes its work ledger once, here — the
        // sequential fallback above attributes inside run_to_quiescence —
        // so the ledger totals are identical at any worker count.
        self.prof.enter("engine.parallel");
        let snap = self.prof_snapshot();
        // No crossing link: regions are independent and any window length
        // is safe; cap only by control events.
        let lookahead = min_cross_region_delay(&self.topo, &map).unwrap_or(u64::MAX);
        while let Some(t0) = self.next_event_time() {
            let ctrl_t = self.ctrl.peek().map(|e| e.time);
            let mut wend = t0.0.saturating_add(lookahead);
            if let Some(ct) = ctrl_t {
                wend = wend.min(ct.0);
            }
            if wend <= t0.0 {
                // A control event is due now (or the lookahead is zero):
                // drain this instant sequentially, including any
                // same-time events the handlers push.
                self.prof.enter("seq_island");
                while self.next_event_time() == Some(t0) {
                    self.step();
                }
                self.prof.exit("seq_island");
            } else {
                self.run_window_parallel(&map, SimTime(wend));
            }
            budget_check(self);
        }
        self.prof_attribute(snap);
        self.prof.exit("engine.parallel");
        self.stats.last_activity
    }

    /// Runs one parallel window `[t0, wend)`: fan out to lanes, then
    /// commit the journals in sequential order.
    fn run_window_parallel(&mut self, map: &RegionMap, wend: SimTime) {
        self.prof.enter("window");
        let nl = map.num_regions();
        // Drain in-window events from the engine queue into per-lane seed
        // lists; their (real) sequence numbers seed the skeleton too.
        let mut seeds: Vec<Vec<LaneEv<P::Msg>>> = (0..nl).map(|_| Vec::new()).collect();
        let mut skel: BinaryHeap<Stub> = BinaryHeap::new();
        while let Some(ev) = self.queue.peek() {
            if ev.time >= wend {
                break;
            }
            let ev = self.queue.pop().expect("peeked");
            let ad = ev.kind.target_ad().expect("queue holds targeted events");
            let lane = map.region_of(ad);
            skel.push(Stub {
                time: ev.time,
                seq: ev.seq,
                lane: lane as u32,
            });
            seeds[lane].push(LaneEv {
                time: ev.time,
                seq: ev.seq,
                cause: CauseRef::Known(ev.cause),
                kind: ev.kind,
            });
        }
        let temp_base = self.seq;
        let observing = self.observing();
        let max_events = self.max_events;
        let now = self.now;
        let topo = &self.topo;
        let protocol = &self.protocol;
        let router_up = self.router_up.as_slice();
        let incarnations = self.incarnations.as_slice();
        let faults = self.faults.as_ref();
        // Ordinal base for event-keyed fault draws: stats are untouched
        // during fan-out, so this borrow is valid for the whole window.
        let per_ad_base = self.stats.per_ad_msgs.as_slice();
        // Contiguous regions -> disjoint &mut slices of the router arena.
        let mut slices: Vec<&mut [P::Router]> = Vec::with_capacity(nl);
        let mut rest: &mut [P::Router] = self.routers.as_mut_slice();
        for r in 0..nl {
            let (head, tail) = rest.split_at_mut(map.range(r).len());
            slices.push(head);
            rest = tail;
        }
        // Fan out to the persistent worker crew (created on first use,
        // reused across windows). Each lane writes its result into its
        // own slot, so worker scheduling cannot reorder anything the
        // sequential commit below observes.
        let mut results: Vec<LaneResult<P::Msg>> = (0..nl).map(|_| LaneResult::new(0)).collect();
        self.prof.enter("fanout");
        {
            let pool = self
                .pool
                .get_or_insert_with(|| crate::pool::WorkerPool::new(nl));
            let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(nl);
            for (r, ((seed, routers), out)) in seeds
                .into_iter()
                .zip(slices)
                .zip(results.iter_mut())
                .enumerate()
            {
                if seed.is_empty() {
                    continue;
                }
                let region = map.range(r);
                jobs.push(Box::new(move || {
                    let mut world = World {
                        protocol,
                        topo,
                        router_up,
                        incarnations,
                        routers,
                        base: region.start,
                        faults,
                        observing,
                        now,
                        scratch: &mut Scratch::default(),
                    };
                    let region_len = region.len();
                    let mut lane = Lane {
                        region,
                        wend,
                        observing,
                        temp_seq: temp_base,
                        symct: 0,
                        heap: seed.into(),
                        per_ad_base,
                        out: LaneResult::new(region_len),
                    };
                    lane.run(&mut world, max_events);
                    *out = lane.out;
                }));
            }
            pool.scoped(jobs);
        }
        self.prof.exit("fanout");
        self.prof.enter("commit");
        // Commit: replay the skeleton in sequential (time, seq) order,
        // assigning real sequence numbers and event ids exactly as the
        // sequential engine would have.
        let mut symtab: Vec<Vec<Option<EventId>>> = (0..nl).map(|_| Vec::new()).collect();
        let mut cursors = vec![0usize; nl];
        let resolve = |symtab: &[Vec<Option<EventId>>], lane: usize, c: CauseRef| match c {
            CauseRef::Known(id) => id,
            CauseRef::Local(i) => symtab[lane][i as usize],
        };
        while let Some(stub) = skel.pop() {
            let lane = stub.lane as usize;
            let res = &mut results[lane];
            let entry = &res.journal[cursors[lane]];
            let (r0, r1) = entry.records;
            let (p0, p1) = entry.pushes;
            cursors[lane] += 1;
            debug_assert_eq!(entry.time, stub.time, "journal out of step with skeleton");
            self.now = stub.time;
            for jr in &res.rec_arena[r0 as usize..r1 as usize] {
                let parent = resolve(&symtab, lane, jr.cause);
                let id = self.emit(parent, jr.rec);
                symtab[lane].push(id.or(parent));
            }
            for jp in res.push_arena[p0 as usize..p1 as usize].iter_mut() {
                let seq = self.seq;
                self.seq += 1;
                let time = jp.time;
                match jp.payload.take() {
                    Some(kind) => {
                        let cause = resolve(&symtab, lane, jp.cause);
                        self.queue.push(Event {
                            time,
                            seq,
                            cause,
                            kind,
                        });
                    }
                    None => skel.push(Stub {
                        time,
                        seq,
                        lane: stub.lane,
                    }),
                }
            }
        }
        for (lane, res) in results.into_iter().enumerate() {
            debug_assert_eq!(
                cursors[lane],
                res.journal.len(),
                "uncommitted journal entries"
            );
            self.stats.merge(&res.stats);
            let base = map.range(lane).start;
            for (i, &v) in res.per_ad.iter().enumerate() {
                self.stats.per_ad_msgs[base + i] += v;
            }
        }
        self.prof.exit("commit");
        self.prof.exit("window");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::Wave;
    use crate::faults::ChannelFaults;
    use adroute_topology::generate::{line, ring, HierarchyConfig};
    use adroute_topology::{LinkId, Topology};

    fn quiesce_seq(topo: Topology) -> (String, String, Engine<Wave>) {
        let mut e = Engine::new(topo, Wave);
        e.enable_obs(1 << 14);
        e.run_to_quiescence();
        (e.obs.log.render(), e.obs.log.export_jsonl(), e)
    }

    fn quiesce_par(topo: Topology, regions: usize) -> (String, String, Engine<Wave>) {
        let mut e = Engine::new(topo, Wave);
        e.enable_obs(1 << 14);
        e.run_to_quiescence_parallel(regions);
        (e.obs.log.render(), e.obs.log.export_jsonl(), e)
    }

    #[test]
    fn parallel_wave_is_byte_identical_to_sequential() {
        for &regions in &[1usize, 2, 3, 8] {
            let (st, sj, se) = quiesce_seq(line(12));
            let (pt, pj, pe) = quiesce_par(line(12), regions);
            assert_eq!(st, pt, "trace diverged at {regions} regions");
            assert_eq!(sj, pj, "jsonl diverged at {regions} regions");
            assert_eq!(se.stats.events, pe.stats.events);
            assert_eq!(se.stats.msgs_sent, pe.stats.msgs_sent);
            assert_eq!(se.stats.per_ad_msgs, pe.stats.per_ad_msgs);
            assert_eq!(se.now(), pe.now());
            assert_eq!(se.seq, pe.seq, "sequence counters diverged");
        }
    }

    #[test]
    fn parallel_ring_with_varied_delays_matches() {
        let mut topo = ring(9);
        for (i, d) in [900u64, 1100, 700, 1300, 800, 1000, 600, 1200, 950]
            .into_iter()
            .enumerate()
        {
            topo.set_delay(LinkId(i as u32), d);
        }
        let (st, sj, _) = quiesce_seq(topo.clone());
        for &regions in &[2usize, 4, 8] {
            let (pt, pj, _) = quiesce_par(topo.clone(), regions);
            assert_eq!(st, pt, "trace diverged at {regions} regions");
            assert_eq!(sj, pj);
        }
    }

    #[test]
    fn parallel_handles_control_events_sequentially() {
        let drive = |parallel: Option<usize>| {
            let mut e = Engine::new(line(10), Wave);
            e.enable_obs(1 << 14);
            e.schedule_link_change(LinkId(4), false, SimTime(2500));
            e.schedule_router_change(AdId(8), false, SimTime(3500));
            e.schedule_router_change(AdId(8), true, SimTime(4200));
            match parallel {
                Some(r) => {
                    e.run_to_quiescence_parallel(r);
                }
                None => {
                    e.run_to_quiescence();
                }
            }
            (e.obs.log.render(), e.obs.log.export_jsonl())
        };
        let seq = drive(None);
        for &r in &[2usize, 5] {
            assert_eq!(drive(Some(r)), seq, "diverged at {r} regions");
        }
    }

    #[test]
    fn parallel_hierarchy_topology_matches() {
        let topo = HierarchyConfig {
            seed: 7,
            ..HierarchyConfig::default()
        }
        .generate();
        let (st, sj, _) = quiesce_seq(topo.clone());
        let (pt, pj, _) = quiesce_par(topo, 4);
        assert_eq!(st, pt);
        assert_eq!(sj, pj);
    }

    #[test]
    fn faulted_parallel_matches_sequential() {
        // The event-keyed draw makes faulted runs parallel-safe: every
        // verdict (loss / corrupt / dup / reorder) lands identically at
        // any region count, so trace, JSONL, and fault counters match.
        let mixed = ChannelFaults {
            loss: 0.15,
            corrupt: 0.05,
            duplicate: 0.1,
            reorder: 0.1,
            jitter_us: 400,
            seed: 11,
            ..ChannelFaults::default()
        };
        let drive = |regions: Option<usize>| {
            let mut e = Engine::new(ring(12), Wave);
            e.enable_obs(1 << 14);
            e.set_channel_faults(Some(mixed.clone()));
            match regions {
                Some(r) => {
                    e.run_to_quiescence_parallel(r);
                }
                None => {
                    e.run_to_quiescence();
                }
            }
            (e.obs.log.render(), e.obs.log.export_jsonl(), e.stats)
        };
        let (st, sj, ss) = drive(None);
        assert!(
            ss.msgs_lost + ss.msgs_corrupted + ss.msgs_duplicated + ss.msgs_reordered > 0,
            "fault config must actually bite for this test to mean anything"
        );
        for &r in &[2usize, 4, 8] {
            let (pt, pj, ps) = drive(Some(r));
            assert_eq!(st, pt, "trace diverged at {r} regions");
            assert_eq!(sj, pj, "jsonl diverged at {r} regions");
            assert_eq!(ss.msgs_lost, ps.msgs_lost);
            assert_eq!(ss.msgs_corrupted, ps.msgs_corrupted);
            assert_eq!(ss.msgs_duplicated, ps.msgs_duplicated);
            assert_eq!(ss.msgs_reordered, ps.msgs_reordered);
            assert_eq!(ss.per_ad_msgs, ps.per_ad_msgs);
        }
    }
}
