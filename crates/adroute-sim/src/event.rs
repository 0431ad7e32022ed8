//! Simulated time and the event structures of the engine.

use adroute_topology::{AdId, LinkId};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// Simulated time in microseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// This time plus `us` microseconds.
    #[inline]
    pub fn plus_us(self, us: u64) -> SimTime {
        SimTime(self.0 + us)
    }

    /// Constructs from whole milliseconds.
    pub fn from_ms(ms: u64) -> SimTime {
        SimTime(ms * 1000)
    }

    /// The value in microseconds.
    pub fn as_us(self) -> u64 {
        self.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{:03}ms", self.0 / 1000, self.0 % 1000)
    }
}

/// What an event does when it fires. Generic over the protocol message
/// type `M`.
#[derive(Clone, Debug)]
pub(crate) enum EventKind<M> {
    /// Router start-up: the protocol's `on_start` hook.
    Start { ad: AdId },
    /// A message arriving at `to` from neighbor `from` over `link`.
    Deliver {
        to: AdId,
        from: AdId,
        link: LinkId,
        msg: M,
    },
    /// A one-shot timer at `ad` with an opaque token. The incarnation
    /// pins the timer to the router instance that set it: timers armed
    /// before a crash never fire into the rebuilt state.
    Timer {
        ad: AdId,
        token: u64,
        incarnation: u32,
    },
    /// A link going up or down; delivered to both endpoints after the
    /// topology is updated.
    LinkEvent { link: LinkId, up: bool },
    /// A router crashing (`up = false`, soft state lost) or restarting
    /// (`up = true`, state rebuilt from scratch).
    RouterEvent { ad: AdId, up: bool },
}

/// A scheduled event. Events fire in `(time, seq)` order, which makes
/// simulation order total and deterministic; `seq` is the engine's push
/// counter, so among events due at the same time the earlier push fires
/// first. The `cause` is the logged event that scheduled this one (if
/// observability is on); it becomes the `cause` of whatever record fires
/// when the event is processed, which is how provenance crosses the queue
/// (enqueue → deliver → reaction).
#[derive(Clone, Debug)]
pub(crate) struct Event<M> {
    pub time: SimTime,
    pub seq: u64,
    pub cause: Option<crate::obs::EventId>,
    pub kind: EventKind<M>,
}

/// Events one block of a [`Fifo`] holds. A link-state event is 56 bytes,
/// which makes a block 56 KB: below the allocator's 128 KB mmap threshold,
/// so blocks come from and go back to the heap's free lists.
const BLOCK: usize = 1024;

/// The engine's pending events, popped in `(time, seq)` order.
///
/// One FIFO per pending firing time. The engine numbers events as it
/// pushes them, so within one firing time push order *is* `seq` order and
/// a queue per time needs no sorting: push and pop cost a lookup among
/// the pending times (a handful when every link has the same delay, as in
/// the paper's floods, where the alternative — one binary heap over all
/// events — pays `log n` moves per pop with `n` past 10⁵).
///
/// Storage is blocks of [`BLOCK`] events, never one buffer for the whole
/// queue. A 392-AD flood has 10⁵ events in flight; one buffer for them
/// doubles its way to 15 MB every run, each doubling grows in place or is
/// copied depending on what the allocator has put behind it, and a copy
/// leaves old and new resident together — peak RSS then reads 13 MB or
/// 21 MB on the same input. Equal-sized blocks are recycled by the
/// allocator from one run to the next wherever they lie.
#[derive(Debug)]
pub(crate) struct EventQueue<M> {
    times: BTreeMap<SimTime, Fifo<Event<M>>>,
    len: usize,
    /// The buffer of the last firing time to drain, for the next one to
    /// open: when few events are pending (a link flap's re-convergence),
    /// firing times come and go with a handful of events each, and this
    /// saves each of them an allocation.
    spare: Option<VecDeque<Event<M>>>,
}

impl<M> EventQueue<M> {
    pub(crate) fn new() -> EventQueue<M> {
        EventQueue {
            times: BTreeMap::new(),
            len: 0,
            spare: None,
        }
    }

    /// Queues `ev`. Its `seq` must exceed every `seq` pushed before it.
    #[inline]
    pub(crate) fn push(&mut self, ev: Event<M>) {
        let spare = &mut self.spare;
        let fifo = self.times.entry(ev.time).or_insert_with(|| Fifo {
            head: spare.take().unwrap_or_default(),
            rest: VecDeque::new(),
        });
        debug_assert!(fifo.back().is_none_or(|last| last.seq < ev.seq));
        fifo.push_back(ev);
        self.len += 1;
    }

    /// The next event to fire.
    #[inline]
    pub(crate) fn peek(&self) -> Option<&Event<M>> {
        self.times.first_key_value().and_then(|(_, f)| f.front())
    }

    /// Removes and returns the next event to fire.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<Event<M>> {
        let mut due = self.times.first_entry()?;
        let ev = due.get_mut().pop_front();
        if due.get().front().is_none() {
            self.spare = Some(due.remove().head);
        }
        self.len -= 1;
        ev
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

/// A first-in first-out queue stored in blocks of at most [`BLOCK`]
/// items. Never empty while it sits in an [`EventQueue`].
#[derive(Debug)]
struct Fifo<T> {
    /// The oldest items. Grows like any `VecDeque` up to `BLOCK`, so a
    /// firing time with a few events costs one small allocation.
    head: VecDeque<T>,
    /// Later items, oldest block first; only the last one is not full.
    /// Empty until `head` has filled once.
    rest: VecDeque<VecDeque<T>>,
}

impl<T> Fifo<T> {
    fn push_back(&mut self, item: T) {
        let last = match self.rest.back_mut() {
            Some(block) => block,
            None => &mut self.head,
        };
        if last.len() < BLOCK {
            last.push_back(item);
        } else {
            let mut block = VecDeque::with_capacity(BLOCK);
            block.push_back(item);
            self.rest.push_back(block);
        }
    }

    fn pop_front(&mut self) -> Option<T> {
        let item = self.head.pop_front();
        if self.head.is_empty() {
            if let Some(next) = self.rest.pop_front() {
                self.head = next;
            }
        }
        item
    }

    fn front(&self) -> Option<&T> {
        self.head.front()
    }

    fn back(&self) -> Option<&T> {
        self.rest.back().unwrap_or(&self.head).back()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic() {
        let t = SimTime::from_ms(2).plus_us(500);
        assert_eq!(t.as_us(), 2500);
        assert_eq!(t.to_string(), "2.500ms");
        assert!(SimTime::ZERO < t);
    }

    fn timer(time: u64, seq: u64) -> Event<()> {
        Event {
            time: SimTime(time),
            seq,
            cause: None,
            kind: EventKind::Timer {
                ad: AdId(0),
                token: 0,
                incarnation: 0,
            },
        }
    }

    #[test]
    fn event_ordering_is_earliest_first() {
        let mut q = EventQueue::new();
        q.push(timer(5, 0));
        q.push(timer(3, 1));
        q.push(timer(3, 2));
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek().map(|e| (e.time, e.seq)), Some((SimTime(3), 1)));
        let first = q.pop().unwrap();
        assert_eq!((first.time, first.seq), (SimTime(3), 1));
        let second = q.pop().unwrap();
        assert_eq!((second.time, second.seq), (SimTime(3), 2));
        let third = q.pop().unwrap();
        assert_eq!(third.time, SimTime(5));
        assert!(q.pop().is_none() && q.peek().is_none() && q.len() == 0);
    }

    /// A flood's shape: while one firing time drains, the next fills, each
    /// across several blocks. Pops come out in `(time, seq)` order and
    /// every event comes out once.
    #[test]
    fn queue_order_survives_block_boundaries() {
        let mut q = EventQueue::new();
        let mut seq = 0..;
        let mut push = |q: &mut EventQueue<()>, time| q.push(timer(time, seq.next().unwrap()));
        for _ in 0..2 * BLOCK + 7 {
            push(&mut q, 1000);
        }
        let mut popped = Vec::new();
        while let Some(e) = q.pop() {
            // Each event due at 1000 schedules one at 2000 and, every so
            // often, one more at 1000 (behind everything already there).
            if e.time == SimTime(1000) {
                push(&mut q, 2000);
                if e.seq % 3 == 0 && e.seq < BLOCK as u64 {
                    push(&mut q, 1000);
                }
            }
            popped.push((e.time, e.seq));
        }
        assert_eq!(popped.len(), seq.next().unwrap() as usize);
        assert!(popped.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(q.len(), 0);
    }
}
