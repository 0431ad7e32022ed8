//! Spans recorded from the benchmark's side of each call into a layer.
//!
//! A span is `{name, start, end, parent, round}`; spans of one round
//! share the round id. They are kept in memory and written when the run
//! ends. A span's self time is its duration minus the part its children
//! cover, so the layer names add up to the traced wall time with the
//! harness's own glue left over as `bench.unattributed_ratio`.
//!
//! With tracing off ([`Tracer::off`]) `enter`/`exit`/`call` cost one
//! branch and record nothing: end-to-end numbers never come from a
//! traced run.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Value;

/// Index of a span's parent; `NO_PARENT` for a root.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Span {
    /// `layer.operation`, e.g. `core.network.open`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The round (workload-run id) the span belongs to.
    pub round: u32,
}

impl Span {
    /// Duration, ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Token returned by [`Tracer::enter`]; hand it back to [`Tracer::exit`].
#[derive(Clone, Copy)]
pub struct Open(u32);

/// The span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    round: u32,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            round: 0,
        }
    }

    /// Starts or stops recording.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Sets the round id stamped on spans recorded from now on.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            round: self.round,
        });
        self.stack.push(id);
        Open(id)
    }

    /// Closes the span `open` names, which must be the innermost one.
    pub fn exit(&mut self, open: Open) {
        if open.0 == NO_PARENT {
            return;
        }
        assert_eq!(self.stack.pop(), Some(open.0), "spans must nest");
        self.spans[open.0 as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Runs `f` inside a leaf span.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Hands over every span recorded so far.
    ///
    /// # Panics
    /// Panics if a span is still open.
    pub fn take_spans(&mut self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "a span is still open");
        std::mem::take(&mut self.spans)
    }
}

/// Self time of every span (ns): duration minus its children's durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct NameTotal {
    /// Spans with this name.
    pub calls: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of self times, ns.
    pub self_ns: u64,
}

/// Aggregates spans by name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, own_ns) in spans.iter().zip(own) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += own_ns;
    }
    out
}

/// The trace file: per-name totals over the whole run, plus every span
/// of the first measured round (round ids start at 1; id 0 is set-up and
/// the settling and audited rounds). Later rounds repeat the first, and
/// keeping one bounds the file.
pub fn to_json(workload: &str, spans: &[Span]) -> Value {
    let totals = by_name(spans)
        .into_iter()
        .map(|(name, t)| {
            Value::obj([
                ("name", Value::Str(name.into())),
                ("calls", Value::Num(t.calls as f64)),
                ("total_us", Value::Num(t.total_ns as f64 / 1e3)),
                ("self_us", Value::Num(t.self_ns as f64 / 1e3)),
            ])
        })
        .collect();
    let first_round = spans.iter().map(|s| s.round).filter(|&r| r > 0).min();
    let detail = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| Some(s.round) == first_round)
        .map(|(id, s)| {
            Value::obj([
                ("id", Value::Num(id as f64)),
                ("name", Value::Str(s.name.into())),
                ("start_us", Value::Num(s.start_ns as f64 / 1e3)),
                ("end_us", Value::Num(s.end_ns as f64 / 1e3)),
                (
                    "parent",
                    if s.parent == NO_PARENT {
                        Value::Null
                    } else {
                        Value::Num(f64::from(s.parent))
                    },
                ),
                ("round", Value::Num(f64::from(s.round))),
            ])
        })
        .collect();
    Value::obj([
        ("workload", Value::Str(workload.into())),
        ("totals", Value::Arr(totals)),
        ("spans", Value::Arr(detail)),
    ])
}
