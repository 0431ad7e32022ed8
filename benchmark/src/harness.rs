//! One run of one workload: set up several times, audit once, then
//! repeat the same round for `--seconds`.
//!
//! Every round of a run does the same deterministic work on the same
//! inputs, so (a) a metric is a robust statistic over many rounds, and
//! (b) every round must reproduce the audited round's ledger exactly —
//! the run's correctness check.

use std::collections::BTreeMap;
use std::time::Instant;

use adroute_sim::{SimTime, Stats};

use crate::alloc;
use crate::metrics::{Stat, E2E, PER_LAYER, SPAN_METRICS};
use crate::stats::{lower_quartile, median, percentile};
use crate::trace::{self, Open, Tracer};

/// Deterministic counts of a round: equal across rounds, repetitions and
/// runs of one commit.
pub type Ledger = BTreeMap<String, u64>;

/// The four stages every design point has, plus timed work outside them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Cold start until the design point can route.
    Converge = 0,
    /// A link changes state until the network is stable again.
    Adapt = 1,
    /// The first packet of a flow: hop-by-hop forwarding or route setup.
    Route = 2,
    /// Later packets of flows already routed.
    Data = 3,
    /// Timed work that belongs to the round but to none of the four
    /// (warm re-opens on `orwg-open`).
    Other = 4,
}

impl Phase {
    fn span(self) -> &'static str {
        [
            "bench.phase.converge",
            "bench.phase.adapt",
            "bench.phase.route",
            "bench.phase.data",
            "bench.phase.other",
        ][self as usize]
    }
}

/// What one round did.
#[derive(Clone, Default, Debug)]
pub struct Round {
    /// Timed wall seconds per [`Phase`].
    pub secs: [f64; 5],
    /// Link events adapted to.
    pub events: u64,
    /// Flows routed (first packets forwarded, routes opened or served).
    pub routes: u64,
    /// Later packets sent.
    pub packets: u64,
    /// Counts every round must reproduce.
    pub ledger: Ledger,
    /// Facts only the audited round establishes (oracle comparisons).
    pub audit: Ledger,
    /// Invariants this round broke, one message each.
    pub broken: Vec<String>,
}

impl Round {
    /// Adds `n` to ledger entry `key`.
    pub fn count(&mut self, key: impl Into<String>, n: u64) {
        *self.ledger.entry(key.into()).or_insert(0) += n;
    }

    /// Records a broken invariant.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.broken.push(what.into());
    }

    /// Sum of the timed phases, seconds.
    pub fn wall_s(&self) -> f64 {
        self.secs.iter().sum()
    }
}

/// What a workload gets to record into.
pub struct Cx {
    /// The span recorder (off unless `--trace 1`).
    pub tr: Tracer,
    samples: BTreeMap<&'static str, Vec<f64>>,
    values: BTreeMap<&'static str, f64>,
}

/// An open timed phase; see [`Cx::begin`].
pub struct Timed {
    phase: Phase,
    start: Instant,
    span: Open,
}

impl Cx {
    fn new() -> Cx {
        Cx {
            tr: Tracer::off(),
            samples: BTreeMap::new(),
            values: BTreeMap::new(),
        }
    }

    /// Starts timing `phase`.
    pub fn begin(&mut self, phase: Phase) -> Timed {
        let span = self.tr.enter(phase.span());
        Timed {
            phase,
            start: Instant::now(),
            span,
        }
    }

    /// Stops timing and adds the wall time to `round`.
    pub fn end(&mut self, timed: Timed, round: &mut Round) {
        round.secs[timed.phase as usize] += timed.start.elapsed().as_secs_f64();
        self.tr.exit(timed.span);
    }

    /// Whether this is the traced part of a traced run (spans recorded,
    /// allocations counted).
    pub fn traced(&self) -> bool {
        self.tr.is_on()
    }

    /// Adds one sample of a per-layer metric reported as a median.
    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    /// Sets a per-layer metric that is a plain (deterministic) value.
    pub fn put(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }

    /// Sets the `sim.engine` counts (and the flood's duplicate ratio)
    /// from an engine's stats at first quiescence.
    pub fn put_engine_layer(&mut self, s: &Stats, quiesced: SimTime) {
        self.put("sim.engine.events", s.events as f64);
        self.put("sim.engine.msgs_sent", s.msgs_sent as f64);
        self.put("sim.engine.bytes_sent", s.bytes_sent as f64);
        self.put(
            "sim.engine.bytes_per_msg",
            s.bytes_sent as f64 / s.msgs_sent as f64,
        );
        self.put("sim.engine.quiesced_at_us", quiesced.0 as f64);
        self.put("sim.engine.max_per_ad_msgs", s.max_per_ad_msgs() as f64);
        self.put(
            "protocols.linkstate.flood_dup_ratio",
            s.counter("flood_dup") as f64 / s.msgs_delivered as f64,
        );
    }
}

/// A workload: something that can be set up from a seed and then run,
/// round after identical round.
pub trait Workload: Sized {
    /// Builds inputs and whatever state precedes the measured phase.
    fn setup(seed: u64, quick: bool, cx: &mut Cx) -> Self;

    /// One round. With `audit`, also compares outputs with the oracle
    /// (outside the timed phases) and fills [`Round::audit`].
    fn round(&mut self, cx: &mut Cx, audit: bool) -> Round;

    /// Extra measurements of the traced run, after its rounds.
    fn traced_extras(&mut self, _cx: &mut Cx) {}
}

/// Options of one run.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// Seed of the traffic.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Record spans, count allocations, report per-layer metrics.
    pub trace: bool,
    /// Small sizes for self-tests; numbers are not comparable.
    pub quick: bool,
    /// Self-test hook: corrupt the reference ledger so every round fails.
    pub inject_fault: bool,
}

/// The result of one run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// End-to-end metrics `(name, value)` in [`E2E`] order.
    pub e2e: Vec<(&'static str, f64)>,
    /// Per-layer metrics in [`PER_LAYER`] order (traced runs only).
    pub layers: Vec<(&'static str, f64)>,
    /// The round ledger plus the audit's facts.
    pub ledger: Ledger,
    /// Operations attempted over all measured rounds.
    pub attempted: u64,
    /// Operations (rounds' invariants) that failed.
    pub failed: u64,
    /// What broke, if anything.
    pub broken: Vec<String>,
    /// Measured rounds.
    pub rounds: usize,
    /// Every span of the traced part (traced runs only).
    pub spans: Vec<trace::Span>,
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|l| l.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Tracing on or off: the span recorder and the counting allocator.
fn set_tracing(cx: &mut Cx, on: bool) {
    cx.tr.set_on(on);
    alloc::set_counting(on);
}

/// Runs rounds until `seconds` have passed and `rounds` holds at least
/// three. A traced run traces every other round only and collects the
/// untraced ones in `plain`: the two sets share the same stretch of wall
/// time, so their ratio is the tracing overhead and not the host's drift.
fn measure<W: Workload>(
    w: &mut W,
    cx: &mut Cx,
    opts: Opts,
    reference: &Ledger,
    (rounds, plain): (&mut Vec<Round>, &mut Vec<Round>),
    broken: &mut Vec<String>,
) {
    let begun = Instant::now();
    let mut done = 0u32;
    while begun.elapsed().as_secs_f64() < opts.seconds || rounds.len() < 3 {
        let traced = opts.trace && done % 2 == 1;
        set_tracing(cx, traced);
        done += 1;
        cx.tr.set_round(done);
        let span = cx.tr.enter("bench.round");
        let mut r = w.round(cx, false);
        cx.tr.exit(span);
        if &r.ledger != reference {
            let key = reference
                .iter()
                .find(|(k, v)| r.ledger.get(*k) != Some(v))
                .map_or("(extra key)", |(k, _)| k.as_str());
            r.fail(format!(
                "round {done} ledger differs from the audited round at '{key}'"
            ));
        }
        broken.append(&mut r.broken);
        if traced || !opts.trace {
            rounds.push(r);
        } else {
            plain.push(r);
        }
    }
    set_tracing(cx, opts.trace);
}

/// Runs workload `W` once.
pub fn drive<W: Workload>(opts: Opts) -> Outcome {
    let mut cx = Cx::new();
    set_tracing(&mut cx, opts.trace);

    // Set-up, several times: at least three, and up to 31 while they fit
    // in a second.
    let mut setup_s = Vec::new();
    let mut world: Option<W> = None;
    let begun = Instant::now();
    while setup_s.len() < 3 || (setup_s.len() < 31 && begun.elapsed().as_secs_f64() < 1.0) {
        drop(world.take());
        let t = Instant::now();
        world = Some(W::setup(opts.seed, opts.quick, &mut cx));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut w = world.expect("at least one set-up ran");

    // The audited round: faults fresh pages in, checks outputs against the
    // oracle, and fixes the ledger every later round must reproduce.
    let span = cx.tr.enter("bench.audit_round");
    let audited = w.round(&mut cx, true);
    cx.tr.exit(span);
    let mut broken = audited.broken.clone();
    let mut reference = audited.ledger.clone();
    if opts.inject_fault {
        reference.insert("injected-fault".into(), 1);
    }

    let (mut rounds, mut plain) = (Vec::new(), Vec::new());
    measure(
        &mut w,
        &mut cx,
        opts,
        &reference,
        (&mut rounds, &mut plain),
        &mut broken,
    );
    if opts.trace {
        w.traced_extras(&mut cx);
    }
    drop(w);

    // Rounds are identical work, so what differs between them is host
    // interference, which only ever adds time: a time is reported as the
    // lower quartile over rounds (a rate from the lower-quartile time),
    // which a noisy stretch of the run does not move; the median does.
    let low = |f: &dyn Fn(&Round) -> f64| -> f64 {
        lower_quartile(&rounds.iter().map(f).collect::<Vec<f64>>())
    };
    let phase = |p: Phase| low(&|r| r.secs[p as usize]);
    let first = &rounds[0];
    let e2e_values = [
        median(&setup_s),
        low(&|r| r.wall_s()) * 1e3,
        phase(Phase::Converge) * 1e3,
        phase(Phase::Adapt) * 1e3 / first.events as f64,
        first.routes as f64 / phase(Phase::Route),
        first.packets as f64 / phase(Phase::Data),
        peak_rss_mb(),
    ];
    let e2e: Vec<(&'static str, f64)> = E2E.iter().map(|m| m.name).zip(e2e_values).collect();

    let per_round = 1 + first.events + first.routes + first.packets;
    let failed = broken.len() as u64;
    let mut ledger = audited.ledger;
    ledger.extend(audited.audit);

    let spans = cx.tr.take_spans();
    let mut layers = Vec::new();
    if opts.trace {
        let mut durations_ns: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for s in &spans {
            durations_ns
                .entry(s.name)
                .or_default()
                .push(s.dur_ns() as f64);
        }
        for (metric, span, stat, ns_per_unit) in SPAN_METRICS {
            let v = match (durations_ns.get(span), stat) {
                (None, _) => 0.0,
                (Some(d), Stat::Median) => median(d),
                (Some(d), Stat::Pct(p)) => percentile(d, p).unwrap_or(0.0),
            };
            cx.values.insert(metric, v / ns_per_unit);
        }
        let totals = trace::by_name(&spans);
        let (mut phase_ns, mut glue_ns) = (0u64, 0u64);
        for (name, t) in &totals {
            if name.starts_with("bench.phase.") {
                phase_ns += t.total_ns;
                glue_ns += t.self_ns;
            }
        }
        cx.put("bench.unattributed_ratio", glue_ns as f64 / phase_ns as f64);
        cx.put(
            "bench.trace_overhead_ratio",
            low(&|r| r.wall_s())
                / lower_quartile(&plain.iter().map(Round::wall_s).collect::<Vec<f64>>()),
        );
        cx.put("bench.rounds", rounds.len() as f64);
        cx.put("bench.setup_samples", setup_s.len() as f64);
        cx.put(
            "bench.route_samples",
            (first.routes * rounds.len() as u64) as f64,
        );
        cx.put("bench.spans", spans.len() as f64);
        for (name, _, _) in PER_LAYER {
            let v = match cx.samples.get(name) {
                Some(s) => median(s),
                None => cx.values.get(name).copied().unwrap_or(0.0),
            };
            layers.push((name, v));
        }
    }

    Outcome {
        e2e,
        layers,
        ledger,
        attempted: per_round * (rounds.len() + plain.len()) as u64,
        failed,
        broken,
        rounds: rounds.len(),
        spans,
    }
}
