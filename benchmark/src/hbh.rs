//! The hop-by-hop design points: `dv-converge` (naive DV, then ECMA),
//! `pv-converge` (IDRP path vector) and `ls-converge` (link-state
//! hop-by-hop).
//!
//! A round takes each design point through the four stages on a fresh
//! engine: cold start to first quiescence; every sampled link failing
//! and healing, each re-quiesced; the first packet of every sampled flow
//! forwarded hop by hop; the same packets forwarded again.

use std::marker::PhantomData;

use adroute_policy::workload::PolicyWorkload;
use adroute_policy::{FlowSpec, PolicyDb};
use adroute_protocols::ecma::Ecma;
use adroute_protocols::forwarding::{audit_path, forward, DataPlane, ForwardOutcome};
use adroute_protocols::ls_hbh::LsHbh;
use adroute_protocols::naive_dv::NaiveDv;
use adroute_protocols::path_vector::PathVector;
use adroute_sim::{Engine, Protocol};
use adroute_topology::{AdId, LinkId, Topology};

use crate::alloc;
use crate::harness::{Cx, Phase, Round, Workload};
use crate::inputs::{self, Shape, INTERNET_SEED};
use crate::oracle;

/// Sizes of one hop-by-hop workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// The internet.
    pub shape: Shape,
    /// Flows forwarded.
    pub flows: usize,
    /// Links failed and healed.
    pub links: usize,
    /// Later packets forwarded per flow in the data stage.
    pub packets_per_flow: usize,
}

/// Names one design point reports under.
struct Point {
    /// Ledger prefix.
    key: &'static str,
    converge_span: &'static str,
    failure_span: &'static str,
    us_per_event: &'static str,
    recomputes: &'static str,
    /// The protocol's recompute counter in `Stats`, if it keeps one.
    counter: Option<&'static str>,
}

/// The names of design point `$key`, whose `Stats` recompute counter (if
/// it keeps one) is `$counter`.
macro_rules! point {
    ($key:literal, $counter:expr) => {
        Point {
            key: $key,
            converge_span: concat!("protocols.", $key, ".converge"),
            failure_span: concat!("protocols.", $key, ".failure"),
            us_per_event: concat!("protocols.", $key, ".us_per_event"),
            recomputes: concat!("protocols.", $key, ".recomputes"),
            counter: $counter,
        }
    };
}

const NAIVE_DV: Point = point!("naive_dv", Some("dv_recompute"));
const ECMA: Point = point!("ecma", Some("ecma_recompute"));
const PATH_VECTOR: Point = point!("path_vector", Some("pv_recompute"));
const LS_HBH: Point = point!("ls_hbh", None);

/// Which workload a [`Hbh`] is.
pub trait Kind {
    /// Sizes, full or quick.
    fn spec(quick: bool) -> Spec;
    /// Runs the workload's design points through one round.
    fn points(world: &Hbh<Self>, cx: &mut Cx, round: &mut Round, audit: bool)
    where
        Self: Sized;
}

/// `dv-converge`.
pub struct Dv;
/// `pv-converge`.
pub struct Pv;
/// `ls-converge`.
pub struct Ls;

impl Kind for Dv {
    fn spec(quick: bool) -> Spec {
        Spec {
            shape: Shape::e_series(if quick { 1 } else { 2 }),
            flows: if quick { 500 } else { 8000 },
            links: if quick { 4 } else { 8 },
            packets_per_flow: 8,
        }
    }
    fn points(w: &Hbh<Dv>, cx: &mut Cx, r: &mut Round, audit: bool) {
        w.point(&NAIVE_DV, NaiveDv::default, false, cx, r, audit);
        w.point(&ECMA, || Ecma::hierarchical(&w.topo), false, cx, r, audit);
    }
}

impl Kind for Pv {
    fn spec(quick: bool) -> Spec {
        // Path-vector cost explodes with size (7 s to converge 49 ADs, 0.4 s
        // for 23, 0.2 s for 19): 19 ADs leaves room for twenty rounds in a
        // run, which is what keeps this memory-bound workload steady.
        let (metros, campuses) = if quick { (2, 2) } else { (2, 3) };
        Spec {
            shape: Shape {
                backbones: 1,
                regionals: 2,
                metros,
                campuses,
            },
            flows: if quick { 100 } else { 300 },
            links: 1,
            packets_per_flow: 60,
        }
    }
    fn points(w: &Hbh<Pv>, cx: &mut Cx, r: &mut Round, audit: bool) {
        let make = || PathVector::idrp(w.db.clone());
        w.point(&PATH_VECTOR, make, false, cx, r, audit);
    }
}

impl Kind for Ls {
    fn spec(quick: bool) -> Spec {
        Spec {
            shape: Shape::e_series(if quick { 1 } else { 8 }),
            flows: if quick { 100 } else { 300 },
            links: if quick { 4 } else { 10 },
            packets_per_flow: 40,
        }
    }
    fn points(w: &Hbh<Ls>, cx: &mut Cx, r: &mut Round, audit: bool) {
        let make = || LsHbh::new(&w.topo, w.db.clone());
        w.point(&LS_HBH, make, true, cx, r, audit);
        if cx.traced() && audit {
            w.parallel_converge(cx, r);
        }
    }
}

/// The inputs of a hop-by-hop workload.
pub struct Hbh<K> {
    topo: Topology,
    db: PolicyDb,
    spec: Spec,
    flows: Vec<FlowSpec>,
    /// Per flow: does the oracle find a legal route (all links up)?
    truth: Vec<bool>,
    links: Vec<LinkId>,
    kind: PhantomData<K>,
}

impl<K: Kind> Workload for Hbh<K> {
    fn setup(seed: u64, quick: bool, cx: &mut Cx) -> Self {
        let spec = K::spec(quick);
        let topo = cx
            .tr
            .call("topology.generate", || inputs::internet(spec.shape));
        let db = cx.tr.call("policy.workload_generate", || {
            PolicyWorkload::default_mix(INTERNET_SEED).generate(&topo)
        });
        let flows = inputs::distinct_flows(&topo, spec.flows, seed);
        let links = inputs::link_sample(&topo, spec.links, seed);
        let truth = oracle::truth(&topo, &db, &flows, cx);
        Hbh {
            spec,
            topo,
            db,
            flows,
            truth,
            links,
            kind: PhantomData,
        }
    }

    fn round(&mut self, cx: &mut Cx, audit: bool) -> Round {
        let mut r = Round::default();
        K::points(self, cx, &mut r, audit);
        r
    }
}

/// Folds a forwarding outcome into running counts and a path hash.
#[derive(Default)]
struct Tally {
    delivered: u64,
    no_route: u64,
    loops: u64,
    hash: u64,
}

impl Tally {
    fn add(&mut self, o: &ForwardOutcome) {
        match o {
            ForwardOutcome::Delivered { .. } => self.delivered += 1,
            ForwardOutcome::NoRoute { .. } => self.no_route += 1,
            ForwardOutcome::Loop { .. } => self.loops += 1,
        }
        self.hash = hash_path(self.hash, o.path());
    }
}

/// FNV-1a over a path, kept to 48 bits so the ledger survives JSON.
pub fn hash_path(seed: u64, path: &[AdId]) -> u64 {
    let mut h = seed ^ 0xcbf2_9ce4_8422_2325;
    for ad in path {
        h = (h ^ u64::from(ad.0)).wrapping_mul(0x0100_0000_01b3);
    }
    h & 0xffff_ffff_ffff
}

impl<K: Kind> Hbh<K> {
    /// One design point through the four stages. `complete` says the
    /// design point must deliver every flow the oracle can route
    /// (link-state does; the DV family's gaps are the paper's Table 1).
    fn point<P, F>(
        &self,
        pt: &Point,
        make: F,
        complete: bool,
        cx: &mut Cx,
        r: &mut Round,
        audit: bool,
    ) where
        P: Protocol,
        F: FnOnce() -> P,
        Engine<P>: DataPlane,
    {
        let key = |what: &str| format!("{}.{what}", pt.key);

        // Converge: protocol state, engine, first quiescence.
        let (allocs, mark) = (alloc::allocs(), alloc::mark());
        let timed = cx.begin(Phase::Converge);
        let span = cx.tr.enter(pt.converge_span);
        let proto = make();
        let topo = self.topo.clone();
        let mut e = cx.tr.call("sim.engine.new", || Engine::new(topo, proto));
        let quiesced = e.run_to_quiescence();
        cx.tr.exit(span);
        let before = r.secs[Phase::Converge as usize];
        cx.end(timed, r);
        let converge_s = r.secs[Phase::Converge as usize] - before;
        let s = &e.stats;
        let (events, msgs, bytes) = (s.events, s.msgs_sent, s.bytes_sent);
        r.count(key("events"), events);
        r.count(key("msgs"), msgs);
        r.count(key("bytes"), bytes);
        r.count(key("quiesced_us"), quiesced.0);
        r.count(key("max_per_ad_msgs"), s.max_per_ad_msgs());
        let recomputes = pt.counter.map_or(0, |c| s.counter(c));
        r.count(key("recomputes"), recomputes);
        if cx.traced() {
            cx.sample(pt.us_per_event, converge_s * 1e6 / events as f64);
            cx.put(pt.recomputes, recomputes as f64);
            cx.sample(
                "sim.engine.allocs_per_event",
                (alloc::allocs() - allocs) as f64 / events as f64,
            );
            cx.sample("sim.engine.converge_heap_mb", alloc::peak_growth_mb(mark));
            cx.sample("sim.engine.events_per_s", events as f64 / converge_s);
            // The sim.engine counts describe the round's last design point.
            cx.put_engine_layer(s, quiesced);
        }

        // Adapt: each sampled link fails, then heals, each re-quiesced.
        let timed = cx.begin(Phase::Adapt);
        for &link in &self.links {
            for up in [false, true] {
                let at = e.now().plus_us(1000);
                e.schedule_link_change(link, up, at);
                cx.tr.call(pt.failure_span, || e.run_to_quiescence());
                r.events += 1;
            }
        }
        cx.end(timed, r);
        r.count(key("adapt_events"), e.stats.events - events);
        r.count(key("adapt_bytes"), e.stats.bytes_sent - bytes);
        if !e.stats.conserves_messages() {
            r.fail(format!("{}: messages not conserved", pt.key));
        }

        // Route: the first packet of every flow, hop by hop.
        let mut first = Tally::default();
        let mut outcomes = Vec::with_capacity(if audit { self.flows.len() } else { 0 });
        let timed = cx.begin(Phase::Route);
        for f in &self.flows {
            let o = cx.tr.call("protocols.forwarding.forward", || {
                forward(&mut e, &self.topo, f)
            });
            first.add(&o);
            if audit {
                outcomes.push(o);
            }
        }
        cx.end(timed, r);
        r.routes += self.flows.len() as u64;

        // Data: later packets of the same flows, over whatever the first
        // ones left cached.
        let mut again = Tally::default();
        let timed = cx.begin(Phase::Data);
        for pass in 0..self.spec.packets_per_flow {
            for f in &self.flows {
                let o = forward(&mut e, &self.topo, f);
                if pass == 0 {
                    again.add(&o);
                }
            }
        }
        cx.end(timed, r);
        r.packets += (self.spec.packets_per_flow * self.flows.len()) as u64;

        r.count(key("delivered"), first.delivered);
        r.count(key("no_route"), first.no_route);
        r.count(key("loops"), first.loops);
        r.count(key("path_hash"), first.hash);
        cx.put("protocols.forwarding.loops", first.loops as f64);
        if first.loops > 0 {
            r.fail(format!("{}: {} forwarding loops", pt.key, first.loops));
        }
        if again.hash != first.hash {
            r.fail(format!("{}: second packets took other paths", pt.key));
        }
        if audit {
            self.audit(pt, complete, &outcomes, cx, r);
        }
    }

    /// Compares every first-packet outcome with the oracle's ground truth.
    fn audit(
        &self,
        pt: &Point,
        complete: bool,
        outcomes: &[ForwardOutcome],
        cx: &mut Cx,
        r: &mut Round,
    ) {
        let (mut compliant, mut delivered) = (0u64, 0u64);
        for ((f, o), &legal) in self.flows.iter().zip(outcomes).zip(&self.truth) {
            if o.delivered() {
                delivered += 1;
                compliant += u64::from(audit_path(&self.topo, &self.db, f, o.path()).compliant());
            }
            if complete && legal != o.delivered() {
                r.fail(format!(
                    "{}: flow {}->{} delivered={} but the oracle says routable={legal}",
                    pt.key,
                    f.src,
                    f.dst,
                    o.delivered(),
                ));
            }
        }
        let legal = self.truth.iter().filter(|&&t| t).count() as u64;
        r.audit.insert(format!("{}.legal_exists", pt.key), legal);
        r.audit.insert(format!("{}.compliant", pt.key), compliant);
        let n = outcomes.len() as f64;
        cx.put("protocols.forwarding.delivered_ratio", delivered as f64 / n);
        cx.put(
            "protocols.forwarding.compliant_ratio",
            compliant as f64 / delivered.max(1) as f64,
        );
    }
}

impl Hbh<Ls> {
    /// The same convergence through the two-worker parallel engine, its
    /// stats asserted equal to the sequential run's: ROADMAP item 3's
    /// keep-or-shrink decision, on a paper protocol.
    fn parallel_converge(&self, cx: &mut Cx, r: &mut Round) {
        let sequential = {
            let mut e = Engine::new(self.topo.clone(), LsHbh::new(&self.topo, self.db.clone()));
            let t = std::time::Instant::now();
            e.run_to_quiescence();
            (
                t.elapsed().as_secs_f64(),
                e.stats.events,
                e.stats.bytes_sent,
            )
        };
        let mut e = Engine::new(self.topo.clone(), LsHbh::new(&self.topo, self.db.clone()));
        let t = std::time::Instant::now();
        cx.tr.call("sim.parallel.converge_w2", || {
            e.run_to_quiescence_parallel(2)
        });
        let parallel_s = t.elapsed().as_secs_f64();
        if (e.stats.events, e.stats.bytes_sent) != (sequential.1, sequential.2) {
            r.fail("ls_hbh: parallel convergence did other work than sequential");
        }
        cx.put("sim.parallel.speedup_w2", sequential.0 / parallel_s);
    }
}
