//! The paper's endorsed design point — link-state flooding, Route Server
//! synthesis, setup, handles — in three regimes: `orwg-open` (cold and
//! warm opens, then data), `orwg-serve` (an open storm through the
//! overload driver) and `orwg-churn` (repairable flows while links fail
//! and heal through the engine).
//!
//! Like the hop-by-hop workloads, every round starts cold: the flood
//! runs to quiescence and every Route Server's view is built from its
//! own flooded database (the converge stage) before the regime's own
//! stages run on that fresh network.

use std::collections::HashSet;
use std::marker::PhantomData;
use std::time::Instant;

use adroute_core::network::OpenError;
use adroute_core::router::converge_control_plane;
use adroute_core::{
    run_load_ramp, HandleId, OrwgNetwork, OrwgProtocol, ShardConfig, Strategy, StressConfig,
    StressReport,
};
use adroute_policy::legality::route_is_legal;
use adroute_policy::workload::PolicyWorkload;
use adroute_policy::{FlowSpec, PolicyDb};
use adroute_sim::{Engine, OpenStorm, SimTime, StormPhase};
use adroute_topology::{AdId, LinkId, Topology};

use crate::alloc;
use crate::harness::{Cx, Phase, Round, Workload};
use crate::hbh::hash_path;
use crate::inputs::{self, Shape, INTERNET_SEED};
use crate::oracle;

/// Route Server strategy and gateway handle capacity of every network:
/// the library's default cache, and handle tables large enough that no
/// handle is ever evicted (an eviction would fail a `send`).
const STRATEGY: Strategy = Strategy::Cached { capacity: 1024 };
const HANDLE_CAPACITY: usize = 1 << 16;
/// Flows the oracle audit covers at most.
const AUDIT_FLOWS: usize = 2000;
/// Detour attempts a repair may make (`repair_pending`'s argument).
const REPAIR_RETRIES: usize = 2;
/// The storm's offered rates, opens/s of simulated time (`adroute stress e9b`).
const STORM_RATES: [u64; 4] = [6_000, 25_000, 70_000, 200_000];

/// Sizes of one ORWG workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// The internet.
    pub shape: Shape,
    /// Structural policies (`orwg-serve`) or the default mix.
    pub structural: bool,
    /// Flows opened (`open`: cold then warm; `churn`: repairable); unused
    /// by `serve`, whose flows are the storm's.
    pub flows: usize,
    /// Links failed and healed per round.
    pub links: usize,
    /// Packets sent per live handle in each data stage.
    pub packets_per_flow: usize,
}

/// Which regime an [`Orwg`] is.
pub trait Kind: Sized {
    /// Sizes, full or quick.
    fn spec(quick: bool) -> Spec;
    /// Inputs beyond the shared ones.
    type Extra;
    /// Builds [`Kind::Extra`] during set-up.
    fn extra(base: &Base, seed: u64, quick: bool, cx: &mut Cx) -> Self::Extra;
    /// The regime's stages on a freshly converged network.
    fn stages(
        w: &Orwg<Self>,
        engine: Engine<OrwgProtocol>,
        net: OrwgNetwork,
        cx: &mut Cx,
        r: &mut Round,
        audit: bool,
    );
    /// Traced-run extras.
    fn extras(_w: &Orwg<Self>, _cx: &mut Cx) {}
}

/// The inputs the three regimes share.
pub struct Base {
    spec: Spec,
    topo: Topology,
    db: PolicyDb,
    flows: Vec<FlowSpec>,
    /// Per audited flow: does the oracle find a legal route (all links up)?
    truth: Vec<bool>,
    links: Vec<LinkId>,
}

/// An ORWG workload.
pub struct Orwg<K: Kind> {
    base: Base,
    extra: K::Extra,
    kind: PhantomData<K>,
}

impl<K: Kind> Workload for Orwg<K> {
    fn setup(seed: u64, quick: bool, cx: &mut Cx) -> Self {
        let spec = K::spec(quick);
        let topo = cx
            .tr
            .call("topology.generate", || inputs::internet(spec.shape));
        let db = cx.tr.call("policy.workload_generate", || {
            if spec.structural {
                PolicyWorkload::structural(INTERNET_SEED).generate(&topo)
            } else {
                PolicyWorkload::default_mix(INTERNET_SEED).generate(&topo)
            }
        });
        let flows = inputs::distinct_flows(&topo, spec.flows, seed);
        let links = inputs::link_sample(&topo, spec.links, seed);
        let truth = oracle::truth(&topo, &db, &flows[..flows.len().min(AUDIT_FLOWS)], cx);
        let base = Base {
            spec,
            topo,
            db,
            flows,
            truth,
            links,
        };
        let extra = K::extra(&base, seed, quick, cx);
        Orwg {
            base,
            extra,
            kind: PhantomData,
        }
    }

    fn round(&mut self, cx: &mut Cx, audit: bool) -> Round {
        let mut r = Round::default();
        let (engine, net) = self.base.cold_start(cx, &mut r);
        K::stages(self, engine, net, cx, &mut r, audit);
        r
    }

    fn traced_extras(&mut self, cx: &mut Cx) {
        K::extras(self, cx);
    }
}

impl Base {
    /// The converge stage: flood to quiescence, then every Route Server's
    /// view from its own flooded database.
    fn cold_start(&self, cx: &mut Cx, r: &mut Round) -> (Engine<OrwgProtocol>, OrwgNetwork) {
        let allocs = alloc::allocs();
        let timed = cx.begin(Phase::Converge);
        let t = Instant::now();
        let engine = cx.tr.call("core.router.converge", || {
            converge_control_plane(self.topo.clone(), self.db.clone())
        });
        let flood_s = t.elapsed().as_secs_f64();
        let flood_allocs = alloc::allocs() - allocs;
        let mark = alloc::mark();
        let net = cx.tr.call("core.network.view_build", || {
            OrwgNetwork::from_engine(&engine, STRATEGY, HANDLE_CAPACITY)
        });
        cx.end(timed, r);
        let s = &engine.stats;
        r.count("flood.events", s.events);
        r.count("flood.msgs", s.msgs_sent);
        r.count("flood.bytes", s.bytes_sent);
        r.count("flood.quiesced_us", s.last_activity.0);
        if !s.conserves_messages() {
            r.fail("control-plane messages not conserved");
        }
        if cx.traced() {
            cx.put_engine_layer(s, s.last_activity);
            cx.sample("sim.engine.events_per_s", s.events as f64 / flood_s);
            cx.sample(
                "sim.engine.allocs_per_event",
                flood_allocs as f64 / s.events as f64,
            );
            cx.sample(
                "core.network.view_build_heap_mb",
                alloc::peak_growth_mb(mark),
            );
        }
        (engine, net)
    }

    /// Checks what was opened against the oracle's truth: a flow is open
    /// exactly when a legal route exists, and every opened route is legal.
    fn audit_opens(&self, opened: &[(usize, Vec<AdId>)], r: &mut Round) {
        let routable: HashSet<usize> = opened.iter().map(|(i, _)| *i).collect();
        for (i, (f, &legal)) in self.flows.iter().zip(&self.truth).enumerate() {
            if legal != routable.contains(&i) {
                r.fail(format!(
                    "flow {}->{}: opened={} but the oracle says routable={legal}",
                    f.src, f.dst, !legal
                ));
            }
        }
        for (i, route) in opened {
            if route_is_legal(&self.topo, &self.db, &self.flows[*i], route).is_none() {
                r.fail(format!("flow {i}: the opened route is not legal"));
            }
        }
        r.audit
            .insert("audited_flows".into(), self.truth.len() as u64);
    }
}

/// Live handles in handle order (`open_flows` iterates a `HashMap`).
fn live_handles(net: &OrwgNetwork) -> Vec<HandleId> {
    let mut handles: Vec<HandleId> = net.open_flows().map(|(h, _)| h).collect();
    handles.sort();
    handles
}

/// A data stage: `per_flow` packets on every live handle, in spans of 1000.
fn send_all(net: &mut OrwgNetwork, per_flow: usize, cx: &mut Cx, r: &mut Round) {
    let handles = live_handles(net);
    let allocs = alloc::allocs();
    let mut sent = 0u64;
    let mut failed = 0u64;
    let timed = cx.begin(Phase::Data);
    for _ in 0..per_flow {
        for chunk in handles.chunks(1000) {
            let span = (chunk.len() == 1000).then(|| cx.tr.enter("core.network.send_x1000"));
            for &h in chunk {
                failed += u64::from(net.send(h).is_err());
            }
            sent += chunk.len() as u64;
            if let Some(span) = span {
                cx.tr.exit(span);
            }
        }
    }
    cx.end(timed, r);
    r.packets += sent;
    if failed > 0 {
        r.fail(format!("{failed} of {sent} sends failed"));
    }
    if cx.traced() && sent > 0 {
        cx.sample(
            "core.network.allocs_per_packet",
            (alloc::allocs() - allocs) as f64 / sent as f64,
        );
    }
}

/// The adapt stage of `open` and `serve`: each sampled link fails in
/// ground truth (handles flushed, views patched, dependent cache entries
/// invalidated), broken flows are repaired, and the link is restored.
fn fail_and_restore(net: &mut OrwgNetwork, links: &[LinkId], cx: &mut Cx, r: &mut Round) {
    let timed = cx.begin(Phase::Adapt);
    for &link in links {
        cx.tr.call("core.network.fail_link", || net.fail_link(link));
        cx.tr
            .call("core.network.repair", || net.repair_pending(REPAIR_RETRIES));
        cx.tr
            .call("core.network.restore_link", || net.restore_link(link));
        r.events += 2;
    }
    cx.end(timed, r);
}

/// The network's counters at the end of a round: into the ledger, and
/// (traced) the `core.synthesis` and `core.network` layer metrics.
fn final_counts(net: &OrwgNetwork, cx: &mut Cx, r: &mut Round) {
    let s = net.aggregate_synth_stats();
    let fixed = net.repair_stats;
    r.count("searches", s.searches);
    r.count("settled", s.settled);
    r.count("relaxations", s.relaxations);
    r.count("entries_invalidated", s.entries_invalidated);
    r.count("repaired_via_alternate", fixed.repaired_via_alternate);
    r.count("repaired_via_synthesis", fixed.repaired_via_synthesis);
    r.count("repair_failures", fixed.failures);
    r.count("live_flows", net.open_flow_count() as u64);
    if net.total_stale_forwards() != 0 {
        r.fail("a stale handle forwarded a packet");
    }
    if !cx.traced() {
        return;
    }
    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    let repaired = fixed.repaired_via_alternate + fixed.repaired_via_synthesis;
    cx.put("core.synthesis.searches", s.searches as f64);
    cx.put(
        "core.synthesis.settled_per_search",
        ratio(s.settled, s.searches),
    );
    cx.put(
        "core.synthesis.relaxations_per_search",
        ratio(s.relaxations, s.searches),
    );
    cx.put(
        "core.synthesis.cache_hit_ratio",
        ratio(s.cache_hits, s.requests),
    );
    cx.put(
        "core.synthesis.entries_invalidated",
        s.entries_invalidated as f64,
    );
    cx.put(
        "core.synthesis.revalidate_hit_ratio",
        ratio(s.revalidate_hits, s.revalidations),
    );
    cx.put(
        "core.network.view_full_installs",
        net.obs.metrics.counter("view_full_installs") as f64,
    );
    cx.put(
        "core.network.repaired_ratio",
        ratio(repaired, repaired + fixed.failures),
    );
    cx.put(
        "core.network.repair_alternate_ratio",
        ratio(fixed.repaired_via_alternate, repaired),
    );
}

// ---------------------------------------------------------------- open

/// `orwg-open`.
pub struct Open;

impl Kind for Open {
    type Extra = ();

    fn spec(quick: bool) -> Spec {
        let shape = Shape::e_series(if quick { 1 } else { 5 });
        Spec {
            shape,
            structural: false,
            // 20 distinct flows per Route Server: the working set neither
            // fits nor misses the 1024-entry cache by accident.
            flows: 20 * shape.ads(),
            links: if quick { 4 } else { 8 },
            packets_per_flow: 20,
        }
    }

    fn extra(_: &Base, _: u64, _: bool, _: &mut Cx) {}

    fn stages(
        w: &Orwg<Open>,
        _: Engine<OrwgProtocol>,
        mut net: OrwgNetwork,
        cx: &mut Cx,
        r: &mut Round,
        audit: bool,
    ) {
        /// Warm passes per round: each re-opens every flow against a
        /// cache that now holds its route.
        const WARM_PASSES: usize = 5;
        let b = &w.base;

        // Route: every flow opened cold — a search, then the setup walk.
        let allocs = alloc::allocs();
        let mut opened: Vec<(usize, Vec<AdId>)> = Vec::new();
        let (mut no_route, mut validations, mut header_bytes, mut hash) = (0u64, 0u64, 0u64, 0u64);
        let timed = cx.begin(Phase::Route);
        for (i, f) in b.flows.iter().enumerate() {
            match cx.tr.call("core.network.open", || net.open(f)) {
                Ok(s) => {
                    validations += s.validations as u64;
                    header_bytes += s.header_bytes as u64;
                    hash = hash_path(hash, &s.route);
                    if audit && i < AUDIT_FLOWS {
                        opened.push((i, s.route));
                    }
                }
                Err(OpenError::NoRoute) => no_route += 1,
                Err(e) => r.fail(format!("open {}->{}: {e:?}", f.src, f.dst)),
            }
        }
        cx.end(timed, r);
        r.routes += b.flows.len() as u64;
        let ok = b.flows.len() as u64 - no_route;
        r.count("opened", ok);
        r.count("no_route", no_route);
        r.count("route_hash", hash);
        r.count("validations", validations);
        r.count("header_bytes", header_bytes);
        if cx.traced() {
            cx.sample(
                "core.network.allocs_per_open",
                (alloc::allocs() - allocs) as f64 / b.flows.len() as f64,
            );
            cx.put(
                "core.gateway.validations_per_open",
                validations as f64 / ok as f64,
            );
            cx.put(
                "core.gateway.header_bytes_per_open",
                header_bytes as f64 / ok as f64,
            );
        }

        // Warm: tear everything down (untimed), open it all again.
        let mut warm_s = 0.0;
        for _ in 0..WARM_PASSES {
            let span = cx.tr.enter("core.network.teardown");
            for h in live_handles(&net) {
                net.teardown(h);
            }
            cx.tr.exit(span);
            let before = r.secs[Phase::Other as usize];
            let timed = cx.begin(Phase::Other);
            let mut reopened = 0u64;
            for f in &b.flows {
                reopened += u64::from(cx.tr.call("core.network.reopen", || net.open(f)).is_ok());
            }
            cx.end(timed, r);
            warm_s += r.secs[Phase::Other as usize] - before;
            if reopened != ok {
                r.fail(format!(
                    "a warm pass opened {reopened} flows, the cold one {ok}"
                ));
            }
        }
        if cx.traced() {
            cx.sample(
                "core.network.warm_opens_per_s",
                (WARM_PASSES * b.flows.len()) as f64 / warm_s,
            );
        }

        send_all(&mut net, b.spec.packets_per_flow, cx, r);
        fail_and_restore(&mut net, &b.links, cx, r);
        final_counts(&net, cx, r);
        if audit {
            b.audit_opens(&opened, r);
        }
    }

    /// The search alone: `synthesize` every flow on a fresh network, so
    /// `core.synthesis.request` is a span apart from the setup walk (which
    /// the warm re-opens isolate). Its search count must equal a round's.
    fn extras(w: &Orwg<Open>, cx: &mut Cx) {
        let (_, mut net) = w.base.cold_start(cx, &mut Round::default());
        for f in &w.base.flows {
            cx.tr.call("core.synthesis.request", || net.synthesize(f));
        }
        assert_eq!(
            net.total_searches(),
            w.base.flows.len() as u64,
            "one search per distinct cold flow"
        );
    }
}

// --------------------------------------------------------------- serve

/// `orwg-serve`.
pub struct Serve;

/// The storm, the driver's configuration, and what the audit expects.
pub struct ServeExtra {
    storm: OpenStorm,
    durations_us: Vec<u64>,
    cfg: StressConfig,
    /// The storm's first [`AUDIT_FLOWS`] distinct flows that the oracle
    /// finds no legal route for: none of them may end up served.
    unroutable: HashSet<FlowSpec>,
}

impl Kind for Serve {
    type Extra = ServeExtra;

    fn spec(quick: bool) -> Spec {
        Spec {
            shape: Shape::e_series(if quick { 1 } else { 2 }),
            structural: true,
            flows: 0,
            links: 4,
            packets_per_flow: 5,
        }
    }

    fn extra(b: &Base, _seed: u64, quick: bool, cx: &mut Cx) -> ServeExtra {
        let phase_ms = if quick { 20 } else { 50 };
        let phases: Vec<StormPhase> = STORM_RATES
            .iter()
            .map(|&opens_per_sec| StormPhase {
                duration_ms: phase_ms,
                opens_per_sec,
            })
            .collect();
        // The storm and the clients' retry jitter are canonical, like the
        // internet: how many opens time out and are abandoned — each a
        // scan of every open flow and every gateway table, most of the
        // ramp's wall time — swings by a factor of three between two
        // draws of one storm, and by a tenth between two jitter seeds.
        // On this workload `--seed` only orders the link events.
        let storm = OpenStorm::draw(&b.topo, &phases, SimTime::ZERO, INTERNET_SEED);
        let mut seen = HashSet::new();
        let sample: Vec<FlowSpec> = storm
            .arrivals()
            .iter()
            .map(|a| FlowSpec::best_effort(a.src, a.dst))
            .filter(|f| seen.insert(*f))
            .take(AUDIT_FLOWS)
            .collect();
        let truth = oracle::truth(&b.topo, &b.db, &sample, cx);
        let unroutable = sample
            .into_iter()
            .zip(truth)
            .filter_map(|(f, legal)| (!legal).then_some(f))
            .collect();
        ServeExtra {
            storm,
            durations_us: phases.iter().map(|p| p.duration_ms * 1000).collect(),
            // Service costs as `adroute stress`: full synthesis 6 ms, a
            // cached answer 1.2 ms, a stored-only answer 0.6 ms.
            cfg: StressConfig {
                seed: INTERNET_SEED,
                sharding: Some(ShardConfig::default()),
                service_full_us: 6_000,
                service_cached_us: 1_200,
                service_stored_us: 600,
                ..StressConfig::default()
            },
            unroutable,
        }
    }

    fn stages(
        w: &Orwg<Serve>,
        _: Engine<OrwgProtocol>,
        mut net: OrwgNetwork,
        cx: &mut Cx,
        r: &mut Round,
        audit: bool,
    ) {
        let (b, x) = (&w.base, &w.extra);

        // Route: the whole storm through admission, brownout, retries and
        // batched synthesis. Open-loop in simulated time, as fast as the
        // host allows in wall time.
        let timed = cx.begin(Phase::Route);
        let report: StressReport = cx.tr.call("core.overload.ramp", || {
            run_load_ramp(&mut net, &x.storm, &x.durations_us, &x.cfg)
        });
        cx.end(timed, r);
        r.routes += report.served;
        let attempts = report.offered + report.retries;
        for (key, n) in [
            ("offered", report.offered),
            ("served", report.served),
            ("shed", report.shed),
            ("abandoned", report.abandoned),
            ("storm_no_route", report.no_route),
            ("failed_walks", report.failed),
            ("retries", report.retries),
            ("p50_wait_us_sim", report.p50_wait_us),
            ("p99_wait_us_sim", report.p99_wait_us),
        ] {
            r.count(key, n);
        }
        if report.failed > 0 {
            r.fail(format!("{} setup walks failed in the storm", report.failed));
        }
        let sweep = net.aggregate_sweep_stats();
        r.count("sweeps", sweep.sweeps);
        r.count("hot_hits", sweep.hot_hits);
        if cx.traced() {
            cx.put("core.overload.attempts", attempts as f64);
            cx.put(
                "core.overload.shed_ratio",
                report.shed as f64 / attempts as f64,
            );
            cx.put(
                "core.overload.abandoned_ratio",
                report.abandoned as f64 / report.offered as f64,
            );
            cx.put("core.overload.p50_wait_us_sim", report.p50_wait_us as f64);
            cx.put("core.overload.p99_wait_us_sim", report.p99_wait_us as f64);
            cx.put("core.synthesis.sweeps", sweep.sweeps as f64);
            cx.put(
                "core.synthesis.sweep_fanout",
                sweep.batch_flows as f64 / sweep.sweeps.max(1) as f64,
            );
            cx.put(
                "core.synthesis.hot_hit_ratio",
                sweep.hot_hits as f64 / sweep.batch_flows.max(1) as f64,
            );
            cx.put("core.synthesis.refills", sweep.refills as f64);
        }

        if audit {
            // Every served route is legal, and nothing the oracle calls
            // unroutable was served.
            for (_, of) in net.open_flows() {
                if route_is_legal(&b.topo, &b.db, &of.flow, &of.route).is_none() {
                    r.fail(format!(
                        "served flow {}->{} rides an illegal route",
                        of.flow.src, of.flow.dst
                    ));
                }
                if x.unroutable.contains(&of.flow) {
                    r.fail(format!(
                        "flow {}->{} was served but the oracle finds no legal route",
                        of.flow.src, of.flow.dst
                    ));
                }
            }
            r.audit
                .insert("audited_flows".into(), net.open_flow_count() as u64);
        }

        // Data: packets on every flow the storm left open.
        send_all(&mut net, b.spec.packets_per_flow, cx, r);
        fail_and_restore(&mut net, &b.links, cx, r);
        final_counts(&net, cx, r);
    }

    /// The storm's flows, per source, through `request_batch` on a fresh
    /// network: synthesis time without the driver, so `ramp_ms` minus the
    /// batch time is the driver's share.
    fn extras(w: &Orwg<Serve>, cx: &mut Cx) {
        let (_, mut net) = w.base.cold_start(cx, &mut Round::default());
        let mut by_src: Vec<Vec<FlowSpec>> = vec![Vec::new(); w.base.topo.num_ads()];
        for a in w.extra.storm.arrivals() {
            by_src[a.src.index()].push(FlowSpec::best_effort(a.src, a.dst));
        }
        let shards = ShardConfig::default().shards;
        let t = Instant::now();
        let mut flows = 0usize;
        for (src, batch) in by_src.iter().enumerate() {
            flows += batch.len();
            net.server_mut(AdId(src as u32))
                .request_batch(batch, shards);
        }
        cx.put(
            "core.synthesis.batch_us_per_flow",
            t.elapsed().as_secs_f64() * 1e6 / flows as f64,
        );
    }
}

// --------------------------------------------------------------- churn

/// `orwg-churn`.
pub struct Churn;

impl Kind for Churn {
    type Extra = ();

    fn spec(quick: bool) -> Spec {
        Spec {
            shape: Shape::e_series(if quick { 1 } else { 5 }),
            structural: false,
            flows: if quick { 300 } else { 2000 },
            links: if quick { 2 } else { 4 },
            packets_per_flow: 10,
        }
    }

    fn extra(_: &Base, _: u64, _: bool, _: &mut Cx) {}

    fn stages(
        w: &Orwg<Churn>,
        mut engine: Engine<OrwgProtocol>,
        mut net: OrwgNetwork,
        cx: &mut Cx,
        r: &mut Round,
        audit: bool,
    ) {
        let b = &w.base;

        // Route: every flow opened with spare routes for later repair.
        let mut opened: Vec<(usize, Vec<AdId>)> = Vec::new();
        let timed = cx.begin(Phase::Route);
        for (i, f) in b.flows.iter().enumerate() {
            let setup = cx
                .tr
                .call("core.network.open_repairable", || net.open_repairable(f));
            match setup {
                Ok(s) if audit => opened.push((i, s.route)),
                Ok(_) | Err(OpenError::NoRoute) => {}
                Err(e) => r.fail(format!("open {}->{}: {e:?}", f.src, f.dst)),
            }
        }
        cx.end(timed, r);
        r.routes += b.flows.len() as u64;
        r.count("opened", net.open_flow_count() as u64);
        if audit {
            b.audit_opens(&opened, r);
        }

        let requiesce = |engine: &mut Engine<OrwgProtocol>, link, up, cx: &mut Cx| {
            let at = engine.now().plus_us(1000);
            engine.schedule_link_change(link, up, at);
            cx.tr
                .call("core.router.requiesce", || engine.run_to_quiescence());
        };
        let flooded = engine.stats.events;
        for &link in &b.links {
            // Adapt: the link fails in the engine, the flood re-quiesces,
            // every Route Server absorbs its new view, broken flows are
            // repaired (spares first, then fresh synthesis).
            let timed = cx.begin(Phase::Adapt);
            requiesce(&mut engine, link, false, cx);
            cx.tr
                .call("core.network.refresh", || net.refresh_from_engine(&engine));
            cx.tr
                .call("core.network.repair", || net.repair_pending(REPAIR_RETRIES));
            cx.end(timed, r);

            // Data beside the writes: packets on every live flow.
            r.count("live_while_down", net.open_flow_count() as u64);
            send_all(&mut net, b.spec.packets_per_flow, cx, r);
            if audit {
                audit_while_down(b, &net, cx, r);
            }

            let timed = cx.begin(Phase::Adapt);
            requiesce(&mut engine, link, true, cx);
            cx.tr
                .call("core.network.refresh", || net.refresh_from_engine(&engine));
            cx.end(timed, r);
            r.events += 2;

            // With the link healed, flows no repair could save are opened
            // again (untimed): every link event meets the same population.
            let span = cx.tr.enter("core.network.restore_population");
            let live: HashSet<FlowSpec> = net.open_flows().map(|(_, of)| of.flow).collect();
            for f in b.flows.iter().filter(|f| !live.contains(f)) {
                let _ = net.open_repairable(f);
            }
            cx.tr.exit(span);
        }
        r.count("reflood_events", engine.stats.events - flooded);
        if !engine.stats.conserves_messages() {
            r.fail("control-plane messages not conserved after the link events");
        }
        final_counts(&net, cx, r);
    }
}

/// With a link down: every live route is legal on the current ground
/// truth, and a flow is live exactly when a legal route exists there.
fn audit_while_down(b: &Base, net: &OrwgNetwork, cx: &mut Cx, r: &mut Round) {
    let mut live: HashSet<FlowSpec> = HashSet::new();
    for (_, of) in net.open_flows() {
        live.insert(of.flow);
        if route_is_legal(net.topo(), net.policies(), &of.flow, &of.route).is_none() {
            r.fail(format!(
                "flow {}->{} rides an illegal route after repair",
                of.flow.src, of.flow.dst
            ));
        }
    }
    for f in b.flows.iter().take(AUDIT_FLOWS) {
        let (legal, _) = oracle::routable(net.topo(), net.policies(), f, cx);
        if legal != live.contains(f) {
            r.fail(format!(
                "flow {}->{}: live={} but the oracle says routable={legal}",
                f.src, f.dst, !legal
            ));
        }
    }
}
