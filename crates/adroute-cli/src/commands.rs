//! The CLI subcommands. Every command is a pure function from parsed
//! arguments (plus file contents) to an output string, so the whole tool
//! is unit-testable without spawning processes.

use std::fmt::Write as _;
use std::fs;

use adroute_core::{
    OrwgNetwork, OrwgProtocol, PolicyImpact, SetupRetryPolicy, ShardConfig, Strategy,
    ViewMaintenance,
};
use adroute_policy::text::{format_policies, parse_policies, parse_policy};
use adroute_policy::workload::PolicyWorkload;
use adroute_policy::{legality, FlowSpec, PolicyDb, QosClass, TimeOfDay, UserClass};
use adroute_protocols::forwarding::{forward, DataPlane};
use adroute_protocols::{
    ecma::Ecma, gossip::Gossip, ls_hbh::LsHbh, naive_dv::NaiveDv, path_vector::PathVector,
};
use adroute_sim::{
    CausalGraph, ChannelFaults, CrashModel, Engine, EventLog, FailureModel, FaultPlan, FaultSpec,
    JsonWriter, MetricsRegistry, MisbehaviorModel, MisbehaviorSpec, Profiler, Protocol, SimTime,
    Stats,
};
use adroute_topology::{analysis, io as topo_io, AdId, HierarchyConfig, LinkId, Topology};

use crate::args::{bail, Args, CliError};
use crate::scenario::{self, most_transited, run_byzantine, AuditRun};

/// Top-level usage text.
pub const USAGE: &str = "\
adroute — inter-AD policy routing tools (SIGCOMM 1990 design space)

USAGE: adroute <command> [--flag value]...

COMMANDS:
  gen-topo      --ads N [--seed S --lateral P --bypass P --multihome P --out FILE]
                generate a Figure-1-style internet (text format to stdout/FILE)
  gen-policies  --topo FILE [--granularity G --seed S --out FILE]
                generate a policy workload for a topology
  route         --topo FILE --src A --dst B [--policies FILE --qos Q --uci U --time HH:MM]
                find the least-cost policy-legal route (oracle + ORWG setup)
  audit         <quickstart|e7b> [--json --trace FILE]
                run the byzantine audit lifecycle on a fixed scenario: a
                forged-ack rogue AD is injected, the policy-violation
                tripwire detects it, quarantine tears its transits down,
                and repair reconverges every flow policy-legally
                (--json for machines, --trace exports the event stream);
                or: --topo FILE [--tree true] for the structural
                resilience report (articulation ADs, degrees, hierarchy)
  impact        --topo FILE --policies FILE --candidate FILE [--flows N --seed S]
                predict the effect of a candidate policy before deploying it
  chaos         [--ads N --seed S --duration MS --loss P --flows N
                 --view incremental|flush --byzantine [forged-ack]
                 --trace FILE]
                run the ORWG control and data planes through a seeded fault
                plan (link churn, lossy channels, router crashes) and report
                recovery metrics; --view picks how Route Servers absorb
                re-flooded changes (incremental invalidation vs full flush);
                --byzantine additionally turns one transit AD rogue
                (forged setup acks) and runs detection + quarantine;
                --trace exports the typed event stream as JSON Lines
  report        [--ads N --seed S --flows N --json]
                run every design point (dv, ecma, pv, ls-hbh, orwg) through
                convergence and a trunk failure on one seeded internet and
                report convergence times, message complexity, per-AD load,
                and route-setup latency histograms (--json for machines)
  trace         [--ads N --seed S --duration MS --loss P
                 --proto orwg|dv|ecma|pv|ls-hbh --capacity N --out FILE
                 --analyze]
                export one engine run (convergence, then seeded churn) as a
                typed JSON Lines event stream; --analyze prints the causal
                analysis (critical path + storm report) instead
  blame         <quickstart|e7b> [--json]
                run a fixed scenario and attribute its churn: the critical
                path of causally-linked events that gated convergence, and
                a per-root-cause storm report (--json for machines)
  stress        <quickstart|e9b> [--json --trace FILE --sharded]
                drive an open-request load ramp across the Route Servers'
                saturation point: admission queues defer, the brownout
                ladder degrades synthesis (full -> cached -> stored),
                overflow is shed with NACK + retry-after, clients retry
                under a deadline budget, and a mid-peak Route Server
                crash fails over to its warm standby (--json for
                machines, --trace exports the event stream, --sharded
                serves batches of co-routable opens per slot through
                shared multi-destination sweeps and refills invalidated
                cache entries in idle slots)
  profile       <quickstart|e7b|e13|e14> [--json --folded --top N
                 --ads N --loss P --out FILE]
                run a fixed scenario with the self-profiler attached and
                render its span tree: monotonic self/total wall time per
                span plus the deterministic work ledger, whose counters
                are byte-identical across repeat runs. quickstart/e7b
                profile the ORWG engine lifecycle (converge + trunk cut)
                then a sharded serve ramp; e13 the gossip flood (--loss
                attaches an event-keyed faulty channel so the faulted
                dispatch path is what gets profiled); e14 full sharded
                e9b serving (--json for machines, --folded for
                flamegraph.pl, default a top-N self-time table)
  help          this text
";

fn load_topo(path: &str) -> Result<Topology, CliError> {
    let text = fs::read_to_string(path)
        .map_err(|e| CliError(format!("cannot read topology '{path}': {e}")))?;
    topo_io::parse(&text).map_err(|e| CliError(format!("topology '{path}': {e}")))
}

fn load_policies(path: Option<&str>, topo: &Topology) -> Result<PolicyDb, CliError> {
    match path {
        None => Ok(PolicyDb::permissive(topo)),
        Some(p) => {
            let text = fs::read_to_string(p)
                .map_err(|e| CliError(format!("cannot read policies '{p}': {e}")))?;
            parse_policies(&text, topo.num_ads())
                .map_err(|e| CliError(format!("policies '{p}': {e}")))
        }
    }
}

/// The `--json` envelope: `{"<command>":{…}}` on one line.
fn wrap_json(command: &str, body: String) -> String {
    let mut out = JsonWriter::object().put(command, body).finish();
    out.push('\n');
    out
}

fn emit(out: &str, target: Option<&str>) -> Result<String, CliError> {
    match target {
        None => Ok(out.to_string()),
        Some(path) => {
            fs::write(path, out).map_err(|e| CliError(format!("cannot write '{path}': {e}")))?;
            Ok(format!("wrote {} bytes to {path}\n", out.len()))
        }
    }
}

/// Writes a `--trace` export and appends the human `trace:` line to
/// `out` — except under `--json`, where stdout stays exactly one JSON
/// value.
fn write_trace(path: &str, jsonl: &str, json: bool, out: &mut String) -> Result<(), CliError> {
    fs::write(path, jsonl).map_err(|e| CliError(format!("cannot write trace '{path}': {e}")))?;
    if !json {
        let _ = writeln!(out, "trace: wrote {} bytes to {path}", jsonl.len());
    }
    Ok(())
}

/// `--duration` in ms. Fault plans schedule in µs up to some twenty
/// horizons past the converged clock (an exponential dwell drawn near
/// the end of one), so the bound keeps that far inside a `u64`.
fn opt_duration_ms(args: &Args, default: u64) -> Result<u64, CliError> {
    const MAX_MS: u64 = 1_000_000_000_000;
    let ms: u64 = args.opt_parse("duration", default)?;
    if ms > MAX_MS {
        return bail(format!("--duration must be at most {MAX_MS} milliseconds"));
    }
    Ok(ms)
}

/// An optional flag that feeds a Bernoulli draw: NaN and anything outside
/// [0, 1] would panic in the generator, so they stop here.
fn opt_probability(args: &Args, key: &str, default: f64) -> Result<f64, CliError> {
    let p: f64 = args.opt_parse(key, default)?;
    if !(0.0..=1.0).contains(&p) {
        return bail(format!("--{key} must be a probability in [0, 1]"));
    }
    Ok(p)
}

/// `gen-topo`: generate and dump an internet.
pub fn gen_topo(args: &Args) -> Result<String, CliError> {
    args.known(&["ads", "seed", "lateral", "bypass", "multihome", "out"])?;
    let ads: usize = args.req_parse("ads")?;
    let cfg = HierarchyConfig {
        lateral_prob: opt_probability(args, "lateral", 0.25)?,
        bypass_prob: opt_probability(args, "bypass", 0.1)?,
        multihome_prob: opt_probability(args, "multihome", 0.2)?,
        ..HierarchyConfig::with_approx_size(ads, args.opt_parse("seed", 1990)?)
    };
    let topo = cfg.generate();
    emit(&topo_io::dump(&topo), args.opt("out"))
}

/// `gen-policies`: generate a policy workload for an existing topology.
pub fn gen_policies(args: &Args) -> Result<String, CliError> {
    args.known(&["topo", "granularity", "seed", "out"])?;
    let topo = load_topo(args.req("topo")?)?;
    let seed = args.opt_parse("seed", 1990)?;
    let g: u8 = args.opt_parse("granularity", 0)?;
    let db = if g == 0 {
        PolicyWorkload::default_mix(seed).generate(&topo)
    } else {
        PolicyWorkload::granularity(g, seed).generate(&topo)
    };
    emit(&format_policies(&db), args.opt("out"))
}

fn parse_hm(s: &str) -> Result<TimeOfDay, CliError> {
    let Some((h, m)) = s.split_once(':') else {
        return bail(format!("expected HH:MM, found '{s}'"));
    };
    match (h.parse::<u16>(), m.parse::<u16>()) {
        (Ok(h), Ok(m)) if h < 24 && m < 60 => Ok(TimeOfDay::hm(h, m)),
        _ => bail(format!("bad time '{s}'")),
    }
}

/// `route`: oracle route plus ORWG setup preview for one flow.
pub fn route(args: &Args) -> Result<String, CliError> {
    args.known(&["topo", "policies", "src", "dst", "qos", "uci", "time"])?;
    let topo = load_topo(args.req("topo")?)?;
    let db = load_policies(args.opt("policies"), &topo)?;
    let src = AdId(args.req_parse("src")?);
    let dst = AdId(args.req_parse("dst")?);
    if src.index() >= topo.num_ads() || dst.index() >= topo.num_ads() {
        return bail("src/dst outside the topology");
    }
    let mut flow = FlowSpec::best_effort(src, dst)
        .with_qos(QosClass(args.opt_parse("qos", 0u8)?))
        .with_uci(UserClass(args.opt_parse("uci", 0u8)?));
    if let Some(t) = args.opt("time") {
        flow = flow.at(parse_hm(t)?);
    }
    let mut out = String::new();
    let _ = writeln!(out, "flow: {flow}");
    match legality::legal_route(&topo, &db, &flow) {
        None => {
            let _ = writeln!(out, "no policy-legal route exists");
        }
        Some(r) => {
            let path: Vec<String> = r.path.iter().map(|a| a.to_string()).collect();
            let _ = writeln!(
                out,
                "route: {}  (cost {}, {} hops)",
                path.join(" -> "),
                r.cost,
                r.hops()
            );
            let mut net = OrwgNetwork::converged(&topo, &db);
            match net.open(&flow) {
                Ok(setup) => {
                    let _ = writeln!(
                        out,
                        "setup: {} gateway validations, {} header bytes, {} us; data header {} bytes/pkt",
                        setup.validations,
                        setup.header_bytes,
                        setup.latency_us,
                        adroute_core::DataPacket::HEADER_SIZE
                    );
                }
                Err(e) => {
                    let _ = writeln!(out, "setup failed: {e:?}");
                }
            }
        }
    }
    Ok(out)
}

/// `audit <scenario>`: the byzantine audit lifecycle on a fixed, seeded
/// scenario — inject a forged-ack rogue, detect it with the runtime
/// policy-violation tripwire, quarantine it, and verify policy-legal
/// reconvergence.
fn audit_byzantine(args: &Args) -> Result<String, CliError> {
    args.known_with_positionals(&["json", "trace"])?;
    let json = args.opt_parse("json", false)?;
    let trace_path = args.opt("trace");
    let scenario = args.positional_one("scenario")?.to_string();
    let sc = scenario::named("audit", &scenario)?;
    let (topo, seed) = (&sc.topo, sc.seed);
    let Some(AuditRun {
        net,
        opened,
        fresh,
        bz,
    }) = scenario::audit_run(&sc)
    else {
        return bail(format!("audit {scenario}: no open flow transits any AD"));
    };
    let reconverged = bz.violating_after == 0;
    let mut out = String::new();
    if json {
        let detection = bz.detection.as_ref().map(|a| {
            JsonWriter::object()
                .put_str("detector", a.detector)
                .put("tick", a.tick)
                .put("evidence", a.evidence)
                .finish()
        });
        let quarantine = JsonWriter::object()
            .put("entered", 1)
            .put("torn", bz.torn)
            .put("repaired_alternate", bz.repair.repaired_via_alternate)
            .put("repaired_synthesis", bz.repair.repaired_via_synthesis)
            .put("unrepairable", bz.repair.failures)
            .finish();
        let audit = JsonWriter::object()
            .put_str("scenario", &scenario)
            .put("ads", topo.num_ads())
            .put("links", topo.num_links())
            .put("seed", seed)
            .put_str("rogue", &bz.rogue.to_string())
            .put_str("model", "forged-ack")
            .put("flows_open", opened)
            .put("violating_before", bz.violating_before)
            .put_opt("detection", detection)
            .put("quarantine", quarantine)
            .put("violating_after", bz.violating_after)
            .put("reconverged_legal", reconverged)
            .put("metrics", net.obs.metrics.to_json())
            .finish();
        out = wrap_json("audit", audit);
    } else {
        let _ = writeln!(
            out,
            "audit {scenario}: {} ADs, {} links, seed {seed}",
            topo.num_ads(),
            topo.num_links()
        );
        let _ = writeln!(
            out,
            "inject: {} turns rogue (forged-ack): actual policy deny-all, flooded views stale",
            bz.rogue
        );
        let _ = writeln!(
            out,
            "flows: {opened} open before, {fresh} fresh setups after; {} violating ground-truth policy",
            bz.violating_before
        );
        match &bz.detection {
            Some(a) => {
                let _ = writeln!(
                    out,
                    "detect: {} tripwire fired on tick {} ({} violating observations)",
                    a.detector, a.tick, a.evidence
                );
            }
            None => {
                let _ = writeln!(out, "detect: no alarm fired");
            }
        }
        let _ = writeln!(
            out,
            "contain: quarantined {}; {} transiting flows torn down",
            bz.rogue, bz.torn
        );
        let _ = writeln!(
            out,
            "repair: {} via cached alternate, {} via fresh synthesis, {} unrepairable",
            bz.repair.repaired_via_alternate, bz.repair.repaired_via_synthesis, bz.repair.failures
        );
        let _ = writeln!(
            out,
            "verify: {} flows violating after containment (policy-legal reconvergence: {reconverged})",
            bz.violating_after
        );
        if let (Some(i), Some(a), Some(q)) = (bz.inject, bz.detection.as_ref(), bz.enter) {
            if let Some(ae) = a.event {
                let _ = writeln!(
                    out,
                    "causal chain: misbehavior-inject #{} -> monitor-alarm #{} -> \
                     quarantine-enter #{} -> {} setup-repair descendants",
                    i.0, ae.0, q.0, bz.torn
                );
            }
        }
    }
    if let Some(path) = trace_path {
        write_trace(path, &net.obs.log.export_jsonl(), json, &mut out)?;
    }
    Ok(out)
}

/// `audit`: with a scenario operand, the byzantine audit lifecycle
/// (`audit_byzantine`); with `--topo`, the structural resilience
/// report.
pub fn audit(args: &Args) -> Result<String, CliError> {
    if args.has_positionals() {
        return audit_byzantine(args);
    }
    args.known(&["topo", "tree"])?;
    let topo = load_topo(args.req("topo")?)?;
    let stats = analysis::degree_stats(&topo);
    let arts = analysis::articulation_ads(&topo);
    let (h, l, b) = topo.link_kind_counts();
    let (s, m, t, hy) = topo.role_counts();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "ADs: {}  links: {} ({h} hierarchical, {l} lateral, {b} bypass)",
        topo.num_ads(),
        topo.num_links()
    );
    let _ = writeln!(
        out,
        "roles: {s} stub, {m} multi-homed, {t} transit, {hy} hybrid"
    );
    let _ = writeln!(
        out,
        "degree: min {} / mean {:.2} / max {}",
        stats.min, stats.mean, stats.max
    );
    let _ = writeln!(
        out,
        "connected: {}",
        adroute_topology::algo::is_connected(&topo)
    );
    let _ = writeln!(out, "articulation ADs ({}):", arts.len());
    for a in &arts {
        let ad = topo.ad(*a);
        let _ = writeln!(out, "  {} ({} {})", a, ad.level, ad.role);
    }
    if args.opt_parse("tree", false)? {
        let _ = writeln!(out, "\nhierarchy:");
        out.push_str(&adroute_topology::render_tree(&topo));
    }
    Ok(out)
}

/// `impact`: assess a candidate policy against a sampled traffic matrix.
pub fn impact(args: &Args) -> Result<String, CliError> {
    args.known(&["topo", "policies", "candidate", "flows", "seed"])?;
    let topo = load_topo(args.req("topo")?)?;
    let db = load_policies(args.opt("policies"), &topo)?;
    let cand_path = args.req("candidate")?;
    let cand_text = fs::read_to_string(cand_path)
        .map_err(|e| CliError(format!("cannot read candidate '{cand_path}': {e}")))?;
    let candidate =
        parse_policy(&cand_text).map_err(|e| CliError(format!("candidate '{cand_path}': {e}")))?;
    if candidate.ad.index() >= topo.num_ads() {
        return bail("candidate policy names an AD outside the topology");
    }
    let flows = adroute_protocols::forwarding::sample_flows(
        &topo,
        args.opt_parse("flows", 200usize)?,
        args.opt_parse("seed", 1990u64)?,
    );
    let i = PolicyImpact::assess(&topo, &db, candidate, &flows);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "candidate policy for {} over {} sampled flows:",
        args.req("candidate")?,
        i.flows
    );
    let _ = writeln!(out, "  safe (no flow stranded): {}", i.is_safe());
    let _ = writeln!(
        out,
        "  routable: {} -> {}",
        i.routable_before, i.routable_after
    );
    let _ = writeln!(out, "  rerouted: {}", i.rerouted);
    let _ = writeln!(
        out,
        "  transit share: {} -> {} (delta {:+})",
        i.transit_before,
        i.transit_after,
        i.transit_delta()
    );
    let _ = writeln!(out, "  revenue proxy: {} -> {}", i.revenue.0, i.revenue.1);
    let _ = writeln!(
        out,
        "  mean route cost: {:.2} -> {:.2}",
        i.mean_cost.0, i.mean_cost.1
    );
    for f in i.broken.iter().take(10) {
        let _ = writeln!(out, "  would strand: {f}");
    }
    if i.broken.len() > 10 {
        let _ = writeln!(out, "  … and {} more", i.broken.len() - 10);
    }
    Ok(out)
}

/// `chaos`: a full fault-injection sweep over the ORWG architecture.
///
/// Converges the flooding control plane, applies a seeded healed
/// [`FaultPlan`] (link churn + lossy/reordering channels + router
/// crashes), re-runs to quiescence, then drives the data plane through a
/// gateway crash and a link failure with lossy setups, repairing torn
/// flows from cached alternates before fresh synthesis. The link failure
/// is delivered through the control plane — flooded, re-quiesced, and
/// absorbed by each Route Server per `--view` (incremental invalidation
/// by default, full flush as the oracle). All randomness is seeded: the
/// same arguments always print the same report.
pub fn chaos(args: &Args) -> Result<String, CliError> {
    args.known(&[
        "ads",
        "seed",
        "duration",
        "loss",
        "flows",
        "view",
        "byzantine",
        "trace",
        "partition",
    ])?;
    let trace_path = args.opt("trace");
    let ads: usize = args.opt_parse("ads", 40)?;
    let seed: u64 = args.opt_parse("seed", 1990)?;
    let duration_ms = opt_duration_ms(args, 400)?;
    if duration_ms == 0 {
        return bail("--duration must be a positive number of milliseconds");
    }
    let partition = args.opt_parse("partition", false)?;
    let loss: f64 = args.opt_parse("loss", 0.05)?;
    if !(0.0..=0.5).contains(&loss) {
        return bail("--loss must be in [0, 0.5]");
    }
    let n_flows: usize = args.opt_parse("flows", 30)?;
    let byz_model = match args.opt("byzantine") {
        None => None,
        Some("true") | Some("forged-ack") => Some(MisbehaviorModel::ForgedAck),
        Some(tag) => match MisbehaviorModel::parse(tag) {
            Some(m) => {
                return bail(format!(
                    "--byzantine: chaos drives the ORWG data plane, which supports forged-ack; \
                     '{}' targets the hop-by-hop engines (see `adroute audit`)",
                    m.tag()
                ))
            }
            None => {
                return bail(format!(
                    "--byzantine: unknown misbehavior model '{tag}'; models: {}",
                    MisbehaviorModel::ALL.map(|m| m.tag()).join(", ")
                ))
            }
        },
    };
    if byz_model.is_some() && n_flows == 0 {
        return bail("--byzantine needs open flows to audit; raise --flows above 0");
    }
    let view = args.opt("view").unwrap_or("incremental");
    let mode = match view {
        "incremental" => ViewMaintenance::Incremental,
        "flush" => ViewMaintenance::Flush,
        other => {
            return bail(format!(
                "--view must be incremental or flush, found '{other}'"
            ))
        }
    };

    let topo = HierarchyConfig::with_approx_size(ads, seed).generate();
    // Structural policies only (stubs refuse transit): under the
    // customer-cone mix, nearly every topological detour is policy-denied
    // and a hub crash can only demonstrate disconnection. The chaos demo
    // is about recovery, so it runs in the policy regime where recovery
    // is possible; the experiment suite covers the restrictive mixes.
    let db = PolicyWorkload::structural(seed).generate(&topo);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "chaos: {} ADs, {} links, seed {seed}",
        topo.num_ads(),
        topo.num_links()
    );

    // Phase 1: control plane under the fault plan.
    let mut e = Engine::new(topo.clone(), OrwgProtocol::new(&topo, db.clone()));
    if trace_path.is_some() {
        e.enable_obs(65536);
    }
    e.begin_phase("converge");
    e.run_to_quiescence();
    let spec = FaultSpec {
        link_model: Some(FailureModel {
            mtbf_ms: duration_ms as f64 / 3.0,
            mttr_ms: duration_ms as f64 / 8.0,
            fallible_fraction: 0.3,
            seed: seed ^ 0x11,
        }),
        crash_model: Some(CrashModel {
            mtbf_ms: duration_ms as f64 / 2.0,
            mttr_ms: duration_ms as f64 / 8.0,
            fallible_fraction: 0.15,
            seed: seed ^ 0x22,
        }),
        channel: Some(ChannelFaults::lossy(loss, seed ^ 0x33)),
        misbehavior: MisbehaviorSpec::default(),
    };
    let mut plan = FaultPlan::draw(&topo, &spec, e.now(), duration_ms);
    if partition {
        // Split the flooding domain at the AD-index midpoint for the
        // first half of the horizon, then heal and reconcile.
        plan = plan.with_partition(
            &topo,
            (topo.num_ads() / 2) as u32,
            e.now().plus_us(1_000),
            e.now().plus_us(duration_ms * 500),
        );
    }
    let _ = writeln!(
        out,
        "plan: {} link events, {} router outages, channel loss {:.1}% over {duration_ms} ms",
        plan.link_events().events().len(),
        plan.outages().len(),
        loss * 100.0,
    );
    if let Some(p) = plan.partition_spec() {
        let _ = writeln!(
            out,
            "partition: {} cut links split {} | {} ADs, heal at {} us",
            p.cut.len(),
            p.split,
            topo.num_ads() as u32 - p.split,
            p.heal_at.as_us(),
        );
    }
    e.begin_phase("churn");
    plan.apply(&mut e);
    let t = e.run_to_quiescence();
    let _ = writeln!(
        out,
        "control plane: quiescent at {} us after {} events",
        t.0, e.stats.events
    );
    let _ = writeln!(
        out,
        "  crashes {}, restarts {}, msgs lost {}, corrupted {}, duplicated {}, reordered {}",
        e.stats.router_crashes,
        e.stats.router_restarts,
        e.stats.msgs_lost,
        e.stats.msgs_corrupted,
        e.stats.msgs_duplicated,
        e.stats.msgs_reordered,
    );
    let _ = writeln!(
        out,
        "  seq jumps {}, resyncs {}",
        e.stats.counter("ls_seq_jump"),
        e.stats.counter("ls_resync"),
    );
    let truth = e.topo().clone();
    let want = truth.links().filter(|l| l.up).count();
    let mut consistent = 0;
    let mut checked = 0;
    for ad in truth.ad_ids() {
        if truth.neighbors(ad).next().is_none() {
            continue; // ended the run isolated: its view is legitimately frozen
        }
        checked += 1;
        let (view, _) = e.router(ad).flooder.db.view();
        if view.links().filter(|l| l.up).count() == want {
            consistent += 1;
        }
    }
    let _ = writeln!(
        out,
        "  views consistent with ground truth: {consistent}/{checked} ADs"
    );

    // Phase 2: data plane — lossy setups, then a gateway crash and a link
    // failure, then repair.
    let mut net = OrwgNetwork::from_engine(
        &e,
        Strategy::Cached { capacity: 1024 },
        OrwgNetwork::DEFAULT_HANDLE_CAPACITY,
    );
    net.set_view_maintenance(mode);
    if trace_path.is_some() {
        net.enable_obs(16384);
    }
    net.set_setup_loss(loss, seed ^ 0x44);
    let rp = SetupRetryPolicy::default();
    let flows = adroute_protocols::forwarding::sample_flows(&topo, n_flows, seed);
    let (mut opened, mut no_route, mut timeouts, mut rejected) = (0u64, 0u64, 0u64, 0u64);
    for f in &flows {
        match net.open_with_retries(f, &rp) {
            Ok(_) => opened += 1,
            Err(adroute_core::network::OpenError::NoRoute) => no_route += 1,
            Err(adroute_core::network::OpenError::SetupTimeout) => timeouts += 1,
            Err(_) => rejected += 1,
        }
    }
    let _ = writeln!(
        out,
        "data plane: {} flows sampled; opened {opened}, no route {no_route}, \
         setup timeouts {timeouts}, rejected {rejected}, retransmits {}",
        flows.len(),
        net.repair_stats.setup_retransmits,
    );

    // Crash the busiest gateway whose transiting flows all keep a
    // policy-legal detour. In a Figure-1-style hierarchy the top hub is
    // usually a de-facto articulation point once policy constraints
    // apply — crashing it only demonstrates disconnection, not repair.
    let mut cands: Vec<AdId> = truth.ad_ids().collect();
    cands.sort_by_key(|&ad| (std::cmp::Reverse(truth.neighbors(ad).count()), ad.index()));
    let survivable = |victim: AdId| {
        let mut ghost = truth.clone();
        let doomed: Vec<_> = ghost
            .links()
            .filter(|l| l.a == victim || l.b == victim)
            .map(|l| l.id)
            .collect();
        for l in doomed {
            ghost.set_link_up(l, false);
        }
        let mut transiting = 0;
        for (_, of) in net.open_flows() {
            if of.route[1..of.route.len() - 1].contains(&victim) {
                transiting += 1;
                if legality::legal_route(&ghost, &db, &of.flow).is_none() {
                    return false;
                }
            }
        }
        transiting > 0
    };
    let victim = cands
        .iter()
        .copied()
        .find(|&c| survivable(c))
        .unwrap_or(cands[0]);
    // Pick the cut the same way: a carrying link away from the victim
    // whose loss (on top of the crash) still leaves every affected flow a
    // policy-legal detour — otherwise the demo cuts the backbone trunk
    // and "repairs" nothing.
    let mut ghost = truth.clone();
    let doomed: Vec<_> = ghost
        .links()
        .filter(|l| l.a == victim || l.b == victim)
        .map(|l| l.id)
        .collect();
    for l in doomed {
        ghost.set_link_up(l, false);
    }
    let uses = |route: &[AdId], a: AdId, b: AdId| {
        route
            .windows(2)
            .any(|w| (w[0] == a && w[1] == b) || (w[0] == b && w[1] == a))
    };
    let cut = truth
        .links()
        .filter(|l| l.up && l.a != victim && l.b != victim)
        .find(|l| {
            ghost.set_link_up(l.id, false);
            let ok = net.open_flows().all(|(_, of)| {
                let affected =
                    of.route[1..of.route.len() - 1].contains(&victim) || uses(&of.route, l.a, l.b);
                !affected || legality::legal_route(&ghost, &db, &of.flow).is_some()
            });
            if !ok {
                ghost.set_link_up(l.id, true);
            }
            ok
        })
        .map(|l| l.id)
        .or_else(|| {
            truth
                .links()
                .find(|l| l.up && l.a != victim && l.b != victim)
                .map(|l| l.id)
        })
        .expect("some link avoids the victim");
    let (ca, cb) = {
        let l = truth.link(cut);
        (l.a, l.b)
    };
    // Oracle ground truth for the report: of the flows about to be torn
    // down, how many still have a policy-legal route at all?
    ghost.set_link_up(cut, false);
    let no_detour = net
        .open_flows()
        .filter(|(_, of)| {
            of.route[1..of.route.len() - 1].contains(&victim) || uses(&of.route, ca, cb)
        })
        .filter(|(_, of)| legality::legal_route(&ghost, &db, &of.flow).is_none())
        .count();
    net.crash_gateway(victim);
    // Deliver the cut through the control plane: the engine floods the
    // link-down, re-quiesces, and the data plane re-syncs each Route
    // Server from its own flooded database — incrementally or by full
    // flush, per --view.
    e.begin_phase("failure-response");
    e.schedule_link_change(cut, false, e.now().plus_us(1));
    e.run_to_quiescence();
    net.refresh_from_engine(&e);
    let torn = net.pending_repair_count();
    let r = net.repair_pending(4);
    let _ = writeln!(
        out,
        "recovery: crashed {victim} gateway, failed link {ca}-{cb}: {torn} flows torn down \
         ({no_detour} with no policy-legal detour)"
    );
    let _ = writeln!(
        out,
        "  repaired via cached alternate {}, via fresh synthesis {}, unrepairable {}",
        r.repaired_via_alternate, r.repaired_via_synthesis, r.failures,
    );
    let agg = net.aggregate_synth_stats();
    let _ = writeln!(
        out,
        "  view maintenance ({view}): entries invalidated {}, revalidations {} \
         ({} kept in place), setup searches {}, precompute searches {}",
        agg.entries_invalidated,
        agg.revalidations,
        agg.revalidate_hits,
        agg.searches,
        agg.precompute_searches,
    );
    net.restore_gateway(victim);
    let _ = writeln!(
        out,
        "  stale forwards across all gateways: {}",
        net.total_stale_forwards()
    );
    if let Some(model) = byz_model {
        // After the physical faults heal, one transit AD turns rogue.
        let rogue = most_transited(&net).unwrap_or_else(|| {
            MisbehaviorSpec::draw(&truth, model, 1, seed ^ 0x55).assignments()[0].0
        });
        let fresh =
            adroute_protocols::forwarding::sample_flows(&truth, (n_flows / 2).max(5), seed ^ 0x66);
        let bz = run_byzantine(&mut net, rogue, e.now(), &fresh);
        let _ = writeln!(
            out,
            "byzantine: {} at {rogue} (actual policy flipped to deny-all; flooded views stale)",
            model.tag()
        );
        match &bz.detection {
            Some(a) => {
                let _ = writeln!(
                    out,
                    "  detected: {} tripwire on tick {} ({} violating observations)",
                    a.detector, a.tick, a.evidence
                );
            }
            None => {
                let _ = writeln!(out, "  detected: nothing (no open flow transits the rogue)");
            }
        }
        let _ = writeln!(
            out,
            "  quarantine: {} transiting flows torn down; repaired {} via alternate, \
             {} via synthesis, {} unrepairable",
            bz.torn,
            bz.repair.repaired_via_alternate,
            bz.repair.repaired_via_synthesis,
            bz.repair.failures
        );
        let _ = writeln!(
            out,
            "  violating flows after containment: {}",
            bz.violating_after
        );
    }
    if let Some(path) = trace_path {
        // Control-plane stream first, then the data-plane stream — both
        // deterministic, so identically-seeded runs export byte-identical
        // files.
        let mut jsonl = e.obs.log.export_jsonl();
        jsonl.push_str(&net.obs.log.export_jsonl());
        write_trace(path, &jsonl, false, &mut out)?;
    }
    Ok(out)
}

/// One design point's measurements for `report`.
struct PointReport {
    name: &'static str,
    converge_us: u64,
    reconverge_us: u64,
    totals: Stats,
    metrics: MetricsRegistry,
}

/// Folds the engine's per-AD message counts into its metrics registry as
/// the `"ad_msgs"` load histogram.
fn record_ad_load(metrics: &mut MetricsRegistry, stats: &Stats) {
    for &v in &stats.per_ad_msgs {
        metrics.record("ad_msgs", v);
    }
}

/// Measures one hop-by-hop design point: converge, cut the trunk,
/// re-converge, then drive `flows` through the converged data plane and
/// record each delivered flow's first-packet path latency — the
/// hop-by-hop analogue of ORWG's setup latency.
fn measure_hbh<P>(
    name: &'static str,
    mut e: Engine<P>,
    trunk: LinkId,
    flows: &[FlowSpec],
) -> PointReport
where
    P: Protocol,
    Engine<P>: DataPlane,
{
    let (converge_us, reconverge_us) = scenario::converge_then_cut(&mut e, &[trunk]);
    let topo = e.topo().clone();
    for f in flows {
        let out = forward(&mut e, &topo, f);
        if out.delivered() {
            let lat: u64 = out
                .path()
                .windows(2)
                .map(|w| {
                    let l = topo.link_between(w[0], w[1]).expect("path follows links");
                    topo.link(l).delay_us
                })
                .sum();
            e.obs.metrics.record("setup_latency_us", lat);
            e.obs.metrics.add("flows_delivered", 1);
        } else {
            e.obs.metrics.add("flows_undelivered", 1);
        }
    }
    let mut metrics = std::mem::take(&mut e.obs.metrics);
    record_ad_load(&mut metrics, &e.stats);
    PointReport {
        name,
        converge_us,
        reconverge_us,
        totals: e.stats.clone(),
        metrics,
    }
}

fn point_json(p: &PointReport) -> String {
    let mut phases = JsonWriter::object();
    for name in p.totals.phase_names() {
        if let Some(d) = p.totals.phase_delta(name) {
            phases.put(name, d.to_json());
        }
    }
    JsonWriter::object()
        .put_str("name", p.name)
        .put("convergence_us", p.converge_us)
        .put("reconvergence_us", p.reconverge_us)
        .put("stats", p.totals.to_json())
        .put("phases", phases.finish())
        .put("metrics", p.metrics.to_json())
        .finish()
}

/// `report`: convergence, message-complexity, and latency instrumentation
/// for every design point on one seeded internet.
pub fn report(args: &Args) -> Result<String, CliError> {
    args.known(&["ads", "seed", "flows", "json"])?;
    let ads: usize = args.opt_parse("ads", 60)?;
    let seed: u64 = args.opt_parse("seed", 1990)?;
    let n_flows: usize = args.opt_parse("flows", 40)?;
    let json = args.opt_parse("json", false)?;

    let topo = HierarchyConfig::with_approx_size(ads, seed).generate();
    let db = PolicyWorkload::structural(seed).generate(&topo);
    let trunk = analysis::trunk(&topo).expect("a generated internet has links");
    let flows = adroute_protocols::forwarding::sample_flows(&topo, n_flows, seed);

    let mut points = vec![
        measure_hbh(
            "dv",
            Engine::new(topo.clone(), NaiveDv::egp()),
            trunk,
            &flows,
        ),
        measure_hbh(
            "ecma",
            Engine::new(topo.clone(), Ecma::hierarchical(&topo)),
            trunk,
            &flows,
        ),
        measure_hbh(
            "pv",
            Engine::new(topo.clone(), PathVector::idrp(db.clone())),
            trunk,
            &flows,
        ),
        measure_hbh(
            "ls-hbh",
            Engine::new(topo.clone(), LsHbh::new(&topo, db.clone())),
            trunk,
            &flows,
        ),
    ];

    // ORWG: source routing — setup latency is measured by actually opening
    // each flow through the data plane built from the re-converged engine.
    let mut e = Engine::new(topo.clone(), OrwgProtocol::new(&topo, db.clone()));
    let (converge_us, reconverge_us) = scenario::converge_then_cut(&mut e, &[trunk]);
    let mut net = OrwgNetwork::from_engine(
        &e,
        OrwgNetwork::DEFAULT_STRATEGY,
        OrwgNetwork::DEFAULT_HANDLE_CAPACITY,
    );
    for f in &flows {
        match net.open(f) {
            Ok(_) => net.obs.metrics.add("flows_delivered", 1),
            Err(_) => net.obs.metrics.add("flows_undelivered", 1),
        }
    }
    // Byzantine containment drill: its quarantine lifecycle counters land
    // in the orwg point's metrics (pre-touched so every counter reports,
    // even at zero).
    net.obs.metrics.add("quarantine_entered", 0);
    net.obs.metrics.add("quarantine_lifted", 0);
    net.obs.metrics.add("false_positive", 0);
    if let Some(rogue) = most_transited(&net) {
        let mut bz = run_byzantine(&mut net, rogue, SimTime::ZERO, &[]);
        if bz.detection.is_some() && bz.violating_after == 0 {
            // Drill over: the rogue was guilty and contained; lift the
            // quarantine so the lifted counter reflects a full lifecycle.
            bz.controller
                .lift(bz.rogue, true, &mut net.obs, SimTime::ZERO);
            net.lift_quarantine(bz.rogue);
        }
    }
    // Route-Server efficiency counters: batched-sweep statistics land in
    // the orwg point's metrics block (added even at zero so every run
    // reports them).
    let sweep = net.aggregate_sweep_stats();
    net.obs.metrics.add("sweep_batches", sweep.batches);
    net.obs.metrics.add("sweep_batch_flows", sweep.batch_flows);
    net.obs.metrics.add("sweep_sweeps", sweep.sweeps);
    net.obs.metrics.add("sweep_refills", sweep.refills);
    let mut metrics = std::mem::take(&mut net.obs.metrics);
    record_ad_load(&mut metrics, &e.stats);
    points.push(PointReport {
        name: "orwg",
        converge_us,
        reconverge_us,
        totals: e.stats.clone(),
        metrics,
    });

    if json {
        let (a, b) = (topo.link(trunk).a, topo.link(trunk).b);
        let design_points = JsonWriter::array(points.iter().map(point_json));
        let report = JsonWriter::object()
            .put("ads", topo.num_ads())
            .put("links", topo.num_links())
            .put("seed", seed)
            .put_str("trunk", &format!("{a}-{b}"))
            .put("flows", flows.len())
            .put("design_points", design_points)
            .finish();
        return Ok(wrap_json("report", report));
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "report: {} ADs, {} links, seed {seed}; trunk cut {}-{}; {} flows",
        topo.num_ads(),
        topo.num_links(),
        topo.link(trunk).a,
        topo.link(trunk).b,
        flows.len()
    );
    let _ = writeln!(
        out,
        "{:<8} {:>12} {:>14} {:>10} {:>12} {:>10} {:>14}",
        "design", "converge_us", "reconverge_us", "msgs", "bytes", "max_ad", "setup_p50_us"
    );
    for p in &points {
        let setup = p
            .metrics
            .histogram("setup_latency_us")
            .map(|h| h.quantile(0.5).to_string())
            .unwrap_or_else(|| "-".to_string());
        let _ = writeln!(
            out,
            "{:<8} {:>12} {:>14} {:>10} {:>12} {:>10} {:>14}",
            p.name,
            p.converge_us,
            p.reconverge_us,
            p.totals.msgs_sent,
            p.totals.bytes_sent,
            p.totals.max_per_ad_msgs(),
            setup
        );
    }
    for p in &points {
        for name in p.totals.phase_names().collect::<Vec<_>>() {
            if let Some(d) = p.totals.phase_delta(name) {
                let _ = writeln!(
                    out,
                    "  {}/{}: msgs {}, bytes {}, quiesced at {} us",
                    p.name,
                    name,
                    d.msgs_sent,
                    d.bytes_sent,
                    d.last_activity.as_us()
                );
            }
        }
    }
    Ok(out)
}

/// Renders the causal analysis of one or more event logs: the critical
/// path (the longest chain of causally-dependent events — what gated
/// convergence) and the storm report (per-root-cause blast radius).
/// Shared by `trace --analyze` and `blame`.
fn causal_analysis_text(logs: &[&EventLog]) -> String {
    let g = CausalGraph::build(logs);
    let path = g.critical_path();
    let storms = g.storm_report();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} events in {} span trees (acyclic: {})",
        g.len(),
        storms.len(),
        g.is_acyclic_by_id()
    );
    let _ = writeln!(out, "critical path: {} causally-linked events", path.len());
    for ev in &path {
        let cause = match ev.cause {
            Some(c) => format!("<- #{}", c.0),
            None => "root".to_string(),
        };
        let _ = writeln!(
            out,
            "  #{} @{}us [{cause}] {}",
            ev.id.0,
            ev.at.as_us(),
            ev.rec
        );
    }
    let shown = storms.len().min(12);
    let _ = writeln!(
        out,
        "storm report: top {shown} of {} root causes (their event counts partition {}):",
        storms.len(),
        g.len()
    );
    for s in &storms[..shown] {
        let _ = writeln!(
            out,
            "  root #{} {} @{}us: events {}, messages {}, ads {}, span {}us, depth {}",
            s.root.0,
            s.root_kind,
            s.at.as_us(),
            s.events,
            s.messages,
            s.ads,
            s.span_us,
            s.max_depth
        );
    }
    if storms.len() > shown {
        let rest: u64 = storms[shown..].iter().map(|s| s.events).sum();
        let _ = writeln!(
            out,
            "  ... {} more roots covering {} events",
            storms.len() - shown,
            rest
        );
    }
    out
}

/// `blame` output over the scenario's logs — the text analysis or one
/// machine-readable JSON object.
fn render_blame(scenario: &str, logs: &[&EventLog], json: bool) -> String {
    if !json {
        return format!(
            "blame {scenario}: attributing churn to root causes\n{}",
            causal_analysis_text(logs)
        );
    }
    let g = CausalGraph::build(logs);
    let storms = g.storm_report();
    let path = JsonWriter::array(g.critical_path().iter().map(|ev| ev.to_json()));
    let storm_array = JsonWriter::array(storms.iter().map(|st| st.to_json()));
    let blame = JsonWriter::object()
        .put_str("scenario", scenario)
        .put("events", g.len())
        .put("roots", storms.len())
        .put("critical_path", path)
        .put("storms", storm_array)
        .finish();
    wrap_json("blame", blame)
}

/// `blame <scenario>`: run a fixed, seeded scenario and attribute its
/// churn. The scenarios are the golden-trace fixtures, so the output
/// explains the committed `tests/golden/*.jsonl` artifacts.
pub fn blame(args: &Args) -> Result<String, CliError> {
    args.known_with_positionals(&["json"])?;
    let json = args.opt_parse("json", false)?;
    let name = args.positional_one("scenario")?;
    let sc = scenario::named("blame", name)?;
    Ok(match name {
        // Figure-1 internet: the ORWG control plane converges, then
        // absorbs one trunk failure (the quickstart golden trace).
        "quickstart" => render_blame(name, &[&scenario::control_plane_run(&sc).obs.log], json),
        // E7b-style data plane: repairable opens on the E-series
        // internet, a trunk failure with incremental view invalidation,
        // and source-side repair (the e7b golden trace).
        _ => render_blame(name, &[&scenario::repair_run(&sc).obs.log], json),
    })
}

/// Converges, applies a seeded churn plan, re-converges, and exports the
/// typed event stream — shared by `trace` across all design points.
fn trace_engine<P: Protocol>(
    mut e: Engine<P>,
    duration_ms: u64,
    loss: f64,
    seed: u64,
    capacity: usize,
    analyze: bool,
) -> String {
    e.enable_obs(capacity);
    e.begin_phase("converge");
    e.run_to_quiescence();
    e.begin_phase("churn");
    let spec = FaultSpec {
        link_model: Some(FailureModel {
            mtbf_ms: duration_ms as f64 / 3.0,
            mttr_ms: duration_ms as f64 / 8.0,
            fallible_fraction: 0.3,
            seed: seed ^ 0x11,
        }),
        crash_model: None,
        channel: (loss > 0.0).then(|| ChannelFaults::lossy(loss, seed ^ 0x33)),
        misbehavior: MisbehaviorSpec::default(),
    };
    let plan = FaultPlan::draw(e.topo(), &spec, e.now(), duration_ms);
    plan.apply(&mut e);
    e.run_to_quiescence();
    if analyze {
        format!("trace analysis: {}", causal_analysis_text(&[&e.obs.log]))
    } else {
        e.obs.log.export_jsonl()
    }
}

/// `trace`: export one engine run as a typed JSON Lines event stream.
pub fn trace(args: &Args) -> Result<String, CliError> {
    args.known(&[
        "ads", "seed", "duration", "loss", "proto", "capacity", "out", "analyze",
    ])?;
    let ads: usize = args.opt_parse("ads", 30)?;
    let seed: u64 = args.opt_parse("seed", 1990)?;
    let duration_ms = opt_duration_ms(args, 200)?;
    let loss: f64 = args.opt_parse("loss", 0.0)?;
    if !(0.0..=0.5).contains(&loss) {
        return bail("--loss must be in [0, 0.5]");
    }
    let capacity: usize = args.opt_parse("capacity", 1 << 20)?;
    let analyze = args.opt_parse("analyze", false)?;
    let topo = HierarchyConfig::with_approx_size(ads, seed).generate();
    let db = PolicyWorkload::structural(seed).generate(&topo);
    let proto = args.opt("proto").unwrap_or("orwg");
    let jsonl = match proto {
        "orwg" => trace_engine(
            Engine::new(topo.clone(), OrwgProtocol::new(&topo, db)),
            duration_ms,
            loss,
            seed,
            capacity,
            analyze,
        ),
        "dv" => trace_engine(
            Engine::new(topo.clone(), NaiveDv::egp()),
            duration_ms,
            loss,
            seed,
            capacity,
            analyze,
        ),
        "ecma" => trace_engine(
            Engine::new(topo.clone(), Ecma::hierarchical(&topo)),
            duration_ms,
            loss,
            seed,
            capacity,
            analyze,
        ),
        "pv" => trace_engine(
            Engine::new(topo.clone(), PathVector::idrp(db)),
            duration_ms,
            loss,
            seed,
            capacity,
            analyze,
        ),
        "ls-hbh" => trace_engine(
            Engine::new(topo.clone(), LsHbh::new(&topo, db)),
            duration_ms,
            loss,
            seed,
            capacity,
            analyze,
        ),
        other => {
            return bail(format!(
                "--proto must be orwg, dv, ecma, pv, or ls-hbh, found '{other}'"
            ))
        }
    };
    emit(&jsonl, args.opt("out"))
}

/// `stress`: the E9b overload load ramp — admission control, the
/// brownout ladder, NACK + retry-after shedding, deadline-budgeted
/// client retries, and warm-standby Route Server failover, all on one
/// deterministic seeded storm.
pub fn stress(args: &Args) -> Result<String, CliError> {
    args.known_with_positionals(&["json", "trace", "sharded"])?;
    let json = args.opt_parse("json", false)?;
    let trace_path = args.opt("trace");
    let sharded = args.opt_parse("sharded", false)?;
    let scenario = args.positional_one("scenario")?.to_string();
    let sc = scenario::named("stress", &scenario)?;
    let (net, r) = scenario::stress_run(&sc, sharded.then(ShardConfig::default), false);
    let mut out = String::new();
    if json {
        let phases = r.phases.iter().map(|p| {
            JsonWriter::object()
                .put("offered", p.offered)
                .put("served", p.served)
                .put("served_full", p.served_full)
                .put("served_cached", p.served_cached)
                .put("served_stored", p.served_stored)
                .put("shed", p.shed)
                .put("abandoned", p.abandoned)
                .put("no_route", p.no_route)
                .put("failed", p.failed)
                .put("duration_us", p.duration_us)
                .put("goodput_per_sec", p.goodput_per_sec())
                .finish()
        });
        let totals = JsonWriter::object()
            .put("offered", r.offered)
            .put("served", r.served)
            .put("shed", r.shed)
            .put("abandoned", r.abandoned)
            .put("no_route", r.no_route)
            .put("failed", r.failed)
            .put("retries", r.retries)
            .finish();
        let latency = JsonWriter::object()
            .put("p50_wait_us", r.p50_wait_us)
            .put("p99_wait_us", r.p99_wait_us)
            .finish();
        let failover = r.failover.as_ref().map(|f| {
            JsonWriter::object()
                .put_str("ad", &f.ad.to_string())
                .put("crashed_at_us", f.crashed_at.as_us())
                .put("takeover_at_us", f.takeover_at.as_us())
                .put("cancelled", f.cancelled)
                .put("warmed", f.warmed)
                .finish()
        });
        let chain = r.chain.as_ref().map(|c| {
            JsonWriter::object()
                .put("shed", c.shed.0)
                .put("retry", c.retry.0)
                .put("admit", c.admit.0)
                .finish()
        });
        let stress = JsonWriter::object()
            .put_str("scenario", &scenario)
            .put("ads", sc.topo.num_ads())
            .put("links", sc.topo.num_links())
            .put("seed", sc.seed)
            .put("sharded", sharded)
            .put("phases", JsonWriter::array(phases))
            .put("totals", totals)
            .put("latency", latency)
            .put_opt("failover", failover)
            .put_opt("chain", chain)
            .put("metrics", net.obs.metrics.to_json())
            .finish();
        out = wrap_json("stress", stress);
    } else {
        let _ = writeln!(
            out,
            "stress {scenario}: {} ADs, {} links, seed {}{}",
            sc.topo.num_ads(),
            sc.topo.num_links(),
            sc.seed,
            if sharded {
                " (sharded batch service)"
            } else {
                ""
            }
        );
        let _ = writeln!(
            out,
            "phase  offered/s   offered   served     full   cached   stored     shed    aband \
             no-route  goodput/s"
        );
        for (i, p) in r.phases.iter().enumerate() {
            let _ = writeln!(
                out,
                "{:>5}  {:>9}  {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}  {:>9}",
                i + 1,
                sc.phases[i].opens_per_sec,
                p.offered,
                p.served,
                p.served_full,
                p.served_cached,
                p.served_stored,
                p.shed,
                p.abandoned,
                p.no_route,
                p.goodput_per_sec()
            );
        }
        let _ = writeln!(
            out,
            "totals: {} offered, {} served, {} shed NACKs (retry-after honored), \
             {} abandoned, {} no-route, {} setup-failed, {} retries",
            r.offered, r.served, r.shed, r.abandoned, r.no_route, r.failed, r.retries
        );
        let _ = writeln!(
            out,
            "latency: setup wait p50 {} us, p99 {} us",
            r.p50_wait_us, r.p99_wait_us
        );
        if let Some(f) = &r.failover {
            let _ = writeln!(
                out,
                "failover: {} Route Server crashed @{} us, warm standby took over @{} us: \
                 {} queued opens cancelled (NACKed), {} cache entries warmed",
                f.ad,
                f.crashed_at.as_us(),
                f.takeover_at.as_us(),
                f.cancelled,
                f.warmed
            );
        }
        if let Some(c) = &r.chain {
            let _ = writeln!(
                out,
                "causal chain: setup-shed #{} -> setup-retry #{} -> setup-admit #{} \
                 (defer -> retry -> serve across the storm)",
                c.shed.0, c.retry.0, c.admit.0
            );
        }
    }
    if let Some(path) = trace_path {
        write_trace(path, &net.obs.log.export_jsonl(), json, &mut out)?;
    }
    Ok(out)
}

/// `profile`: run a fixed scenario with the self-profiler attached and
/// render the span tree. Self/total wall times vary run to run and are
/// never part of any golden; the `work` ledger is deterministic —
/// byte-identical across repeat runs, which `tests/profile_determinism.rs`
/// enforces (the engine's determinism contract extended to
/// observability).
pub fn profile(args: &Args) -> Result<String, CliError> {
    args.known_with_positionals(&["json", "folded", "top", "ads", "loss", "out"])?;
    let json = args.opt_parse("json", false)?;
    let folded = args.opt_parse("folded", false)?;
    let top: usize = args.opt_parse("top", 16)?;
    let scenario = args.positional_one("scenario")?.to_string();
    if json && folded {
        return bail("--json and --folded are mutually exclusive");
    }
    if scenario != "e13" && (args.opt("ads").is_some() || args.opt("loss").is_some()) {
        return bail("--ads/--loss apply only to e13");
    }
    let mut prof = Profiler::new();
    let (ads, links);
    match scenario::lookup("profile", &scenario)? {
        // e13, the gossip flood: the engine's dispatch path at scale.
        // `--loss p` attaches an event-keyed lossy channel so the
        // profiled dispatch path is the faulted one.
        None => {
            let n: usize = args.opt_parse("ads", 2_000)?;
            if n == 0 {
                return bail("--ads must be positive");
            }
            let loss = opt_probability(args, "loss", 0.0)?;
            let topo = HierarchyConfig::with_approx_size(n, 1990).generate();
            ads = topo.num_ads();
            links = topo.num_links();
            let mut e = Engine::new(
                topo,
                Gossip {
                    origins: 8,
                    rounds: 4,
                    period_us: 50_000,
                },
            );
            if loss > 0.0 {
                e.set_channel_faults(Some(ChannelFaults {
                    jitter_us: 500,
                    ..ChannelFaults::lossy(loss, 1990)
                }));
            }
            e.enable_prof();
            e.run_to_quiescence();
            prof.merge_from(&e.prof);
        }
        // quickstart/e7b: the engine lifecycle (converge, cut the trunk,
        // re-converge), then a sharded serve ramp on the same internet —
        // for e7b at a quarter of each phase's duration: the same
        // saturation ladder, a fraction of the arrivals. e14: the whole
        // sharded ramp (serve_batch rungs, shared sweeps, background
        // refill) and no engine.
        Some(mut sc) => {
            ads = sc.topo.num_ads();
            links = sc.topo.num_links();
            if scenario != "e14" {
                let proto = OrwgProtocol::new(&sc.topo, sc.policies());
                let mut e = Engine::new(sc.topo.clone(), proto);
                e.enable_prof();
                scenario::converge_then_cut(&mut e, &[sc.trunk()]);
                prof.merge_from(&e.prof);
            }
            if scenario == "e7b" {
                for p in &mut sc.phases {
                    p.duration_ms = (p.duration_ms / 4).max(1);
                }
            }
            let (net, _) = scenario::stress_run(&sc, Some(ShardConfig::default()), true);
            prof.merge_from(&net.prof);
        }
    }
    let out = if json {
        let mut w = JsonWriter::object();
        w.put_str("scenario", &scenario)
            .put("ads", ads)
            .put("links", links);
        prof.json_fields(&mut w);
        wrap_json("profile", w.finish())
    } else if folded {
        prof.fold()
    } else {
        let table = prof.table(top);
        format!("profile {scenario}: {ads} ADs, {links} links\n{table}")
    };
    emit(&out, args.opt("out"))
}

/// Dispatches a parsed command line.
pub fn dispatch(args: &Args) -> Result<String, CliError> {
    match args.command.as_str() {
        "gen-topo" => gen_topo(args),
        "gen-policies" => gen_policies(args),
        "route" => route(args),
        "audit" => audit(args),
        "impact" => impact(args),
        "chaos" => chaos(args),
        "report" => report(args),
        "trace" => trace(args),
        "blame" => blame(args),
        "stress" => stress(args),
        "profile" => profile(args),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => bail(format!("unknown command '{other}'; try `adroute help`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;

    fn run(line: &str) -> Result<String, CliError> {
        dispatch(&Args::parse(line.split_whitespace().map(str::to_string)).unwrap())
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("adroute-cli-tests");
        let _ = fs::create_dir_all(&dir);
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn end_to_end_pipeline() {
        let topo_file = tmp("pipeline.topo");
        let pol_file = tmp("pipeline.pol");
        // 1. Generate a topology.
        let msg = run(&format!("gen-topo --ads 60 --seed 3 --out {topo_file}")).unwrap();
        assert!(msg.contains("wrote"));
        // 2. Generate policies for it.
        let msg = run(&format!(
            "gen-policies --topo {topo_file} --seed 3 --out {pol_file}"
        ))
        .unwrap();
        assert!(msg.contains("wrote"));
        // 3. Route a flow.
        let out = run(&format!(
            "route --topo {topo_file} --policies {pol_file} --src 3 --dst 40"
        ))
        .unwrap();
        assert!(out.contains("flow: AD3->AD40"), "{out}");
        assert!(
            out.contains("route:") || out.contains("no policy-legal route"),
            "{out}"
        );
        // 4. Audit.
        let out = run(&format!("audit --topo {topo_file}")).unwrap();
        assert!(out.contains("articulation ADs"), "{out}");
        assert!(out.contains("connected: true"), "{out}");
        // 5. Impact of shutting down AD2.
        let cand_file = tmp("pipeline.cand");
        fs::write(&cand_file, "policy AD2 { default deny; }").unwrap();
        let out = run(&format!(
            "impact --topo {topo_file} --policies {pol_file} --candidate {cand_file} --flows 50"
        ))
        .unwrap();
        assert!(out.contains("safe (no flow stranded):"), "{out}");
        assert!(out.contains("transit share:"), "{out}");
    }

    #[test]
    fn route_with_class_flags() {
        let topo_file = tmp("classes.topo");
        run(&format!("gen-topo --ads 50 --seed 5 --out {topo_file}")).unwrap();
        let out = run(&format!(
            "route --topo {topo_file} --src 0 --dst 10 --qos 1 --uci 2 --time 23:30"
        ))
        .unwrap();
        assert!(out.contains("qos1 uci2 @23:30"), "{out}");
    }

    #[test]
    fn helpful_errors() {
        assert!(run("frobnicate").unwrap_err().0.contains("unknown command"));
        let err = run("bench").unwrap_err().0;
        assert!(err.contains("unknown command 'bench'"), "{err}");
        assert!(run("gen-topo").unwrap_err().0.contains("--ads"));
        assert!(run("gen-topo --ads 50 --bogus 1")
            .unwrap_err()
            .0
            .contains("unknown flag"));
        assert!(run("route --topo /nonexistent --src 0 --dst 1")
            .unwrap_err()
            .0
            .contains("cannot read"));
        let topo_file = tmp("err.topo");
        run(&format!("gen-topo --ads 50 --seed 5 --out {topo_file}")).unwrap();
        assert!(run(&format!("route --topo {topo_file} --src 0 --dst 9999"))
            .unwrap_err()
            .0
            .contains("outside the topology"));
        assert!(run(&format!(
            "route --topo {topo_file} --src 0 --dst 1 --time 25:00"
        ))
        .unwrap_err()
        .0
        .contains("bad time"));
        for line in ["chaos --workers 2", "profile quickstart --workers 2"] {
            let err = run(line).unwrap_err().0;
            assert!(
                err.starts_with("unknown flag --workers for "),
                "{line}: {err}"
            );
        }
        assert!(run("help").unwrap().contains("USAGE"));
    }

    #[test]
    fn chaos_reports_recovery_and_is_deterministic() {
        let line = "chaos --ads 30 --seed 11 --duration 250 --loss 0.05 --flows 20";
        let a = run(line).unwrap();
        assert!(a.contains("chaos: "), "{a}");
        assert!(a.contains("router outages"), "{a}");
        assert!(a.contains("views consistent with ground truth"), "{a}");
        assert!(a.contains("stale forwards across all gateways: 0"), "{a}");
        // Full reconvergence: the consistent count equals the checked count.
        let line_views = a.lines().find(|l| l.contains("views consistent")).unwrap();
        let frac = line_views.rsplit(' ').nth(1).unwrap();
        let (num, den) = frac.split_once('/').unwrap();
        assert_eq!(num, den, "not all views reconverged: {a}");
        // Every torn-down flow with a legal detour must be repaired: the
        // unrepairable count equals the oracle's no-detour count.
        let line_torn = a.lines().find(|l| l.contains("flows torn down")).unwrap();
        let no_detour: u64 = line_torn
            .split('(')
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        let line_rep = a.lines().find(|l| l.contains("unrepairable")).unwrap();
        let unrepairable: u64 = line_rep.rsplit(' ').next().unwrap().parse().unwrap();
        assert_eq!(unrepairable, no_detour, "repair missed a legal detour: {a}");
        // Identical seeds produce a byte-identical report.
        let b = run(line).unwrap();
        assert_eq!(a, b);
        // A different seed produces a different plan.
        let c = run("chaos --ads 30 --seed 12 --duration 250 --loss 0.05 --flows 20").unwrap();
        assert_ne!(a, c);
        // Loss outside range is refused.
        assert!(run("chaos --loss 0.9").unwrap_err().0.contains("--loss"));
    }

    #[test]
    fn chaos_view_modes_agree_on_recovery() {
        let inc = run("chaos --ads 30 --seed 11 --duration 250 --loss 0.05 --flows 20").unwrap();
        assert!(inc.contains("view maintenance (incremental)"), "{inc}");
        let flush =
            run("chaos --ads 30 --seed 11 --duration 250 --loss 0.05 --flows 20 --view flush")
                .unwrap();
        assert!(flush.contains("view maintenance (flush)"), "{flush}");
        // The maintenance mode changes the invalidation accounting, never
        // the recovery outcome: every line except the counters matches.
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.contains("view maintenance"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&inc), strip(&flush));
        // Bad values are refused.
        assert!(run("chaos --view bogus").unwrap_err().0.contains("--view"));
    }

    #[test]
    fn audit_scenarios_run_the_byzantine_lifecycle() {
        for scenario in ["quickstart", "e7b"] {
            let a = run(&format!("audit {scenario}")).unwrap();
            assert!(a.starts_with(&format!("audit {scenario}:")), "{a}");
            assert!(a.contains("turns rogue (forged-ack)"), "{a}");
            // The tripwire fires on the very first monitoring tick: the
            // covert policy flip makes existing transits violations.
            assert!(
                a.contains("detect: policy-violation tripwire fired on tick 1"),
                "{a}"
            );
            assert!(a.contains("contain: quarantined AD"), "{a}");
            // Containment is complete: nothing violates afterwards.
            assert!(
                a.contains(
                    "0 flows violating after containment (policy-legal reconvergence: true)"
                ),
                "{a}"
            );
            // The full causal chain is visible with real event ids.
            assert!(a.contains("causal chain: misbehavior-inject #"), "{a}");
            assert!(a.contains("-> monitor-alarm #"), "{a}");
            assert!(a.contains("-> quarantine-enter #"), "{a}");
            // Deterministic.
            assert_eq!(a, run(&format!("audit {scenario}")).unwrap());
        }
    }

    #[test]
    fn audit_json_reports_the_full_lifecycle() {
        let line = "audit quickstart --json";
        let a = run(line).unwrap();
        assert!(
            a.starts_with("{\"audit\":{\"scenario\":\"quickstart\""),
            "{a}"
        );
        for field in [
            "\"rogue\":\"AD",
            "\"model\":\"forged-ack\"",
            "\"violating_before\":",
            "\"detection\":{\"detector\":\"policy-violation\",\"tick\":1,",
            "\"quarantine\":{\"entered\":1,",
            "\"violating_after\":0",
            "\"reconverged_legal\":true",
            "\"quarantine_entered\":1",
            "\"detection_latency_ticks\":",
        ] {
            assert!(a.contains(field), "missing {field}: {a}");
        }
        assert_eq!(a, run(line).unwrap());
    }

    #[test]
    fn audit_rejects_contradictory_and_malformed_usage() {
        // Bare `audit` falls into structural mode, which needs --topo.
        assert!(run("audit").unwrap_err().0.contains("--topo"));
        assert!(run("audit bogus")
            .unwrap_err()
            .0
            .contains("unknown audit scenario"));
        assert!(run("audit a b").unwrap_err().0.contains("exactly one"));
        // Structural flags contradict scenario mode.
        assert!(run("audit quickstart --topo x")
            .unwrap_err()
            .0
            .contains("unknown flag"));
        assert!(run("audit quickstart --tree true")
            .unwrap_err()
            .0
            .contains("unknown flag"));
    }

    #[test]
    fn audit_trace_exports_are_byte_identical_across_runs() {
        let f1 = tmp("audit-a.jsonl");
        let f2 = tmp("audit-b.jsonl");
        run(&format!("audit quickstart --trace {f1}")).unwrap();
        run(&format!("audit quickstart --trace {f2}")).unwrap();
        let ta = fs::read(&f1).unwrap();
        let tb = fs::read(&f2).unwrap();
        assert!(!ta.is_empty());
        assert_eq!(ta, tb, "identically-seeded audit traces must match");
        let text = String::from_utf8(ta).unwrap();
        assert!(text.contains("\"kind\":\"misbehavior-inject\""), "{text}");
        assert!(text.contains("\"kind\":\"monitor-alarm\""), "{text}");
        assert!(text.contains("\"kind\":\"quarantine-enter\""), "{text}");
        assert!(text.contains("\"kind\":\"setup-repair\""), "{text}");
    }

    #[test]
    fn chaos_byzantine_detects_and_contains_the_rogue() {
        let line = "chaos --ads 30 --seed 11 --duration 250 --loss 0.05 --flows 20 --byzantine";
        let a = run(line).unwrap();
        assert!(a.contains("byzantine: forged-ack at AD"), "{a}");
        assert!(a.contains("detected: policy-violation tripwire"), "{a}");
        assert!(a.contains("violating flows after containment: 0"), "{a}");
        assert_eq!(a, run(line).unwrap());
        // The byzantine phase rides on top of an unchanged fault sweep.
        let plain = run("chaos --ads 30 --seed 11 --duration 250 --loss 0.05 --flows 20").unwrap();
        for l in plain.lines() {
            assert!(a.contains(l), "byzantine run lost line: {l}");
        }
    }

    #[test]
    fn chaos_rejects_contradictory_flag_combinations() {
        assert!(run("chaos --byzantine route-leak")
            .unwrap_err()
            .0
            .contains("forged-ack"));
        assert!(run("chaos --byzantine bogus")
            .unwrap_err()
            .0
            .contains("unknown misbehavior model"));
        assert!(run("chaos --duration 0")
            .unwrap_err()
            .0
            .contains("--duration"));
        assert!(run("chaos --flows 0 --byzantine")
            .unwrap_err()
            .0
            .contains("--flows"));
        assert!(run("chaos --bogus 1")
            .unwrap_err()
            .0
            .contains("unknown flag"));
    }

    #[test]
    fn durations_past_the_schedulable_horizon_are_errors_not_panics() {
        for line in [
            // x500 wrapped the partition's heal time into the past...
            "chaos --ads 30 --partition --duration 99999999999999999",
            // ...or to before the cut.
            "chaos --ads 30 --partition --duration 18446744073709551615",
            "trace --duration 99999999999999999",
        ] {
            let err = run(line).unwrap_err().0;
            assert_eq!(
                err, "--duration must be at most 1000000000000 milliseconds",
                "{line}"
            );
        }
    }

    #[test]
    fn json_with_trace_prints_exactly_one_json_value() {
        for cmd in ["audit", "stress"] {
            let file = tmp(&format!("{cmd}-json-trace.jsonl"));
            let out = run(&format!("{cmd} quickstart --json --trace {file}")).unwrap();
            // No human `trace:` line after the object; the file is still written.
            assert_eq!(out, run(&format!("{cmd} quickstart --json")).unwrap());
            assert!(fs::read(&file).unwrap().len() > 1000, "{cmd}");
        }
    }

    #[test]
    fn every_documented_scenario_name_resolves_through_the_one_table() {
        for (cmd, names) in [
            ("audit", "quickstart, e7b"),
            ("blame", "quickstart, e7b"),
            ("stress", "quickstart, e9b"),
            ("profile", "quickstart, e7b, e13, e14"),
        ] {
            let documented = format!("  {cmd:<14}<{}>", names.replace(", ", "|"));
            assert!(USAGE.contains(&documented), "{documented}");
            for name in names.split(", ") {
                let out = run(&format!("{cmd} {name} --json")).unwrap();
                // e7b, e9b and e14 are three names for one internet
                // (`blame` prints no size; e13 sizes its own).
                if !["quickstart", "e13"].contains(&name) && cmd != "blame" {
                    assert!(out.contains("\"ads\":98,\"links\":147,"), "{cmd} {name}");
                }
            }
            assert_eq!(
                run(&format!("{cmd} bogus")).unwrap_err().0,
                format!("unknown {cmd} scenario 'bogus'; scenarios: {names}")
            );
        }
    }

    #[test]
    fn report_covers_every_design_point() {
        let line = "report --ads 40 --seed 7 --flows 20";
        let txt = run(line).unwrap();
        for name in ["dv", "ecma", "pv", "ls-hbh", "orwg"] {
            assert!(txt.contains(name), "missing {name}: {txt}");
        }
        assert!(txt.contains("converge_us"), "{txt}");
        assert!(txt.contains("/failure-response:"), "{txt}");
        // JSON mode: convergence time, message complexity, and setup
        // latency histograms for every design point, deterministically.
        let a = run(&format!("{line} --json")).unwrap();
        for field in [
            "\"name\":\"orwg\"",
            "\"name\":\"dv\"",
            "\"name\":\"ecma\"",
            "\"name\":\"pv\"",
            "\"name\":\"ls-hbh\"",
            "\"convergence_us\":",
            "\"reconvergence_us\":",
            "\"msgs_sent\":",
            "\"setup_latency_us\":",
            "\"ad_msgs\":",
            "\"converge\":",
            "\"failure-response\":",
            // The orwg point runs a byzantine containment drill: its
            // quarantine lifecycle counters report even when zero.
            "\"quarantine_entered\":",
            "\"quarantine_lifted\":",
            "\"false_positive\":",
            "\"detection_latency_ticks\":",
            // Route-Server efficiency counters (batched sweeps) report
            // on the orwg point even when zero.
            "\"sweep_batches\":",
            "\"sweep_sweeps\":",
        ] {
            assert!(a.contains(field), "missing {field}: {a}");
        }
        let b = run(&format!("{line} --json")).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn trace_exports_typed_jsonl() {
        let line = "trace --ads 25 --seed 5 --duration 150 --loss 0.05 --proto orwg";
        let a = run(line).unwrap();
        let b = run(line).unwrap();
        assert_eq!(a, b, "trace export must be deterministic");
        assert!(a.starts_with("{\"us\":"), "{}", &a[..a.len().min(200)]);
        assert!(a.lines().last().unwrap().contains("\"trace-summary\""));
        assert!(a.contains("\"kind\":\"phase\""), "phase markers missing");
        assert!(a.contains("\"kind\":\"fault-plan\""));
        // Every design point can export a trace.
        for proto in ["dv", "ecma", "pv", "ls-hbh"] {
            let t = run(&format!("trace --ads 20 --seed 3 --proto {proto}")).unwrap();
            assert!(t.contains("\"trace-summary\""), "{proto}: {t}");
        }
        assert!(run("trace --proto bogus")
            .unwrap_err()
            .0
            .contains("--proto"));
    }

    /// Parses a `blame` text report and checks the acceptance
    /// invariants: the critical path is a real causal chain, and the
    /// storm rows (plus the truncation remainder) partition the events.
    fn check_blame_text(out: &str) -> usize {
        // "N events in R span trees (acyclic: true)"
        let header = out
            .lines()
            .find(|l| l.contains("span trees"))
            .unwrap_or_else(|| panic!("no span-tree header: {out}"));
        assert!(header.contains("acyclic: true"), "{out}");
        let total: u64 = header.split_whitespace().next().unwrap().parse().unwrap();
        // "critical path: N causally-linked events"
        let path_len: usize = out
            .lines()
            .find(|l| l.starts_with("critical path:"))
            .unwrap()
            .split_whitespace()
            .nth(2)
            .unwrap()
            .parse()
            .unwrap();
        let path_lines: Vec<&str> = out.lines().filter(|l| l.starts_with("  #")).collect();
        assert_eq!(path_lines.len(), path_len, "{out}");
        // Every non-root path step names the step before it as its cause.
        assert!(path_lines[0].contains("[root]"), "{out}");
        for w in path_lines.windows(2) {
            let prev_id = w[0]
                .trim_start()
                .trim_start_matches('#')
                .split_whitespace()
                .next()
                .unwrap();
            assert!(w[1].contains(&format!("[<- #{prev_id}]")), "{out}");
        }
        // Storm rows + remainder partition the total.
        let mut sum: u64 = 0;
        for l in out.lines().filter(|l| l.trim_start().starts_with("root #")) {
            let events: u64 = l
                .split("events ")
                .nth(1)
                .unwrap()
                .split(',')
                .next()
                .unwrap()
                .parse()
                .unwrap();
            sum += events;
        }
        if let Some(l) = out.lines().find(|l| l.contains("more roots covering")) {
            let rest: u64 = l
                .split("covering ")
                .nth(1)
                .unwrap()
                .split_whitespace()
                .next()
                .unwrap()
                .parse()
                .unwrap();
            sum += rest;
        }
        assert_eq!(sum, total, "storm report is not a partition: {out}");
        path_len
    }

    #[test]
    fn blame_quickstart_prints_causal_chain_and_partitioning_storms() {
        let a = run("blame quickstart").unwrap();
        assert!(a.starts_with("blame quickstart:"), "{a}");
        let path_len = check_blame_text(&a);
        assert!(path_len >= 3, "critical path too short ({path_len}): {a}");
        // Deterministic.
        assert_eq!(a, run("blame quickstart").unwrap());
        // JSON form carries the same analysis, machine-readably.
        let j = run("blame quickstart --json").unwrap();
        assert!(
            j.starts_with("{\"blame\":{\"scenario\":\"quickstart\""),
            "{j}"
        );
        assert!(j.contains("\"critical_path\":[{\"us\":"), "{j}");
        assert!(j.contains("\"storms\":[{\"root\":"), "{j}");
        assert!(j.contains("\"cause\":"), "{j}");
        // Errors.
        assert!(run("blame bogus").unwrap_err().0.contains("scenario"));
        assert!(run("blame").unwrap_err().0.contains("scenario"));
        assert!(run("blame a b").unwrap_err().0.contains("exactly one"));
    }

    #[test]
    fn blame_e7b_attributes_data_plane_churn() {
        let out = run("blame e7b").unwrap();
        let path_len = check_blame_text(&out);
        assert!(path_len >= 3, "critical path too short ({path_len}): {out}");
        // The data-plane storms are rooted in setups and view deltas.
        assert!(
            out.contains("setup-open") || out.contains("view-delta"),
            "{out}"
        );
    }

    #[test]
    fn trace_analyze_prints_causal_analysis() {
        let out = run("trace --ads 25 --seed 5 --duration 150 --loss 0.05 --analyze").unwrap();
        assert!(out.starts_with("trace analysis:"), "{out}");
        assert!(out.contains("critical path:"), "{out}");
        assert!(out.contains("storm report:"), "{out}");
        assert!(out.contains("acyclic: true"), "{out}");
        // The analysis replaces the JSONL stream.
        assert!(!out.contains("\"kind\":"), "{out}");
        assert_eq!(
            out,
            run("trace --ads 25 --seed 5 --duration 150 --loss 0.05 --analyze").unwrap()
        );
    }

    #[test]
    fn chaos_trace_exports_are_byte_identical_across_runs() {
        let f1 = tmp("chaos-a.jsonl");
        let f2 = tmp("chaos-b.jsonl");
        let base = "chaos --ads 30 --seed 11 --duration 250 --loss 0.05 --flows 20";
        let a = run(&format!("{base} --trace {f1}")).unwrap();
        let b = run(&format!("{base} --trace {f2}")).unwrap();
        // Enabling the trace must not perturb the simulation itself.
        let plain = run(base).unwrap();
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("trace:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&a), plain.trim_end());
        assert_eq!(strip(&b), plain.trim_end());
        let ta = fs::read(&f1).unwrap();
        let tb = fs::read(&f2).unwrap();
        assert!(!ta.is_empty());
        assert_eq!(ta, tb, "identically-seeded chaos traces must match");
        let text = String::from_utf8(ta).unwrap();
        assert!(text.contains("\"kind\":\"setup-open\""), "{text}");
        assert!(text.contains("\"kind\":\"view-delta\""));
        assert!(text.contains("\"kind\":\"setup-repair\""));
    }

    #[test]
    fn gen_topo_rejects_flags_that_are_not_probabilities() {
        for flag in ["lateral", "bypass", "multihome"] {
            for bad in ["2.0", "-1", "nan"] {
                let e = run(&format!("gen-topo --ads 5 --{flag} {bad}")).unwrap_err();
                assert_eq!(e.0, format!("--{flag} must be a probability in [0, 1]"));
            }
        }
        assert!(run("gen-topo --ads 5 --lateral 1 --bypass 0 --multihome 0.5").is_ok());
    }

    #[test]
    fn gen_topo_to_stdout_round_trips() {
        let text = run("gen-topo --ads 50 --seed 9").unwrap();
        let topo = adroute_topology::io::parse(&text).unwrap();
        assert!(topo.num_ads() >= 40);
    }

    #[test]
    fn stress_quickstart_shows_the_ladder_sheds_and_fails_over() {
        let line = "stress quickstart";
        let a = run(line).unwrap();
        assert!(a.contains("stress quickstart: "), "{a}");
        // Shed opens get NACKs with retry-after, never silent drops.
        assert!(a.contains("shed NACKs (retry-after honored)"), "{a}");
        // The mid-peak crash recovers via warm-standby takeover.
        assert!(a.contains("warm standby took over"), "{a}");
        assert!(a.contains("cache entries warmed"), "{a}");
        // A complete defer -> retry -> serve span survived the storm.
        assert!(a.contains("causal chain: setup-shed #"), "{a}");
        // Goodput is monotone non-collapsing past saturation: the last
        // phase's goodput stays within 70% of the best earlier phase.
        let goodputs: Vec<u64> = a
            .lines()
            .skip(2)
            .take(4)
            .map(|l| l.split_whitespace().last().unwrap().parse().unwrap())
            .collect();
        assert_eq!(goodputs.len(), 4, "{a}");
        let best_early = *goodputs[..3].iter().max().unwrap();
        assert!(
            goodputs[3] * 10 >= best_early * 7,
            "goodput collapsed past saturation: {goodputs:?}\n{a}"
        );
        // Later phases lean on cheaper rungs: some opens serve stored.
        let last = a.lines().nth(5).unwrap();
        let cols: Vec<u64> = last
            .split_whitespace()
            .map(|c| c.parse().unwrap())
            .collect();
        assert!(cols[6] > 0, "peak phase never reached the stored rung: {a}");
        // Identical seeds produce a byte-identical report.
        assert_eq!(a, run(line).unwrap());
    }

    #[test]
    fn stress_json_reports_phases_failover_and_chain() {
        let line = "stress quickstart --json";
        let a = run(line).unwrap();
        for key in [
            "\"stress\":{",
            "\"phases\":[",
            "\"goodput_per_sec\":",
            "\"totals\":{",
            "\"retries\":",
            "\"failover\":{\"ad\":\"AD",
            "\"warmed\":",
            "\"chain\":{\"shed\":",
            "\"metrics\":{",
        ] {
            assert!(a.contains(key), "missing {key}: {a}");
        }
        assert_eq!(a, run(line).unwrap());
    }

    #[test]
    fn stress_rejects_unknown_scenarios_and_flags() {
        assert!(run("stress bogus")
            .unwrap_err()
            .0
            .contains("unknown stress scenario"));
        assert!(run("stress").unwrap_err().0.contains("scenario"));
        assert!(run("stress quickstart --out x")
            .unwrap_err()
            .0
            .contains("unknown flag"));
    }

    #[test]
    fn stress_trace_exports_are_byte_identical_across_runs() {
        let f1 = tmp("stress-a.jsonl");
        let f2 = tmp("stress-b.jsonl");
        run(&format!("stress quickstart --trace {f1}")).unwrap();
        run(&format!("stress quickstart --trace {f2}")).unwrap();
        let ta = fs::read(&f1).unwrap();
        let tb = fs::read(&f2).unwrap();
        assert!(!ta.is_empty());
        assert_eq!(ta, tb, "identically-seeded stress traces must match");
        let text = String::from_utf8(ta).unwrap();
        // The overload lifecycle is visible in the typed stream: defers,
        // NACKs carrying retry-after, client retries, admits, and the
        // Route Server crash/failover pair.
        assert!(text.contains("\"kind\":\"setup-defer\""), "{text}");
        assert!(text.contains("\"kind\":\"setup-shed\""));
        assert!(text.contains("\"retry_after_us\":"));
        assert!(text.contains("\"kind\":\"setup-retry\""));
        assert!(text.contains("\"kind\":\"setup-admit\""));
        assert!(text.contains("\"kind\":\"rs-crash\""));
        assert!(text.contains("\"kind\":\"rs-failover\""));
    }

    /// Extracts the deterministic `"work":{...}` object from a profile's
    /// JSON output (the only part the determinism contract covers).
    fn work_object(json: &str) -> &str {
        let start = json.find("\"work\":{").expect("profile has a work object");
        let end = json[start..].find('}').expect("work object closes") + start;
        &json[start..=end]
    }

    #[test]
    fn profile_e13_work_ledger_is_double_run_invariant() {
        let a = run("profile e13 --ads 300 --json").unwrap();
        assert!(a.starts_with("{\"profile\":{\"scenario\":\"e13\""), "{a}");
        for key in [
            "\"work\":{",
            "\"engine/events\":",
            "\"engine/msgs_delivered\":",
            "\"spans\":[",
        ] {
            assert!(a.contains(key), "missing {key}: {a}");
        }
        // The ledger side is byte-identical across runs even though the
        // span wall times legitimately differ.
        let b = run("profile e13 --ads 300 --json").unwrap();
        assert_eq!(work_object(&a), work_object(&b));
    }

    #[test]
    fn profile_quickstart_covers_engine_and_serve_spans() {
        let table = run("profile quickstart").unwrap();
        for span in ["serve_batch", "synth", "load_ramp"] {
            assert!(table.contains(span), "missing span {span}: {table}");
        }
        assert!(table.contains("work ledger (deterministic):"), "{table}");
        assert!(table.contains("serve/opens_popped"), "{table}");
        let folded = run("profile quickstart --folded").unwrap();
        assert!(
            folded
                .lines()
                .any(|l| l.starts_with("load_ramp;serve_batch")),
            "{folded}"
        );
        // Every folded line is `path self_us`.
        for line in folded.lines() {
            let mut parts = line.rsplitn(2, ' ');
            let n = parts.next().unwrap();
            assert!(n.parse::<u64>().is_ok(), "bad folded line: {line}");
        }
    }

    #[test]
    fn profile_rejects_unknown_scenarios_and_flags() {
        assert!(run("profile nope").unwrap_err().0.contains("unknown"));
        assert!(run("profile e13 --ads 0")
            .unwrap_err()
            .0
            .contains("positive"));
        assert!(run("profile e13 --bogus 1")
            .unwrap_err()
            .0
            .contains("unknown flag"));
        // Flags the scenario would silently ignore are errors too.
        for line in ["profile quickstart --loss 0.5", "profile e14 --ads 100"] {
            let err = run(line).unwrap_err().0;
            assert!(err.contains("apply only to e13"), "{line}: {err}");
        }
        let err = run("profile e13 --ads 50 --json --folded").unwrap_err().0;
        assert!(err.contains("mutually exclusive"), "{err}");
    }
}
