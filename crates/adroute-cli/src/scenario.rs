//! The fixed scenarios behind `audit`, `blame`, `stress` and `profile`,
//! each defined once: the two named internets with their seeds and storm
//! ramps, the table of which scenario name means which internet, and the
//! run lifecycles. `tests/golden_trace.rs`, `tests/determinism.rs` and
//! `tests/profile_determinism.rs` call these same functions, so a
//! committed `tests/golden/*.jsonl` is the tool's own output.

use std::collections::BTreeMap;

use adroute_core::{
    run_load_ramp, OrwgNetwork, OrwgProtocol, RepairStats, ShardConfig, StressConfig, StressReport,
};
use adroute_policy::workload::PolicyWorkload;
use adroute_policy::{FlowSpec, PolicyDb, TransitPolicy};
use adroute_protocols::forwarding::{audit_path, sample_flows};
use adroute_sim::{
    Alarm, Engine, EventId, EventRecord, MisbehaviorModel, MonitorBank, MonitorConfig, Observation,
    OpenStorm, Protocol, QuarantineController, RouterOutage, SimTime, StormPhase,
};
use adroute_topology::{analysis, transit, AdId, HierarchyConfig, LinkId, Topology};

use crate::args::{bail, CliError};

/// One of the two named internets every fixed scenario runs on, with the
/// seed its policies, flows and storm are drawn from and its open-storm
/// ramp.
pub struct Scenario {
    /// The internet.
    pub topo: Topology,
    /// Seed of everything drawn on it.
    pub seed: u64,
    /// The storm ramp's phase schedule. Service costs are fixed by
    /// `stress_run`, so the schedule is what positions each phase
    /// relative to saturation: both ramps cross the Route Servers'
    /// full-rung saturation point (~166 opens/s per AD) in their second
    /// phase and the stored-rung ceiling (~1666 opens/s per AD) in their
    /// last, so a run shows the whole brownout ladder plus shedding.
    pub phases: Vec<StormPhase>,
}

impl Scenario {
    fn new(cfg: HierarchyConfig, seed: u64, duration_ms: u64, rates: [u64; 4]) -> Scenario {
        let phases = rates.iter().map(|&opens_per_sec| StormPhase {
            duration_ms,
            opens_per_sec,
        });
        Scenario {
            topo: cfg.generate(),
            seed,
            phases: phases.collect(),
        }
    }

    /// The paper's Figure-1 internet, seed 1990.
    pub fn quickstart() -> Scenario {
        let rates = [2_000, 8_000, 20_000, 64_000];
        Scenario::new(HierarchyConfig::figure1(), 1990, 50, rates)
    }

    /// The E-series experiment internet (98 ADs, 147 links), seed 23:
    /// `e7b`, `e9b` and `e14` all name it.
    pub fn e_series() -> Scenario {
        let rates = [6_000, 25_000, 70_000, 200_000];
        Scenario::new(HierarchyConfig::e_series(120, 23), 23, 100, rates)
    }

    /// The structural policy workload drawn from the scenario seed.
    pub(crate) fn policies(&self) -> PolicyDb {
        PolicyWorkload::structural(self.seed).generate(&self.topo)
    }

    /// The link the trunk-failure lifecycles cut.
    pub(crate) fn trunk(&self) -> LinkId {
        analysis::trunk(&self.topo).expect("the named internets have links")
    }
}

/// Builds a [`Scenario`]; `None` in [`NAMES`] is `profile e13`, which
/// sizes its own gossip-flood internet from `--ads`.
type Build = Option<fn() -> Scenario>;

/// Every (subcommand, scenario name) accepted, in the order the
/// subcommand's `unknown … scenario` message lists its names, with the
/// internet the name denotes.
const NAMES: [(&str, &str, Build); 10] = [
    ("audit", "quickstart", Some(Scenario::quickstart)),
    ("audit", "e7b", Some(Scenario::e_series)),
    ("blame", "quickstart", Some(Scenario::quickstart)),
    ("blame", "e7b", Some(Scenario::e_series)),
    ("stress", "quickstart", Some(Scenario::quickstart)),
    ("stress", "e9b", Some(Scenario::e_series)),
    ("profile", "quickstart", Some(Scenario::quickstart)),
    ("profile", "e7b", Some(Scenario::e_series)),
    ("profile", "e13", None),
    ("profile", "e14", Some(Scenario::e_series)),
];

/// Resolves scenario `name` as subcommand `command` spells it.
pub(crate) fn lookup(command: &str, name: &str) -> Result<Option<Scenario>, CliError> {
    let names = || NAMES.iter().filter(|(c, ..)| *c == command);
    match names().find(|(_, n, _)| *n == name) {
        Some((.., build)) => Ok(build.map(|build| build())),
        None => {
            let known: Vec<&str> = names().map(|&(_, n, _)| n).collect();
            bail(format!(
                "unknown {command} scenario '{name}'; scenarios: {}",
                known.join(", ")
            ))
        }
    }
}

/// [`lookup`] for the subcommands whose every name is a fixed internet.
pub(crate) fn named(command: &str, name: &str) -> Result<Scenario, CliError> {
    Ok(lookup(command, name)?.expect("only profile has a sized scenario"))
}

/// The control-plane lifecycle: converge, cut every link of `cut` a
/// microsecond later, re-converge, under the `converge` and
/// `failure-response` phase scopes. Returns (convergence, reconvergence)
/// times in µs.
pub fn converge_then_cut<P: Protocol>(e: &mut Engine<P>, cut: &[LinkId]) -> (u64, u64) {
    e.begin_phase("converge");
    let t1 = e.run_to_quiescence();
    e.begin_phase("failure-response");
    for &link in cut {
        e.schedule_link_change(link, false, e.now().plus_us(1));
    }
    let t2 = e.run_to_quiescence();
    (t1.as_us(), t2.as_us() - t1.as_us())
}

/// `blame quickstart` and the quickstart golden trace: the ORWG control
/// plane under permissive policies through [`converge_then_cut`], with
/// the event log attached.
pub fn control_plane_run(sc: &Scenario) -> Engine<OrwgProtocol> {
    let db = PolicyDb::permissive(&sc.topo);
    let mut e = Engine::new(sc.topo.clone(), OrwgProtocol::new(&sc.topo, db));
    e.enable_obs(1 << 16);
    converge_then_cut(&mut e, &[sc.trunk()]);
    e
}

/// A converged, logging data plane with the scenario's 40 sampled flows
/// opened repairably; also how many of them opened.
fn open_flows(sc: &Scenario) -> (OrwgNetwork, usize) {
    let mut net = OrwgNetwork::converged(&sc.topo, &sc.policies());
    net.enable_obs(1 << 14);
    let mut opened = 0usize;
    for f in &sample_flows(&sc.topo, 40, sc.seed) {
        if net.open_repairable(f).is_ok() {
            opened += 1;
        }
    }
    (net, opened)
}

/// `blame e7b` and the e7b golden trace: repairable opens, a trunk
/// failure with incremental view invalidation, and source-side repair.
pub fn repair_run(sc: &Scenario) -> OrwgNetwork {
    let (mut net, _) = open_flows(sc);
    net.fail_link(sc.trunk());
    net.repair_pending(3);
    net
}

/// Open flows whose installed route violates some transit AD's *actual*
/// policy — audited against ground truth, not the possibly-stale flooded
/// views, so it sees exactly what a rogue gateway hides.
fn violating_flows(net: &OrwgNetwork) -> usize {
    net.open_flows()
        .filter(|(_, of)| !audit_path(net.topo(), net.policies(), &of.flow, &of.route).compliant())
        .count()
}

/// The transit AD carrying the most open flows — the highest-leverage
/// rogue for a byzantine run (ties break toward the lowest AD id).
pub(crate) fn most_transited(net: &OrwgNetwork) -> Option<AdId> {
    let mut counts: BTreeMap<AdId, usize> = BTreeMap::new();
    for (_, of) in net.open_flows() {
        for &ad in transit(&of.route) {
            *counts.entry(ad).or_insert(0) += 1;
        }
    }
    counts
        .into_iter()
        .max_by_key(|&(ad, n)| (n, std::cmp::Reverse(ad.index())))
        .map(|(ad, _)| ad)
}

/// What one byzantine run produced, for `audit`, `chaos --byzantine`,
/// and `report` to render.
pub(crate) struct ByzReport {
    /// The misbehaving AD.
    pub rogue: AdId,
    /// The logged `misbehavior-inject` root, if the log is enabled.
    pub inject: Option<EventId>,
    /// Open flows violating ground-truth policy right after injection.
    pub(crate) violating_before: usize,
    /// The first confirmed alarm against the rogue, if any fired.
    pub detection: Option<Alarm>,
    /// The logged `quarantine-enter` event, if the log is enabled.
    pub enter: Option<EventId>,
    /// Flows torn down by containment.
    pub torn: usize,
    /// Repair outcomes for the torn flows.
    pub repair: RepairStats,
    /// Open flows still violating ground-truth policy after containment.
    pub(crate) violating_after: usize,
    /// The controller, still holding the quarantine (callers may lift it).
    pub controller: QuarantineController,
}

/// Drives the full byzantine lifecycle against an assembled network:
/// covertly flips the rogue's *actual* policy to deny-all (its flooded
/// view stays stale, so Route Servers keep synthesizing through it),
/// turns its gateway rogue (forged setup acks install what policy
/// forbids), opens the `fresh` flows through the now-lying gateway, then
/// runs the monitor bank tick by tick until the policy-violation
/// tripwire fires, the quarantine controller contains the suspect, and
/// repair reconverges the torn flows policy-legally around it.
pub(crate) fn run_byzantine(
    net: &mut OrwgNetwork,
    rogue: AdId,
    at: SimTime,
    fresh: &[FlowSpec],
) -> ByzReport {
    net.set_covert_policy(TransitPolicy::deny_all(rogue));
    net.set_rogue_gateways([rogue]);
    let inject = net.obs.record_event(
        at,
        None,
        EventRecord::MisbehaviorInject {
            ad: rogue,
            model: MisbehaviorModel::ForgedAck.tag(),
        },
    );
    for f in fresh {
        let _ = net.open_repairable(f);
    }
    let violating_before = violating_flows(net);
    let mut bank = MonitorBank::new(MonitorConfig::default());
    bank.set_injection_roots(&[(rogue, inject)]);
    let mut controller = QuarantineController::default();
    let mut detection = None;
    let mut enter = None;
    let mut torn = 0usize;
    let mut repair = RepairStats::default();
    for _ in 0..6 {
        // One monitoring tick: probe every open flow against ground truth.
        let probes: Vec<Observation> = net
            .open_flows()
            .map(|(_, of)| Observation::Delivered {
                src: of.flow.src,
                dst: of.flow.dst,
                violators: audit_path(net.topo(), net.policies(), &of.flow, &of.route).violations,
            })
            .collect();
        for p in probes {
            bank.observe(p);
        }
        let mut contained = false;
        for alarm in bank.end_tick(&mut net.obs, at) {
            if let Some((ad, qev)) = controller.note_alarm(&alarm, &mut net.obs, at) {
                detection.get_or_insert(alarm);
                enter = enter.or(qev);
                let t = net.quarantine_ad(ad, qev);
                net.obs
                    .metrics
                    .record("quarantine_collateral_flows", t as u64);
                torn += t;
                let r = net.repair_pending(3);
                repair.repaired_via_alternate += r.repaired_via_alternate;
                repair.repaired_via_synthesis += r.repaired_via_synthesis;
                repair.failures += r.failures;
                repair.setup_retransmits += r.setup_retransmits;
                contained = true;
            }
        }
        if contained || violating_before == 0 {
            break;
        }
    }
    let violating_after = violating_flows(net);
    ByzReport {
        rogue,
        inject,
        violating_before,
        detection,
        enter,
        torn,
        repair,
        violating_after,
        controller,
    }
}

/// What `audit <scenario>` ran, for it to render.
pub struct AuditRun {
    /// The data plane afterwards, with its event log and metrics.
    pub net: OrwgNetwork,
    /// Flows open before the rogue turned.
    pub opened: usize,
    /// Fresh setups attempted after it turned.
    pub fresh: usize,
    /// The byzantine lifecycle's outcome.
    pub(crate) bz: ByzReport,
}

/// `audit <scenario>` and the audit golden trace: the most-transited AD
/// of the scenario's open flows turns rogue and `run_byzantine` detects,
/// quarantines and repairs around it. `None` if no open flow transits
/// any AD.
pub fn audit_run(sc: &Scenario) -> Option<AuditRun> {
    let (mut net, opened) = open_flows(sc);
    let rogue = most_transited(&net)?;
    // A fresh wave arrives *after* the rogue turns: its setups through the
    // rogue succeed only because the gateway forges the acks.
    let fresh = sample_flows(&sc.topo, 10, sc.seed ^ 0x5a);
    let bz = run_byzantine(&mut net, rogue, SimTime::ZERO, &fresh);
    Some(AuditRun {
        net,
        opened,
        fresh: fresh.len(),
        bz,
    })
}

/// The AD whose Route Server the stress crash targets: the storm's
/// busiest source (ties to the lowest id), so the outage lands where the
/// admission queue is deepest.
fn busiest_src(storm: &OpenStorm, n_ads: usize) -> AdId {
    let mut counts = vec![0u64; n_ads];
    for a in storm.arrivals() {
        counts[a.src.index()] += 1;
    }
    let mut best = 0usize;
    for (i, &c) in counts.iter().enumerate() {
        if c > counts[best] {
            best = i;
        }
    }
    AdId(best as u32)
}

/// Draws a scenario's storm and runs the load ramp, returning the
/// network (for its event log and metrics) with the report.
///
/// The default service costs — full synthesis 6 ms, a cached answer
/// 1.2 ms, a stored-only answer 0.6 ms — make the ramps straddle
/// saturation on a ~30-AD internet. A `stress` run logs
/// events, and the busiest source AD's Route Server goes down a quarter
/// into the peak phase, its warm standby taking over 20 ms later. A
/// `profiled` run is the always-on light path instead: the self-profiler
/// alone and no crash, so it times serving, not failover.
pub(crate) fn stress_run(
    sc: &Scenario,
    sharding: Option<ShardConfig>,
    profiled: bool,
) -> (OrwgNetwork, StressReport) {
    let mut net = OrwgNetwork::converged(&sc.topo, &sc.policies());
    if profiled {
        net.enable_prof();
    } else {
        net.enable_obs(1 << 18);
    }
    let storm = OpenStorm::draw(&sc.topo, &sc.phases, SimTime::ZERO, sc.seed);
    let durations_us: Vec<u64> = sc.phases.iter().map(|p| p.duration_ms * 1000).collect();
    let cfg = StressConfig {
        seed: sc.seed,
        sharding,
        crash: (!profiled).then(|| {
            let peak_start: u64 = durations_us[..durations_us.len() - 1].iter().sum();
            let down_at = SimTime(peak_start + durations_us[durations_us.len() - 1] / 4);
            RouterOutage {
                ad: busiest_src(&storm, sc.topo.num_ads()),
                down_at,
                up_at: down_at.plus_us(20_000),
            }
        }),
        ..StressConfig::default()
    };
    let report = run_load_ramp(&mut net, &storm, &durations_us, &cfg);
    (net, report)
}
