use super::*;

pub(super) const CHAOS: Command = Command {
    name: "chaos",
    usage: "[--ads N --seed S --duration MS --loss P --flows N
                 --view incremental|flush --byzantine [forged-ack]
                 --partition --trace FILE]
                run the ORWG control and data planes through a seeded fault
                plan (link churn, lossy channels, router crashes) and report
                recovery metrics; --view picks how Route Servers absorb
                re-flooded changes (incremental invalidation vs full flush);
                --partition also splits the flooding domain at the AD-index
                midpoint for the first half of the horizon, then heals;
                --byzantine additionally turns one transit AD rogue
                (forged setup acks) and runs detection + quarantine;
                --trace exports the typed event stream as JSON Lines",
    flags: &[
        "ads",
        "seed",
        "duration",
        "loss",
        "flows",
        "view",
        "byzantine",
        "trace",
        "partition",
    ],
    check: Args::known,
    run: chaos,
};

fn chaos(args: &Args) -> Result<String, CliError> {
    let trace_path = args.opt("trace");
    let ads = args.count("ads", Some(40))?;
    let seed: u64 = args.opt_parse("seed", 1990)?;
    let duration_ms = opt_duration_ms(args, 400)?;
    if duration_ms == 0 {
        return bail("--duration must be a positive number of milliseconds");
    }
    let partition = args.opt_parse("partition", false)?;
    let loss = opt_loss(args, 0.05)?;
    let n_flows: usize = args.opt_parse("flows", 30)?;
    let byz_model = match args.opt("byzantine") {
        None => None,
        Some("true") | Some("forged-ack") => Some(MisbehaviorModel::ForgedAck),
        Some(tag) => {
            return bail(match MisbehaviorModel::parse(tag) {
                Some(m) => format!(
                    "--byzantine: chaos drives the ORWG data plane, which supports forged-ack; \
                     '{}' targets the hop-by-hop engines (see `adroute audit`)",
                    m.tag()
                ),
                None => format!(
                    "--byzantine: unknown misbehavior model '{tag}'; models: {}",
                    MisbehaviorModel::ALL.map(|m| m.tag()).join(", ")
                ),
            })
        }
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
        link_model: Some(link_churn(duration_ms, seed)),
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
    let s = &e.stats;
    let _ = writeln!(
        out,
        "control plane: quiescent at {} us after {} events\n  \
         crashes {}, restarts {}, msgs lost {}, corrupted {}, duplicated {}, reordered {}\n  \
         seq jumps {}, resyncs {}",
        t.0,
        s.events,
        s.get(Counter::RouterCrashes),
        s.get(Counter::RouterRestarts),
        s.get(Counter::MsgsLost),
        s.get(Counter::MsgsCorrupted),
        s.get(Counter::MsgsDuplicated),
        s.get(Counter::MsgsReordered),
        s.get(Counter::LsSeqJump),
        s.get(Counter::LsResync),
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
    let flows = adroute_protocols::forwarding::sample_flows(&topo, n_flows, seed);
    let (mut opened, mut no_route, mut timeouts, mut rejected) = (0u64, 0u64, 0u64, 0u64);
    for f in &flows {
        match net.open_repairable(f) {
            Ok(_) => opened += 1,
            Err(adroute_core::network::OpenError::NoRoute) => no_route += 1,
            Err(adroute_core::network::OpenError::SetupTimeout) => timeouts += 1,
            Err(_) => rejected += 1,
        }
    }
    // Only this wave's setups are lossy.
    net.set_setup_loss(0.0, 0);
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
    // Ground truth with every link of `victim` down.
    let without = |victim: AdId| {
        let mut ghost = truth.clone();
        for l in truth.links().filter(|l| l.a == victim || l.b == victim) {
            ghost.set_link_up(l.id, false);
        }
        ghost
    };
    let survivable = |victim: AdId| {
        let ghost = without(victim);
        let mut transiting = 0;
        for (_, of) in net.open_flows() {
            if transit(&of.route).contains(&victim) {
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
    let mut ghost = without(victim);
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
                let affected = transit(&of.route).contains(&victim) || uses(&of.route, l.a, l.b);
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
    let (ca, cb) = (truth.link(cut).a, truth.link(cut).b);
    // Oracle ground truth for the report: of the flows about to be torn
    // down, how many still have a policy-legal route at all?
    ghost.set_link_up(cut, false);
    let no_detour = net
        .open_flows()
        .filter(|(_, of)| transit(&of.route).contains(&victim) || uses(&of.route, ca, cb))
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
    let agg = net.aggregate_synth_stats();
    net.restore_gateway(victim);
    let _ = writeln!(
        out,
        "recovery: crashed {victim} gateway, failed link {ca}-{cb}: {torn} flows torn down \
         ({no_detour} with no policy-legal detour)\n  \
         repaired via cached alternate {}, via fresh synthesis {}, unrepairable {}\n  \
         view maintenance ({view}): entries invalidated {}, revalidations {} \
         ({} kept in place), setup searches {}, precompute searches {}\n  \
         stale forwards across all gateways: {}",
        r.repaired_via_alternate,
        r.repaired_via_synthesis,
        r.failures,
        agg.entries_invalidated,
        agg.revalidations,
        agg.revalidate_hits,
        agg.searches,
        agg.precompute_searches,
        net.total_stale_forwards(),
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
        let _ = match &bz.detection {
            Some(a) => writeln!(
                out,
                "  detected: {} tripwire on tick {} ({} violating observations)",
                a.detector, a.tick, a.evidence
            ),
            None => writeln!(out, "  detected: nothing (no open flow transits the rogue)"),
        };
        let _ = writeln!(
            out,
            "  quarantine: {} transiting flows torn down; repaired {} via alternate, \
             {} via synthesis, {} unrepairable\n  violating flows after containment: {}",
            bz.torn,
            bz.repair.repaired_via_alternate,
            bz.repair.repaired_via_synthesis,
            bz.repair.failures,
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

#[cfg(test)]
mod tests {
    use std::fs;

    use super::super::tests::{run, tmp};

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
}
