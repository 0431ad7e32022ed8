use super::*;

pub(super) const REPORT: Command = Command {
    name: "report",
    usage: "[--ads N --seed S --flows N --json]
                run every design point (dv, ecma, pv, ls-hbh, orwg) through
                convergence and a trunk failure on one seeded internet and
                report convergence times, message complexity, per-AD load,
                and route-setup latency histograms (--json for machines)",
    flags: &["ads", "seed", "flows", "json"],
    check: Args::known,
    run: report,
};

/// One design point's measurements for `report`.
struct PointReport {
    name: &'static str,
    converge_us: u64,
    reconverge_us: u64,
    totals: Stats,
    metrics: MetricsRegistry,
    /// The counts the `metrics` object prints, and as which output.
    counts: (Ledger, Output),
}

impl PointReport {
    /// Also folds the per-AD message counts of `totals` into `metrics` as
    /// the `"ad_msgs"` load histogram.
    fn new(
        name: &'static str,
        us: (u64, u64),
        mut metrics: MetricsRegistry,
        totals: &Stats,
        counts: (Ledger, Output),
    ) -> Self {
        for &v in &totals.per_ad_msgs {
            metrics.record("ad_msgs", v);
        }
        PointReport {
            name,
            converge_us: us.0,
            reconverge_us: us.1,
            totals: totals.clone(),
            metrics,
            counts,
        }
    }
}

/// What every design point runs through: converge on `topo`, cut
/// `trunk`, re-converge, then carry `flows`.
struct TrunkCut<'a> {
    topo: &'a Topology,
    trunk: LinkId,
    flows: &'a [FlowSpec],
}

impl TrunkCut<'_> {
    /// Measures one hop-by-hop design point, recording each delivered
    /// flow's first-packet path latency — the hop-by-hop analogue of
    /// ORWG's setup latency.
    fn hbh<P>(&self, name: &'static str, protocol: P) -> PointReport
    where
        P: Protocol,
        Engine<P>: DataPlane,
    {
        let mut e = Engine::new(self.topo.clone(), protocol);
        let us = scenario::converge_then_cut(&mut e, &[self.trunk]);
        let topo = e.topo().clone();
        for f in self.flows {
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
                e.obs.metrics.add(Counter::FlowsDelivered, 1);
            } else {
                e.obs.metrics.add(Counter::FlowsUndelivered, 1);
            }
        }
        let counts = (e.obs.ledger(), Output::Metrics);
        let metrics = std::mem::take(&mut e.obs.metrics);
        PointReport::new(name, us, metrics, &e.stats, counts)
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
        .put("metrics", p.metrics.json(&p.counts.0, p.counts.1))
        .finish()
}

fn report(args: &Args) -> Result<String, CliError> {
    let ads = args.count("ads", Some(60))?;
    let seed: u64 = args.opt_parse("seed", 1990)?;
    let n_flows: usize = args.opt_parse("flows", 40)?;
    let json = args.opt_parse("json", false)?;

    let topo = HierarchyConfig::with_approx_size(ads, seed).generate();
    let db = PolicyWorkload::structural(seed).generate(&topo);
    let trunk = analysis::trunk(&topo).expect("a generated internet has links");
    let flows = adroute_protocols::forwarding::sample_flows(&topo, n_flows, seed);

    let cut = TrunkCut {
        topo: &topo,
        trunk,
        flows: &flows,
    };
    let mut points = vec![
        cut.hbh("dv", NaiveDv::egp()),
        cut.hbh("ecma", Ecma::hierarchical(&topo)),
        cut.hbh("pv", PathVector::idrp(db.clone())),
        cut.hbh("ls-hbh", LsHbh::new(&topo, db.clone())),
    ];

    // ORWG: source routing — setup latency is measured by actually opening
    // each flow through the data plane built from the re-converged engine.
    let mut e = Engine::new(topo.clone(), OrwgProtocol::new(&topo, db.clone()));
    let us = scenario::converge_then_cut(&mut e, &[trunk]);
    let mut net = OrwgNetwork::from_engine(
        &e,
        OrwgNetwork::DEFAULT_STRATEGY,
        OrwgNetwork::DEFAULT_HANDLE_CAPACITY,
    );
    for f in &flows {
        match net.open(f) {
            Ok(_) => net.obs.metrics.add(Counter::FlowsDelivered, 1),
            Err(_) => net.obs.metrics.add(Counter::FlowsUndelivered, 1),
        }
    }
    // Byzantine containment drill: its quarantine lifecycle counters land
    // in the orwg point's metrics, which print them (and the Route
    // Servers' batched-sweep counters) even at zero.
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
    let counts = (net.ledger(), Output::Report);
    let metrics = std::mem::take(&mut net.obs.metrics);
    points.push(PointReport::new("orwg", us, metrics, &e.stats, counts));

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

#[cfg(test)]
mod tests {
    use super::super::tests::run;

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
}
