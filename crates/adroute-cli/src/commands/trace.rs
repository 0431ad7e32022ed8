use super::*;

pub(super) const TRACE: Command = Command {
    name: "trace",
    usage: "[--ads N --seed S --duration MS --loss P
                 --proto orwg|dv|ecma|pv|ls-hbh --capacity N --out FILE
                 --analyze]
                export one engine run (convergence, then seeded churn) as a
                typed JSON Lines event stream; --analyze prints the causal
                analysis (critical path + storm report) instead",
    flags: &[
        "ads", "seed", "duration", "loss", "proto", "capacity", "out", "analyze",
    ],
    check: Args::known,
    run: trace,
};

/// The run `trace` makes of any design point: converge, apply a seeded
/// churn plan over `duration_ms`, re-converge, then export the typed
/// event stream (or, with `analyze`, its causal analysis).
struct TraceRun {
    duration_ms: u64,
    loss: f64,
    seed: u64,
    capacity: usize,
    analyze: bool,
}

impl TraceRun {
    fn on<P: Protocol>(&self, mut e: Engine<P>) -> String {
        e.enable_obs(self.capacity);
        e.begin_phase("converge");
        e.run_to_quiescence();
        e.begin_phase("churn");
        let spec = FaultSpec {
            link_model: Some(link_churn(self.duration_ms, self.seed)),
            crash_model: None,
            channel: (self.loss > 0.0).then(|| ChannelFaults::lossy(self.loss, self.seed ^ 0x33)),
            misbehavior: MisbehaviorSpec::default(),
        };
        let plan = FaultPlan::draw(e.topo(), &spec, e.now(), self.duration_ms);
        plan.apply(&mut e);
        e.run_to_quiescence();
        if self.analyze {
            format!("trace analysis: {}", causal_analysis_text(&[&e.obs.log]))
        } else {
            e.obs.log.export_jsonl()
        }
    }
}

fn trace(args: &Args) -> Result<String, CliError> {
    let ads = args.count("ads", Some(30))?;
    let seed: u64 = args.opt_parse("seed", 1990)?;
    let run = TraceRun {
        duration_ms: opt_duration_ms(args, 200)?,
        loss: opt_loss(args, 0.0)?,
        seed,
        capacity: args.opt_parse("capacity", 1 << 20)?,
        analyze: args.opt_parse("analyze", false)?,
    };
    let topo = HierarchyConfig::with_approx_size(ads, seed).generate();
    let db = PolicyWorkload::structural(seed).generate(&topo);
    let jsonl = match args.opt("proto").unwrap_or("orwg") {
        "orwg" => run.on(Engine::new(topo.clone(), OrwgProtocol::new(&topo, db))),
        "dv" => run.on(Engine::new(topo.clone(), NaiveDv::egp())),
        "ecma" => run.on(Engine::new(topo.clone(), Ecma::hierarchical(&topo))),
        "pv" => run.on(Engine::new(topo.clone(), PathVector::idrp(db))),
        "ls-hbh" => run.on(Engine::new(topo.clone(), LsHbh::new(&topo, db))),
        other => {
            return bail(format!(
                "--proto must be orwg, dv, ecma, pv, or ls-hbh, found '{other}'"
            ))
        }
    };
    emit(&jsonl, args.opt("out"))
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
        "{} events in {} span trees (acyclic: {})\ncritical path: {} causally-linked events",
        g.events().len(),
        storms.len(),
        g.is_acyclic_by_id(),
        path.len()
    );
    for ev in &path {
        let cause = ev
            .cause
            .map_or("root".to_string(), |c| format!("<- #{}", c.0));
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
        g.events().len()
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

pub(super) const BLAME: Command = Command {
    name: "blame",
    usage: "<quickstart|e7b> [--json]
                run a fixed scenario and attribute its churn: the critical
                path of causally-linked events that gated convergence, and
                a per-root-cause storm report (--json for machines)",
    flags: &["json"],
    check: Args::known_with_positionals,
    run: blame,
};

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
        .put("events", g.events().len())
        .put("roots", storms.len())
        .put("critical_path", path)
        .put("storms", storm_array)
        .finish();
    wrap_json("blame", blame)
}

/// The scenarios are the golden-trace fixtures, so `blame` explains the
/// committed `tests/golden/*.jsonl` artifacts.
fn blame(args: &Args) -> Result<String, CliError> {
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

#[cfg(test)]
mod tests {
    use super::super::tests::run;

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
}
