use super::*;

pub(super) const PROFILE: Command = Command {
    name: "profile",
    usage: "<quickstart|e7b|e13|e14> [--json --folded --top N
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
                flamegraph.pl, default a top-N self-time table)",
    flags: &["json", "folded", "top", "ads", "loss", "out"],
    check: Args::known_with_positionals,
    run: profile,
};

/// Wall times vary run to run; `tests/profile_determinism.rs` holds the
/// `work` ledger (the engine's and the network's counts, as
/// [`Output::Work`] names them) byte-identical across runs.
fn profile(args: &Args) -> Result<String, CliError> {
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
    let mut work = Ledger::default();
    let (ads, links);
    match scenario::lookup("profile", &scenario)? {
        // e13, the gossip flood: the engine's dispatch path at scale.
        // `--loss p` attaches an event-keyed lossy channel so the
        // profiled dispatch path is the faulted one.
        None => {
            let n = args.count("ads", Some(2_000))?;
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
            work += &e.stats.ledger();
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
                work += &e.stats.ledger();
            }
            if scenario == "e7b" {
                for p in &mut sc.phases {
                    p.duration_ms = (p.duration_ms / 4).max(1);
                }
            }
            let (net, _) = scenario::stress_run(&sc, Some(ShardConfig::default()), true);
            prof.merge_from(&net.prof);
            work += &net.ledger();
        }
    }
    let out = if json {
        let mut w = JsonWriter::object();
        w.put_str("scenario", &scenario)
            .put("ads", ads)
            .put("links", links)
            .put("work", work.to_json(Output::Work));
        prof.json_fields(&mut w);
        wrap_json("profile", w.finish())
    } else if folded {
        prof.fold()
    } else {
        let mut table = prof.table(top);
        let ledger = work.printed(Output::Work);
        if !ledger.is_empty() {
            table.push_str("work ledger (deterministic):\n");
        }
        for (k, v) in ledger {
            let _ = writeln!(table, "{v:>14}  {k}");
        }
        format!("profile {scenario}: {ads} ADs, {links} links\n{table}")
    };
    emit(&out, args.opt("out"))
}

#[cfg(test)]
mod tests {
    use super::super::tests::run;

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
