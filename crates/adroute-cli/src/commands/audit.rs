use super::*;

/// Scenario mode accepts the first two flags, structural mode the rest.
pub(super) const AUDIT: Command = Command {
    name: "audit",
    usage: "<quickstart|e7b> [--json --trace FILE]
                run the byzantine audit lifecycle on a fixed scenario: a
                forged-ack rogue AD is injected, the policy-violation
                tripwire detects it, quarantine tears its transits down,
                and repair reconverges every flow policy-legally
                (--json for machines, --trace exports the event stream);
                or: --topo FILE [--tree true] for the structural
                resilience report (articulation ADs, degrees, hierarchy)",
    flags: &["json", "trace", "topo", "tree"],
    check: no_check,
    run: audit,
};

fn audit_byzantine(args: &Args) -> Result<String, CliError> {
    args.known_with_positionals(&AUDIT.flags[..2])?;
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
            .put(
                "metrics",
                net.obs.metrics.json(&net.ledger(), Output::Metrics),
            )
            .finish();
        out = wrap_json("audit", audit);
    } else {
        let (rogue, r) = (bz.rogue, &bz.repair);
        let _ = writeln!(
            out,
            "audit {scenario}: {} ADs, {} links, seed {seed}\n\
             inject: {rogue} turns rogue (forged-ack): actual policy deny-all, flooded views stale\n\
             flows: {opened} open before, {fresh} fresh setups after; {} violating ground-truth policy",
            topo.num_ads(),
            topo.num_links(),
            bz.violating_before
        );
        let _ = match &bz.detection {
            Some(a) => writeln!(
                out,
                "detect: {} tripwire fired on tick {} ({} violating observations)",
                a.detector, a.tick, a.evidence
            ),
            None => writeln!(out, "detect: no alarm fired"),
        };
        let _ = writeln!(
            out,
            "contain: quarantined {rogue}; {} transiting flows torn down\n\
             repair: {} via cached alternate, {} via fresh synthesis, {} unrepairable\n\
             verify: {} flows violating after containment (policy-legal reconvergence: {reconverged})",
            bz.torn,
            r.repaired_via_alternate,
            r.repaired_via_synthesis,
            r.failures,
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

fn audit(args: &Args) -> Result<String, CliError> {
    if args.has_positionals() {
        return audit_byzantine(args);
    }
    args.known(&AUDIT.flags[2..])?;
    let topo = load_topo(args.req("topo")?)?;
    let stats = analysis::degree_stats(&topo);
    let arts = analysis::articulation_ads(&topo);
    let (h, l, b) = topo.link_kind_counts();
    let (s, m, t, hy) = topo.role_counts();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "ADs: {}  links: {} ({h} hierarchical, {l} lateral, {b} bypass)\n\
         roles: {s} stub, {m} multi-homed, {t} transit, {hy} hybrid\n\
         degree: min {} / mean {:.2} / max {}\nconnected: {}\narticulation ADs ({}):",
        topo.num_ads(),
        topo.num_links(),
        stats.min,
        stats.mean,
        stats.max,
        adroute_topology::algo::is_connected(&topo),
        arts.len()
    );
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

#[cfg(test)]
mod tests {
    use std::fs;

    use super::super::tests::{run, tmp};

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
}
