use super::*;

pub(super) const STRESS: Command = Command {
    name: "stress",
    usage: "<quickstart|e9b> [--json --trace FILE --sharded]
                drive an open-request load ramp across the Route Servers'
                saturation point: admission queues defer, the brownout
                ladder degrades synthesis (full -> cached -> stored),
                overflow is shed with NACK + retry-after, clients retry
                under a deadline budget, and a mid-peak Route Server
                crash fails over to its warm standby (--json for
                machines, --trace exports the event stream, --sharded
                serves batches of co-routable opens per slot through
                shared multi-destination sweeps and refills invalidated
                cache entries in idle slots)",
    flags: &["json", "trace", "sharded"],
    check: Args::known_with_positionals,
    run: stress,
};

fn stress(args: &Args) -> Result<String, CliError> {
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
            .put(
                "metrics",
                net.obs.metrics.json(&net.ledger(), Output::Metrics),
            )
            .finish();
        out = wrap_json("stress", stress);
    } else {
        let _ = writeln!(
            out,
            "stress {scenario}: {} ADs, {} links, seed {}{}\n\
             phase  offered/s   offered   served     full   cached   stored     shed    aband \
             no-route  goodput/s",
            sc.topo.num_ads(),
            sc.topo.num_links(),
            sc.seed,
            if sharded {
                " (sharded batch service)"
            } else {
                ""
            }
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
             {} abandoned, {} no-route, {} setup-failed, {} retries\n\
             latency: setup wait p50 {} us, p99 {} us",
            r.offered,
            r.served,
            r.shed,
            r.abandoned,
            r.no_route,
            r.failed,
            r.retries,
            r.p50_wait_us,
            r.p99_wait_us
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

#[cfg(test)]
mod tests {
    use std::fs;

    use super::super::tests::{run, tmp};

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
}
