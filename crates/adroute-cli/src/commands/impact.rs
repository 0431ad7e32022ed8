use super::*;

pub(super) const IMPACT: Command = Command {
    name: "impact",
    usage: "--topo FILE --policies FILE --candidate FILE [--flows N --seed S]
                predict the effect of a candidate policy before deploying it",
    flags: &["topo", "policies", "candidate", "flows", "seed"],
    check: Args::known,
    run: impact,
};

fn impact(args: &Args) -> Result<String, CliError> {
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
