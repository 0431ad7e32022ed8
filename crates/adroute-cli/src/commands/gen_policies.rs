use super::*;

pub(super) const GEN_POLICIES: Command = Command {
    name: "gen-policies",
    usage: "--topo FILE [--granularity G --seed S --out FILE]
                generate a policy workload for a topology",
    flags: &["topo", "granularity", "seed", "out"],
    check: Args::known,
    run: gen_policies,
};

fn gen_policies(args: &Args) -> Result<String, CliError> {
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
