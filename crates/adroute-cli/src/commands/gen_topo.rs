use super::*;

pub(super) const GEN_TOPO: Command = Command {
    name: "gen-topo",
    usage: "--ads N [--seed S --lateral P --bypass P --multihome P --out FILE]
                generate a Figure-1-style internet (text format to stdout/FILE)",
    flags: &["ads", "seed", "lateral", "bypass", "multihome", "out"],
    check: Args::known,
    run: gen_topo,
};

fn gen_topo(args: &Args) -> Result<String, CliError> {
    let ads = args.count("ads", None)?;
    let cfg = HierarchyConfig {
        lateral_prob: opt_probability(args, "lateral", 0.25)?,
        bypass_prob: opt_probability(args, "bypass", 0.1)?,
        multihome_prob: opt_probability(args, "multihome", 0.2)?,
        ..HierarchyConfig::with_approx_size(ads, args.opt_parse("seed", 1990)?)
    };
    let topo = cfg.generate();
    emit(&topo_io::dump(&topo), args.opt("out"))
}

#[cfg(test)]
mod tests {
    use super::super::tests::run;

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
}
