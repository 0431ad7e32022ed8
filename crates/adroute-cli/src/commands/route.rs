use super::*;

pub(super) const ROUTE: Command = Command {
    name: "route",
    usage: "--topo FILE --src A --dst B [--policies FILE --qos Q --uci U --time HH:MM]
                find the least-cost policy-legal route (oracle + ORWG setup)",
    flags: &["topo", "policies", "src", "dst", "qos", "uci", "time"],
    check: Args::known,
    run: route,
};

fn parse_hm(s: &str) -> Result<TimeOfDay, CliError> {
    let Some((h, m)) = s.split_once(':') else {
        return bail(format!("expected HH:MM, found '{s}'"));
    };
    match (h.parse::<u16>(), m.parse::<u16>()) {
        (Ok(h), Ok(m)) if h < 24 && m < 60 => Ok(TimeOfDay::hm(h, m)),
        _ => bail(format!("bad time '{s}'")),
    }
}

fn route(args: &Args) -> Result<String, CliError> {
    let topo = load_topo(args.req("topo")?)?;
    let db = load_policies(args.opt("policies"), &topo)?;
    let src = AdId(args.req_parse("src")?);
    let dst = AdId(args.req_parse("dst")?);
    if src.index() >= topo.num_ads() || dst.index() >= topo.num_ads() {
        return bail("src/dst outside the topology");
    }
    let mut flow = FlowSpec::best_effort(src, dst)
        .with_qos(QosClass(args.opt_parse("qos", 0u8)?))
        .with_uci(UserClass(args.opt_parse("uci", 0u8)?));
    if let Some(t) = args.opt("time") {
        flow = flow.at(parse_hm(t)?);
    }
    let mut out = format!("flow: {flow}\n");
    let Some(r) = legality::legal_route(&topo, &db, &flow) else {
        return Ok(out + "no policy-legal route exists\n");
    };
    let path: Vec<String> = r.path.iter().map(|a| a.to_string()).collect();
    let _ = writeln!(
        out,
        "route: {}  (cost {}, {} hops)",
        path.join(" -> "),
        r.cost,
        r.hops()
    );
    let _ = match OrwgNetwork::converged(&topo, &db).open(&flow) {
        Ok(setup) => writeln!(
            out,
            "setup: {} gateway validations, {} header bytes, {} us; data header {} bytes/pkt",
            setup.validations,
            setup.header_bytes,
            setup.latency_us,
            adroute_core::DataPacket::HEADER_SIZE
        ),
        Err(e) => writeln!(out, "setup failed: {e:?}"),
    };
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::super::tests::{run, tmp};

    #[test]
    fn route_with_class_flags() {
        let topo_file = tmp("classes.topo");
        run(&format!("gen-topo --ads 50 --seed 5 --out {topo_file}")).unwrap();
        let out = run(&format!(
            "route --topo {topo_file} --src 0 --dst 10 --qos 1 --uci 2 --time 23:30"
        ))
        .unwrap();
        assert!(out.contains("qos1 uci2 @23:30"), "{out}");
    }
}
