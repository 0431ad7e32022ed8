//! A tour of the paper's design space: run every viable architecture on
//! the same internet and policy workload, and score each against the
//! oracle — route availability, policy compliance, loop-freedom, path
//! stretch, and control-plane cost.
//!
//! This is the narrative behind Table 1, measured rather than asserted.
//!
//! ```sh
//! cargo run --example design_space_tour
//! ```

use adroute::core::network::OpenError;
use adroute::core::{OrwgNetwork, Strategy};
use adroute::policy::legality::legal_route;
use adroute::policy::workload::PolicyWorkload;
use adroute::protocols::ecma::Ecma;
use adroute::protocols::forwarding::{sample_flows, score_flows, FlowScore};
use adroute::protocols::ls_hbh::LsHbh;
use adroute::protocols::naive_dv::NaiveDv;
use adroute::protocols::path_vector::PathVector;
use adroute::sim::Engine;
use adroute::topology::HierarchyConfig;

fn row(name: &str, s: &FlowScore, msgs: u64, bytes: u64) {
    println!(
        "{name:<22} {:>6.1}% {:>8.1}% {:>6} {:>8.2} {:>9} {:>11}",
        100.0 * s.availability(),
        100.0 * s.violation_rate(),
        s.loops,
        s.stretch(),
        msgs,
        bytes
    );
}

fn main() {
    let topo = HierarchyConfig::e_series(98, 7).generate();
    let policies = PolicyWorkload::default_mix(7).generate(&topo);
    let flows = sample_flows(&topo, 150, 7);
    let legal = flows
        .iter()
        .filter(|f| legal_route(&topo, &policies, f).is_some())
        .count();
    println!(
        "internet: {} ADs, {} links; {} policy terms; {} / {} sampled flows have a legal route\n",
        topo.num_ads(),
        topo.num_links(),
        policies.total_terms(),
        legal,
        flows.len()
    );
    println!(
        "{:<22} {:>7} {:>9} {:>6} {:>8} {:>9} {:>11}",
        "architecture", "avail", "violate", "loops", "stretch", "ctl msgs", "ctl bytes"
    );

    // Naive DV (no policy).
    let mut dv = Engine::new(topo.clone(), NaiveDv::default());
    dv.run_to_quiescence();
    let (m, b) = (dv.stats.msgs_sent, dv.stats.bytes_sent);
    let s = score_flows(&mut dv, &topo.clone(), &policies, &flows);
    row("naive DV (baseline)", &s, m, b);

    // ECMA: DV + policy-in-topology.
    let mut ecma = Engine::new(topo.clone(), Ecma::hierarchical(&topo));
    ecma.run_to_quiescence();
    let (m, b) = (ecma.stats.msgs_sent, ecma.stats.bytes_sent);
    let s = score_flows(&mut ecma, &topo.clone(), &policies, &flows);
    row("ECMA (DV+ordering)", &s, m, b);

    // IDRP: path vector + explicit policy terms.
    let mut pv = Engine::new(topo.clone(), PathVector::idrp(policies.clone()));
    pv.run_to_quiescence();
    let (m, b) = (pv.stats.msgs_sent, pv.stats.bytes_sent);
    let s = score_flows(&mut pv, &topo.clone(), &policies, &flows);
    row("IDRP (PV+terms)", &s, m, b);

    // BGP-2: path vector without source scopes.
    let mut bgp = Engine::new(topo.clone(), PathVector::bgp2(policies.clone()));
    bgp.run_to_quiescence();
    let (m, b) = (bgp.stats.msgs_sent, bgp.stats.bytes_sent);
    let s = score_flows(&mut bgp, &topo.clone(), &policies, &flows);
    row("BGP-2 (PV, no scope)", &s, m, b);

    // LS hop-by-hop.
    let mut ls = Engine::new(topo.clone(), LsHbh::new(&topo, policies.clone()));
    ls.run_to_quiescence();
    let (m, b) = (ls.stats.msgs_sent, ls.stats.bytes_sent);
    let s = score_flows(&mut ls, &topo.clone(), &policies, &flows);
    row("LS hop-by-hop", &s, m, b);

    // ORWG: LS + source routing (control cost = same flooding as LS).
    let engine = adroute::core::router::converge_control_plane(topo.clone(), policies.clone());
    let (m, b) = (engine.stats.msgs_sent, engine.stats.bytes_sent);
    let mut net = OrwgNetwork::from_engine(&engine, Strategy::Cached { capacity: 512 }, 4096);
    let mut s = FlowScore {
        flows: flows.len(),
        ..Default::default()
    };
    for f in &flows {
        let oracle = legal_route(&topo, &policies, f);
        if oracle.is_some() {
            s.legal_exists += 1;
        }
        match net.open(f) {
            Ok(setup) => {
                s.delivered += 1;
                if let Some(o) = &oracle {
                    s.compliant_of_legal += 1;
                    let cost = adroute::policy::legality::route_is_legal(
                        &topo,
                        &policies,
                        f,
                        &setup.route,
                    )
                    .expect("gateway-validated route must be legal");
                    s.cost_sum += cost;
                    s.oracle_cost_sum += o.cost;
                }
            }
            Err(OpenError::NoRoute) => {}
            Err(e) => panic!("unexpected setup failure {e:?}"),
        }
    }
    row("ORWG (LS+source rte)", &s, m, b);

    println!(
        "\ntransit route-computation burden (total searches): LS-HBH per-hop \
         recomputation vs ORWG source-only = see exp5 bench"
    );
}
