//! Quickstart: bring up the ORWG/IDPR-style policy-routing architecture on
//! a Figure-1-style internet and route a flow end to end.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use adroute::core::router::converge_control_plane;
use adroute::core::{OrwgNetwork, Strategy};
use adroute::policy::workload::PolicyWorkload;
use adroute::policy::FlowSpec;
use adroute::topology::{AdLevel, HierarchyConfig};

fn main() {
    // 1. A hierarchical internet with lateral and bypass links (paper
    //    Figure 1), deterministic from its seed.
    let topo = HierarchyConfig::default().generate();
    let (h, l, b) = topo.link_kind_counts();
    println!(
        "internet: {} ADs, {} links ({h} hierarchical, {l} lateral, {b} bypass)",
        topo.num_ads(),
        topo.num_links()
    );

    // 2. A mixed policy workload: no-transit stubs, customer-cone
    //    restrictions, source-specific denials, QOS/UCI terms.
    let policies = PolicyWorkload::default_mix(1990).generate(&topo);
    println!(
        "policies: {} terms across {} ADs ({} bytes if flooded)",
        policies.total_terms(),
        topo.num_ads(),
        policies.total_encoded_size()
    );

    // 3. Run the distributed control plane: flood policy-bearing LSAs to
    //    quiescence.
    let engine = converge_control_plane(topo.clone(), policies.clone());
    println!(
        "flooding converged at t={} after {} messages ({} bytes)",
        engine.stats.last_activity, engine.stats.msgs_sent, engine.stats.bytes_sent
    );

    // 4. Build the data plane from each AD's own flooded view.
    let mut net = OrwgNetwork::from_engine(&engine, Strategy::Cached { capacity: 256 }, 4096);

    // 5. Pick two campus ADs and open a policy route between them.
    let campuses: Vec<_> = topo
        .ads()
        .filter(|a| a.level == AdLevel::Campus)
        .map(|a| a.id)
        .collect();
    let (src, dst) = (campuses[0], *campuses.last().unwrap());
    let flow = FlowSpec::best_effort(src, dst);
    println!("\nflow {flow}:");

    match net.open(&flow) {
        Ok(setup) => {
            let route: Vec<String> = setup.route.iter().map(|a| a.to_string()).collect();
            println!("  policy route : {}", route.join(" -> "));
            println!(
                "  setup        : {} gateway validations, {} header bytes, {} us",
                setup.validations, setup.header_bytes, setup.latency_us
            );
            // 6. Data packets ride the handle: constant 12-byte header.
            let data = net
                .send(setup.handle)
                .expect("established route must forward");
            println!(
                "  data packet  : {} hops, {} header bytes, {} us",
                data.hops, data.header_bytes, data.latency_us
            );
            let sr = net
                .send_source_routed(&flow)
                .expect("source-routed variant");
            println!(
                "  (ablation)   : full source route in every packet would cost {} header bytes",
                sr.header_bytes
            );
        }
        Err(e) => println!("  no legal route: {e:?}"),
    }

    // 7. The division of labour the paper argues for: only the source
    //    computed anything.
    println!("\nroute computations per AD (nonzero only):");
    for ad in topo.ad_ids() {
        let s = net.server(ad).stats;
        if s.searches > 0 {
            println!(
                "  {ad}: {} searches ({} states settled)",
                s.searches, s.settled
            );
        }
    }
}
