//! Failure response across the design space: cut an AD off after
//! convergence and watch each architecture recover.
//!
//! The paper's Section 2.2 assumption — ADs are stable, inter-AD links
//! fail — makes this the interesting dynamic case: naive DV counts toward
//! infinity, ECMA's ordering suppresses the count, path vector explores
//! paths, link state refloods, and ORWG invalidates handles and re-runs
//! setup.
//!
//! ```sh
//! cargo run --example failover
//! ```

use adroute::core::{OrwgNetwork, Strategy};
use adroute::policy::{FlowSpec, PolicyDb};
use adroute::topology::generate::ring;
use adroute::topology::AdId;
use adroute_bench::e10;

fn main() {
    let n = 8;
    println!(
        "ring of {n} ADs, permissive policies; partition AD{} after convergence\n",
        n / 2
    );

    // E10(a)'s rows at one ring size: `adroute_bench::e10::rings`, the
    // function the exp10 bench prints and `tests/shapes.rs` asserts on.
    for r in e10::rings(&[n]) {
        println!(
            "{:<26} initial: {:>5} msgs, conv {} us   failure: {:>5} msgs, reconv {} ms",
            r.arch,
            r.response.msgs,
            r.response.converge_us,
            r.response.fail_msgs,
            r.response.reconverge_us / 1000
        );
    }

    // ORWG: the interesting part is the data plane — handles crossing the
    // dead link are invalidated and the source re-opens.
    println!("\nORWG handle recovery:");
    let topo = ring(n);
    let db = PolicyDb::permissive(&topo);
    let mut net = OrwgNetwork::converged_with(&topo, &db, Strategy::Cached { capacity: 128 }, 1024);
    let flow = FlowSpec::best_effort(AdId(0), AdId(4));
    let s1 = net.open(&flow).expect("initial setup");
    println!(
        "  before: route {:?}, setup {} bytes",
        s1.route.iter().map(|a| a.0).collect::<Vec<_>>(),
        s1.header_bytes
    );
    let l = net.topo().link_between(AdId(1), AdId(2)).unwrap();
    net.fail_link(l);
    match net.send(s1.handle) {
        Err(e) => println!("  after failure, old handle: {e:?} -> source must re-open"),
        Ok(_) => println!("  after failure, old handle unexpectedly still works"),
    }
    let s2 = net.open(&flow).expect("re-setup around the failure");
    println!(
        "  re-opened: route {:?} ({} validations, {} bytes)",
        s2.route.iter().map(|a| a.0).collect::<Vec<_>>(),
        s2.validations,
        s2.header_bytes
    );
    let d = net.send(s2.handle).expect("data flows again");
    println!(
        "  data flows again: {} hops, {} header bytes",
        d.hops, d.header_bytes
    );
}
