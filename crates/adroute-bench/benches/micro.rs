//! **M1** — Criterion micro-benchmarks of the hot paths: the
//! policy-constrained route search (Route Server synthesis), the ordering
//! solver, link-state view reconstruction, the LS hop-by-hop first packet,
//! ORWG setup/forwarding, and the ECMA valley-free search.

// criterion_group! expands to undocumented items.
#![allow(missing_docs)]

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use adroute_core::{OrwgNetwork, RouteServer, Strategy};
use adroute_policy::legality::legal_route;
use adroute_policy::ordering::{random_constraints, solve_ordering};
use adroute_policy::workload::PolicyWorkload;
use adroute_policy::FlowSpec;
use adroute_protocols::forwarding::{forward, sample_flows};
use adroute_protocols::ls_hbh::LsHbh;
use adroute_sim::Engine;
use adroute_topology::{AdId, HierarchyConfig, PartialOrder};

fn bench_oracle(c: &mut Criterion) {
    let topo = HierarchyConfig::with_approx_size(200, 41).generate();
    let db = PolicyWorkload::default_mix(41).generate(&topo);
    let flows = sample_flows(&topo, 64, 41);
    let mut i = 0;
    c.bench_function("oracle_legal_route_200ads", |b| {
        b.iter(|| {
            let f = &flows[i % flows.len()];
            i += 1;
            black_box(legal_route(&topo, &db, f))
        })
    });
}

fn bench_ordering_solver(c: &mut Criterion) {
    let topo = HierarchyConfig::with_approx_size(100, 43).generate();
    let cs = random_constraints(&topo, 200, 0.5, 43);
    c.bench_function("ordering_solver_200_constraints", |b| {
        b.iter(|| black_box(solve_ordering(topo.num_ads(), &cs)))
    });
}

fn bench_lsdb_view(c: &mut Criterion) {
    let topo = HierarchyConfig::with_approx_size(200, 47).generate();
    let db = PolicyWorkload::default_mix(47).generate(&topo);
    let mut e = Engine::new(topo.clone(), LsHbh::new(&topo, db));
    e.run_to_quiescence();
    // Who pays this: one LS hop-by-hop router per *distinct* database (the
    // `ViewStore` hands the result to every other holder of the same
    // LSAs), and `OrwgNetwork::from_engine` once per distinct database —
    // not every router after every flood.
    let before = e.router(AdId(0)).flooder.db.clone();
    c.bench_function("lsdb_view_reconstruction_200ads", |b| {
        b.iter(|| black_box(before.view()))
    });
    // The first packet of a flow no router has seen, source to
    // destination at quiescence: one search at the first hop, a charge and
    // a position lookup at each later one (the view itself is built during
    // warm-up; the line above prices it). Every iteration takes a new
    // (src, dst) pair — the stride is coprime to n², so none repeats
    // before all n² have been visited.
    let n = topo.num_ads() as u64;
    let mut k = 0u64;
    c.bench_function("ls_hbh_first_packet_200ads", |b| {
        b.iter(|| loop {
            k = (k + 7919) % (n * n);
            let (src, dst) = (AdId((k / n) as u32), AdId((k % n) as u32));
            if src != dst {
                break black_box(forward(&mut e, &topo, &FlowSpec::best_effort(src, dst)));
            }
        })
    });
    // The same database absorbed as deltas: a Route Server that derived
    // its view from one database syncs to the one a link flap leaves,
    // and back — two changed origins each way, no view rebuilt.
    let flapped = topo.links().next().expect("a link").id;
    e.schedule_link_change(flapped, false, e.now().plus_us(1000));
    e.run_to_quiescence();
    let after = e.router(AdId(0)).flooder.db.clone();
    let (vt, vd) = before.view();
    let mut rs = RouteServer::new(AdId(0), vt, vd, Strategy::Cached { capacity: 64 });
    rs.adopt_provenance(&before);
    let mut down = false;
    c.bench_function("lsdb_delta_refresh_one_flap_200ads", |b| {
        b.iter(|| {
            down = !down;
            black_box(rs.sync_view(if down { &after } else { &before }))
        })
    });
}

fn bench_orwg_data_plane(c: &mut Criterion) {
    let topo = HierarchyConfig::with_approx_size(200, 53).generate();
    let db = PolicyWorkload::default_mix(53).generate(&topo);
    let mut net =
        OrwgNetwork::converged_with(&topo, &db, Strategy::Cached { capacity: 4096 }, 65536);
    let flows = sample_flows(&topo, 64, 53);
    let mut i = 0;
    c.bench_function("orwg_open_cached", |b| {
        b.iter(|| {
            let f = &flows[i % flows.len()];
            i += 1;
            black_box(net.open(f).ok())
        })
    });
    let flow = flows
        .iter()
        .find(|f| net.open(f).is_ok())
        .copied()
        .expect("some routable flow");
    let handle = net.open(&flow).unwrap().handle;
    c.bench_function("orwg_send_handle", |b| {
        b.iter(|| black_box(net.send(handle).unwrap()))
    });
}

fn bench_valley_free(c: &mut Criterion) {
    let topo = HierarchyConfig::with_approx_size(400, 59).generate();
    let po = PartialOrder::from_levels(&topo);
    let pairs = sample_flows(&topo, 64, 59);
    let mut i = 0;
    c.bench_function("ecma_valley_free_search_400ads", |b| {
        b.iter(|| {
            let f = &pairs[i % pairs.len()];
            i += 1;
            black_box(po.valley_free_path(&topo, f.src, f.dst))
        })
    });
}

fn bench_workload_generation(c: &mut Criterion) {
    let topo = HierarchyConfig::with_approx_size(400, 61).generate();
    c.bench_function("policy_workload_generation_400ads", |b| {
        b.iter(|| black_box(PolicyWorkload::default_mix(61).generate(&topo)))
    });
}

criterion_group!(
    benches,
    bench_oracle,
    bench_ordering_solver,
    bench_lsdb_view,
    bench_orwg_data_plane,
    bench_valley_free,
    bench_workload_generation
);
criterion_main!(benches);
