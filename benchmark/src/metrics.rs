//! The names the benchmark reports under: workloads, end-to-end metrics
//! with their bounds, per-layer metrics. `BENCHMARK.json` is
//! [`manifest`] written out (`adroute-benchmark manifest`); a self-test
//! keeps the two equal.

use crate::json::Value;

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// Workload names with the one-line reason each exists.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "dv-converge",
        "98 ADs, naive DV then ECMA: full-table updates are the work, engine dispatch a small share; where update-size work shows and engine-only work must not",
    ),
    (
        "pv-converge",
        "19 ADs, IDRP path vector: ms-per-event handlers and policy-term evaluation, the engine does nothing; the design point E8 calls infeasible past 100 ADs",
    ),
    (
        "ls-converge",
        "392 ADs, link-state hop-by-hop: cheap flooding handlers so engine dispatch dominates convergence, then a policy search at every hop of every first packet",
    ),
    (
        "orwg-open",
        "245 ADs, 20 distinct flows per Route Server opened cold (every one a search), re-opened warm (every one a hit), then 20 packets per handle: flood, view, synthesis, setup, data",
    ),
    (
        "orwg-serve",
        "98 ADs, structural policies, an open storm at 6k-200k opens/s through admission, brownout, retries and batched synthesis: mostly cache hits, driver-bound",
    ),
    (
        "orwg-churn",
        "245 ADs, 2000 repairable flows while links fail and heal through the engine: view refresh, dependency-indexed invalidation and repair beside reads",
    ),
];

/// Which direction of a metric is better.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric.
#[derive(Clone, Copy, Debug)]
pub struct E2e {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Better direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics. Every workload reports every one: each is a
/// stage every design point has (see README.md, "The four stages").
pub const E2E: [E2e; 7] = [
    E2e {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    E2e {
        name: "round_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    E2e {
        name: "converge_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    E2e {
        name: "adapt_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    E2e {
        name: "routes_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    E2e {
        name: "packets_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    E2e {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
];

use Better::{Higher as H, Lower as L};

/// The per-layer metrics `(name, unit, better)`, reported by the traced
/// run. A workload that does not exercise a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str, Better); 86] = [
    ("topology.generate_ms", "ms", L),
    ("policy.workload_generate_ms", "ms", L),
    ("policy.legality.search_us_p50", "us", L),
    ("policy.legality.search_us_p99", "us", L),
    ("policy.legality.settled_per_search", "count", L),
    ("sim.engine.new_ms", "ms", L),
    ("sim.engine.events", "count", L),
    ("sim.engine.events_per_s", "1/s", H),
    ("sim.engine.msgs_sent", "count", L),
    ("sim.engine.bytes_sent", "B", L),
    ("sim.engine.bytes_per_msg", "B", L),
    ("sim.engine.quiesced_at_us", "us", L),
    ("sim.engine.max_per_ad_msgs", "count", L),
    ("sim.engine.allocs_per_event", "count", L),
    ("sim.engine.converge_heap_mb", "MB", L),
    ("sim.parallel.converge_ms_w2", "ms", L),
    ("sim.parallel.speedup_w2", "ratio", H),
    ("protocols.naive_dv.converge_ms", "ms", L),
    ("protocols.naive_dv.failure_ms_p50", "ms", L),
    ("protocols.naive_dv.us_per_event", "us", L),
    ("protocols.naive_dv.recomputes", "count", L),
    ("protocols.ecma.converge_ms", "ms", L),
    ("protocols.ecma.failure_ms_p50", "ms", L),
    ("protocols.ecma.us_per_event", "us", L),
    ("protocols.ecma.recomputes", "count", L),
    ("protocols.path_vector.converge_ms", "ms", L),
    ("protocols.path_vector.failure_ms_p50", "ms", L),
    ("protocols.path_vector.us_per_event", "us", L),
    ("protocols.path_vector.recomputes", "count", L),
    ("protocols.ls_hbh.converge_ms", "ms", L),
    ("protocols.ls_hbh.failure_ms_p50", "ms", L),
    ("protocols.ls_hbh.us_per_event", "us", L),
    ("protocols.ls_hbh.recomputes", "count", L),
    ("protocols.linkstate.flood_dup_ratio", "ratio", L),
    ("protocols.forwarding.forward_us_p50", "us", L),
    ("protocols.forwarding.forward_us_p99", "us", L),
    ("protocols.forwarding.delivered_ratio", "ratio", H),
    ("protocols.forwarding.compliant_ratio", "ratio", H),
    ("protocols.forwarding.loops", "count", L),
    ("core.router.converge_ms", "ms", L),
    ("core.router.requiesce_ms_p50", "ms", L),
    ("core.network.view_build_ms", "ms", L),
    ("core.network.view_build_heap_mb", "MB", L),
    ("core.synthesis.request_us_p50", "us", L),
    ("core.synthesis.request_us_p99", "us", L),
    ("core.synthesis.searches", "count", L),
    ("core.synthesis.settled_per_search", "count", L),
    ("core.synthesis.relaxations_per_search", "count", L),
    ("core.synthesis.cache_hit_ratio", "ratio", H),
    ("core.network.open_us_p50", "us", L),
    ("core.network.open_us_p99", "us", L),
    ("core.network.open_us_p999", "us", L),
    ("core.network.setup_walk_us_p50", "us", L),
    ("core.network.warm_opens_per_s", "1/s", H),
    ("core.gateway.validations_per_open", "count", L),
    ("core.gateway.header_bytes_per_open", "B", L),
    ("core.network.allocs_per_open", "count", L),
    ("core.network.send_ns_per_packet", "ns", L),
    ("core.network.allocs_per_packet", "count", L),
    ("core.network.fail_link_ms_p50", "ms", L),
    ("core.network.restore_link_ms_p50", "ms", L),
    ("core.network.refresh_ms_p50", "ms", L),
    ("core.network.view_full_installs", "count", L),
    ("core.network.repair_ms_p50", "ms", L),
    ("core.network.repaired_ratio", "ratio", H),
    ("core.network.repair_alternate_ratio", "ratio", H),
    ("core.network.open_repairable_us_p50", "us", L),
    ("core.synthesis.entries_invalidated", "count", L),
    ("core.synthesis.revalidate_hit_ratio", "ratio", H),
    ("core.overload.ramp_ms", "ms", L),
    ("core.overload.attempts", "count", L),
    ("core.overload.shed_ratio", "ratio", L),
    ("core.overload.abandoned_ratio", "ratio", L),
    ("core.overload.p50_wait_us_sim", "us", L),
    ("core.overload.p99_wait_us_sim", "us", L),
    ("core.synthesis.sweeps", "count", L),
    ("core.synthesis.sweep_fanout", "ratio", H),
    ("core.synthesis.hot_hit_ratio", "ratio", H),
    ("core.synthesis.refills", "count", L),
    ("core.synthesis.batch_us_per_flow", "us", L),
    ("bench.rounds", "count", H),
    ("bench.setup_samples", "count", H),
    ("bench.route_samples", "count", H),
    ("bench.trace_overhead_ratio", "ratio", L),
    ("bench.unattributed_ratio", "ratio", L),
    ("bench.spans", "count", L),
];

/// How a span name becomes a per-layer metric.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Stat {
    /// Median duration.
    Median,
    /// Percentile of the durations; 0 when the samples do not support it.
    Pct(f64),
}

/// Per-layer metrics that are a statistic of one span's durations:
/// `(metric, span, statistic, ns per reported unit)`.
pub const SPAN_METRICS: [(&str, &str, Stat, f64); 32] = [
    (
        "topology.generate_ms",
        "topology.generate",
        Stat::Median,
        1e6,
    ),
    (
        "policy.workload_generate_ms",
        "policy.workload_generate",
        Stat::Median,
        1e6,
    ),
    (
        "policy.legality.search_us_p50",
        "policy.legality.search",
        Stat::Median,
        1e3,
    ),
    (
        "policy.legality.search_us_p99",
        "policy.legality.search",
        Stat::Pct(0.99),
        1e3,
    ),
    ("sim.engine.new_ms", "sim.engine.new", Stat::Median, 1e6),
    (
        "sim.parallel.converge_ms_w2",
        "sim.parallel.converge_w2",
        Stat::Median,
        1e6,
    ),
    (
        "protocols.naive_dv.converge_ms",
        "protocols.naive_dv.converge",
        Stat::Median,
        1e6,
    ),
    (
        "protocols.naive_dv.failure_ms_p50",
        "protocols.naive_dv.failure",
        Stat::Median,
        1e6,
    ),
    (
        "protocols.ecma.converge_ms",
        "protocols.ecma.converge",
        Stat::Median,
        1e6,
    ),
    (
        "protocols.ecma.failure_ms_p50",
        "protocols.ecma.failure",
        Stat::Median,
        1e6,
    ),
    (
        "protocols.path_vector.converge_ms",
        "protocols.path_vector.converge",
        Stat::Median,
        1e6,
    ),
    (
        "protocols.path_vector.failure_ms_p50",
        "protocols.path_vector.failure",
        Stat::Median,
        1e6,
    ),
    (
        "protocols.ls_hbh.converge_ms",
        "protocols.ls_hbh.converge",
        Stat::Median,
        1e6,
    ),
    (
        "protocols.ls_hbh.failure_ms_p50",
        "protocols.ls_hbh.failure",
        Stat::Median,
        1e6,
    ),
    (
        "protocols.forwarding.forward_us_p50",
        "protocols.forwarding.forward",
        Stat::Median,
        1e3,
    ),
    (
        "protocols.forwarding.forward_us_p99",
        "protocols.forwarding.forward",
        Stat::Pct(0.99),
        1e3,
    ),
    (
        "core.router.converge_ms",
        "core.router.converge",
        Stat::Median,
        1e6,
    ),
    (
        "core.router.requiesce_ms_p50",
        "core.router.requiesce",
        Stat::Median,
        1e6,
    ),
    (
        "core.network.view_build_ms",
        "core.network.view_build",
        Stat::Median,
        1e6,
    ),
    (
        "core.synthesis.request_us_p50",
        "core.synthesis.request",
        Stat::Median,
        1e3,
    ),
    (
        "core.synthesis.request_us_p99",
        "core.synthesis.request",
        Stat::Pct(0.99),
        1e3,
    ),
    (
        "core.network.open_us_p50",
        "core.network.open",
        Stat::Median,
        1e3,
    ),
    (
        "core.network.open_us_p99",
        "core.network.open",
        Stat::Pct(0.99),
        1e3,
    ),
    (
        "core.network.open_us_p999",
        "core.network.open",
        Stat::Pct(0.999),
        1e3,
    ),
    (
        "core.network.setup_walk_us_p50",
        "core.network.reopen",
        Stat::Median,
        1e3,
    ),
    (
        "core.network.fail_link_ms_p50",
        "core.network.fail_link",
        Stat::Median,
        1e6,
    ),
    (
        "core.network.restore_link_ms_p50",
        "core.network.restore_link",
        Stat::Median,
        1e6,
    ),
    (
        "core.network.refresh_ms_p50",
        "core.network.refresh",
        Stat::Median,
        1e6,
    ),
    (
        "core.network.repair_ms_p50",
        "core.network.repair",
        Stat::Median,
        1e6,
    ),
    (
        "core.network.open_repairable_us_p50",
        "core.network.open_repairable",
        Stat::Median,
        1e3,
    ),
    (
        "core.overload.ramp_ms",
        "core.overload.ramp",
        Stat::Median,
        1e6,
    ),
    (
        // One span covers 1000 packets: ns per span / 1000 = ns per packet.
        "core.network.send_ns_per_packet",
        "core.network.send_x1000",
        Stat::Median,
        1e3,
    ),
];

/// The content of `BENCHMARK.json`.
pub fn manifest() -> Value {
    let s = |t: &str| Value::Str(t.into());
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Value::obj([
        (
            "command",
            Value::Arr(command.iter().map(|c| s(c)).collect()),
        ),
        ("paths", Value::Arr(vec![s("benchmark")])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| Value::obj([("name", s(name)), ("why", s(why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                E2E.iter()
                    .map(|m| {
                        Value::obj([
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.word())),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|(name, unit, better)| {
                        Value::obj([
                            ("name", s(name)),
                            ("unit", s(unit)),
                            ("better", s(better.word())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
