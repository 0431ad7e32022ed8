//! The helpers every reported number goes through.

use adroute_benchmark::json::{self, Value};
use adroute_benchmark::metrics::Better;
use adroute_benchmark::report::{judge, Verdict};
use adroute_benchmark::stats::{lower_quartile, median, percentile, quartiles, spread, supports};
use adroute_benchmark::trace::{by_name, self_times, Span, Tracer, NO_PARENT};

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[7.0]), 7.0);
}

#[test]
fn lower_quartile_interpolates_between_order_statistics() {
    assert_eq!(lower_quartile(&[5.0, 1.0, 3.0, 2.0, 4.0]), 2.0);
    assert_eq!(lower_quartile(&[4.0, 1.0, 3.0, 2.0]), 1.75);
    assert_eq!(lower_quartile(&[9.0]), 9.0);
    // One slow outlier among identical rounds does not move it.
    assert_eq!(lower_quartile(&[10.0, 10.0, 10.0, 10.0, 90.0]), 10.0);
}

#[test]
fn a_percentile_needs_ten_samples_beyond_it() {
    assert!(!supports(999, 0.99));
    assert!(supports(1000, 0.99));
    assert!(!supports(9_999, 0.999));
    assert!(supports(10_000, 0.999));
    assert!(supports(20, 0.5));
    assert!(!supports(19, 0.5));

    let v: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile(&v, 0.99), Some(990.0));
    assert_eq!(percentile(&v, 0.5), Some(500.0));
    assert_eq!(percentile(&v, 0.999), None);
    assert_eq!(percentile(&v[..999], 0.99), None);
    assert_eq!(percentile(&[], 0.5), None);
}

#[test]
fn quartiles_match_pythons_statistics_quantiles() {
    // statistics.quantiles([1, 2, ..., 10], n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), Some((2.75, 8.25)));
    // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
    assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 40.0)));
    // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
    assert_eq!(quartiles(&[1.0, 3.0]), Some((0.5, 3.5)));
    assert_eq!(quartiles(&[1.0]), None);
    assert_eq!(spread(&v), Some(1.0));
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        round: 1,
    }
}

#[test]
fn self_time_is_duration_minus_children() {
    // round [0, 100]
    //   phase [10, 90]
    //     open [10, 30], open [30, 60]
    //   build [90, 98]
    let spans = [
        span("bench.round", 0, 100, NO_PARENT),
        span("bench.phase.route", 10, 90, 0),
        span("core.network.open", 10, 30, 1),
        span("core.network.open", 30, 60, 1),
        span("core.network.view_build", 90, 98, 0),
    ];
    assert_eq!(self_times(&spans), vec![12, 30, 20, 30, 8]);
    let totals = by_name(&spans);
    let open = totals["core.network.open"];
    assert_eq!((open.calls, open.total_ns, open.self_ns), (2, 50, 50));
    assert_eq!(totals["bench.phase.route"].self_ns, 30);
    // Self times partition the root's duration.
    assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
}

#[test]
fn a_tracer_records_nesting_only_while_on() {
    let mut tr = Tracer::off();
    let ghost = tr.enter("never.recorded");
    tr.exit(ghost);
    tr.set_on(true);
    tr.set_round(7);
    let outer = tr.enter("outer");
    let got = tr.call("inner", || 42);
    tr.exit(outer);
    assert_eq!(got, 42);
    let spans = tr.take_spans();
    assert_eq!(spans.len(), 2);
    assert_eq!((spans[0].name, spans[0].parent), ("outer", NO_PARENT));
    assert_eq!(
        (spans[1].name, spans[1].parent, spans[1].round),
        ("inner", 0, 7)
    );
    assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
}

#[test]
fn json_round_trips_what_the_benchmark_writes() {
    let v = Value::obj([
        ("rev", Value::Str("a\"b\\c\n".into())),
        ("count", Value::Num(2570000.0)),
        ("time", Value::Num(0.000107844)),
        ("ok", Value::Bool(true)),
        ("none", Value::Null),
        (
            "rows",
            Value::Arr(vec![Value::obj([(
                "values",
                Value::Arr(vec![Value::Num(1.5), Value::Num(-2.0)]),
            )])]),
        ),
        ("empty", Value::Arr(vec![])),
    ]);
    assert_eq!(json::parse(&v.to_string()).unwrap(), v);
    assert_eq!(json::parse(&v.pretty()).unwrap(), v);
    assert!(v.to_string().contains("\"count\":2570000,"));
    assert!(json::parse("{\"a\": 1} x").is_err());
    assert!(json::parse("[1, 2").is_err());
}

#[test]
fn compare_judges_by_bound_and_spread() {
    let tight_a = [100.0, 101.0, 99.0];
    // 5 % worse under a 10 % bound.
    let (worse, v) = judge(Better::Lower, 0.10, &tight_a, &[105.0, 106.0, 104.0]);
    assert!((worse - 0.05).abs() < 1e-9);
    assert_eq!(v, Verdict::Within);
    // 20 % worse.
    let (_, v) = judge(Better::Lower, 0.10, &tight_a, &[120.0, 121.0, 119.0]);
    assert_eq!(v, Verdict::Regression);
    // For a higher-is-better metric, lower is the regression.
    let (_, v) = judge(Better::Higher, 0.10, &tight_a, &[80.0, 81.0, 79.0]);
    assert_eq!(v, Verdict::Regression);
    let (_, v) = judge(Better::Higher, 0.10, &tight_a, &[120.0, 121.0, 119.0]);
    assert_eq!(v, Verdict::Within);
    // A side that spreads wider than the bound resolves nothing...
    let (_, v) = judge(Better::Lower, 0.10, &tight_a, &[90.0, 120.0, 150.0]);
    assert_eq!(v, Verdict::Unresolved);
    // ...unless every run of b beats every run of a.
    let (_, v) = judge(Better::Lower, 0.10, &tight_a, &[40.0, 60.0, 80.0]);
    assert_eq!(v, Verdict::Within);
}
