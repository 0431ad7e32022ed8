//! Golden-format tests: the text syntaxes are stable artifacts — changing
//! them is a compatibility break and must show up in review as a diff of
//! these exact strings.

use adroute::policy::text::{format_policy, parse_policy};
use adroute::policy::{
    AdSet, PolicyAction, PolicyCondition, QosClass, TimeOfDay, TransitPolicy, UserClass,
};
use adroute::topology::graph::make_ad;
use adroute::topology::{io, AdId, AdLevel, Topology};

#[test]
fn golden_policy_text() {
    let mut p = TransitPolicy::deny_all(AdId(5));
    p.push_term(
        vec![PolicyCondition::SrcIn(AdSet::only([AdId(1), AdId(2)]))],
        PolicyAction::Deny,
    );
    p.push_term(
        vec![
            PolicyCondition::QosIn(vec![QosClass(1), QosClass(2)]),
            PolicyCondition::UciIn(vec![UserClass(1)]),
            PolicyCondition::TimeWindow(TimeOfDay::hm(19, 0), TimeOfDay::hm(7, 0)),
        ],
        PolicyAction::Permit { cost: 3 },
    );
    p.push_term(
        vec![
            PolicyCondition::DstIn(AdSet::except([AdId(9)])),
            PolicyCondition::PrevIn(AdSet::Any),
            PolicyCondition::NextIn(AdSet::only([AdId(4)])),
        ],
        PolicyAction::Permit { cost: 0 },
    );
    let expected = "\
policy AD5 {
    deny src {AD1,AD2};
    permit qos {1, 2} uci {1} time 19:00-07:00 cost 3;
    permit dst !{AD9} prev * next {AD4} cost 0;
    default deny;
}
";
    assert_eq!(format_policy(&p), expected);
    // And the golden text parses back to the same policy.
    let back = parse_policy(expected).unwrap();
    assert_eq!(back.terms, p.terms);
}

#[test]
fn golden_topology_text() {
    let ads = vec![
        make_ad(0, AdLevel::Backbone),
        make_ad(1, AdLevel::Regional),
        make_ad(2, AdLevel::Campus),
    ];
    let mut topo = Topology::new(
        ads,
        &[
            (AdId(0), AdId(1), 2),
            (AdId(1), AdId(2), 4),
            (AdId(0), AdId(2), 5),
        ],
    );
    topo.set_link_up(adroute::topology::LinkId(2), false);
    topo.set_delay(adroute::topology::LinkId(0), 2500);
    let expected = "\
# adroute topology v1
ad 0 backbone transit
ad 1 regional transit
ad 2 campus stub
link 0 1 metric 2 delay 2500 up
link 1 2 metric 4 delay 1000 up
link 0 2 metric 5 delay 1000 down
";
    assert_eq!(io::dump(&topo), expected);
    let back = io::parse(expected).unwrap();
    assert_eq!(io::dump(&back), expected);
}

#[test]
fn golden_event_record_json() {
    use adroute::sim::{EventRecord, SimTime};
    use adroute::topology::LinkId;
    let at = SimTime::from_ms(1).plus_us(500);
    // One representative per field shape: `us` and `kind` lead, then the
    // per-kind fields in declaration order.
    let cases: Vec<(EventRecord, &str, &str)> = vec![
        (
            EventRecord::Start { ad: AdId(3) },
            r#"{"us":1500,"kind":"start","ad":3}"#,
            "start AD3",
        ),
        (
            EventRecord::MsgSend {
                from: AdId(0),
                to: AdId(1),
                link: LinkId(2),
                bytes: 64,
            },
            r#"{"us":1500,"kind":"send","from":0,"to":1,"link":2,"bytes":64}"#,
            "send AD0->AD1 via L2",
        ),
        (
            EventRecord::MsgDeliver {
                from: AdId(0),
                to: AdId(1),
                link: LinkId(2),
            },
            r#"{"us":1500,"kind":"deliver","from":0,"to":1,"link":2}"#,
            "deliver AD0->AD1 via L2",
        ),
        (
            EventRecord::MsgDrop {
                from: AdId(4),
                to: AdId(5),
            },
            r#"{"us":1500,"kind":"drop","from":4,"to":5}"#,
            "drop AD4->AD5 at source",
        ),
        (
            EventRecord::PhaseBegin { name: "converge" },
            r#"{"us":1500,"kind":"phase","name":"converge"}"#,
            "phase converge",
        ),
        (
            EventRecord::LsaOriginate {
                origin: AdId(2),
                seq: 7,
                links: 3,
            },
            r#"{"us":1500,"kind":"lsa-originate","origin":2,"seq":7,"links":3}"#,
            "lsa-originate AD2 seq=7 links=3",
        ),
        (
            EventRecord::RouteRecompute {
                ad: AdId(1),
                proto: "pv",
                changed: true,
            },
            r#"{"us":1500,"kind":"recompute","ad":1,"proto":"pv","changed":true}"#,
            "recompute AD1 proto=pv changed=true",
        ),
        (
            EventRecord::RouteSetupAck {
                src: AdId(0),
                dst: AdId(9),
                hops: 4,
                latency_us: 4000,
            },
            r#"{"us":1500,"kind":"setup-ack","src":0,"dst":9,"hops":4,"latency_us":4000}"#,
            "setup-ack AD0->AD9 hops=4 latency=4000us",
        ),
        (
            EventRecord::RouteSetupNack {
                src: AdId(0),
                dst: AdId(9),
                reason: "policy-denied",
            },
            r#"{"us":1500,"kind":"setup-nack","src":0,"dst":9,"reason":"policy-denied"}"#,
            "setup-nack AD0->AD9 reason=policy-denied",
        ),
        (
            EventRecord::RouteSetupRetransmit {
                src: AdId(0),
                dst: AdId(9),
                attempt: 2,
            },
            r#"{"us":1500,"kind":"setup-retransmit","src":0,"dst":9,"attempt":2}"#,
            "setup-retransmit AD0->AD9 attempt=2",
        ),
        (
            EventRecord::RouteSetupRepair {
                src: AdId(0),
                dst: AdId(9),
                via: "alternate",
            },
            r#"{"us":1500,"kind":"setup-repair","src":0,"dst":9,"via":"alternate"}"#,
            "setup-repair AD0->AD9 via=alternate",
        ),
        (
            EventRecord::ViewInvalidate {
                a: AdId(2),
                b: AdId(6),
                entries: 11,
            },
            r#"{"us":1500,"kind":"view-invalidate","a":2,"b":6,"entries":11}"#,
            "view-invalidate AD2-AD6 entries=11",
        ),
        (
            EventRecord::ViewDeltaApply {
                mode: "incremental",
                fallbacks: 1,
            },
            r#"{"us":1500,"kind":"view-delta","mode":"incremental","fallbacks":1}"#,
            "view-delta mode=incremental fallbacks=1",
        ),
        (
            EventRecord::FaultPlanApplied {
                link_events: 5,
                outages: 2,
                lossy: true,
            },
            r#"{"us":1500,"kind":"fault-plan","link_events":5,"outages":2,"lossy":true}"#,
            "fault-plan links=5 outages=2 lossy=true",
        ),
        (
            EventRecord::PartitionCut {
                links: 3,
                left: 40,
                right: 60,
            },
            r#"{"us":1500,"kind":"partition-cut","links":3,"left":40,"right":60}"#,
            "partition-cut links=3 left=40 right=60",
        ),
        (
            EventRecord::PartitionHeal { links: 3 },
            r#"{"us":1500,"kind":"partition-heal","links":3}"#,
            "partition-heal links=3",
        ),
        (
            EventRecord::MisbehaviorInject {
                ad: AdId(6),
                model: "route-leak",
            },
            r#"{"us":1500,"kind":"misbehavior-inject","ad":6,"model":"route-leak"}"#,
            "misbehavior-inject AD6 model=route-leak",
        ),
        (
            EventRecord::MonitorAlarm {
                detector: "policy-violation",
                suspect: AdId(6),
                evidence: 3,
            },
            r#"{"us":1500,"kind":"monitor-alarm","detector":"policy-violation","suspect":6,"evidence":3}"#,
            "monitor-alarm policy-violation suspect=AD6 evidence=3",
        ),
        (
            EventRecord::QuarantineEnter { ad: AdId(6) },
            r#"{"us":1500,"kind":"quarantine-enter","ad":6}"#,
            "quarantine-enter AD6",
        ),
        (
            EventRecord::QuarantineLift { ad: AdId(6) },
            r#"{"us":1500,"kind":"quarantine-lift","ad":6}"#,
            "quarantine-lift AD6",
        ),
    ];
    for (rec, json, display) in cases {
        assert_eq!(rec.to_json(at), json);
        assert_eq!(rec.to_string(), display);
    }
    // The logged form prefixes the stable id and (when present) the
    // provoking event's id, before the record's own fields.
    use adroute::sim::{EventId, LoggedEvent};
    let ev = LoggedEvent {
        at,
        id: EventId(7),
        cause: Some(EventId(3)),
        rec: EventRecord::LinkDown { link: LinkId(4) },
    };
    assert_eq!(
        ev.to_json(),
        r#"{"us":1500,"id":7,"cause":3,"kind":"link-down","link":4}"#
    );
    let root = LoggedEvent { cause: None, ..ev };
    assert_eq!(
        root.to_json(),
        r#"{"us":1500,"id":7,"kind":"link-down","link":4}"#
    );
}

#[test]
fn golden_metrics_json() {
    use adroute::sim::{Counter, MetricsRegistry, Output};
    let mut m = MetricsRegistry::new();
    m.add(Counter::FlowsDelivered, 3);
    m.record("setup_latency_us", 0);
    m.record("setup_latency_us", 5);
    m.record("setup_latency_us", 9);
    // p50 is the interpolated quantile (the median of {0,5,9} estimated
    // within its bucket), not the old bucket-top answer of 7.
    assert_eq!(
        m.json(&m.counts, Output::Metrics),
        r#"{"counters":{"flows_delivered":3},"histograms":{"setup_latency_us":{"count":3,"sum":14,"min":0,"max":9,"p50":6,"p99":9,"buckets":[[0,1],[4,1],[8,1]]}}}"#
    );
}

#[test]
fn display_forms_are_stable() {
    use adroute::policy::FlowSpec;
    let f = FlowSpec::best_effort(AdId(3), AdId(7))
        .with_qos(QosClass(2))
        .with_uci(UserClass(1))
        .at(TimeOfDay::hm(8, 5));
    assert_eq!(f.to_string(), "AD3->AD7 qos2 uci1 @08:05");
    assert_eq!(AdSet::except([AdId(1), AdId(2)]).to_string(), "!{AD1,AD2}");
    assert_eq!(
        adroute::sim::SimTime::from_ms(12).plus_us(34).to_string(),
        "12.034ms"
    );
}
