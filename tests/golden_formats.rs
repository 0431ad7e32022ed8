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
    use std::collections::BTreeSet;
    use EventRecord::*;
    let at = SimTime::from_ms(1).plus_us(500);
    // One case per record, in declaration order: its JSON (`us` and `kind`
    // lead, then the fields in declaration order) and its text line.
    let cases: Vec<(EventRecord, &str, &str)> = vec![
        (
            Start { ad: AdId(3) },
            r#"{"us":1500,"kind":"start","ad":3}"#,
            "start AD3",
        ),
        (
            MsgSend {
                from: AdId(0),
                to: AdId(1),
                link: LinkId(2),
                bytes: 64,
            },
            r#"{"us":1500,"kind":"send","from":0,"to":1,"link":2,"bytes":64}"#,
            "send AD0->AD1 via L2",
        ),
        (
            MsgDeliver {
                from: AdId(0),
                to: AdId(1),
                link: LinkId(2),
            },
            r#"{"us":1500,"kind":"deliver","from":0,"to":1,"link":2}"#,
            "deliver AD0->AD1 via L2",
        ),
        (
            MsgLost {
                from: AdId(2),
                to: AdId(3),
                link: LinkId(7),
            },
            r#"{"us":1500,"kind":"lost","from":2,"to":3,"link":7}"#,
            "lost AD2->AD3 via L7",
        ),
        (
            MsgDrop {
                from: AdId(4),
                to: AdId(5),
            },
            r#"{"us":1500,"kind":"drop","from":4,"to":5}"#,
            "drop AD4->AD5 at source",
        ),
        (
            TimerFire {
                ad: AdId(1),
                token: 99,
            },
            r#"{"us":1500,"kind":"timer","ad":1,"token":99}"#,
            "timer AD1 token=99",
        ),
        (
            StaleTimer {
                ad: AdId(0),
                token: 98,
            },
            r#"{"us":1500,"kind":"stale-timer","ad":0,"token":98}"#,
            "stale-timer AD0 token=98",
        ),
        (
            LinkUp { link: LinkId(1) },
            r#"{"us":1500,"kind":"link-up","link":1}"#,
            "link L1 up",
        ),
        (
            LinkDown { link: LinkId(2) },
            r#"{"us":1500,"kind":"link-down","link":2}"#,
            "link L2 down",
        ),
        (
            LinkUpMasked { link: LinkId(4) },
            r#"{"us":1500,"kind":"link-up-masked","link":4}"#,
            "link L4 up-masked",
        ),
        (
            Crash { ad: AdId(5) },
            r#"{"us":1500,"kind":"crash","ad":5}"#,
            "crash AD5",
        ),
        (
            Restart { ad: AdId(6) },
            r#"{"us":1500,"kind":"restart","ad":6}"#,
            "restart AD6",
        ),
        (
            ChanLoss {
                from: AdId(0),
                to: AdId(1),
                link: LinkId(0),
            },
            r#"{"us":1500,"kind":"chan-loss","from":0,"to":1,"link":0}"#,
            "chan-loss AD0->AD1 via L0",
        ),
        (
            ChanCorrupt {
                from: AdId(1),
                to: AdId(2),
                link: LinkId(3),
            },
            r#"{"us":1500,"kind":"chan-corrupt","from":1,"to":2,"link":3}"#,
            "chan-corrupt AD1->AD2 via L3",
        ),
        (
            ChanReorder {
                from: AdId(2),
                to: AdId(3),
                link: LinkId(4),
            },
            r#"{"us":1500,"kind":"chan-reorder","from":2,"to":3,"link":4}"#,
            "chan-reorder AD2->AD3 via L4",
        ),
        (
            ChanDup {
                from: AdId(3),
                to: AdId(4),
                link: LinkId(5),
            },
            r#"{"us":1500,"kind":"chan-dup","from":3,"to":4,"link":5}"#,
            "chan-dup AD3->AD4 via L5",
        ),
        (
            FaultPlanApplied {
                link_events: 5,
                outages: 2,
                lossy: true,
            },
            r#"{"us":1500,"kind":"fault-plan","link_events":5,"outages":2,"lossy":true}"#,
            "fault-plan links=5 outages=2 lossy=true",
        ),
        (
            PartitionCut {
                links: 3,
                left: 40,
                right: 60,
            },
            r#"{"us":1500,"kind":"partition-cut","links":3,"left":40,"right":60}"#,
            "partition-cut links=3 left=40 right=60",
        ),
        (
            PartitionHeal { links: 3 },
            r#"{"us":1500,"kind":"partition-heal","links":3}"#,
            "partition-heal links=3",
        ),
        (
            PhaseBegin { name: "converge" },
            r#"{"us":1500,"kind":"phase","name":"converge"}"#,
            "phase converge",
        ),
        (
            LsaOriginate {
                origin: AdId(2),
                seq: 7,
                links: 3,
            },
            r#"{"us":1500,"kind":"lsa-originate","origin":2,"seq":7,"links":3}"#,
            "lsa-originate AD2 seq=7 links=3",
        ),
        (
            LsaAccept {
                at: AdId(4),
                origin: AdId(2),
                seq: 7,
            },
            r#"{"us":1500,"kind":"lsa-accept","at":4,"origin":2,"seq":7}"#,
            "lsa-accept AD4 origin=AD2 seq=7",
        ),
        (
            LsaDuplicate {
                at: AdId(5),
                origin: AdId(2),
                seq: 6,
            },
            r#"{"us":1500,"kind":"lsa-dup","at":5,"origin":2,"seq":6}"#,
            "lsa-dup AD5 origin=AD2 seq=6",
        ),
        (
            LsaSeqJump {
                at: AdId(2),
                seq: 9,
            },
            r#"{"us":1500,"kind":"lsa-seq-jump","at":2,"seq":9}"#,
            "lsa-seq-jump AD2 seq=9",
        ),
        (
            LsaResync {
                at: AdId(1),
                neighbor: AdId(3),
                lsas: 12,
            },
            r#"{"us":1500,"kind":"lsa-resync","at":1,"neighbor":3,"lsas":12}"#,
            "lsa-resync AD1->AD3 lsas=12",
        ),
        (
            RouteRecompute {
                ad: AdId(1),
                proto: "pv",
                changed: true,
            },
            r#"{"us":1500,"kind":"recompute","ad":1,"proto":"pv","changed":true}"#,
            "recompute AD1 proto=pv changed=true",
        ),
        (
            RouteSetupOpen {
                src: AdId(0),
                dst: AdId(9),
            },
            r#"{"us":1500,"kind":"setup-open","src":0,"dst":9}"#,
            "setup-open AD0->AD9",
        ),
        (
            RouteSetupAck {
                src: AdId(0),
                dst: AdId(9),
                hops: 4,
                latency_us: 4000,
            },
            r#"{"us":1500,"kind":"setup-ack","src":0,"dst":9,"hops":4,"latency_us":4000}"#,
            "setup-ack AD0->AD9 hops=4 latency=4000us",
        ),
        (
            RouteSetupNack {
                src: AdId(0),
                dst: AdId(9),
                reason: "policy-denied",
            },
            r#"{"us":1500,"kind":"setup-nack","src":0,"dst":9,"reason":"policy-denied"}"#,
            "setup-nack AD0->AD9 reason=policy-denied",
        ),
        (
            RouteSetupRetransmit {
                src: AdId(0),
                dst: AdId(9),
                attempt: 2,
            },
            r#"{"us":1500,"kind":"setup-retransmit","src":0,"dst":9,"attempt":2}"#,
            "setup-retransmit AD0->AD9 attempt=2",
        ),
        (
            RouteSetupRepair {
                src: AdId(0),
                dst: AdId(9),
                via: "alternate",
            },
            r#"{"us":1500,"kind":"setup-repair","src":0,"dst":9,"via":"alternate"}"#,
            "setup-repair AD0->AD9 via=alternate",
        ),
        (
            ViewInvalidate {
                a: AdId(2),
                b: AdId(6),
                entries: 11,
            },
            r#"{"us":1500,"kind":"view-invalidate","a":2,"b":6,"entries":11}"#,
            "view-invalidate AD2-AD6 entries=11",
        ),
        (
            ViewDeltaApply {
                mode: "incremental",
                fallbacks: 1,
            },
            r#"{"us":1500,"kind":"view-delta","mode":"incremental","fallbacks":1}"#,
            "view-delta mode=incremental fallbacks=1",
        ),
        (
            MisbehaviorInject {
                ad: AdId(6),
                model: "route-leak",
            },
            r#"{"us":1500,"kind":"misbehavior-inject","ad":6,"model":"route-leak"}"#,
            "misbehavior-inject AD6 model=route-leak",
        ),
        (
            MonitorAlarm {
                detector: "policy-violation",
                suspect: AdId(6),
                evidence: 3,
            },
            r#"{"us":1500,"kind":"monitor-alarm","detector":"policy-violation","suspect":6,"evidence":3}"#,
            "monitor-alarm policy-violation suspect=AD6 evidence=3",
        ),
        (
            QuarantineEnter { ad: AdId(6) },
            r#"{"us":1500,"kind":"quarantine-enter","ad":6}"#,
            "quarantine-enter AD6",
        ),
        (
            QuarantineLift { ad: AdId(6) },
            r#"{"us":1500,"kind":"quarantine-lift","ad":6}"#,
            "quarantine-lift AD6",
        ),
        (
            SetupDefer {
                src: AdId(0),
                dst: AdId(9),
                depth: 4,
            },
            r#"{"us":1500,"kind":"setup-defer","src":0,"dst":9,"depth":4}"#,
            "setup-defer AD0->AD9 depth=4",
        ),
        (
            SetupShed {
                src: AdId(0),
                dst: AdId(9),
                retry_after_us: 2000,
                depth: 8,
            },
            r#"{"us":1500,"kind":"setup-shed","src":0,"dst":9,"retry_after_us":2000,"depth":8}"#,
            "setup-shed AD0->AD9 retry-after=2000us depth=8",
        ),
        (
            SetupRetry {
                src: AdId(0),
                dst: AdId(9),
                attempt: 2,
                backoff_us: 1500,
            },
            r#"{"us":1500,"kind":"setup-retry","src":0,"dst":9,"attempt":2,"backoff_us":1500}"#,
            "setup-retry AD0->AD9 attempt=2 backoff=1500us",
        ),
        (
            SetupAdmit {
                src: AdId(0),
                dst: AdId(9),
                rung: "cached",
                waited_us: 350,
            },
            r#"{"us":1500,"kind":"setup-admit","src":0,"dst":9,"rung":"cached","waited_us":350}"#,
            "setup-admit AD0->AD9 rung=cached wait=350us",
        ),
        (
            SetupAbandon {
                src: AdId(0),
                dst: AdId(9),
                attempts: 3,
            },
            r#"{"us":1500,"kind":"setup-abandon","src":0,"dst":9,"attempts":3}"#,
            "setup-abandon AD0->AD9 attempts=3",
        ),
        (
            RsCrash { ad: AdId(7) },
            r#"{"us":1500,"kind":"rs-crash","ad":7}"#,
            "rs-crash AD7",
        ),
        (
            RsFailover {
                ad: AdId(7),
                warmed: 5,
            },
            r#"{"us":1500,"kind":"rs-failover","ad":7,"warmed":5}"#,
            "rs-failover AD7 warmed=5",
        ),
        (
            SynthBatch {
                ad: AdId(7),
                flows: 6,
                fresh: 2,
            },
            r#"{"us":1500,"kind":"synth-batch","ad":7,"flows":6,"fresh":2}"#,
            "synth-batch AD7 flows=6 fresh=2",
        ),
        (
            PrecomputeRefill {
                ad: AdId(7),
                refilled: 4,
            },
            r#"{"us":1500,"kind":"precompute-refill","ad":7,"refilled":4}"#,
            "precompute-refill AD7 refilled=4",
        ),
    ];
    for (i, (rec, json, text)) in cases.iter().enumerate() {
        // No wildcard: a new record does not compile until it has an arm
        // here, and its case above moves the count.
        let slot = match rec {
            Start { .. } => 0,
            MsgSend { .. } => 1,
            MsgDeliver { .. } => 2,
            MsgLost { .. } => 3,
            MsgDrop { .. } => 4,
            TimerFire { .. } => 5,
            StaleTimer { .. } => 6,
            LinkUp { .. } => 7,
            LinkDown { .. } => 8,
            LinkUpMasked { .. } => 9,
            Crash { .. } => 10,
            Restart { .. } => 11,
            ChanLoss { .. } => 12,
            ChanCorrupt { .. } => 13,
            ChanReorder { .. } => 14,
            ChanDup { .. } => 15,
            FaultPlanApplied { .. } => 16,
            PartitionCut { .. } => 17,
            PartitionHeal { .. } => 18,
            PhaseBegin { .. } => 19,
            LsaOriginate { .. } => 20,
            LsaAccept { .. } => 21,
            LsaDuplicate { .. } => 22,
            LsaSeqJump { .. } => 23,
            LsaResync { .. } => 24,
            RouteRecompute { .. } => 25,
            RouteSetupOpen { .. } => 26,
            RouteSetupAck { .. } => 27,
            RouteSetupNack { .. } => 28,
            RouteSetupRetransmit { .. } => 29,
            RouteSetupRepair { .. } => 30,
            ViewInvalidate { .. } => 31,
            ViewDeltaApply { .. } => 32,
            MisbehaviorInject { .. } => 33,
            MonitorAlarm { .. } => 34,
            QuarantineEnter { .. } => 35,
            QuarantineLift { .. } => 36,
            SetupDefer { .. } => 37,
            SetupShed { .. } => 38,
            SetupRetry { .. } => 39,
            SetupAdmit { .. } => 40,
            SetupAbandon { .. } => 41,
            RsCrash { .. } => 42,
            RsFailover { .. } => 43,
            SynthBatch { .. } => 44,
            PrecomputeRefill { .. } => 45,
        };
        assert_eq!(slot, i, "{rec:?} is out of declaration order");
        assert_eq!(rec.to_json(at), *json);
        assert_eq!(rec.to_string(), *text);
    }
    assert_eq!(cases.len(), 46, "every record has one case");
    // `causal` keys its storm roots by kind, so no two records share one.
    let kinds: BTreeSet<&str> = cases.iter().map(|(rec, ..)| rec.kind()).collect();
    assert_eq!(kinds.len(), cases.len(), "two records share a kind tag");
    // The logged form prefixes the stable id and (when present) the
    // provoking event's id, before the record's own fields.
    use adroute::sim::{EventId, LoggedEvent};
    let ev = LoggedEvent {
        at,
        id: EventId(7),
        cause: Some(EventId(3)),
        rec: LinkDown { link: LinkId(4) },
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
