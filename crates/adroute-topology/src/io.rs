//! Plain-text serialization of topologies.
//!
//! Experiments and bug reports need to pin down *exactly* which internet
//! they ran on. The format is line-oriented and diff-friendly:
//!
//! ```text
//! # adroute topology v1
//! ad 0 backbone transit
//! ad 1 regional transit
//! ad 2 campus stub
//! link 0 1 metric 2 delay 1000 up
//! link 1 2 metric 4 delay 1000 down
//! ```
//!
//! [`dump`] and [`parse`] round-trip every field, including link state, so
//! a mid-experiment snapshot reloads verbatim.

use std::collections::HashSet;
use std::fmt::Write as _;

use crate::graph::{Ad, Topology};
use crate::ids::{AdId, AdLevel, AdRole};

/// Serializes a topology to the v1 text format.
pub fn dump(topo: &Topology) -> String {
    let mut out = String::from("# adroute topology v1\n");
    for ad in topo.ads() {
        let level = match ad.level {
            AdLevel::Backbone => "backbone",
            AdLevel::Regional => "regional",
            AdLevel::Metro => "metro",
            AdLevel::Campus => "campus",
        };
        let role = match ad.role {
            AdRole::Stub => "stub",
            AdRole::MultiHomedStub => "multihomed",
            AdRole::Transit => "transit",
            AdRole::Hybrid => "hybrid",
        };
        let _ = writeln!(out, "ad {} {} {}", ad.id.0, level, role);
    }
    for l in topo.links() {
        let _ = writeln!(
            out,
            "link {} {} metric {} delay {} {}",
            l.a.0,
            l.b.0,
            l.metric,
            l.delay_us,
            if l.up { "up" } else { "down" }
        );
    }
    out
}

/// An error produced while parsing the text format.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TopologyParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl std::fmt::Display for TopologyParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TopologyParseError {}

fn perr<T>(line: usize, message: impl Into<String>) -> Result<T, TopologyParseError> {
    Err(TopologyParseError {
        line,
        message: message.into(),
    })
}

/// Parses the v1 text format back into a [`Topology`].
pub fn parse(text: &str) -> Result<Topology, TopologyParseError> {
    let mut ads: Vec<Ad> = Vec::new();
    let mut edges: Vec<(AdId, AdId, u32)> = Vec::new();
    let mut extras: Vec<(u64, bool, usize)> = Vec::new(); // (delay, up, line) per edge
    let mut seen: HashSet<(u32, u32)> = HashSet::new();

    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("ad") => {
                let id: u32 = match parts.next().map(str::parse) {
                    Some(Ok(v)) => v,
                    _ => return perr(lineno, "expected numeric AD id"),
                };
                let level = match parts.next() {
                    Some("backbone") => AdLevel::Backbone,
                    Some("regional") => AdLevel::Regional,
                    Some("metro") => AdLevel::Metro,
                    Some("campus") => AdLevel::Campus,
                    other => return perr(lineno, format!("bad level {other:?}")),
                };
                let role = match parts.next() {
                    Some("stub") => AdRole::Stub,
                    Some("multihomed") => AdRole::MultiHomedStub,
                    Some("transit") => AdRole::Transit,
                    Some("hybrid") => AdRole::Hybrid,
                    other => return perr(lineno, format!("bad role {other:?}")),
                };
                if id as usize != ads.len() {
                    return perr(
                        lineno,
                        format!("AD ids must be dense; expected {}", ads.len()),
                    );
                }
                ads.push(Ad {
                    id: AdId(id),
                    level,
                    role,
                });
            }
            Some("link") => {
                let toks: Vec<&str> = parts.collect();
                // link A B metric M delay D up|down
                if toks.len() != 7 || toks[2] != "metric" || toks[4] != "delay" {
                    return perr(lineno, "expected 'link A B metric M delay D up|down'");
                }
                // Parsed at the field's own width: a value that does not
                // fit is an error, never a silent wrap onto another AD.
                fn num<T: std::str::FromStr>(
                    s: &str,
                    what: &str,
                    line: usize,
                ) -> Result<T, TopologyParseError> {
                    s.parse()
                        .or_else(|_| perr(line, format!("expected {what}, found '{s}'")))
                }
                let a: u32 = num(toks[0], "endpoint a", lineno)?;
                let b: u32 = num(toks[1], "endpoint b", lineno)?;
                let metric: u32 = num(toks[3], "metric value", lineno)?;
                // A delay fits in 32 bits (about 71 minutes), so a route's
                // summed delay cannot overflow its 64-bit latency.
                let delay: u32 = num(toks[5], "delay value", lineno)?;
                if a == b {
                    return perr(lineno, format!("self-loop at AD {a}"));
                }
                if !seen.insert((a.min(b), a.max(b))) {
                    return perr(lineno, format!("duplicate link {a}-{b}"));
                }
                let up = match toks[6] {
                    "up" => true,
                    "down" => false,
                    other => return perr(lineno, format!("expected up/down, got '{other}'")),
                };
                edges.push((AdId(a), AdId(b), metric));
                extras.push((u64::from(delay), up, lineno));
            }
            other => return perr(lineno, format!("unknown record {other:?}")),
        }
    }

    if ads.is_empty() {
        return perr(0, "no ADs defined");
    }
    for (&(a, b, _), &(_, _, line)) in edges.iter().zip(&extras) {
        if a.index() >= ads.len() || b.index() >= ads.len() {
            return perr(line, format!("link {a}-{b} references undefined AD"));
        }
    }
    // Preserve the declared roles: Topology::new derives nothing, but we
    // must not run reclassify_roles (the dump is authoritative).
    let declared: Vec<(AdLevel, AdRole)> = ads.iter().map(|a| (a.level, a.role)).collect();
    let mut topo = Topology::new(ads, &edges);
    for (i, (delay, up, _)) in extras.into_iter().enumerate() {
        let id = crate::ids::LinkId(i as u32);
        topo.set_delay(id, delay);
        if !up {
            topo.set_link_up(id, false);
        }
    }
    debug_assert!(topo
        .ads()
        .zip(declared.iter())
        .all(|(ad, &(lv, rl))| ad.level == lv && ad.role == rl));
    Ok(topo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{ring, HierarchyConfig};
    use crate::ids::LinkId;

    fn equivalent(a: &Topology, b: &Topology) -> bool {
        a.num_ads() == b.num_ads()
            && a.num_links() == b.num_links()
            && a.ads()
                .zip(b.ads())
                .all(|(x, y)| x.id == y.id && x.level == y.level && x.role == y.role)
            && a.links().zip(b.links()).all(|(x, y)| {
                x.a == y.a
                    && x.b == y.b
                    && x.metric == y.metric
                    && x.delay_us == y.delay_us
                    && x.up == y.up
                    && x.kind == y.kind
            })
    }

    #[test]
    fn round_trip_generated_internet() {
        let t = HierarchyConfig::default().generate();
        let text = dump(&t);
        let back = parse(&text).unwrap();
        assert!(equivalent(&t, &back));
    }

    #[test]
    fn round_trip_preserves_link_state_and_delay() {
        let mut t = ring(5);
        t.set_link_up(LinkId(2), false);
        t.set_delay(LinkId(1), 42_000);
        t.set_metric(LinkId(0), 9);
        let back = parse(&dump(&t)).unwrap();
        assert!(equivalent(&t, &back));
        assert!(!back.link(LinkId(2)).up);
        assert_eq!(back.link(LinkId(1)).delay_us, 42_000);
        assert_eq!(back.link(LinkId(0)).metric, 9);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "
            # a comment

            ad 0 campus stub
            ad 1 campus stub
            link 0 1 metric 1 delay 500 up
        ";
        let t = parse(text).unwrap();
        assert_eq!(t.num_ads(), 2);
        assert_eq!(t.num_links(), 1);
        assert_eq!(t.link(LinkId(0)).delay_us, 500);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse("ad 0 campus stub\nad 1 purple stub").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("bad level"), "{e}");
        let e = parse("ad 5 campus stub").unwrap_err();
        assert!(e.message.contains("dense"), "{e}");
        let e = parse("frob").unwrap_err();
        assert!(e.message.contains("unknown record"), "{e}");
        let e = parse("").unwrap_err();
        assert!(e.message.contains("no ADs"), "{e}");
        let e = parse("ad 0 campus stub\nlink 0 9 metric 1 delay 1 up").unwrap_err();
        assert!(e.message.contains("undefined AD"), "{e}");
        assert_eq!(e.line, 2);
    }

    /// Link lines that used to reach `Topology::new`'s asserts (or wrap
    /// under `as u32` onto AD 0 / metric 0) are errors at their own line.
    #[test]
    fn bad_links_are_errors_not_panics_or_wraps() {
        for (links, line, needle) in [
            ("link 0 0 metric 1 delay 1 up", 3, "self-loop"),
            (
                "link 0 1 metric 1 delay 1 up\nlink 1 0 metric 2 delay 1 up",
                4,
                "duplicate",
            ),
            ("link 4294967296 1 metric 1 delay 1 up", 3, "endpoint a"),
            ("link 0 1 metric 4294967296 delay 1 up", 3, "metric"),
            ("link 0 1 metric 1 delay 4294967296 up", 3, "delay"),
        ] {
            let e = parse(&format!("ad 0 campus stub\nad 1 campus stub\n{links}")).unwrap_err();
            assert_eq!(e.line, line, "{e}");
            assert!(e.message.contains(needle), "{e}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
        #[test]
        fn round_trip_any_seed(seed in 0u64..500) {
            let t = HierarchyConfig { seed, ..HierarchyConfig::figure1() }.generate();
            let back = parse(&dump(&t)).unwrap();
            proptest::prop_assert!(equivalent(&t, &back));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]
        /// Lines built from the format's own keywords and random integers
        /// (small ones, so well-formed lines, self-loops, duplicates and
        /// dangling endpoints all occur) parse to `Ok` or `Err`, never panic.
        #[test]
        fn token_soup_never_panics(seed in 0u64..4000) {
            use rand::{rngs::SmallRng, Rng, SeedableRng};
            const WORDS: [&str; 16] = [
                "ad", "link", "metric", "delay", "up", "down", "backbone", "regional", "metro",
                "campus", "stub", "multihomed", "transit", "hybrid", "#", "-1",
            ];
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut text = String::new();
            for ad in 0..rng.gen_range(0..6) {
                text += &format!("ad {ad} campus stub\n");
            }
            for _ in 0..rng.gen_range(1..6) {
                if rng.gen_bool(0.8) {
                    let (a, b) = (rng.gen_range(0..6), rng.gen_range(0..6));
                    text += &format!("link {a} {b} metric 1 delay 1 up\n");
                    continue;
                }
                for _ in 0..rng.gen_range(1..9) {
                    text += &match rng.gen_range(0..4) {
                        0 => rng.gen_range(0..4u64).to_string(),
                        1 => rng.gen_range(0..=u64::MAX).to_string(),
                        _ => WORDS[rng.gen_range(0..WORDS.len())].to_string(),
                    };
                    text.push(' ');
                }
                text.push('\n');
            }
            if let Ok(t) = parse(&text) {
                proptest::prop_assert!(equivalent(&t, &parse(&dump(&t)).unwrap()));
            }
        }
    }
}
