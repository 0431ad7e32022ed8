//! A human-readable text form for transit policies.
//!
//! Administrators, not protocols, write policies (paper Section 6: "it
//! will be the job of local administrators to specify policies for their
//! ADs"). This module gives [`TransitPolicy`] a stable, round-trippable
//! text syntax used by examples, golden tests, and anyone inspecting a
//! workload:
//!
//! ```text
//! policy AD5 {
//!     deny src {AD1, AD2};
//!     permit qos {1, 2} cost 3;
//!     permit src {AD3} dst !{AD9} prev {AD0} time 19:00-07:00 cost 2;
//!     default permit 0;
//! }
//! ```
//!
//! Semantics match the in-memory model exactly: terms are ordered,
//! first match wins, conditions within a term are conjunctive, `!{…}`
//! is set complement, and `default` gives the action when nothing
//! matches.

use std::fmt;
use std::str::FromStr;

use adroute_topology::AdId;

use crate::class::{QosClass, TimeOfDay, UserClass};
use crate::terms::{AdSet, PolicyAction, PolicyCondition, PolicyTerm, TransitPolicy};

/// Formats a policy in the canonical text syntax.
pub fn format_policy(p: &TransitPolicy) -> String {
    let mut out = format!("policy {} {{\n", p.ad);
    for term in &p.terms {
        out.push_str("    ");
        out.push_str(&format_term(term));
        out.push_str(";\n");
    }
    out.push_str("    default ");
    out.push_str(&format_action(&p.default));
    out.push_str(";\n}\n");
    out
}

fn format_action(a: &PolicyAction) -> String {
    match a {
        PolicyAction::Permit { cost } => format!("permit {cost}"),
        PolicyAction::Deny => "deny".to_string(),
    }
}

fn format_term(t: &PolicyTerm) -> String {
    let mut s = match t.action {
        PolicyAction::Permit { .. } => "permit".to_string(),
        PolicyAction::Deny => "deny".to_string(),
    };
    for c in &t.conditions {
        s.push(' ');
        match c {
            PolicyCondition::SrcIn(set) => s.push_str(&format!("src {set}")),
            PolicyCondition::DstIn(set) => s.push_str(&format!("dst {set}")),
            PolicyCondition::PrevIn(set) => s.push_str(&format!("prev {set}")),
            PolicyCondition::NextIn(set) => s.push_str(&format!("next {set}")),
            PolicyCondition::QosIn(qs) => {
                let list: Vec<String> = qs.iter().map(|q| q.0.to_string()).collect();
                s.push_str(&format!("qos {{{}}}", list.join(", ")));
            }
            PolicyCondition::UciIn(us) => {
                let list: Vec<String> = us.iter().map(|u| u.0.to_string()).collect();
                s.push_str(&format!("uci {{{}}}", list.join(", ")));
            }
            PolicyCondition::TimeWindow(a, b) => s.push_str(&format!("time {a}-{b}")),
        }
    }
    if let PolicyAction::Permit { cost } = t.action {
        s.push_str(&format!(" cost {cost}"));
    }
    s
}

/// An error produced while parsing policy text.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// 1-based line of the offending token (the last line when the input
    /// ended too soon).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "policy parse error: line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// A tiny hand-rolled tokenizer — words, numbers, and punctuation — that
/// also carries what every error and range check needs.
struct Lexer<'a> {
    rest: &'a str,
    /// 1-based line of the token [`Lexer::next`] last returned.
    line: usize,
    /// Exclusive bound on AD ids, when the topology's size is known.
    num_ads: Option<usize>,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Tok<'a> {
    Word(&'a str),
    Punct(char),
    End,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Word(w) => write!(f, "'{w}'"),
            Tok::Punct(p) => write!(f, "'{p}'"),
            Tok::End => f.write_str("end of input"),
        }
    }
}

impl<'a> Lexer<'a> {
    fn new(s: &'a str, num_ads: Option<usize>) -> Lexer<'a> {
        Lexer {
            rest: s,
            line: 1,
            num_ads,
        }
    }

    fn next(&mut self) -> Tok<'a> {
        let token = self.rest.trim_start();
        let skipped = &self.rest[..self.rest.len() - token.len()];
        self.line += skipped.matches('\n').count();
        self.rest = token;
        let Some(first) = token.chars().next() else {
            return Tok::End;
        };
        let in_word = |c: char| c.is_alphanumeric() || c == ':';
        if in_word(first) {
            let end = token.find(|c| !in_word(c)).unwrap_or(token.len());
            let (word, rest) = token.split_at(end);
            self.rest = rest;
            Tok::Word(word)
        } else {
            self.rest = &token[first.len_utf8()..];
            Tok::Punct(first)
        }
    }

    /// An error at the line of the token last read.
    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            line: self.line,
            message: message.into(),
        })
    }

    fn expect(&mut self, want: Tok<'_>) -> Result<(), ParseError> {
        match self.next() {
            tok if tok == want => Ok(()),
            other => self.err(format!("expected {want}, found {other}")),
        }
    }

    fn at_end(&self) -> bool {
        self.rest.trim_start().is_empty()
    }
}

fn parse_ad(lx: &Lexer<'_>, word: &str) -> Result<AdId, ParseError> {
    let Ok(n) = word.strip_prefix("AD").unwrap_or(word).parse::<u32>() else {
        return lx.err(format!("expected an AD id, found '{word}'"));
    };
    match lx.num_ads {
        Some(num_ads) if n as usize >= num_ads => {
            lx.err(format!("AD{n} is outside the {num_ads}-AD topology"))
        }
        _ => Ok(AdId(n)),
    }
}

fn parse_number(lx: &mut Lexer<'_>) -> Result<u32, ParseError> {
    match lx.next() {
        Tok::Word(w) => match w.parse() {
            Ok(n) => Ok(n),
            Err(_) => lx.err(format!("expected number, found '{w}'")),
        },
        other => lx.err(format!("expected number, found {other}")),
    }
}

/// Parses `{AD1, AD2}` or `!{…}` or `*`.
fn parse_adset(lx: &mut Lexer<'_>) -> Result<AdSet, ParseError> {
    match lx.next() {
        Tok::Punct('*') => Ok(AdSet::Any),
        Tok::Punct('!') => {
            lx.expect(Tok::Punct('{'))?;
            Ok(AdSet::except(parse_ad_list(lx)?))
        }
        Tok::Punct('{') => Ok(AdSet::only(parse_ad_list(lx)?)),
        other => lx.err(format!("expected AD set, found {other}")),
    }
}

/// Parses the members of an AD set, after its `{`.
fn parse_ad_list(lx: &mut Lexer<'_>) -> Result<Vec<AdId>, ParseError> {
    let mut ads = Vec::new();
    loop {
        match lx.next() {
            Tok::Punct('}') => return Ok(ads),
            Tok::Punct(',') => continue,
            Tok::Word(w) => ads.push(parse_ad(lx, w)?),
            other => return lx.err(format!("in AD set: unexpected {other}")),
        }
    }
}

/// Parses `{1, 2}` as a list of small class numbers.
fn parse_class_list(lx: &mut Lexer<'_>) -> Result<Vec<u8>, ParseError> {
    lx.expect(Tok::Punct('{'))?;
    let mut out = Vec::new();
    loop {
        match lx.next() {
            Tok::Punct('}') => return Ok(out),
            Tok::Punct(',') => continue,
            Tok::Word(w) => match w.parse::<u8>() {
                Ok(n) => out.push(n),
                Err(_) => return lx.err(format!("expected class number, found '{w}'")),
            },
            other => return lx.err(format!("in class list: unexpected {other}")),
        }
    }
}

/// Parses `HH:MM`.
fn parse_time(lx: &mut Lexer<'_>) -> Result<TimeOfDay, ParseError> {
    let w = match lx.next() {
        Tok::Word(w) => w,
        other => return lx.err(format!("expected HH:MM, found {other}")),
    };
    let hm = w
        .split_once(':')
        .and_then(|(h, m)| Some((h.parse::<u16>().ok()?, m.parse::<u16>().ok()?)));
    match hm {
        Some((h, m)) if h < 24 && m < 60 => Ok(TimeOfDay::hm(h, m)),
        Some((h, m)) => lx.err(format!("time out of range: {h}:{m}")),
        None => lx.err(format!("expected HH:MM, found '{w}'")),
    }
}

/// Parses the canonical text syntax back into a [`TransitPolicy`]: exactly
/// one `policy` block.
pub fn parse_policy(input: &str) -> Result<TransitPolicy, ParseError> {
    let mut lx = Lexer::new(input, None);
    let ad = parse_block_header(&mut lx)?;
    let policy = parse_block_body(&mut lx, ad)?;
    lx.expect(Tok::End)?;
    Ok(policy)
}

/// Parses a block's `policy ADn {`.
fn parse_block_header(lx: &mut Lexer<'_>) -> Result<AdId, ParseError> {
    lx.expect(Tok::Word("policy"))?;
    let ad = match lx.next() {
        Tok::Word(w) => parse_ad(lx, w)?,
        other => return lx.err(format!("expected AD id, found {other}")),
    };
    lx.expect(Tok::Punct('{'))?;
    Ok(ad)
}

/// Parses a block's terms and default, through its closing `}`.
fn parse_block_body(lx: &mut Lexer<'_>, ad: AdId) -> Result<TransitPolicy, ParseError> {
    let mut policy = TransitPolicy {
        ad,
        terms: Vec::new(),
        default: PolicyAction::Deny,
    };
    let mut saw_default = false;
    loop {
        match lx.next() {
            Tok::Punct('}') => break,
            Tok::Word("default") => {
                let action = match lx.next() {
                    Tok::Word("permit") => PolicyAction::Permit {
                        cost: parse_number(lx)?,
                    },
                    Tok::Word("deny") => PolicyAction::Deny,
                    other => return lx.err(format!("expected permit/deny, found {other}")),
                };
                lx.expect(Tok::Punct(';'))?;
                policy.default = action;
                saw_default = true;
            }
            Tok::Word(kw @ ("permit" | "deny")) => {
                let mut conditions = Vec::new();
                let mut cost = None;
                loop {
                    conditions.push(match lx.next() {
                        Tok::Punct(';') => break,
                        Tok::Word("src") => PolicyCondition::SrcIn(parse_adset(lx)?),
                        Tok::Word("dst") => PolicyCondition::DstIn(parse_adset(lx)?),
                        Tok::Word("prev") => PolicyCondition::PrevIn(parse_adset(lx)?),
                        Tok::Word("next") => PolicyCondition::NextIn(parse_adset(lx)?),
                        Tok::Word("qos") => PolicyCondition::QosIn(
                            parse_class_list(lx)?.into_iter().map(QosClass).collect(),
                        ),
                        Tok::Word("uci") => PolicyCondition::UciIn(
                            parse_class_list(lx)?.into_iter().map(UserClass).collect(),
                        ),
                        Tok::Word("time") => {
                            let start = parse_time(lx)?;
                            lx.expect(Tok::Punct('-'))?;
                            PolicyCondition::TimeWindow(start, parse_time(lx)?)
                        }
                        Tok::Word("cost") => {
                            cost = Some(parse_number(lx)?);
                            continue;
                        }
                        other => return lx.err(format!("in term: unexpected {other}")),
                    });
                }
                let action = if kw == "permit" {
                    PolicyAction::Permit {
                        cost: cost.unwrap_or(0),
                    }
                } else {
                    if cost.is_some() {
                        return lx.err("deny terms cannot carry a cost");
                    }
                    PolicyAction::Deny
                };
                policy.push_term(conditions, action);
            }
            other => return lx.err(format!("expected a term or '}}', found {other}")),
        }
    }
    if !saw_default {
        return lx.err("missing 'default' clause");
    }
    Ok(policy)
}

/// Formats a whole database, one `policy` block per AD.
pub fn format_policies(db: &crate::db::PolicyDb) -> String {
    let mut out = String::new();
    for p in db.iter() {
        out.push_str(&format_policy(p));
        out.push('\n');
    }
    out
}

/// Parses a concatenation of `policy` blocks — and nothing else — into a
/// [`crate::db::PolicyDb`] covering ADs `0..num_ads`. ADs without a block
/// get a permit-all policy (the paper's "least restrictive policies
/// possible" default), so an empty input is the permissive database. An
/// AD with two blocks, and an AD id at or past `num_ads` anywhere, are
/// errors.
pub fn parse_policies(input: &str, num_ads: usize) -> Result<crate::db::PolicyDb, ParseError> {
    let mut policies: Vec<TransitPolicy> = (0..num_ads as u32)
        .map(|i| TransitPolicy::permit_all(AdId(i)))
        .collect();
    let mut seen = vec![false; num_ads];
    let mut lx = Lexer::new(input, Some(num_ads));
    while !lx.at_end() {
        let ad = parse_block_header(&mut lx)?;
        if std::mem::replace(&mut seen[ad.index()], true) {
            return lx.err(format!("second policy block for {ad}"));
        }
        policies[ad.index()] = parse_block_body(&mut lx, ad)?;
    }
    Ok(crate::db::PolicyDb::from_policies(policies))
}

impl fmt::Display for TransitPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&format_policy(self))
    }
}

impl FromStr for TransitPolicy {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        parse_policy(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::FlowSpec;

    #[test]
    fn formats_canonical_syntax() {
        let mut p = TransitPolicy::permit_all(AdId(5));
        p.push_term(
            vec![PolicyCondition::SrcIn(AdSet::only([AdId(1), AdId(2)]))],
            PolicyAction::Deny,
        );
        p.push_term(
            vec![PolicyCondition::QosIn(vec![QosClass(1), QosClass(2)])],
            PolicyAction::Permit { cost: 3 },
        );
        let text = format_policy(&p);
        assert!(text.contains("policy AD5 {"), "{text}");
        assert!(text.contains("deny src {AD1,AD2};"), "{text}");
        assert!(text.contains("permit qos {1, 2} cost 3;"), "{text}");
        assert!(text.contains("default permit 0;"), "{text}");
    }

    #[test]
    fn parses_what_it_formats() {
        let mut p = TransitPolicy::deny_all(AdId(7));
        p.push_term(
            vec![
                PolicyCondition::SrcIn(AdSet::only([AdId(3)])),
                PolicyCondition::DstIn(AdSet::except([AdId(9)])),
                PolicyCondition::PrevIn(AdSet::Any),
                PolicyCondition::NextIn(AdSet::only([AdId(1), AdId(4)])),
                PolicyCondition::QosIn(vec![QosClass(2)]),
                PolicyCondition::UciIn(vec![UserClass(1), UserClass(3)]),
                PolicyCondition::TimeWindow(TimeOfDay::hm(19, 0), TimeOfDay::hm(7, 0)),
            ],
            PolicyAction::Permit { cost: 12 },
        );
        p.push_term(vec![], PolicyAction::Deny);
        let text = format_policy(&p);
        let back = parse_policy(&text).unwrap_or_else(|e| panic!("{e}:\n{text}"));
        assert_eq!(back.ad, p.ad);
        assert_eq!(back.terms, p.terms);
        assert_eq!(
            matches!(back.default, PolicyAction::Deny),
            matches!(p.default, PolicyAction::Deny)
        );
    }

    #[test]
    fn parses_hand_written_policy() {
        let text = "
            policy AD5 {
                deny src {AD1, AD2};
                permit qos {1} cost 3;
                permit src * dst {AD4} cost 0;
                default deny;
            }";
        let p: TransitPolicy = text.parse().unwrap();
        assert_eq!(p.ad, AdId(5));
        assert_eq!(p.num_terms(), 3);
        // Behaviour check: src AD1 denied, qos1 permitted for others.
        let f = FlowSpec::best_effort(AdId(1), AdId(9));
        assert_eq!(p.evaluate(&f, Some(AdId(0)), Some(AdId(3))), None);
        let f2 = FlowSpec::best_effort(AdId(3), AdId(9)).with_qos(QosClass(1));
        assert_eq!(p.evaluate(&f2, Some(AdId(0)), Some(AdId(3))), Some(3));
        let f3 = FlowSpec::best_effort(AdId(3), AdId(4));
        assert_eq!(p.evaluate(&f3, Some(AdId(0)), Some(AdId(3))), Some(0));
        let f4 = FlowSpec::best_effort(AdId(3), AdId(9));
        assert_eq!(p.evaluate(&f4, Some(AdId(0)), Some(AdId(3))), None);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_policy("policy AD5 {").is_err());
        assert!(parse_policy("policy {} {}").is_err());
        assert!(parse_policy("policy AD5 { default permit 0; } trailing").is_err());
        assert!(parse_policy("policy AD5 { }").is_err(), "default required");
        assert!(parse_policy("policy AD5 { deny cost 3; default deny; }").is_err());
        assert!(
            parse_policy("policy AD5 { permit time 25:00-07:00 cost 0; default deny; }").is_err()
        );
        assert!(parse_policy("policy AD5 { frobnicate; default deny; }").is_err());
    }

    #[test]
    fn error_messages_are_descriptive() {
        let e = parse_policy("policy AD5 { bogus; default deny; }").unwrap_err();
        assert!(e.to_string().contains("bogus"), "{e}");
    }

    #[test]
    fn whole_database_round_trips() {
        use crate::workload::PolicyWorkload;
        use adroute_topology::generate::HierarchyConfig;
        let topo = HierarchyConfig::figure1().generate();
        let db = PolicyWorkload::default_mix(5).generate(&topo);
        let text = format_policies(&db);
        let back = parse_policies(&text, topo.num_ads()).unwrap();
        assert_eq!(back.total_terms(), db.total_terms());
        for (a, b) in db.iter().zip(back.iter()) {
            assert_eq!(a.terms, b.terms, "policy of {} diverged", a.ad);
        }
    }

    #[test]
    fn sparse_database_defaults_to_permit_all() {
        let text = "policy AD2 { default deny; }";
        let db = parse_policies(text, 4).unwrap();
        let f = FlowSpec::best_effort(AdId(0), AdId(3));
        assert_eq!(
            db.policy(AdId(1))
                .evaluate(&f, Some(AdId(0)), Some(AdId(2))),
            Some(0)
        );
        assert_eq!(
            db.policy(AdId(2))
                .evaluate(&f, Some(AdId(0)), Some(AdId(3))),
            None
        );
        // Out-of-range policy rejected.
        assert!(parse_policies("policy AD9 { default deny; }", 4).is_err());
    }

    /// Inputs the parser used to accept — skipping the block, ignoring the
    /// tokens, keeping the last duplicate, admitting the id — each with
    /// the line it must now be refused at, and the two message forms that
    /// used to print `Option<Tok>`.
    #[test]
    fn malformed_policy_files_are_errors() {
        for (text, line, needle) in [
            ("\npolcy AD1 {\n default deny;\n}", 2, "expected 'policy', found 'polcy'"),
            ("hello world", 1, "expected 'policy', found 'hello'"),
            ("policy AD1 { default deny; }\n\ntrailing", 3, "found 'trailing'"),
            (
                "policy AD1 { default deny; }\npolicy AD2 { default deny; }\npolicy AD1 {\n default permit 0;\n}",
                3,
                "second policy block for AD1",
            ),
            (
                "policy AD1 {\n deny src {AD2,\n AD4000000000};\n default deny; }",
                3,
                "AD4000000000 is outside the 4-AD topology",
            ),
            ("policy AD1 {\n deny src {AD2}\n}", 3, "in term: unexpected '}'"),
            ("policy AD1 {\n deny src {AD2", 2, "in AD set: unexpected end of input"),
        ] {
            let e = parse_policies(text, 4).expect_err(text);
            assert_eq!(e.line, line, "{e}");
            assert!(e.message.contains(needle), "{e}");
            let shown = e.to_string();
            assert!(shown.contains(&format!("line {line}: ")), "{shown}");
            assert!(!shown.contains("Some(") && !shown.contains("None"), "{shown}");
        }
        let f = FlowSpec::best_effort(AdId(0), AdId(3));
        for empty in ["", " \n\t\n"] {
            let db = parse_policies(empty, 4).expect("no block is the permit-all default");
            assert!(db
                .iter()
                .all(|p| p.evaluate(&f, Some(AdId(0)), Some(AdId(3))) == Some(0)));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]
        /// Files built from the grammar's own keywords, punctuation and
        /// integers — loose, as term fragments inside a block, and as
        /// whole blocks with small ids, so well-formed files, duplicates
        /// and out-of-range ids all occur — parse to `Ok` or `Err`, never
        /// panic, and every accepted file round-trips.
        #[test]
        fn token_soup_never_panics(seed in 0u64..4000) {
            use rand::{rngs::SmallRng, Rng, SeedableRng};
            const WORDS: [&str; 30] = [
                "policy", "default", "permit", "deny", "src", "dst", "prev", "next", "qos",
                "uci", "time", "cost", "{", "}", ";", ",", "!", "*", "-", "AD1", "AD7",
                "19:00", "07:60", "\n", "deny;", "permit src {AD1} cost 3;",
                "deny dst !{AD2, AD3} qos {1, 2};", "permit uci {} time 19:00-07:00;",
                "permit next * prev {AD0, AD7};", "deny src {} dst !{};",
            ];
            const NUM_ADS: usize = 6;
            fn soup(rng: &mut SmallRng) -> String {
                let mut out = String::new();
                for _ in 0..rng.gen_range(1..6) {
                    out += &match rng.gen_range(0..12) {
                        0 => rng.gen_range(0..8u64).to_string(),
                        1 => rng.gen_range(0..=u64::MAX).to_string(),
                        2..=4 => WORDS[rng.gen_range(0..WORDS.len())].to_string(),
                        _ => WORDS[rng.gen_range(24..WORDS.len())].to_string(),
                    };
                    out.push(' ');
                }
                out
            }
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut text = String::new();
            for _ in 0..rng.gen_range(0..4) {
                let ad = rng.gen_range(0..NUM_ADS + 1);
                let body = match rng.gen_range(0..4) {
                    0 => {
                        text += &soup(&mut rng);
                        continue;
                    }
                    1 => soup(&mut rng),
                    _ => format!("deny src !{{AD{}}};", rng.gen_range(0..NUM_ADS + 1)),
                };
                text += &format!("policy AD{ad} {{ {body} default permit 1; }}\n");
            }
            if let Ok(db) = parse_policies(&text, NUM_ADS) {
                let back = parse_policies(&format_policies(&db), NUM_ADS).unwrap();
                proptest::prop_assert!(back.iter().eq(db.iter()), "{text}");
            }
        }
    }

    proptest::proptest! {
        /// Round trip: any generated workload policy survives
        /// format -> parse -> format unchanged.
        #[test]
        fn roundtrip_workload_policies(seed in 0u64..300, g in 0u8..8) {
            use adroute_topology::generate::HierarchyConfig;
            use crate::workload::PolicyWorkload;
            let topo = HierarchyConfig::figure1().generate();
            let db = PolicyWorkload::granularity(g, seed).generate(&topo);
            for p in db.iter().take(10) {
                let text = format_policy(p);
                let back = parse_policy(&text)
                    .unwrap_or_else(|e| panic!("{e}\n{text}"));
                proptest::prop_assert_eq!(format_policy(&back), text);
                proptest::prop_assert_eq!(&back.terms, &p.terms);
            }
        }
    }
}
