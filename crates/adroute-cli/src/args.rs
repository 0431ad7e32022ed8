//! A tiny, dependency-free flag parser: `--key value` pairs plus a
//! leading subcommand.

use std::collections::BTreeMap;

/// Parsed command line: subcommand plus positional operands and
/// `--key value` flags.
#[derive(Clone, Debug, Default)]
pub struct Args {
    /// The subcommand (first non-flag argument).
    pub command: String,
    positionals: Vec<String>,
    flags: BTreeMap<String, String>,
}

/// A command-line error with a user-facing message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

/// Shorthand error constructor.
pub(crate) fn bail<T>(msg: impl Into<String>) -> Result<T, CliError> {
    Err(CliError(msg.into()))
}

impl Args {
    /// Parses `argv` (without the program name).
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, CliError> {
        let mut it = argv.into_iter();
        let Some(command) = it.next() else {
            return bail("missing subcommand; try `adroute help`");
        };
        // `--help` is the one leading flag: it names the `help` command.
        if command.starts_with("--") && command != "--help" {
            return bail("the subcommand must come before flags");
        }
        let mut positionals = Vec::new();
        let mut flags = BTreeMap::new();
        let mut it = it.peekable();
        while let Some(tok) = it.next() {
            let Some(key) = tok.strip_prefix("--") else {
                // Positional operands may only precede the flags;
                // commands that take none reject them in `known`.
                if !flags.is_empty() {
                    return bail(format!(
                        "positional argument '{tok}' must come before flags"
                    ));
                }
                positionals.push(tok);
                continue;
            };
            // A flag followed by another flag (or nothing) is a boolean
            // switch: `--json` parses as `--json true`.
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") => it.next().unwrap(),
                _ => "true".to_string(),
            };
            if flags.insert(key.to_string(), value).is_some() {
                return bail(format!("flag --{key} given twice"));
            }
        }
        Ok(Args {
            command,
            positionals,
            flags,
        })
    }

    /// The single positional operand commands like `blame <scenario>`
    /// require.
    pub(crate) fn positional_one(&self, what: &str) -> Result<&str, CliError> {
        match self.positionals.as_slice() {
            [one] => Ok(one),
            [] => bail(format!("'{}' needs a {what} operand", self.command)),
            _ => bail(format!("'{}' takes exactly one {what}", self.command)),
        }
    }

    /// Whether any positional operands were given — lets a command pick
    /// between an operand-driven mode and a flag-driven one.
    pub(crate) fn has_positionals(&self) -> bool {
        !self.positionals.is_empty()
    }

    /// A required string flag.
    pub(crate) fn req(&self, key: &str) -> Result<&str, CliError> {
        match self.flags.get(key) {
            Some(v) => Ok(v),
            None => bail(format!("missing required flag --{key}")),
        }
    }

    /// An optional string flag.
    pub(crate) fn opt(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// A required parsed flag.
    pub(crate) fn req_parse<T: std::str::FromStr>(&self, key: &str) -> Result<T, CliError> {
        let v = self.req(key)?;
        v.parse()
            .map_err(|_| CliError(format!("flag --{key}: cannot parse '{v}'")))
    }

    /// An optional parsed flag with a default.
    pub(crate) fn opt_parse<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
    ) -> Result<T, CliError> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError(format!("flag --{key}: cannot parse '{v}'"))),
        }
    }

    /// A count flag that must be positive: required when `default` is
    /// `None`, else `default` when absent.
    pub(crate) fn count(&self, key: &str, default: Option<usize>) -> Result<usize, CliError> {
        let n = match default {
            Some(d) => self.opt_parse(key, d)?,
            None => self.req_parse(key)?,
        };
        if n == 0 {
            return bail(format!("--{key} must be positive"));
        }
        Ok(n)
    }

    /// Flags that were set but never consumed by the command — caller can
    /// check against a known list for typo detection. Also rejects stray
    /// positionals, since most commands take none; commands with operands
    /// use `Args::known_with_positionals`.
    pub(crate) fn known(&self, allowed: &[&str]) -> Result<(), CliError> {
        if let Some(p) = self.positionals.first() {
            return bail(format!("unexpected positional argument '{p}'"));
        }
        self.known_with_positionals(allowed)
    }

    /// [`Args::known`] for commands that accept positional operands.
    pub(crate) fn known_with_positionals(&self, allowed: &[&str]) -> Result<(), CliError> {
        for k in self.flags.keys() {
            if !allowed.contains(&k.as_str()) {
                return bail(format!(
                    "unknown flag --{k} for '{}'; allowed: {}",
                    self.command,
                    allowed.join(", ")
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_command_and_flags() {
        let a = Args::parse(argv("gen-topo --ads 100 --seed 7")).unwrap();
        assert_eq!(a.command, "gen-topo");
        assert_eq!(a.req("ads").unwrap(), "100");
        assert_eq!(a.req_parse::<u64>("seed").unwrap(), 7);
        assert_eq!(a.opt("missing"), None);
        assert_eq!(a.opt_parse("missing", 5u32).unwrap(), 5);
        a.known(&["ads", "seed"]).unwrap();
        assert!(a.known(&["ads"]).is_err());
    }

    #[test]
    fn rejects_malformed() {
        assert!(Args::parse(argv("")).is_err());
        assert!(Args::parse(argv("--ads 5")).is_err());
        assert!(Args::parse(argv("cmd --k 1 stray")).is_err());
        assert!(Args::parse(argv("cmd --k 1 --k 2")).is_err());
        // Positionals parse, but flag-only commands reject them at the
        // `known` check.
        let s = Args::parse(argv("cmd stray")).unwrap();
        assert_eq!(s.positional_one("operand").unwrap(), "stray");
        assert!(s.known(&[]).is_err());
        let a = Args::parse(argv("cmd --k notanum")).unwrap();
        assert!(a.req_parse::<u32>("k").is_err());
        assert!(a.req("absent").is_err());
    }

    #[test]
    fn positional_operands_parse_before_flags() {
        let a = Args::parse(argv("blame quickstart --json")).unwrap();
        assert_eq!(a.positional_one("scenario").unwrap(), "quickstart");
        assert!(a.opt_parse("json", false).unwrap());
        a.known_with_positionals(&["json"]).unwrap();
        let none = Args::parse(argv("blame --json")).unwrap();
        assert!(none.positional_one("scenario").is_err());
        let two = Args::parse(argv("blame a b")).unwrap();
        assert!(two.positional_one("scenario").is_err());
    }

    #[test]
    fn valueless_flag_is_a_boolean_switch() {
        let a = Args::parse(argv("report --json")).unwrap();
        assert!(a.opt_parse("json", false).unwrap());
        let b = Args::parse(argv("report --json --ads 40")).unwrap();
        assert!(b.opt_parse("json", false).unwrap());
        assert_eq!(b.req_parse::<u32>("ads").unwrap(), 40);
        let c = Args::parse(argv("report --json false")).unwrap();
        assert!(!c.opt_parse("json", true).unwrap());
    }
}
