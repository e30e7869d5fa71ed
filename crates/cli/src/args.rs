//! Minimal flag parsing for the `amped` binary (kept dependency-free).
//!
//! Malformed values surface as [`amped_core::Error::Usage`] so the binary
//! can exit non-zero with a typed message instead of panicking.

use std::collections::HashMap;

use amped_configs::pipeline::FlagReader;
use amped_core::Error;

/// Parsed command line: a subcommand, `--key value` flags and bare
/// positionals.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The first bare token (the subcommand).
    pub command: Option<String>,
    flags: HashMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    /// Parse from an iterator of tokens (usually `std::env::args().skip(1)`).
    ///
    /// `--key value` becomes a flag; `--key` followed by another `--flag`
    /// or nothing becomes a boolean switch. A single-dash alphabetic token
    /// (`-v`) is a short boolean switch, queryable by its bare name
    /// (`switch("v")`).
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Self {
        let mut out = Args::default();
        let mut iter = tokens.into_iter().peekable();
        while let Some(tok) = iter.next() {
            if let Some(key) = tok.strip_prefix("--") {
                if let Some(value) = iter.next_if(|n| !n.starts_with("--")) {
                    out.flags.insert(key.to_string(), value);
                } else {
                    out.switches.push(key.to_string());
                }
            } else if let Some(short) = tok
                .strip_prefix('-')
                .filter(|rest| !rest.is_empty() && rest.chars().all(|c| c.is_ascii_alphabetic()))
            {
                out.switches.push(short.to_string());
            } else if out.command.is_none() {
                out.command = Some(tok);
            }
        }
        out
    }

    /// The raw value of `--key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// The value of `--key`, or `default`.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// Parse `--key` as `T`, or return `default` when absent, through
    /// [`amped_serve::ops::parsed`], the one parameter parser.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Usage`] when the value does not parse.
    pub fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, Error> {
        Ok(amped_serve::ops::parsed(self, key)?.unwrap_or(default))
    }

    /// Whether the boolean switch `--key` was given.
    pub fn switch(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    /// Parse a `--stragglers 3` or `--stragglers 3x2.5`-style count with an
    /// optional slowdown factor (default 1.5).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Usage`] for malformed specs.
    pub fn straggler_spec(&self, key: &str) -> Result<Option<(usize, f64)>, Error> {
        let Some(v) = self.get(key) else {
            return Ok(None);
        };
        let bad = || Error::usage(format!("bad --{key}: {v} (expects COUNT or COUNTxFACTOR)"));
        let (count, factor) = match v.split_once('x') {
            Some((n, f)) => (
                n.parse().map_err(|_| bad())?,
                f.parse().map_err(|_| bad())?,
            ),
            None => (v.parse().map_err(|_| bad())?, 1.5),
        };
        Ok(Some((count, factor)))
    }
}

/// The parsed command line as the [`FlagReader`] the scenario pipeline
/// and the operation layer read flags through.
impl FlagReader for Args {
    fn value(&self, key: &str) -> Option<String> {
        self.get(key).map(String::from)
    }

    fn switch(&self, key: &str) -> bool {
        Args::switch(self, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_command_flags_and_switches() {
        let a = args("estimate --model gpt3 --batch 1536 --json");
        assert_eq!(a.command.as_deref(), Some("estimate"));
        assert_eq!(a.get("model"), Some("gpt3"));
        assert_eq!(a.parse_or("batch", 0usize).unwrap(), 1536);
        assert!(a.switch("json"));
        assert!(!a.switch("quiet"));
    }

    #[test]
    fn bad_value_reports_key_as_a_usage_error() {
        let a = args("x --batch lots");
        let err = a.parse_or("batch", 0usize).unwrap_err();
        assert!(matches!(err, Error::Usage { .. }), "{err:?}");
        assert!(err.to_string().contains("--batch"));
    }

    #[test]
    fn straggler_specs() {
        assert_eq!(args("x").straggler_spec("stragglers").unwrap(), None);
        assert_eq!(
            args("x --stragglers 3").straggler_spec("stragglers").unwrap(),
            Some((3, 1.5))
        );
        assert_eq!(
            args("x --stragglers 2x4.0").straggler_spec("stragglers").unwrap(),
            Some((2, 4.0))
        );
        assert!(args("x --stragglers 2xfast").straggler_spec("stragglers").is_err());
        assert!(args("x --stragglers many").straggler_spec("stragglers").is_err());
    }

    #[test]
    fn adjacent_switches() {
        let a = args("run --fast --model m");
        assert!(a.switch("fast"));
        assert_eq!(a.get("model"), Some("m"));
    }

    #[test]
    fn short_switches() {
        let a = args("estimate -v --model gpt3");
        assert_eq!(a.command.as_deref(), Some("estimate"));
        assert!(a.switch("v"));
        assert_eq!(a.get("model"), Some("gpt3"));
        // A leading short switch never swallows the subcommand.
        let b = args("-v simulate");
        assert!(b.switch("v"));
        assert_eq!(b.command.as_deref(), Some("simulate"));
        // Non-alphabetic single-dash tokens are not switches (they may be
        // negative values consumed by --key parsing, or plain noise).
        assert!(!args("x -5").switch("5"));
    }
}

#[cfg(test)]
mod fuzz {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn parser_never_panics(tokens in prop::collection::vec("[-a-z0-9,.]{0,12}", 0..16)) {
            let args = Args::parse(tokens.into_iter());
            // Exercise the accessors too.
            let _ = args.get("model");
            let _ = args.get_or("accel", "a100");
            let _ = args.switch("json");
            let _ = args.parse_or::<usize>("batch", 1);
            let _ = args.straggler_spec("stragglers");
        }

        #[test]
        fn flags_round_trip(key in "[a-z]{1,8}", value in "[a-z0-9]{1,8}") {
            let args = Args::parse(vec![format!("--{key}"), value.clone()]);
            prop_assert_eq!(args.get(&key), Some(value.as_str()));
        }
    }
}
