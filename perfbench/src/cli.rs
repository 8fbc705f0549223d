//! Strict command-line parsing: every flag must be on the accepted
//! list and get a value, and a bare word that no flag consumed is an
//! error. A typo therefore fails the run instead of silently measuring
//! the defaults.

use std::collections::BTreeMap;

#[derive(Debug)]
pub struct Args {
    values: BTreeMap<String, String>,
}

impl Args {
    /// Parse `argv` (without the program name): `--name value` or
    /// `--name=value` for each `name` in `accepted`. A flag directly
    /// followed by another `--flag` is missing its value.
    pub fn parse(
        argv: impl IntoIterator<Item = String>,
        accepted: &[&str],
    ) -> Result<Args, String> {
        let mut values = BTreeMap::new();
        let mut argv = argv.into_iter().peekable();
        while let Some(arg) = argv.next() {
            let Some(body) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument {arg:?}"));
            };
            let (name, inline) = match body.split_once('=') {
                Some((name, value)) => (name.to_string(), Some(value.to_string())),
                None => (body.to_string(), None),
            };
            if !accepted.contains(&name.as_str()) {
                return Err(format!("unknown flag --{name}"));
            }
            let value = match inline {
                Some(value) => value,
                None => argv
                    .next_if(|next| !next.starts_with("--"))
                    .ok_or_else(|| format!("--{name} expects a value"))?,
            };
            if values.insert(name.clone(), value).is_some() {
                return Err(format!("--{name} given twice"));
            }
        }
        Ok(Args { values })
    }

    pub fn string(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// A numeric flag, or `default` when absent.
    pub fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.values.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} expects a number, got {v:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ACCEPTED: &[&str] = &["seed", "trace"];

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| s.to_string()), ACCEPTED)
    }

    #[test]
    fn values_parse() {
        let args = parse(&["--seed", "7", "--trace=1"]).unwrap();
        assert_eq!(args.number("seed", 0u64), Ok(7));
        assert_eq!(args.string("trace"), Some("1"));
        let args = parse(&["--seed=9"]).unwrap();
        assert_eq!(args.number("seed", 0u64), Ok(9));
        assert_eq!(args.string("trace"), None);
    }

    #[test]
    fn a_flag_does_not_swallow_the_next_flag() {
        assert_eq!(
            parse(&["--seed", "--trace", "1"]).unwrap_err(),
            "--seed expects a value"
        );
        assert_eq!(parse(&["--trace"]).unwrap_err(), "--trace expects a value");
    }

    #[test]
    fn stray_positional_values_are_errors() {
        assert!(parse(&["--seed", "7", "8"])
            .unwrap_err()
            .contains("unexpected argument"));
        assert!(parse(&["extra"]).is_err());
    }

    #[test]
    fn unknown_flags_and_repeats_are_errors() {
        assert_eq!(parse(&["--sed", "1"]).unwrap_err(), "unknown flag --sed");
        assert!(parse(&["--seed", "1", "--seed", "2"]).is_err());
        assert!(parse(&["--seed", "x"])
            .unwrap()
            .number("seed", 0u64)
            .is_err());
    }
}
