//! A minimal `--flag value` argument parser (no external dependency).

use std::collections::HashMap;

/// Parsed command-line flags.
#[derive(Debug, Default)]
pub struct Args {
    flags: HashMap<String, String>,
}

impl Args {
    /// Parse `--name value` pairs from `std::env::args`.
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parse `--name value` pairs; a `--name` followed by another
    /// `--…` token, or by nothing, is a boolean flag set to `true`.
    fn from_args(args: impl IntoIterator<Item = String>) -> Self {
        let mut flags = HashMap::new();
        let mut argv = args.into_iter().peekable();
        while let Some(arg) = argv.next() {
            if let Some(name) = arg.strip_prefix("--") {
                let value = argv
                    .next_if(|next| !next.starts_with("--"))
                    .unwrap_or_else(|| "true".to_string());
                flags.insert(name.to_string(), value);
            }
        }
        Self { flags }
    }

    /// A `usize` flag with a default.
    pub fn usize(&self, name: &str, default: usize) -> usize {
        self.flags
            .get(name)
            .map(|v| v.parse().unwrap_or_else(|_| panic!("--{name} expects an integer, got {v:?}")))
            .unwrap_or(default)
    }

    /// A `u64` flag with a default.
    pub fn u64(&self, name: &str, default: u64) -> u64 {
        self.flags
            .get(name)
            .map(|v| v.parse().unwrap_or_else(|_| panic!("--{name} expects an integer, got {v:?}")))
            .unwrap_or(default)
    }

    /// A string flag with a default.
    pub fn string(&self, name: &str, default: &str) -> String {
        self.flags.get(name).cloned().unwrap_or_else(|| default.to_string())
    }

    /// Whether a boolean flag is present.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_apply() {
        let args = Args::default();
        assert_eq!(args.usize("keys", 7), 7);
        assert_eq!(args.string("workload", "read-only"), "read-only");
        assert!(!args.flag("grid"));
    }

    fn parse(argv: &[&str]) -> Args {
        Args::from_args(argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn boolean_flag_before_a_valued_flag_keeps_both() {
        let args = parse(&["--csv", "--keys", "5"]);
        assert!(args.flag("csv"));
        assert_eq!(args.usize("keys", 7), 5);
    }

    #[test]
    fn boolean_flag_after_a_valued_flag_keeps_both() {
        let args = parse(&["--keys", "5", "--csv"]);
        assert!(args.flag("csv"));
        assert_eq!(args.usize("keys", 7), 5);
    }

    #[test]
    fn trailing_boolean_flag_is_true() {
        let args = parse(&["--csv"]);
        assert!(args.flag("csv"));
        assert_eq!(args.string("csv", "false"), "true");
    }
}
