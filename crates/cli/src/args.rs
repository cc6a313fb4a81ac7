//! Minimal `--flag value` argument parsing.

use std::collections::BTreeMap;
use std::fmt;

/// Parsed command line: one positional subcommand plus `--key value`
/// options (bare `--key` is recorded with an empty value).
#[derive(Debug, Clone, Default)]
pub struct Args {
    subcommand: Option<String>,
    options: BTreeMap<String, String>,
}

/// Errors produced while reading options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A required option was not given.
    Missing(String),
    /// An option's value failed to parse.
    Invalid {
        /// Option name.
        key: String,
        /// Raw value supplied.
        value: String,
    },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::Missing(k) => write!(f, "missing required option --{k}"),
            ArgError::Invalid { key, value } => {
                write!(f, "invalid value {value:?} for --{key}")
            }
        }
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses a raw argument list (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Self {
        let mut out = Args::default();
        let mut it = argv.into_iter().peekable();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = match it.peek() {
                    Some(next) if !next.starts_with("--") => it.next().unwrap_or_default(),
                    _ => String::new(),
                };
                out.options.insert(key.to_string(), value);
            } else if out.subcommand.is_none() {
                out.subcommand = Some(a);
            }
        }
        out
    }

    /// The positional subcommand, if any.
    pub fn subcommand(&self) -> Option<&str> {
        self.subcommand.as_deref()
    }

    /// Raw string value of an option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Every option given, by name (without the leading `--`).
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.options.keys().map(String::as_str)
    }

    /// True if the flag was present (with or without a value).
    pub fn has(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }

    /// A required string option.
    ///
    /// # Errors
    ///
    /// [`ArgError::Missing`] when absent.
    pub fn required(&self, key: &str) -> Result<&str, ArgError> {
        self.get(key).ok_or_else(|| ArgError::Missing(key.into()))
    }

    /// A parsed option with a default.
    ///
    /// # Errors
    ///
    /// [`ArgError::Invalid`] when present but unparseable.
    pub fn parsed_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| ArgError::Invalid {
                key: key.into(),
                value: raw.into(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn subcommand_and_options() {
        let a = parse("train --out m.sesr --steps 100 --full");
        assert_eq!(a.subcommand(), Some("train"));
        assert_eq!(a.get("out"), Some("m.sesr"));
        assert_eq!(a.parsed_or("steps", 0usize).unwrap(), 100);
        assert!(a.has("full"));
        assert!(!a.has("absent"));
    }

    #[test]
    fn defaults_apply_when_absent() {
        let a = parse("train");
        assert_eq!(a.parsed_or("steps", 42usize).unwrap(), 42);
    }

    #[test]
    fn invalid_value_reported() {
        let a = parse("train --steps banana");
        let err = a.parsed_or("steps", 0usize).unwrap_err();
        assert_eq!(
            err,
            ArgError::Invalid {
                key: "steps".into(),
                value: "banana".into()
            }
        );
    }

    #[test]
    fn missing_required_reported() {
        let a = parse("upscale");
        assert_eq!(
            a.required("model").unwrap_err(),
            ArgError::Missing("model".into())
        );
    }

    #[test]
    fn bare_flag_before_another_flag() {
        let a = parse("x --full --steps 7");
        assert!(a.has("full"));
        assert_eq!(a.get("full"), Some(""));
        assert_eq!(a.parsed_or("steps", 0usize).unwrap(), 7);
    }
}
