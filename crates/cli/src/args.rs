//! Minimal dependency-free argument parsing for the `fakeaudit` binary.

use std::collections::HashMap;
use std::fmt;

/// A parsed command line: a subcommand, an optional action, plus
/// `--key value` options.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ParsedArgs {
    /// The subcommand (first positional argument).
    pub command: Option<String>,
    /// The action (second positional argument, e.g. `trace analyze`).
    pub action: Option<String>,
    options: HashMap<String, String>,
    flags: Vec<String>,
}

/// Errors from argument parsing and extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgsError {
    /// An option value failed to parse.
    InvalidValue {
        /// The option name.
        option: String,
        /// The raw value.
        value: String,
        /// Parser error text.
        message: String,
    },
    /// A positional argument appeared after the subcommand.
    UnexpectedPositional(
        /// The stray argument.
        String,
    ),
    /// An option the command does not read, or one given without the
    /// value it needs (or with a value it does not take).
    Unread(
        /// What is wrong, naming the option.
        String,
    ),
}

impl fmt::Display for ArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgsError::InvalidValue {
                option,
                value,
                message,
            } => write!(f, "invalid value {value:?} for {option}: {message}"),
            ArgsError::UnexpectedPositional(arg) => {
                write!(f, "unexpected argument {arg:?}")
            }
            ArgsError::Unread(message) => f.write_str(message),
        }
    }
}

impl std::error::Error for ArgsError {}

impl ParsedArgs {
    /// Parses an iterator of arguments (without the program name).
    ///
    /// Grammar: `[command [action]] (--flag | --option value)*`. Every
    /// `--name` followed by another `--name` or end of input is a boolean
    /// flag; otherwise it consumes the next token as its value.
    ///
    /// # Errors
    ///
    /// [`ArgsError::UnexpectedPositional`] for stray positionals.
    pub fn parse<I: Iterator<Item = String>>(args: I) -> Result<Self, ArgsError> {
        let mut parsed = ParsedArgs::default();
        let mut args = args.peekable();
        if let Some(first) = args.peek() {
            if !first.starts_with("--") {
                parsed.command = args.next();
                if args.peek().is_some_and(|next| !next.starts_with("--")) {
                    parsed.action = args.next();
                }
            }
        }
        while let Some(arg) = args.next() {
            if let Some(name) = arg.strip_prefix("--") {
                let takes_value = args.peek().is_some_and(|next| !next.starts_with("--"));
                if takes_value {
                    parsed
                        .options
                        .insert(name.to_string(), args.next().expect("peeked"));
                } else {
                    parsed.flags.push(name.to_string());
                }
            } else {
                return Err(ArgsError::UnexpectedPositional(arg));
            }
        }
        Ok(parsed)
    }

    /// Rejects every flag not named in `flags` and every option not named
    /// in `options`, each a space-separated list of names without the
    /// `--`, so that no argument the command does not read passes
    /// unnoticed.
    ///
    /// # Errors
    ///
    /// [`ArgsError::Unread`] naming the first such argument.
    pub fn check(&self, flags: &str, options: &str) -> Result<(), ArgsError> {
        let reads = |names: &str, name: &str| names.split_whitespace().any(|n| n == name);
        let stray_options = self.options.keys().filter(|n| !reads(options, n));
        let stray_flags = self.flags.iter().filter(|n| !reads(flags, n));
        let Some(name) = stray_options.chain(stray_flags).min() else {
            return Ok(());
        };
        let command: Vec<&str> = self
            .command
            .iter()
            .chain(&self.action)
            .map(String::as_str)
            .collect();
        Err(ArgsError::Unread(if reads(options, name) {
            format!("--{name} needs a value")
        } else if reads(flags, name) {
            format!("--{name} takes no value")
        } else {
            format!("`fakeaudit {}` does not read --{name}", command.join(" "))
        }))
    }

    /// Whether a boolean flag was passed.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// A raw option value.
    pub fn raw(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// A typed option value, or `default` when absent.
    ///
    /// # Errors
    ///
    /// [`ArgsError::InvalidValue`] when the value does not parse.
    pub fn get_or<T>(&self, name: &str, default: T) -> Result<T, ArgsError>
    where
        T: std::str::FromStr,
        T::Err: fmt::Display,
    {
        match self.options.get(name) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|e: T::Err| ArgsError::InvalidValue {
                option: format!("--{name}"),
                value: raw.clone(),
                message: e.to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Result<ParsedArgs, ArgsError> {
        ParsedArgs::parse(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn empty_input() {
        let p = parse(&[]).unwrap();
        assert_eq!(p.command, None);
        assert_eq!(p.action, None);
        assert!(!p.flag("x"));
    }

    #[test]
    fn command_and_options() {
        let p = parse(&["audit", "--followers", "5000", "--seed", "7"]).unwrap();
        assert_eq!(p.command.as_deref(), Some("audit"));
        assert_eq!(p.get_or("followers", 0usize).unwrap(), 5_000);
        assert_eq!(p.get_or("seed", 0u64).unwrap(), 7);
        assert_eq!(p.get_or("absent", 42u32).unwrap(), 42);
    }

    #[test]
    fn flags_without_values() {
        let p = parse(&["audit", "--quick", "--seed", "3", "--verbose"]).unwrap();
        assert!(p.flag("quick"));
        assert!(p.flag("verbose"));
        assert!(!p.flag("seed"));
        assert_eq!(p.raw("seed"), Some("3"));
    }

    #[test]
    fn invalid_value_reports_option() {
        let p = parse(&["audit", "--followers", "lots"]).unwrap();
        let err = p.get_or("followers", 0usize).unwrap_err();
        assert!(matches!(err, ArgsError::InvalidValue { .. }));
        assert!(err.to_string().contains("--followers"));
    }

    #[test]
    fn action_positional() {
        let p = parse(&["trace", "analyze", "--input", "t.jsonl"]).unwrap();
        assert_eq!(p.command.as_deref(), Some("trace"));
        assert_eq!(p.action.as_deref(), Some("analyze"));
        assert_eq!(p.raw("input"), Some("t.jsonl"));
        assert_eq!(parse(&["audit", "--seed", "1"]).unwrap().action, None);
    }

    #[test]
    fn stray_positional_rejected() {
        assert!(matches!(
            parse(&["trace", "analyze", "extra"]),
            Err(ArgsError::UnexpectedPositional(_))
        ));
    }

    #[test]
    fn fractional_options() {
        let p = parse(&["audit", "--fake", "0.15"]).unwrap();
        assert_eq!(p.get_or("fake", 0.0f64).unwrap(), 0.15);
    }

    #[test]
    fn telemetry_path_option() {
        let p = parse(&["audit", "--telemetry", "/tmp/trace.jsonl", "--seed", "7"]).unwrap();
        assert_eq!(p.raw("telemetry"), Some("/tmp/trace.jsonl"));
        assert!(!p.flag("telemetry"));
    }

    #[test]
    fn quiet_flag() {
        let p = parse(&["crawl", "--quiet", "--followers", "1000"]).unwrap();
        assert!(p.flag("quiet"));
        assert_eq!(p.get_or("followers", 0u64).unwrap(), 1_000);
        assert!(!parse(&["crawl"]).unwrap().flag("quiet"));
    }

    #[test]
    fn check_names_what_the_command_does_not_read() {
        let p = parse(&["crawl", "--folowers", "5", "--quiet"]).unwrap();
        assert_eq!(p.check("quiet", "followers folowers"), Ok(()));
        let err = p.check("quiet", "followers").unwrap_err();
        assert_eq!(
            err.to_string(),
            "`fakeaudit crawl` does not read --folowers"
        );
        let err = p.check("", "folowers").unwrap_err();
        assert!(err.to_string().contains("--quiet"), "{err}");
        let p = parse(&["exp", "table3", "--quick", "1"]).unwrap();
        let err = p.check("quick", "seed").unwrap_err();
        assert_eq!(err.to_string(), "--quick takes no value");
        let p = parse(&["exp", "table3", "--seed"]).unwrap();
        let err = p.check("quick", "seed").unwrap_err();
        assert_eq!(err.to_string(), "--seed needs a value");
    }

    #[test]
    fn quiet_and_telemetry_combine() {
        let p = parse(&["audit", "--quiet", "--telemetry", "out.jsonl"]).unwrap();
        assert!(p.flag("quiet"));
        assert_eq!(p.raw("telemetry"), Some("out.jsonl"));
    }
}
