//! A minimal flag parser (no external dependencies): `--key value` pairs
//! plus positional arguments.

use std::collections::BTreeMap;

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Args {
    /// Positional arguments, in order.
    pub positional: Vec<String>,
    /// `--key value` flags (`--key` with no value stores an empty
    /// string, usable as a boolean).
    pub flags: BTreeMap<String, String>,
}

impl Args {
    /// Parses an iterator of raw arguments (without the program name).
    pub fn parse(raw: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut args = Args::default();
        let mut iter = raw.into_iter().peekable();
        while let Some(a) = iter.next() {
            if let Some(key) = a.strip_prefix("--") {
                if key.is_empty() {
                    return Err("empty flag name".into());
                }
                // `--key=value` form.
                if let Some((k, v)) = key.split_once('=') {
                    args.flags.insert(k.to_string(), v.to_string());
                    continue;
                }
                // `--key value` form; a following token that starts with
                // `--` means this was a boolean flag.
                let value = match iter.peek() {
                    Some(next) if !next.starts_with("--") => iter.next().unwrap_or_default(),
                    _ => String::new(),
                };
                args.flags.insert(key.to_string(), value);
            } else {
                args.positional.push(a);
            }
        }
        Ok(args)
    }

    /// A string flag with a default.
    pub fn str_flag(&self, key: &str, default: &str) -> String {
        self.flags
            .get(key)
            .filter(|v| !v.is_empty())
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// A required string flag.
    pub fn require(&self, key: &str) -> Result<String, String> {
        self.flags
            .get(key)
            .filter(|v| !v.is_empty())
            .cloned()
            .ok_or_else(|| format!("missing required flag --{key}"))
    }

    /// A numeric flag with a default. A present-but-empty flag
    /// (`--threads` with no value) and any unparseable value are
    /// structured errors naming the flag — never a panic, never a silent
    /// fallback to the default.
    pub fn num_flag<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        let Some(v) = self.flags.get(key) else {
            return Ok(default);
        };
        if v.is_empty() {
            return Err(format!("--{key} requires a numeric value"));
        }
        v.parse()
            .map_err(|_| format!("--{key}: {}", describe_numeric_error(v)))
    }

    /// A duration flag in seconds: a finite number above zero, or at
    /// zero too when `zero_ok` (where zero switches the feature off).
    /// NaN, infinities and negatives are errors naming the flag, so a bad
    /// duration can never reach a loop bound or a timer.
    pub fn secs_flag(&self, key: &str, default: f64, zero_ok: bool) -> Result<f64, String> {
        let v = self.num_flag(key, default)?;
        let in_range = if zero_ok { v >= 0.0 } else { v > 0.0 };
        if v.is_finite() && in_range {
            Ok(v)
        } else {
            let bound = if zero_ok { ">= 0" } else { "> 0" };
            Err(format!(
                "--{key}: '{v}' is not a finite number of seconds {bound}"
            ))
        }
    }

    /// Whether a boolean flag is present.
    pub fn bool_flag(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }

    /// Fails on a flag outside `known` (space-separated names), naming
    /// it: a misspelled flag (`--checkpoint-evry`) must be an error, never
    /// silently ignored.
    pub fn reject_unknown_flags(&self, command: &str, known: &str) -> Result<(), String> {
        match self
            .flags
            .keys()
            .find(|k| !known.split_whitespace().any(|f| f == k.as_str()))
        {
            Some(k) => Err(format!("unknown flag --{k} for `tsm {command}`")),
            None => Ok(()),
        }
    }
}

/// Classifies why a numeric flag value failed to parse, without knowing
/// the target type: anything a float can't read is not a number at all;
/// otherwise the sign, a fractional part, or sheer magnitude is to blame.
fn describe_numeric_error(v: &str) -> String {
    if v.parse::<f64>().is_err() {
        format!("'{v}' is not a number")
    } else if v.trim_start().starts_with('-') {
        format!("'{v}' must not be negative")
    } else if v.contains(['.', 'e', 'E']) {
        format!("'{v}' is not an integer")
    } else {
        format!("'{v}' is out of range")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Args {
        Args::parse(s.iter().map(|x| x.to_string())).unwrap()
    }

    #[test]
    fn positional_and_flags() {
        let a = parse(&["cluster", "--store", "x.tsmdb", "--k", "4", "extra"]);
        assert_eq!(a.positional, vec!["cluster", "extra"]);
        assert_eq!(a.str_flag("store", ""), "x.tsmdb");
        assert_eq!(a.num_flag("k", 0usize).unwrap(), 4);
    }

    #[test]
    fn equals_form_and_booleans() {
        let a = parse(&["--seed=42", "--quick", "--out", "--verbose"]);
        assert_eq!(a.num_flag("seed", 0u64).unwrap(), 42);
        assert!(a.bool_flag("quick"));
        // `--out` swallowed no value because `--verbose` follows.
        assert!(a.bool_flag("out"));
        assert!(a.bool_flag("verbose"));
    }

    #[test]
    fn defaults_and_requirements() {
        let a = parse(&["--k", "3"]);
        assert_eq!(a.num_flag("missing", 7i32).unwrap(), 7);
        assert_eq!(a.str_flag("name", "anon"), "anon");
        assert!(a.require("store").is_err());
        assert_eq!(a.require("k").unwrap(), "3");
    }

    #[test]
    fn parse_errors() {
        assert!(Args::parse(["--".to_string()]).is_err());
        let a = parse(&["--k", "x"]);
        assert!(a.num_flag("k", 0usize).is_err());
    }

    #[test]
    fn secs_flag_accepts_finite_durations_only() {
        let a = parse(&["--dt", "0.25", "--idle", "0"]);
        assert_eq!(a.secs_flag("dt", 1.0, false).unwrap(), 0.25);
        assert_eq!(a.secs_flag("missing", 60.0, false).unwrap(), 60.0);
        assert_eq!(a.secs_flag("idle", 5.0, true).unwrap(), 0.0);
        let err = a.secs_flag("idle", 5.0, false).unwrap_err();
        assert!(err.contains("--idle: '0'") && err.contains("> 0"), "{err}");
        for bad in ["nan", "-1", "inf", "-inf"] {
            let a = parse(&["--dt", bad]);
            for zero_ok in [false, true] {
                let err = a.secs_flag("dt", 1.0, zero_ok).unwrap_err();
                assert!(err.contains("--dt") && err.contains("seconds"), "{err}");
            }
        }
        let err = parse(&["--dt", "soon"])
            .secs_flag("dt", 1.0, false)
            .unwrap_err();
        assert!(err.contains("'soon' is not a number"), "{err}");
    }

    #[test]
    fn num_flag_rejects_bad_values_with_structured_errors() {
        // Non-numeric: named flag, named value.
        let a = parse(&["--threads", "abc"]);
        let err = a.num_flag("threads", 1usize).unwrap_err();
        assert!(err.contains("--threads"), "{err}");
        assert!(err.contains("'abc' is not a number"), "{err}");

        // Negative into an unsigned target: blamed on the sign, not a
        // generic parse failure.
        let a = parse(&["--workers", "-1"]);
        let err = a.num_flag("workers", 1usize).unwrap_err();
        assert!(err.contains("--workers"), "{err}");
        assert!(err.contains("must not be negative"), "{err}");
        // ...but a signed target accepts it.
        assert_eq!(parse(&["--dt", "-1"]).num_flag("dt", 0i64).unwrap(), -1);

        // Fractional into an integer target.
        let a = parse(&["--sessions", "2.5"]);
        let err = a.num_flag("sessions", 1usize).unwrap_err();
        assert!(err.contains("--sessions"), "{err}");
        assert!(err.contains("is not an integer"), "{err}");

        // Overflow: a value no u32 can hold.
        let a = parse(&["--k", "99999999999999999999"]);
        let err = a.num_flag("k", 1u32).unwrap_err();
        assert!(err.contains("--k"), "{err}");
        assert!(err.contains("out of range"), "{err}");

        // Present but valueless: an error, never a silent default.
        let a = parse(&["--workers", "--quick"]);
        let err = a.num_flag("workers", 4usize).unwrap_err();
        assert!(err.contains("--workers requires a numeric value"), "{err}");
    }
}
