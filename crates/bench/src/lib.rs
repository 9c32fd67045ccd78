//! Shared support code for the experiment harness binaries: a tiny
//! argument parser and experiment-scale presets, so every table/figure
//! binary offers the same `--scale`, `--seed`, `--epochs` interface.

pub mod timing;

use std::collections::HashMap;
use std::str::FromStr;

/// Experiment scale preset.
///
/// `Paper` matches the paper's network and dataset dimensions (slow on a
/// laptop; hours); `Medium` preserves every structural property at ~1/10
/// size (minutes, the default); `Small` is for smoke tests (seconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-scale smoke test.
    Small,
    /// Default: minutes-scale run preserving the paper's structure.
    Medium,
    /// Full paper dimensions.
    Paper,
}

impl Scale {
    /// Parses `small` / `medium` / `paper`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "small" => Some(Self::Small),
            "medium" => Some(Self::Medium),
            "paper" => Some(Self::Paper),
            _ => None,
        }
    }
}

/// Minimal `--key value` / `--flag` argument parser for the harness
/// binaries (keeps the workspace free of CLI dependencies).
///
/// # Examples
///
/// ```
/// use bench::Args;
///
/// let args = Args::parse_from(["--seed", "7", "--hard-reset"].iter().map(|s| s.to_string()));
/// assert_eq!(args.get_u64("seed", 0), 7);
/// assert!(args.flag("hard-reset"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses the process arguments (skipping the binary name).
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses from an explicit iterator (for tests).
    pub fn parse_from(args: impl Iterator<Item = String>) -> Self {
        let mut out = Self::default();
        let mut iter = args.peekable();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                let is_value = iter
                    .peek()
                    .map(|next| !next.starts_with("--"))
                    .unwrap_or(false);
                if is_value {
                    out.values
                        .insert(name.to_string(), iter.next().unwrap_or_default());
                } else {
                    out.flags.push(name.to_string());
                }
            }
        }
        out
    }

    /// String option with default.
    pub fn get<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.values.get(key).map(String::as_str).unwrap_or(default)
    }

    /// `u64` option with default; exits the process with status 2,
    /// naming the flag and the value, if the value does not parse.
    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        or_exit(self.parsed(key, default))
    }

    /// `usize` option with default; exits like [`Args::get_u64`] on a
    /// bad value.
    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        or_exit(self.parsed(key, default))
    }

    /// `f32` option with default; exits like [`Args::get_u64`] on a bad
    /// value.
    pub fn get_f32(&self, key: &str, default: f32) -> f32 {
        or_exit(self.parsed(key, default))
    }

    fn parsed<T: FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.values.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value {v:?} for --{key}")),
        }
    }

    /// Whether a boolean flag is present.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// The scale preset (default [`Scale::Medium`]); exits like
    /// [`Args::get_u64`] on an unknown preset.
    pub fn scale(&self) -> Scale {
        or_exit(self.parsed_scale())
    }

    fn parsed_scale(&self) -> Result<Scale, String> {
        let v = self.get("scale", "medium");
        Scale::parse(v).ok_or_else(|| {
            format!("invalid value {v:?} for --scale (expected small, medium or paper)")
        })
    }
}

/// Unwraps a parsed command-line value, or reports the error and exits
/// with status 2.
fn or_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// Prints a horizontal rule and a centred header, for harness output.
pub fn banner(title: &str) {
    let line = "=".repeat(66);
    println!("{line}");
    println!("{title:^66}");
    println!("{line}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Args {
        Args::parse_from(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn values_and_flags() {
        let a = parse(&["--seed", "9", "--hard-reset", "--scale", "paper"]);
        assert_eq!(a.get_u64("seed", 0), 9);
        assert!(a.flag("hard-reset"));
        assert_eq!(a.scale(), Scale::Paper);
        assert!(!a.flag("missing"));
        assert_eq!(a.get("absent", "dflt"), "dflt");
    }

    #[test]
    fn trailing_flag() {
        let a = parse(&["--epochs", "3", "--verbose"]);
        assert_eq!(a.get_usize("epochs", 0), 3);
        assert!(a.flag("verbose"));
    }

    #[test]
    fn invalid_number_is_rejected() {
        let a = parse(&["--seed", "notanumber", "--min-backward-speedup", "1.o"]);
        assert_eq!(
            a.parsed::<u64>("seed", 5),
            Err("invalid value \"notanumber\" for --seed".into())
        );
        assert_eq!(
            a.parsed::<f32>("min-backward-speedup", 2.0),
            Err("invalid value \"1.o\" for --min-backward-speedup".into())
        );
        assert!(a.parsed::<usize>("seed", 5).is_err());
        assert_eq!(a.parsed::<u64>("absent", 5), Ok(5));
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert_eq!(Scale::parse("bogus"), None);
        assert_eq!(parse(&[]).scale(), Scale::Medium);
        assert_eq!(
            parse(&["--scale", "meduim"]).parsed_scale(),
            Err("invalid value \"meduim\" for --scale (expected small, medium or paper)".into())
        );
    }

    #[test]
    fn f32_option() {
        let a = parse(&["--deviation", "0.25"]);
        assert!((a.get_f32("deviation", 0.0) - 0.25).abs() < 1e-6);
    }
}
