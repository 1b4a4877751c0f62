//! Command-line plumbing shared by the campaign binaries: one flag reader
//! that owns the usage-error wording, and the two ways a binary ends
//! early ([`fail!`](crate::fail) and [`usage_error`]).

use std::fmt::Display;
use std::str::FromStr;

/// A command line read one argument at a time: a binary matches each
/// argument [`Flags::next_arg`] returns and takes a flag's value with
/// [`Flags::value`], [`Flags::parse`] or [`Flags::count`]. Repeated flags
/// and positionals are the caller's to collect; every error message is
/// this type's.
pub struct Flags {
    args: std::vec::IntoIter<String>,
    /// The argument `next_arg` returned last: the flag a value belongs to.
    current: String,
}

impl Flags {
    /// Reads `args` (without the program name).
    pub fn new(args: impl IntoIterator<Item = String>) -> Self {
        Self {
            args: args.into_iter().collect::<Vec<_>>().into_iter(),
            current: String::new(),
        }
    }

    /// Reads this process's arguments.
    pub fn from_env() -> Self {
        Self::new(std::env::args().skip(1))
    }

    /// The next argument, flag or positional; `None` at the end.
    pub fn next_arg(&mut self) -> Option<String> {
        let arg = self.args.next()?;
        self.current.clone_from(&arg);
        Some(arg)
    }

    /// The value of the flag [`Self::next_arg`] just returned.
    ///
    /// # Errors
    ///
    /// `<flag> expects a value` when the line ends first.
    pub fn value(&mut self) -> Result<String, String> {
        self.args
            .next()
            .ok_or_else(|| format!("{} expects a value", self.current))
    }

    /// The flag's value parsed as a `T`.
    ///
    /// # Errors
    ///
    /// As [`Self::value`]; `<flag> expects <what>` when it does not parse.
    pub fn parse<T: FromStr>(&mut self, what: &str) -> Result<T, String> {
        let value = self.value()?;
        value
            .parse()
            .map_err(|_| format!("{} expects {what}", self.current))
    }

    /// The flag's value as a count of at least 1.
    ///
    /// # Errors
    ///
    /// As [`Self::value`]; `<flag> expects an integer >= 1` when it does
    /// not parse or is 0.
    pub fn count<T: FromStr + PartialOrd + From<u8>>(&mut self) -> Result<T, String> {
        const WHAT: &str = "an integer >= 1";
        match self.parse::<T>(WHAT)? {
            n if n >= T::from(1) => Ok(n),
            _ => Err(format!("{} expects {WHAT}", self.current)),
        }
    }

    /// The flag's value as an `A:B` pair of the given `shape` (say
    /// `WORKER:FRAMES`).
    ///
    /// # Errors
    ///
    /// As [`Self::value`]; ``<flag> `<value>` is not <shape>`` when it
    /// has no `:` or either side does not parse.
    pub fn pair<A: FromStr, B: FromStr>(&mut self, shape: &str) -> Result<(A, B), String> {
        let value = self.value()?;
        value
            .split_once(':')
            .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)))
            .ok_or_else(|| format!("{} `{value}` is not {shape}", self.current))
    }

    /// The error for the argument [`Self::next_arg`] just returned when
    /// the binary takes no such argument: ``unknown flag `--x` `` for a
    /// flag, ``unexpected argument `x` `` for a positional.
    pub fn unexpected(&self) -> String {
        if self.current.starts_with("--") {
            format!("unknown flag `{}`", self.current)
        } else {
            format!("unexpected argument `{}`", self.current)
        }
    }
}

/// Ends the process with exit code `code` after printing a
/// `format!`-style message on stderr:
/// ``fail!(1, "cannot read `{path}`: {e}")``.
#[macro_export]
macro_rules! fail {
    ($code:expr, $($message:tt)+) => {{
        eprintln!($($message)+);
        std::process::exit($code)
    }};
}

/// Ends the process with exit code 2 after printing `error` and the
/// binary's `usage` on stderr.
pub fn usage_error(error: impl Display, usage: &str) -> ! {
    crate::fail!(2, "{error}\n{usage}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        Flags::new(args.iter().map(|&s| s.to_owned()))
    }

    #[test]
    fn a_flag_at_the_end_of_the_line_expects_a_value() {
        let mut flags = flags(&["--store"]);
        assert_eq!(flags.next_arg().as_deref(), Some("--store"));
        assert_eq!(flags.value().unwrap_err(), "--store expects a value");
        let mut flags = self::flags(&["--threads"]);
        flags.next_arg();
        assert_eq!(
            flags.parse::<usize>("an unsigned integer").unwrap_err(),
            "--threads expects a value"
        );
    }

    #[test]
    fn a_malformed_number_names_the_flag_and_what_it_expects() {
        let mut flags = flags(&["--throttle", "5ms", "--threads", "-1", "--threads", "3"]);
        flags.next_arg();
        assert_eq!(
            flags.parse::<u64>("milliseconds").unwrap_err(),
            "--throttle expects milliseconds"
        );
        flags.next_arg();
        assert_eq!(
            flags.parse::<usize>("an unsigned integer").unwrap_err(),
            "--threads expects an unsigned integer"
        );
        flags.next_arg();
        assert_eq!(flags.parse::<usize>("an unsigned integer"), Ok(3));
        assert_eq!(flags.next_arg(), None);
    }

    #[test]
    fn a_count_is_an_integer_of_at_least_one() {
        let mut flags = flags(&["--workers", "0", "--lanes", "x", "--capacity", "1"]);
        flags.next_arg();
        assert_eq!(
            flags.count::<u64>().unwrap_err(),
            "--workers expects an integer >= 1"
        );
        flags.next_arg();
        assert_eq!(
            flags.count::<usize>().unwrap_err(),
            "--lanes expects an integer >= 1"
        );
        flags.next_arg();
        assert_eq!(flags.count::<usize>(), Ok(1));
    }

    #[test]
    fn a_pair_parses_both_sides_or_names_its_shape() {
        let mut flags = flags(&[
            "--inject-die",
            "1:4",
            "--inject-die",
            "1",
            "--inject-die",
            "x:4",
        ]);
        flags.next_arg();
        assert_eq!(flags.pair::<u64, u64>("WORKER:FRAMES"), Ok((1, 4)));
        for spec in ["1", "x:4"] {
            flags.next_arg();
            assert_eq!(
                flags.pair::<u64, u64>("WORKER:FRAMES").unwrap_err(),
                format!("--inject-die `{spec}` is not WORKER:FRAMES")
            );
        }
    }

    #[test]
    fn an_unknown_flag_and_a_stray_positional_are_told_apart() {
        let mut flags = flags(&["--shard", "0/2"]);
        flags.next_arg();
        assert_eq!(flags.unexpected(), "unknown flag `--shard`");
        flags.next_arg();
        assert_eq!(flags.unexpected(), "unexpected argument `0/2`");
    }

    #[test]
    fn a_repeated_flag_yields_each_value_in_order() {
        let mut flags = flags(&["--config", "a.json", "--config", "b.json", "--config"]);
        let mut configs = Vec::new();
        let mut error = None;
        while let Some(flag) = flags.next_arg() {
            assert_eq!(flag, "--config");
            match flags.value() {
                Ok(path) => configs.push(path),
                Err(e) => error = Some(e),
            }
        }
        assert_eq!(configs, ["a.json", "b.json"]);
        assert_eq!(error.as_deref(), Some("--config expects a value"));
    }
}
