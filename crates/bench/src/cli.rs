//! Strict command-line parsing for the binaries: `all_tests`, `farm`,
//! `native_bench`, `racecheck_tool`, `repair_tool` and `analyze_tool`.
//!
//! A binary lists the flags it honours. Anything else on its command line
//! is a usage error: an unknown flag or stray word, a flag without its
//! value, a value flag given twice, or a value that does not parse. The
//! binary reports it on one stderr line and exits 2, before it builds any
//! input or writes any output. A silent fallback would run an experiment
//! other than the one asked for, and a per-cell worker that fell back would
//! measure a cell other than the one its parent sent.

use std::str::FromStr;

/// A command line split by the flags a binary honours.
#[derive(Debug, Default)]
pub struct Args {
    values: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Args {
    /// Splits `argv` (without the program name): each of `value_flags`
    /// takes the next token as its value, each of `switches` stands alone.
    ///
    /// # Errors
    ///
    /// The one-line message for the first argument it cannot honour.
    pub fn parse(argv: &[String], value_flags: &[&str], switches: &[&str]) -> Result<Args, String> {
        let mut args = Args::default();
        let mut tokens = argv.iter();
        while let Some(arg) = tokens.next() {
            if value_flags.contains(&arg.as_str()) {
                let value = tokens
                    .next()
                    .ok_or_else(|| format!("{arg} needs a value"))?;
                if args.value(arg).is_some() {
                    return Err(format!("{arg} is given twice"));
                }
                args.values.push((arg.clone(), value.clone()));
            } else if switches.contains(&arg.as_str()) {
                args.switches.push(arg.clone());
            } else {
                return Err(format!("unknown argument '{arg}'"));
            }
        }
        Ok(args)
    }

    /// The value given for `flag`, if any.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// The value given for `flag`, parsed as a `T`.
    ///
    /// # Errors
    ///
    /// A message naming the flag when its value does not parse.
    pub fn parsed<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("{flag} cannot take the value '{v}'"))
            })
            .transpose()
    }

    /// Whether the switch `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.switches.iter().any(|s| s == flag)
    }
}

/// Reports a usage error on one stderr line and exits 2.
pub fn usage_exit(bin: &str, message: &str) -> ! {
    eprintln!("{bin}: {message}");
    std::process::exit(2);
}
