//! Minimal, dependency-free `--flag value` argument parsing.

use std::collections::HashMap;

/// Parsed command line: positional arguments plus `--key value` flags.
#[derive(Debug, Default)]
pub struct Args {
    pub positional: Vec<String>,
    flags: HashMap<String, String>,
}

impl Args {
    /// Parses `argv` (after the subcommand). Every token starting with
    /// `--` consumes the following token as its value.
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut out = Args::default();
        let mut it = argv.iter();
        while let Some(tok) = it.next() {
            if let Some(key) = tok.strip_prefix("--") {
                let value = it
                    .next()
                    .ok_or_else(|| format!("flag --{key} expects a value"))?;
                if out.flags.insert(key.to_string(), value.clone()).is_some() {
                    return Err(format!("flag --{key} given twice"));
                }
            } else {
                out.positional.push(tok.clone());
            }
        }
        Ok(out)
    }

    /// A required flag.
    pub fn req(&self, key: &str) -> Result<&str, String> {
        self.flags
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required flag --{key}"))
    }

    /// An optional flag.
    pub fn opt(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// An optional flag parsed into `T`, with a default.
    pub fn opt_parse<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag --{key}: cannot parse '{v}'")),
        }
    }

    /// A required flag parsed into `T`.
    pub fn req_parse<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let v = self.req(key)?;
        v.parse()
            .map_err(|_| format!("flag --{key}: cannot parse '{v}'"))
    }

    /// Errors on unknown flags (call after reading all expected ones).
    pub fn ensure_known(&self, known: &[&str]) -> Result<(), String> {
        for key in self.flags.keys() {
            if !known.contains(&key.as_str()) {
                return Err(format!("unknown flag --{key}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| (*x).to_string()).collect()
    }

    #[test]
    fn parses_flags_and_positionals() {
        let a = Args::parse(&v(&["point", "--n", "8", "5"])).unwrap();
        assert_eq!(a.positional, vec!["point", "5"]);
        assert_eq!(a.req("n").unwrap(), "8");
        assert_eq!(a.opt("missing"), None);
        assert_eq!(a.opt_parse("n", 0usize).unwrap(), 8);
    }

    #[test]
    fn rejects_dangling_flag_and_duplicates() {
        assert!(Args::parse(&v(&["--n"])).is_err());
        assert!(Args::parse(&v(&["--n", "1", "--n", "2"])).is_err());
    }

    #[test]
    fn unknown_flags_detected() {
        let a = Args::parse(&v(&["--foo", "1"])).unwrap();
        assert!(a.ensure_known(&["bar"]).is_err());
        assert!(a.ensure_known(&["foo"]).is_ok());
    }
}
