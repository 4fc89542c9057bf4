//! The one argument walker behind every `relief-bench` command and
//! `relief-cli`.
//!
//! A command iterates [`Args`] for its flags and pulls each flag's value
//! with a typed getter, so every command reports a missing value, a
//! malformed value, and an unknown flag with the same words:
//!
//! ```
//! use relief_bench::cli::{self, Args};
//!
//! let mut args = Args::new(["--rate", "50, 400", "--seed", "0xBEEF"].map(String::from));
//! let (mut rates, mut seed) = (Vec::<f64>::new(), 0);
//! while let Some(flag) = args.next() {
//!     match flag.as_str() {
//!         "--rate" => rates = args.list(&flag)?,
//!         "--seed" => seed = args.seed(&flag)?,
//!         other => return Err(cli::unknown(other)),
//!     }
//! }
//! assert_eq!((rates, seed), (vec![50.0, 400.0], 0xBEEF));
//! # Ok::<(), String>(())
//! ```

use crate::cache::CacheConfig;
use crate::campaign::ExecOptions;
use std::str::FromStr;

/// A command's arguments, yielded one flag at a time; the getters
/// consume the value that follows the flag.
#[derive(Debug)]
pub struct Args(std::vec::IntoIter<String>);

/// The error for a flag no command arm matched.
pub fn unknown(flag: &str) -> String {
    format!("unknown option '{flag}'")
}

impl Args {
    /// Wraps an argument list (without the program or command name).
    pub fn new(args: impl IntoIterator<Item = String>) -> Self {
        Args(args.into_iter().collect::<Vec<_>>().into_iter())
    }

    /// The value after `flag`, verbatim.
    ///
    /// # Errors
    ///
    /// `"<flag> needs a value"` when the arguments end.
    pub fn raw(&mut self, flag: &str) -> Result<String, String> {
        self.0.next().ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The value after `flag`, parsed.
    ///
    /// # Errors
    ///
    /// A missing value, or `"bad <flag> '<value>'"`.
    pub fn value<T: FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let v = self.raw(flag)?;
        v.parse().map_err(|_| format!("bad {flag} '{v}'"))
    }

    /// A seed after `flag`: decimal, or hex with a `0x`/`0X` prefix.
    ///
    /// # Errors
    ///
    /// A missing value, or `"bad <flag> '<value>'"`.
    pub fn seed(&mut self, flag: &str) -> Result<u64, String> {
        let v = self.raw(flag)?;
        match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => v.parse(),
        }
        .map_err(|_| format!("bad {flag} '{v}'"))
    }

    /// A comma-separated list after `flag`, each element trimmed.
    ///
    /// # Errors
    ///
    /// A missing value, or `"bad <flag> '<element>'"`.
    pub fn list<T: FromStr>(&mut self, flag: &str) -> Result<Vec<T>, String> {
        self.raw(flag)?
            .split(',')
            .map(|s| s.trim().parse().map_err(|_| format!("bad {flag} '{}'", s.trim())))
            .collect()
    }

    /// A microsecond count after `flag`, returned in picoseconds.
    ///
    /// # Errors
    ///
    /// As [`Args::value`], or `"<flag> <value> overflows ..."` when the
    /// picoseconds do not fit a `u64`.
    pub fn us_as_ps(&mut self, flag: &str) -> Result<u64, String> {
        let us: u64 = self.value(flag)?;
        let max = u64::MAX / 1_000_000;
        us.checked_mul(1_000_000)
            .ok_or_else(|| format!("{flag} {us} overflows the picosecond clock (max {max} us)"))
    }

    /// The worker count after `--jobs`.
    ///
    /// # Errors
    ///
    /// As [`Args::value`], or when the count is 0.
    pub fn jobs(&mut self) -> Result<usize, String> {
        match self.value("--jobs")? {
            0 => Err("--jobs must be at least 1".into()),
            n => Ok(n),
        }
    }

    /// Applies the campaign flags `--jobs N` and `--no-cache` to `opts`.
    ///
    /// # Errors
    ///
    /// A bad `--jobs` value, or [`unknown`] for any other flag.
    pub fn exec_flag(&mut self, flag: &str, opts: &mut ExecOptions) -> Result<(), String> {
        match flag {
            "--jobs" => opts.jobs = self.jobs()?,
            "--no-cache" => opts.cache = CacheConfig::disabled(),
            other => return Err(unknown(other)),
        }
        Ok(())
    }
}

impl Iterator for Args {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.0.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::default_jobs;

    fn args(v: &[&str]) -> Args {
        Args::new(v.iter().map(|s| s.to_string()))
    }

    /// The flag loop of `all_experiments`: `--jobs N` and `--no-cache`.
    fn exec_opts(v: &[&str]) -> Result<ExecOptions, String> {
        let mut opts = ExecOptions { cache: CacheConfig::standard(), ..Default::default() };
        let mut a = args(v);
        while let Some(flag) = a.next() {
            a.exec_flag(&flag, &mut opts)?;
        }
        Ok(opts)
    }

    #[test]
    fn getters_parse_and_name_the_flag() {
        let mut a = args(&["v", "7", "0X1f", "12", " 1, 2 ,3", "5"]);
        assert_eq!(a.raw("--x"), Ok("v".to_string()));
        assert_eq!(a.value::<u32>("--x"), Ok(7));
        assert_eq!(a.seed("--seed"), Ok(0x1f));
        assert_eq!(a.seed("--seed"), Ok(12));
        assert_eq!(a.list::<u8>("--l"), Ok(vec![1, 2, 3]));
        assert_eq!(a.us_as_ps("--us"), Ok(5_000_000));
        assert_eq!(a.raw("--x"), Err("--x needs a value".to_string()));
        assert_eq!(args(&["x"]).value::<u32>("--n"), Err("bad --n 'x'".to_string()));
        assert_eq!(args(&["0xZZ"]).seed("--s"), Err("bad --s '0xZZ'".to_string()));
        assert_eq!(args(&["1, x"]).list::<u8>("--l"), Err("bad --l 'x'".to_string()));
        assert_eq!(args(&["18446744073709"]).us_as_ps("--us"), Ok(18_446_744_073_709_000_000));
        assert_eq!(
            args(&["18446744073710"]).us_as_ps("--us"),
            Err("--us 18446744073710 overflows the picosecond clock (max 18446744073709 us)"
                .to_string())
        );
        assert_eq!(unknown("--frobnicate"), "unknown option '--frobnicate'");
    }

    #[test]
    fn jobs_accepts_and_rejects() {
        assert_eq!(args(&["3"]).jobs(), Ok(3));
        assert_eq!(exec_opts(&["--jobs", "3"]).map(|o| o.jobs), Ok(3));
        assert_eq!(exec_opts(&[]).map(|o| o.jobs), Ok(default_jobs()));
        for bad in [&["--jobs"][..], &["--jobs", "zero"], &["--jobs", "0"], &["--jobs", "many"]] {
            assert!(exec_opts(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn exec_flags_toggle_the_cache_and_reject_anything_else() {
        let opts = exec_opts(&["--no-cache", "--jobs", "3"]).unwrap();
        assert_eq!(opts.jobs, 3);
        assert!(!opts.cache.enabled, "--no-cache must disable the store");
        assert!(exec_opts(&[]).unwrap().cache.enabled, "the persistent cache defaults on");
        for (argv, name) in [
            (&["--no-cahce"][..], "'--no-cahce'"),
            (&["--job", "3"], "'--job'"),
            (&["--seed", "3"], "'--seed'"),
            (&["--jobs", "2", "--frobnicate"], "'--frobnicate'"),
            (&["extra"], "'extra'"),
        ] {
            let err = exec_opts(argv).unwrap_err();
            assert!(err.contains(name), "{argv:?}: {err}");
        }
    }

    #[test]
    fn trace_out_stem_is_taken_verbatim() {
        let (mut stem, mut rest) = (None, Vec::new());
        let mut a = args(&["--mix", "CGL", "--trace-out", "/tmp/t.v2", "--help"]);
        while let Some(flag) = a.next() {
            match flag.as_str() {
                "--trace-out" => stem = Some(std::path::PathBuf::from(a.raw(&flag).unwrap())),
                _ => rest.push(flag),
            }
        }
        assert_eq!(stem, Some("/tmp/t.v2".into()));
        assert_eq!(rest, ["--mix", "CGL", "--help"]);
        let mut a = args(&["--trace-out"]);
        let flag = a.next().unwrap();
        assert_eq!(a.raw(&flag), Err("--trace-out needs a value".to_string()));
    }
}
