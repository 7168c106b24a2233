//! The harness's environment knobs, parsed once at the edge.
//!
//! Every `RFP_*` variable the bins honour is read here and nowhere else:
//! [`RunEnv::from_process`] turns the process environment into a plain
//! value, and the bins hand its fields to the library, which never looks
//! at the environment itself. A set but malformed value is an
//! [`EnvError`] naming the variable, which each bin prints before exiting
//! 2 — `RFP_TRACE_LEN=120_000` must fail the pipeline at its first
//! command, not quietly run the default length.
//!
//! One table ([`KNOBS`]) drives both the parser and the env rows of
//! `experiments --help`, so the two cannot drift.
//!
//! The bins' shared argument helpers live here too: [`take_flag`],
//! [`take_count`] and [`take_bare`] pull flags out of `argv`, and [`die`] (with
//! [`read_or_die`] / [`write_or_die`]) is their one exit-2 path. The
//! rest of the library never calls them: it returns errors instead.

use std::path::PathBuf;
use std::str::FromStr;
use std::sync::Arc;

use crate::engine::{default_threads, SimMode, WarmMode};
use crate::store::ExpStore;

/// A path argument that must not be empty (`RFP_STORE`, `--report-out`,
/// ...). Surrounding whitespace is trimmed; an empty value is an error
/// rather than a silent "current directory".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NonEmptyPath(pub PathBuf);

impl FromStr for NonEmptyPath {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.is_empty() {
            return Err("expected a path, got an empty string".into());
        }
        Ok(NonEmptyPath(PathBuf::from(s)))
    }
}

/// A set but malformed knob value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvError {
    /// The variable (or argument) that held the value.
    pub var: &'static str,
    /// The value as given.
    pub value: String,
    /// Why it was refused.
    pub reason: String,
}

impl std::fmt::Display for EnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}={:?} is not a valid value: {}",
            self.var, self.value, self.reason
        )
    }
}

impl std::error::Error for EnvError {}

/// The parsed environment of one harness run. [`RunEnv::default`] is
/// what an empty environment parses to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunEnv {
    /// `RFP_TRACE_LEN`: measured uops per workload. `None` leaves each
    /// bin's own default.
    pub trace_len: Option<u64>,
    /// `RFP_THREADS`: work-stealing worker count.
    pub threads: usize,
    /// `RFP_WARM_MODE`: warm-state sharing across the grid.
    pub warm: WarmMode,
    /// `RFP_SIM_MODE`: simulation fidelity.
    pub sim: SimMode,
    /// `RFP_INSPECT_WINDOWS`: capture-window budget of `experiments
    /// inspect`.
    pub inspect_windows: usize,
    /// `RFP_STORE`: persistent experiment store root.
    pub store: Option<PathBuf>,
    /// `RFP_ENGINE_TRACE`: engine self-trace output path.
    pub engine_trace: Option<PathBuf>,
}

impl Default for RunEnv {
    fn default() -> Self {
        RunEnv {
            trace_len: None,
            threads: default_threads(),
            warm: WarmMode::default(),
            sim: SimMode::default(),
            inspect_windows: 4,
            store: None,
            engine_trace: None,
        }
    }
}

/// One environment knob: its variable, its `--help` description, and
/// how a (trimmed) value lands in a [`RunEnv`].
pub struct Knob {
    /// The environment variable.
    pub var: &'static str,
    /// One-line description for `experiments --help`.
    pub help: &'static str,
    set: fn(&mut RunEnv, &str) -> Result<(), String>,
}

/// Every knob, in `--help` order.
pub const KNOBS: [Knob; 7] = [
    Knob {
        var: "RFP_TRACE_LEN",
        help: "measured uops per workload (default 120000)",
        set: |env, v| at_least_one(v).map(|n| env.trace_len = Some(n)),
    },
    Knob {
        var: "RFP_THREADS",
        help: "default worker count",
        set: |env, v| at_least_one(v).map(|n| env.threads = n),
    },
    Knob {
        var: "RFP_WARM_MODE",
        help: "off | exact (default exact)",
        set: |env, v| v.parse().map(|m| env.warm = m),
    },
    Knob {
        var: "RFP_SIM_MODE",
        help: "full | sample (default full)",
        set: |env, v| v.parse().map(|m| env.sim = m),
    },
    Knob {
        var: "RFP_INSPECT_WINDOWS",
        help: "capture-window budget for inspect (default 4)",
        set: |env, v| at_least_one(v).map(|n| env.inspect_windows = n),
    },
    Knob {
        var: "RFP_STORE",
        help: "persistent experiment store directory (off when unset)",
        set: |env, v| v.parse().map(|NonEmptyPath(p)| env.store = Some(p)),
    },
    Knob {
        var: "RFP_ENGINE_TRACE",
        help: "engine self-trace output path (off when unset)",
        set: |env, v| v.parse().map(|NonEmptyPath(p)| env.engine_trace = Some(p)),
    },
];

/// Parses a count that must be at least 1 (lengths, threads, windows).
fn at_least_one<T>(v: &str) -> Result<T, String>
where
    T: FromStr + PartialEq + From<u8>,
    T::Err: std::fmt::Display,
{
    let n: T = v.parse().map_err(|e: T::Err| e.to_string())?;
    if n == T::from(0) {
        return Err("must be >= 1".into());
    }
    Ok(n)
}

impl RunEnv {
    /// Parses the knobs `get` returns (`None` = unset). Values are
    /// trimmed; the first malformed one is the error.
    ///
    /// # Errors
    ///
    /// An [`EnvError`] naming the first knob whose value does not parse.
    pub fn parse(get: impl Fn(&str) -> Option<String>) -> Result<RunEnv, EnvError> {
        let mut env = RunEnv::default();
        for knob in &KNOBS {
            if let Some(value) = get(knob.var) {
                (knob.set)(&mut env, value.trim()).map_err(|reason| EnvError {
                    var: knob.var,
                    value,
                    reason,
                })?;
            }
        }
        Ok(env)
    }

    /// [`RunEnv::parse`] over the process environment (a non-Unicode
    /// value counts as unset).
    ///
    /// # Errors
    ///
    /// As [`RunEnv::parse`].
    pub fn from_process() -> Result<RunEnv, EnvError> {
        Self::parse(|var| std::env::var(var).ok())
    }

    /// Opens (creating if needed) the `RFP_STORE` directory, if set.
    /// The bins call it right after parsing, so an unusable directory
    /// fails a pipeline's first command, not its last.
    ///
    /// # Errors
    ///
    /// A message naming `RFP_STORE` when its directory cannot be opened.
    pub fn open_store(&self) -> Result<Option<Arc<ExpStore>>, String> {
        self.store
            .as_deref()
            .map(|p| ExpStore::open_named(p, "RFP_STORE"))
            .transpose()
    }

    /// A trace length given as a command-line argument (`calibrate
    /// [len]`), under the same rule as `RFP_TRACE_LEN`.
    ///
    /// # Errors
    ///
    /// An [`EnvError`] for `len` when `raw` is not an integer >= 1.
    pub fn len_arg(raw: &str) -> Result<u64, EnvError> {
        at_least_one(raw.trim()).map_err(|reason| EnvError {
            var: "len",
            value: raw.to_string(),
            reason,
        })
    }
}

/// Prints `error: {msg}` and exits 2 — configuration and I/O problems
/// are usage errors in the bins, not bugs worth a backtrace.
pub fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Reads a file or exits 2 naming the path.
pub fn read_or_die(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| die(format!("read {path}: {e}")))
}

/// Writes a file or exits 2 naming the path.
pub fn write_or_die(path: &str, contents: &str) {
    std::fs::write(path, contents).unwrap_or_else(|e| die(format!("write {path}: {e}")));
}

/// Removes `--flag value` from `args`, returning the value. A trailing
/// `--flag` with no value [`die`]s.
pub fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        die(format!("{flag} needs a value"));
    }
    let v = args.remove(i + 1);
    args.remove(i);
    Some(v)
}

/// [`take_flag`] for a count (`--threads N`): a value that is not an
/// integer >= 1 [`die`]s naming the flag.
pub fn take_count(args: &mut Vec<String>, flag: &str) -> Option<usize> {
    let v = take_flag(args, flag)?;
    match v.parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => die(format!("{flag} needs a positive integer, got {v}")),
    }
}

/// Removes a bare `--flag` (no value) from `args`, returning whether it
/// was present.
pub fn take_bare(args: &mut Vec<String>, flag: &str) -> bool {
    let at = args.iter().position(|a| a == flag);
    at.map(|i| args.remove(i)).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn take_flag_removes_the_flag_and_its_value() {
        let mut args = argv(&["report", "--metrics", "m.json", "--x"]);
        assert_eq!(take_flag(&mut args, "--metrics").as_deref(), Some("m.json"));
        assert_eq!(args, argv(&["report", "--x"]));
        assert_eq!(take_flag(&mut args, "--metrics"), None);
        assert_eq!(take_flag(&mut args, "--absent"), None);
        assert_eq!(args, argv(&["report", "--x"]));
        let mut args = argv(&["--threads", "3", "all"]);
        assert_eq!(take_count(&mut args, "--threads"), Some(3));
        assert_eq!(args, argv(&["all"]));
    }

    #[test]
    fn take_bare_removes_only_the_flag() {
        let mut args = argv(&["store", "--no-store", "gc"]);
        assert!(take_bare(&mut args, "--no-store"));
        assert_eq!(args, argv(&["store", "gc"]));
        assert!(!take_bare(&mut args, "--no-store"));
        assert!(!take_bare(&mut args, "--absent"));
        assert_eq!(args, argv(&["store", "gc"]));
    }

    fn parse(vars: &[(&str, &str)]) -> Result<RunEnv, EnvError> {
        let map: HashMap<String, String> = vars
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        RunEnv::parse(|var| map.get(var).cloned())
    }

    #[test]
    fn unset_knobs_take_their_defaults() {
        assert_eq!(parse(&[]), Ok(RunEnv::default()));
        let env = RunEnv::default();
        assert_eq!(env.trace_len, None);
        assert_eq!(env.threads, default_threads());
        assert_eq!(env.warm, WarmMode::Exact);
        assert_eq!(env.sim, SimMode::Full);
        assert_eq!(env.inspect_windows, 4);
        assert_eq!((env.store, env.engine_trace), (None, None));
    }

    #[test]
    fn every_knob_parses_a_valid_value() {
        let d = RunEnv::default;
        let path = |p: &str| Some(PathBuf::from(p));
        let cases = [
            (
                "RFP_TRACE_LEN",
                " 2000 ",
                RunEnv {
                    trace_len: Some(2000),
                    ..d()
                },
            ),
            ("RFP_THREADS", "3", RunEnv { threads: 3, ..d() }),
            (
                "RFP_WARM_MODE",
                "off",
                RunEnv {
                    warm: WarmMode::Off,
                    ..d()
                },
            ),
            (
                "RFP_WARM_MODE",
                "exact",
                RunEnv {
                    warm: WarmMode::Exact,
                    ..d()
                },
            ),
            (
                "RFP_SIM_MODE",
                "sample",
                RunEnv {
                    sim: SimMode::Sample,
                    ..d()
                },
            ),
            (
                "RFP_SIM_MODE",
                "full",
                RunEnv {
                    sim: SimMode::Full,
                    ..d()
                },
            ),
            (
                "RFP_INSPECT_WINDOWS",
                "2",
                RunEnv {
                    inspect_windows: 2,
                    ..d()
                },
            ),
            (
                "RFP_STORE",
                " /tmp/s ",
                RunEnv {
                    store: path("/tmp/s"),
                    ..d()
                },
            ),
            (
                "RFP_ENGINE_TRACE",
                "t.json",
                RunEnv {
                    engine_trace: path("t.json"),
                    ..d()
                },
            ),
        ];
        for (var, value, want) in &cases {
            assert_eq!(parse(&[(var, value)]).as_ref(), Ok(want), "{var}={value:?}");
        }
        assert!(KNOBS.iter().all(|k| cases.iter().any(|c| c.0 == k.var)));
    }

    #[test]
    fn malformed_values_are_errors_naming_the_variable() {
        let cases = [
            ("RFP_TRACE_LEN", "120_000"),
            ("RFP_TRACE_LEN", "0"),
            ("RFP_TRACE_LEN", ""),
            ("RFP_THREADS", "many"),
            ("RFP_THREADS", "0"),
            ("RFP_WARM_MODE", "bogus"),
            ("RFP_WARM_MODE", "checkpoint"),
            ("RFP_SIM_MODE", "quick"),
            ("RFP_INSPECT_WINDOWS", "-1"),
            ("RFP_INSPECT_WINDOWS", "0"),
            ("RFP_STORE", ""),
            ("RFP_ENGINE_TRACE", ""),
        ];
        for (var, value) in cases {
            let err = parse(&[(var, value)]).expect_err(value);
            assert_eq!((err.var, err.value.as_str()), (var, value));
            assert!(err.to_string().starts_with(&format!("{var}=")), "{err}");
        }
        assert!(KNOBS.iter().all(|k| cases.iter().any(|c| c.0 == k.var)));
        let zero = parse(&[("RFP_THREADS", "0")]).unwrap_err();
        assert_eq!(zero.reason, "must be >= 1");
    }

    #[test]
    fn the_first_bad_knob_wins_over_good_ones() {
        let err = parse(&[
            ("RFP_THREADS", "2"),
            ("RFP_STORE", ""),
            ("RFP_SIM_MODE", "x"),
        ])
        .unwrap_err();
        assert_eq!(err.var, "RFP_SIM_MODE", "table order decides");
    }

    #[test]
    fn unopenable_store_directories_name_their_variable() {
        let file = std::env::temp_dir().join(format!("rfp-run-env-{}", std::process::id()));
        std::fs::write(&file, b"not a directory").expect("write");
        let env = RunEnv {
            store: Some(file.clone()),
            ..RunEnv::default()
        };
        let err = env.open_store().unwrap_err();
        assert!(err.starts_with("RFP_STORE="), "{err}");
        std::fs::remove_file(&file).expect("cleanup");
        let none = RunEnv::default().open_store().expect("nothing to open");
        assert!(none.is_none());
    }

    #[test]
    fn length_argument_follows_the_trace_len_rule() {
        assert_eq!(RunEnv::len_arg("2000"), Ok(2000));
        for bad in ["0", "1_000", "", "-5"] {
            let err = RunEnv::len_arg(bad).expect_err(bad);
            assert_eq!((err.var, err.value.as_str()), ("len", bad));
        }
        assert_eq!(RunEnv::len_arg("0").unwrap_err().reason, "must be >= 1");
    }

    #[test]
    fn help_rows_document_the_defaults() {
        let help = |var: &str| KNOBS.iter().find(|k| k.var == var).unwrap().help;
        assert!(help("RFP_TRACE_LEN").contains(&crate::DEFAULT_TRACE_LEN.to_string()));
        assert!(
            help("RFP_INSPECT_WINDOWS").contains(&RunEnv::default().inspect_windows.to_string())
        );
    }
}
