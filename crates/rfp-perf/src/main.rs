//! `rfp-perf`: one benchmark for sweep speed and paper fidelity.
//!
//! ```text
//! cargo run --release -p rfp-perf -- --workload core --seed 0 --seconds 20 --trace 0
//! ```
//!
//! Each invocation runs one workload in one process on at most
//! `min(nproc, 2)` worker threads. With `--trace 0` it sets up several
//! times, repeats the workload's measured unit for `--seconds` and prints
//! the end-to-end metrics; with `--trace 1` it runs the unit untraced and
//! traced, checks the two outputs are identical, and prints the per-layer
//! metrics. The first stdout line is a host fingerprint, the last one JSON
//! object. Any failed output check makes the exit code 1. Every time is
//! reported in nominal seconds: host seconds over how much slower than
//! nominal the host ran meanwhile (see `speed`). See `README.md`.

mod heap;
mod layers;
mod speed;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use rfp_bench::{flatten, parse_json, Json};
use rfp_obs::EngineTracer;

use crate::speed::Clock;
use crate::stats::median;
use crate::workloads::Unit;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// Metric name to value.
pub type Metrics = BTreeMap<&'static str, f64>;

/// `BENCHMARK.json`: the workloads and the metrics, each with its unit,
/// direction and (end-to-end only) bound. The binary emits exactly the
/// metrics it declares.
const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

/// A metric `BENCHMARK.json` declares.
#[derive(Debug)]
struct Declared {
    name: String,
    unit: String,
}

/// The metrics of `section` (`end_to_end` or `per_layer`) of
/// `BENCHMARK.json`, in document order.
fn declared(section: &str) -> Vec<Declared> {
    let flat = flatten(&parse_json(BENCHMARK_JSON).expect("BENCHMARK.json parses"));
    let text = |i: usize, key: &str| match flat.get(&format!("{section}[{i}].{key}")) {
        Some(Json::Str(s)) => Some(s.clone()),
        _ => None,
    };
    (0..)
        .map_while(|i| {
            Some(Declared {
                name: text(i, "name")?,
                unit: text(i, "unit").expect("every declared metric has a unit"),
            })
        })
        .collect()
}

/// Per-layer metrics of layers only some workloads exercise; a workload
/// that bypasses the layer reports 0.
const ZERO_WHEN_BYPASSED: [&str; 13] = [
    "store.written_mb",
    "store.read_mb",
    "store.hit_frac.result",
    "store.hit_frac.warm",
    "store.corrupt",
    "store.disk_mb",
    "store.phase_frac.cold",
    "store.phase_frac.warm",
    "store.phase_frac.invalidated",
    "fidelity.sample_ipc_err_max",
    "fidelity.sample_speedup_err_pp",
    "fidelity.paper_speedup_err_pp",
    "fidelity.paper_coverage_err_pp",
];

/// Least set-ups per `--trace 0` run; `setup_s` is the median of all.
const SETUP_REPS: usize = 15;

/// Least seconds a `--trace 0` run spends setting up. On a 2-core VM
/// host a process's first 10 to 20 ms can run up to 1.8 times slower; a
/// millisecond set-up repeated for half a second keeps those repetitions
/// out of the median.
const SETUP_MIN_S: f64 = 0.5;

/// The slowdowns `clock` sampled, summarised for the log.
fn slowdown_summary(clock: &Clock) -> String {
    let s = &clock.slowdowns;
    let lo = s.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = s.iter().copied().fold(0.0, f64::max);
    format!(
        "host slowdown median {:.3} (min {lo:.3}, max {hi:.3}, {} samples)",
        median(s),
        s.len()
    )
}

const USAGE: &str = "usage: rfp-perf --workload <core|paper-full|paper-sample|store> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Output checks: how many ran and how many failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Counts one check; a failure is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// The benchmark's scratch directory, next to its own executable (inside
/// the build directory, so inside the checkout). Created empty and
/// removed on drop, including when a check fails or a panic unwinds.
pub struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        let exe = std::env::current_exe().expect("own executable path");
        let dir = exe.parent().expect("executable has a directory");
        Scratch::fresh_in(dir, &format!("rfp-perf-scratch-{}", std::process::id()))
    }

    /// A fresh, empty directory `name` under `root`, removed on drop.
    pub fn fresh_in(root: &Path, name: &str) -> Scratch {
        let dir = root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory is creatable");
        Scratch(dir)
    }

    /// A fresh directory `name` inside this one, removed on drop.
    pub fn fresh(&self, name: &str) -> Scratch {
        Scratch::fresh_in(&self.0, name)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[derive(Debug)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 25, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    *workloads::NAMES
                        .iter()
                        .find(|n| **n == v)
                        .ok_or(format!("unknown workload {v:?}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=3600).contains(&seconds) {
                    return Err("--seconds must be 1..=3600".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Standard output of `cmd args`, trimmed, or `unknown`.
fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn fingerprint(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    // Only a checkout with its own `.git`: never a repository above it.
    let git = if Path::new(".git").exists() {
        command_line("git", &["rev-parse", "--short=12", "HEAD"])
    } else {
        "none".into()
    };
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "# rfp-perf nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\" git={git} profile={profile} \
         workload={} seed={} seconds={} trace={}",
        command_line("rustc", &["-V"]),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    )
}

/// `--trace 0`: set up at least [`SETUP_REPS`] times and for at least
/// [`SETUP_MIN_S`], each set-up a lap of its own, then repeat the measured
/// unit while the next one is expected to end within `seconds`.
fn end_to_end(args: &Args, threads: usize, scratch: &Scratch, checks: &mut Checks) -> Metrics {
    let mut setups = Vec::new();
    let mut bench = None;
    let mut setup_clock = Clock::new();
    let first = Instant::now();
    while setups.len() < SETUP_REPS || first.elapsed().as_secs_f64() < SETUP_MIN_S {
        // Each set-up starts from the same state, the previous one gone,
        // so each pays for its memory as the first one does.
        drop(bench.take());
        setup_clock.start();
        bench = Some(workloads::setup(args.workload, args.seed, threads, scratch));
        setups.push(setup_clock.lap().nominal_s);
    }
    let bench = bench.expect("at least one set-up");
    println!("# set-up: {}", slowdown_summary(&setup_clock));

    let start = Instant::now();
    let mut clock = Clock::new();
    let mut units: Vec<Unit> = Vec::new();
    let mut heap_peaks = Vec::new();
    loop {
        heap::reset_peak();
        let u = bench.unit(units.len() as u64, None, &mut clock, checks);
        heap_peaks.push(heap::peak_mb());
        println!(
            "# unit {}: {:.3} s nominal, {:.3} s on the host, heap peak {:.1} MiB",
            units.len(),
            u.wall_s,
            u.host_s,
            heap_peaks[heap_peaks.len() - 1]
        );
        units.push(u);
        let host: Vec<f64> = units.iter().map(|u| u.host_s).collect();
        if start.elapsed().as_secs_f64() + median(&host) > args.seconds as f64 {
            break;
        }
    }
    println!("# units: {}", slowdown_summary(&clock));
    for (i, u) in units.iter().enumerate().skip(1) {
        checks.check(u.output == units[0].output, || {
            format!("unit {i} output differs from unit 0")
        });
    }
    bench.finish(&mut Metrics::new(), checks);

    let walls: Vec<f64> = units.iter().map(|u| u.wall_s).collect();
    let rates: Vec<f64> = units
        .iter()
        .map(|u| u.result_uops as f64 / u.wall_s)
        .collect();
    let jobs: Vec<f64> = units.iter().flat_map(|u| u.job_ms.clone()).collect();
    // The tail rule per unit, then the median over units, as for
    // `wall_s`: a slow spell of the host that hits one unit moves neither.
    // Every unit has the same job count, at least 100, so the percentile
    // is the same in every run.
    let tails: Vec<(f64, f64)> = units.iter().map(|u| stats::tail(&u.job_ms)).collect();
    println!(
        "# {} units, {} jobs, job tail at p{} of each unit's {}; set-up median of {}; \
         output digest {:016x}",
        units.len(),
        jobs.len(),
        tails[0].0,
        units[0].job_ms.len(),
        setups.len(),
        rfp_types::fnv1a_64(units[0].output.as_bytes())
    );
    let tails: Vec<f64> = tails.iter().map(|t| t.1).collect();
    Metrics::from([
        ("wall_s", median(&walls)),
        ("sim_uops_per_s", median(&rates)),
        ("job_ms_p50", median(&jobs)),
        ("job_ms_tail", median(&tails)),
        ("setup_s", median(&setups)),
        ("peak_heap_mb", median(&heap_peaks)),
    ])
}

/// `--trace 1`: the unit untraced, then traced, then the layer probes.
/// The traced unit is unit 1, so the sweeps also visit their ids in the
/// next seed's order: one comparison covers tracing and ordering.
fn per_layer(args: &Args, threads: usize, scratch: &Scratch, checks: &mut Checks) -> Metrics {
    let bench = workloads::setup(args.workload, args.seed, threads, scratch);
    let mut clock = Clock::new();
    let plain = bench.unit(0, None, &mut clock, checks);
    let tracer = Arc::new(EngineTracer::new());
    let traced = bench.unit(1, Some(&tracer), &mut clock, checks);
    checks.check(traced.output == plain.output, || {
        "traced output differs from untraced".into()
    });
    let spans = tracer.spans();
    checks.check(tracer.dropped() == 0, || {
        format!("{} spans dropped past the tracer cap", tracer.dropped())
    });

    let mut m = traced.layer;
    m.insert(
        "bench.trace_overhead_frac",
        traced.wall_s / plain.wall_s - 1.0,
    );
    attribute(&spans, traced.host_s, bench.threads(), &mut m);
    layers::probe(&workloads::core_workloads(), scratch, &mut m, checks);
    bench.finish(&mut m, checks);
    for name in ZERO_WHEN_BYPASSED {
        m.entry(name).or_insert(0.0);
    }
    m
}

/// Shares of the unit's thread capacity (`threads x wall`) by layer,
/// from span self times; the shares and `unattributed` sum to 1.
fn attribute(spans: &[rfp_obs::EngineSpan], wall_s: f64, threads: usize, m: &mut Metrics) {
    let capacity = wall_s * 1e9 * threads as f64;
    let own = stats::self_nanos(spans);
    let share = |kind| own.get(kind).copied().unwrap_or(0) as f64 / capacity;
    let layers = [
        ("engine.simulate_self_frac", share("simulate")),
        ("engine.trace_compile_frac", share("trace-compile")),
        ("engine.warm_capture_frac", share("warm-capture")),
        ("engine.reduce_frac", share("reduce")),
        ("engine.render_frac", share("render")),
    ];
    let attributed: f64 = layers.iter().map(|(_, v)| v).sum();
    m.extend(layers);
    m.insert(
        "engine.busy_frac",
        own.values().sum::<u64>() as f64 / capacity,
    );
    m.insert("engine.unattributed_frac", 1.0 - attributed);
    m.insert(
        "engine.tail_frac",
        stats::tail_nanos(spans) as f64 / (wall_s * 1e9),
    );
}

/// The result line: every metric of `declared`, each measured.
fn result_json(m: &BTreeMap<&str, f64>, declared: &[Declared], checks: &Checks) -> String {
    for name in m.keys() {
        assert!(
            declared.iter().any(|d| d.name == *name),
            "metric {name} is not declared"
        );
    }
    let fields: Vec<String> = declared
        .iter()
        .map(|Declared { name, unit }| {
            let v = *m
                .get(name.as_str())
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            assert!(v.is_finite(), "metric {name} is {v}");
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed,
        fields.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{}", fingerprint(&args));
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let scratch = Scratch::new();
    let mut checks = Checks::default();
    let (m, declared) = if args.trace {
        (
            per_layer(&args, threads, &scratch, &mut checks),
            declared("per_layer"),
        )
    } else {
        (
            end_to_end(&args, threads, &scratch, &mut checks),
            declared("end_to_end"),
        )
    };
    let line = result_json(&m, &declared, &checks);
    drop(scratch);
    for d in &declared {
        println!("{} = {} {}", d.name, m[d.name.as_str()], d.unit);
    }
    println!("{line}");
    if checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_every_workload_and_metric_with_its_bound() {
        let flat = flatten(&parse_json(BENCHMARK_JSON).expect("BENCHMARK.json parses"));
        let names: Vec<&str> = (0..)
            .map_while(|i| match flat.get(&format!("workloads[{i}].name")) {
                Some(Json::Str(s)) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(names, workloads::NAMES.to_vec());
        for section in ["end_to_end", "per_layer"] {
            let metrics = declared(section);
            assert!(!metrics.is_empty(), "{section} declares metrics");
            for (i, d) in metrics.iter().enumerate() {
                let better = flat.get(&format!("{section}[{i}].better"));
                assert!(
                    matches!(better, Some(Json::Str(b)) if b == "lower" || b == "higher"),
                    "{}: direction {better:?}",
                    d.name
                );
                let bound = flat.get(&format!("{section}[{i}].bound"));
                if section == "end_to_end" {
                    assert!(
                        matches!(bound, Some(Json::Num(b)) if *b > 0.0 && *b <= 0.25),
                        "{}: bound {bound:?}",
                        d.name
                    );
                } else {
                    assert!(
                        bound.is_none(),
                        "{}: per-layer metrics have no bound",
                        d.name
                    );
                }
            }
        }
        let per_layer = declared("per_layer");
        for name in ZERO_WHEN_BYPASSED {
            assert!(per_layer.iter().any(|d| d.name == name), "{name}");
        }
    }

    #[test]
    fn result_line_carries_every_declared_metric() {
        let declared = declared("end_to_end");
        let m: BTreeMap<&str, f64> = declared.iter().map(|d| (d.name.as_str(), 1.5)).collect();
        let line = result_json(&m, &declared, &Checks::default());
        let flat = flatten(&parse_json(&line).expect("result line is JSON"));
        assert_eq!(flat["correct"], Json::Bool(true));
        assert_eq!(flat["attempted"], Json::Num(1.0));
        for d in &declared {
            assert_eq!(flat[&format!("metrics.{}.value", d.name)], Json::Num(1.5));
            assert_eq!(
                flat[&format!("metrics.{}.unit", d.name)],
                Json::Str(d.unit.clone())
            );
        }
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metrics_are_refused() {
        let declared = declared("end_to_end");
        let mut m: BTreeMap<&str, f64> = declared.iter().map(|d| (d.name.as_str(), 1.0)).collect();
        m.insert("made_up", 1.0);
        result_json(&m, &declared, &Checks::default());
    }

    #[test]
    #[should_panic(expected = "not measured")]
    fn unmeasured_metrics_are_refused() {
        let declared = declared("end_to_end");
        result_json(&BTreeMap::new(), &declared, &Checks::default());
    }

    #[test]
    fn args_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload store --seed 3 --seconds 5 --trace 1").expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            ("store", 3, 5, true)
        );
        assert!(parse("--seed 3").is_err(), "workload is required");
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload core --trace 2").is_err());
        assert!(parse("--workload core --seconds 0").is_err());
        assert!(parse("--workload core --seed").is_err());
        assert!(parse("--workload core --bogus 1").is_err());
    }
}
