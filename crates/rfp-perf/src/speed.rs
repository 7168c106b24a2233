//! Host speed, and a clock that reads in seconds at a fixed speed.
//!
//! The benchmark runs on shared VM hosts where the same instructions run
//! at times 10 to 70% slower, with CPU time equal to wall time. The speed
//! changes from one second to the next and from one vCPU to the other,
//! and a slow spell can cover a whole run, so no statistic taken within
//! the run removes it. So the benchmark times a fixed reference kernel
//! while it measures, and reports each stretch of measured work as its
//! host time divided by how much slower than nominal the kernel ran
//! meanwhile. The kernel is the benchmark's own code and calls nothing of
//! the simulator, so a change to the simulator moves the measured stretch
//! and never the reference.
//!
//! Two ways of sampling, because the speed differs between vCPUs:
//! single-threaded work is paused for one kernel run between every two
//! of its steps ([`Clock::start`], [`Clock::lap`]), on its own vCPU; work
//! on worker threads that cannot be paused runs beside a sampler thread
//! that runs the kernel every [`PERIOD`] on whichever vCPU it gets
//! ([`Clock::sampled`]). Measured on a 2-vCPU host, ten-second stretches
//! of simulation spread (IQR over median) 0.10 to 0.23 in host time; the
//! first way brought that to 0.03, the second, on two worker threads, to
//! 0.05 to 0.08. Samples taken at the start and end of a stretch alone
//! made it no steadier.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Sets and ways of the kernel's tag array: 256 KiB, about the size of
/// the simulator's hot state.
const SETS: usize = 4096;
const WAYS: usize = 8;

/// Kernel iterations per sample: about 3 ms.
const SAMPLE_ITERS: u64 = 150_000;

/// Nanoseconds per kernel iteration at nominal speed: the median on a
/// 2-vCPU Intel Xeon VM host (rustc 1.95, release profile). Only the
/// scale of the reported times depends on it.
const NOMINAL_NS_PER_ITER: f64 = 20.0;

/// Pause of the sampler thread between two kernel runs: it takes about
/// 3% of one vCPU from the measured work.
pub const PERIOD: Duration = Duration::from_millis(50);

/// The reference kernel: `iters` lookups of an xorshift address stream
/// (five in eight within 1 MiB, the rest within 256 MiB) in a
/// set-associative LRU cache of tags, from empty; branchy, L2-resident
/// work like the simulator's own. Of the kernels tried (this one, an
/// arithmetic chain, pointer chases over 4 and 64 MiB, unpredictable
/// branches), this one tracked the simulator's speed best. Returns the
/// hits.
#[inline(never)]
fn kernel(tags: &mut [u64], iters: u64) -> u64 {
    tags.fill(u64::MAX);
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut hits = 0;
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let span = if x & 7 < 5 { 0xf_ffff } else { 0xfff_ffff };
        let line = ((x >> 8) & span) >> 6;
        let set = (line as usize % SETS) * WAYS;
        let tag = line / SETS as u64;
        let ways = &mut tags[set..set + WAYS];
        match ways.iter().position(|&t| t == tag) {
            Some(p) => {
                hits += 1;
                ways[..=p].rotate_right(1);
            }
            None => {
                ways.rotate_right(1);
                ways[0] = tag;
            }
        }
    }
    hits
}

/// How many times this thread has been put on a CPU, from
/// `/proc/thread-self/schedstat`; `None` where the kernel does not report
/// it.
fn times_scheduled() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    text.split_whitespace().nth(2)?.parse().ok()
}

/// One kernel run on this thread: how many times slower than nominal it
/// ran, and whether the thread kept its CPU throughout. A run that lost
/// it counts another thread's time as the kernel's.
fn sample(tags: &mut [u64]) -> (f64, bool) {
    let before = times_scheduled();
    let t = Instant::now();
    black_box(kernel(tags, black_box(SAMPLE_ITERS)));
    let ns = t.elapsed().as_nanos() as f64;
    (
        ns / SAMPLE_ITERS as f64 / NOMINAL_NS_PER_ITER,
        times_scheduled() == before,
    )
}

/// A kernel run on this thread, retried a few times while it loses its
/// CPU.
fn sample_inline(tags: &mut [u64]) -> f64 {
    let mut s = sample(tags);
    for _ in 0..4 {
        if s.1 {
            break;
        }
        s = sample(tags);
    }
    s.0
}

/// Stops a sampler thread when dropped, however the measured work ends
/// (a panic included), so that the scope it runs in can join it.
struct StopOnDrop<'a>(&'a AtomicBool, &'a Thread);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
        self.1.unpark();
    }
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// One stretch of measured work.
#[derive(Clone, Copy, Debug)]
pub struct Lap {
    /// Host seconds.
    pub host_s: f64,
    /// Host seconds over the host's slowdown meanwhile.
    pub nominal_s: f64,
}

/// A stopwatch in nominal seconds.
pub struct Clock {
    tags: Vec<u64>,
    slowdown: f64,
    since: Instant,
    /// Every slowdown sampled, in order.
    pub slowdowns: Vec<f64>,
}

impl Clock {
    pub fn new() -> Clock {
        Clock {
            tags: vec![0; SETS * WAYS],
            slowdown: 1.0,
            since: Instant::now(),
            slowdowns: Vec::new(),
        }
    }

    /// Samples the speed on this thread and starts a lap.
    pub fn start(&mut self) {
        self.slowdown = sample_inline(&mut self.tags);
        self.slowdowns.push(self.slowdown);
        self.since = Instant::now();
    }

    /// Ends the lap begun by the last [`Clock::start`] or `lap`, samples
    /// the speed and starts the next lap. The lap's slowdown is the mean
    /// of the samples on either side.
    pub fn lap(&mut self) -> Lap {
        let host_s = self.since.elapsed().as_secs_f64();
        let before = self.slowdown;
        self.start();
        Lap {
            host_s,
            nominal_s: host_s * 2.0 / (before + self.slowdown),
        }
    }

    /// Runs `work` beside a sampler thread that runs the kernel every
    /// [`PERIOD`]. The lap's slowdown is the mean of the samples taken
    /// while `work` ran (the mean, because host time is the time average
    /// of the slowdown times nominal time); if it ended before one was,
    /// one taken on this thread right after.
    pub fn sampled<T>(&mut self, work: impl FnOnce() -> T) -> (T, Lap) {
        let done = AtomicBool::new(false);
        let samples = Mutex::new(Vec::new());
        let (out, host_s) = std::thread::scope(|s| {
            let sampler = s.spawn(|| {
                let mut tags = vec![0; SETS * WAYS];
                while !done.load(Ordering::Relaxed) {
                    let (x, kept_cpu) = sample(&mut tags);
                    if kept_cpu && !done.load(Ordering::Relaxed) {
                        samples.lock().expect("sampler lock").push(x);
                    }
                    std::thread::park_timeout(PERIOD);
                }
            });
            let _stop = StopOnDrop(&done, sampler.thread());
            let t = Instant::now();
            let out = work();
            (out, t.elapsed().as_secs_f64())
        });
        let mut samples = samples.into_inner().expect("sampler lock");
        if samples.is_empty() {
            samples.push(sample_inline(&mut self.tags));
        }
        self.slowdowns.extend(&samples);
        let lap = Lap {
            host_s,
            nominal_s: host_s / mean(&samples),
        };
        (out, lap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_mixes_hits_and_misses() {
        let mut a = vec![0; SETS * WAYS];
        let mut b = vec![7; SETS * WAYS];
        let hits = kernel(&mut a, SAMPLE_ITERS);
        assert_eq!(hits, kernel(&mut b, SAMPLE_ITERS), "starts from empty");
        let frac = hits as f64 / SAMPLE_ITERS as f64;
        assert!(
            (0.2..0.8).contains(&frac),
            "hit rate {frac}: the kernel's branches go both ways"
        );
    }

    #[test]
    fn laps_scale_host_time_by_the_samples_around_them() {
        let mut clock = Clock::new();
        clock.start();
        std::thread::sleep(Duration::from_millis(5));
        let lap = clock.lap();
        assert_eq!(clock.slowdowns.len(), 2);
        let mean = (clock.slowdowns[0] + clock.slowdowns[1]) / 2.0;
        assert!(lap.host_s >= 0.005);
        assert!((lap.nominal_s * mean - lap.host_s).abs() < 1e-12);
    }

    #[test]
    fn sampled_laps_scale_host_time_by_the_mean_sample() {
        let mut clock = Clock::new();
        let (out, lap) = clock.sampled(|| {
            std::thread::sleep(PERIOD * 3);
            7
        });
        assert_eq!(out, 7);
        assert!(lap.host_s >= PERIOD.as_secs_f64() * 3.0);
        assert!(!clock.slowdowns.is_empty());
        let m = mean(&clock.slowdowns);
        assert!((lap.nominal_s * m - lap.host_s).abs() < 1e-12);
        // Work too short for the sampler still gets a sample.
        let mut clock = Clock::new();
        let ((), lap) = clock.sampled(|| ());
        assert_eq!(clock.slowdowns.len(), 1);
        assert!(lap.nominal_s.is_finite() && lap.nominal_s >= 0.0);
    }
}
