//! Order statistics and span attribution shared by every workload.

use std::collections::BTreeMap;

use rfp_obs::EngineSpan;

/// Median of `v` (the mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` of `sorted` (ascending, non-empty) and
/// how many samples lie beyond it.
fn nearest_rank(sorted: &[f64], p: f64) -> (f64, usize) {
    let n = sorted.len();
    // The epsilon keeps decimal percentiles (99.9) from rounding a whole
    // rank up to the next sample.
    let rank = (p * n as f64 / 100.0 - 1e-9).ceil().clamp(1.0, n as f64) as usize;
    (sorted[rank - 1], n - rank)
}

/// Percentiles the tail rule picks from, highest first.
pub const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The tail rule: the highest percentile of [`TAIL_LADDER`] with at
/// least [`TAIL_MIN_BEYOND`] samples beyond it, falling back to the
/// median when no rung qualifies. Returns `(percentile, value)`; an
/// empty slice reads `(50, 0)`.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    if samples.is_empty() {
        return (50.0, 0.0);
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    for p in TAIL_LADDER {
        let (v, beyond) = nearest_rank(&s, p);
        if beyond >= TAIL_MIN_BEYOND {
            return (p, v);
        }
    }
    (50.0, nearest_rank(&s, 50.0).0)
}

fn end(s: &EngineSpan) -> u64 {
    s.start_nanos + s.dur_nanos
}

/// Self time per span kind, in nanoseconds: each span's duration minus
/// the durations of the spans nested directly inside it.
///
/// A span's parent is the shortest other span on its own lane whose
/// interval contains it. Lane 0 is the exception: the engine records
/// trace compiles and warm captures there while they run inside some
/// worker's `simulate` span, so a lane-0 span with no lane-0 parent nests
/// in the shortest containing span of any lane. Worker lanes never nest
/// across lanes: two workers' jobs overlap in time without one containing
/// the other's work. Instant spans (zero duration) carry no time and are
/// ignored. Because every nested span is subtracted from exactly one
/// parent, the self times sum to the total duration of the outermost
/// spans.
pub fn self_nanos(spans: &[EngineSpan]) -> BTreeMap<&'static str, u64> {
    let timed: Vec<&EngineSpan> = spans.iter().filter(|s| s.dur_nanos > 0).collect();
    let mut own: Vec<u64> = timed.iter().map(|s| s.dur_nanos).collect();
    for (i, c) in timed.iter().enumerate() {
        let parent = timed
            .iter()
            .enumerate()
            .filter(|&(j, p)| {
                j != i
                    && (p.lane == c.lane || c.lane == 0)
                    && p.start_nanos <= c.start_nanos
                    && end(p) >= end(c)
                    // Equal intervals nest by position, never both ways.
                    && (p.dur_nanos > c.dur_nanos || j < i)
            })
            .min_by_key(|&(j, p)| (p.lane != c.lane, p.dur_nanos, j))
            .map(|(j, _)| j);
        if let Some(j) = parent {
            own[j] = own[j].saturating_sub(c.dur_nanos);
        }
    }
    let mut out = BTreeMap::new();
    for (s, t) in timed.iter().zip(own) {
        *out.entry(s.kind).or_insert(0) += t;
    }
    out
}

/// Job-tail nanoseconds summed over grids. A grid is the run of
/// `simulate` spans ending before one `reduce` span; its tail is the gap
/// between the first and the last worker lane finishing its final job —
/// the time some workers sat idle waiting for the slowest job.
pub fn tail_nanos(spans: &[EngineSpan]) -> u64 {
    let mut reduces: Vec<u64> = spans
        .iter()
        .filter(|s| s.kind == "reduce")
        .map(|s| s.start_nanos)
        .collect();
    reduces.sort_unstable();
    let mut total = 0;
    let mut from = 0;
    for r in reduces {
        let mut last: BTreeMap<u32, u64> = BTreeMap::new();
        for s in spans.iter().filter(|s| {
            s.kind == "simulate" && s.dur_nanos > 0 && s.start_nanos >= from && end(s) <= r
        }) {
            let e = last.entry(s.lane).or_insert(0);
            *e = (*e).max(end(s));
        }
        if let (Some(lo), Some(hi)) = (last.values().min(), last.values().max()) {
            total += hi - lo;
        }
        from = r;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: &'static str, lane: u32, start: u64, dur: u64) -> EngineSpan {
        EngineSpan {
            kind,
            key: String::new(),
            outcome: "ok",
            fields: Vec::new(),
            lane,
            start_nanos: start,
            dur_nanos: dur,
        }
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_reports_the_highest_percentile_with_ten_samples_beyond() {
        // 2015 samples: p99.9 leaves 2 beyond, p99 leaves 20.
        let v: Vec<f64> = (1..=2015).map(f64::from).collect();
        assert_eq!(tail(&v), (99.0, 1995.0));
        // 20 000 samples: p99.9 leaves 20 beyond.
        let v: Vec<f64> = (1..=20_000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.9, 19_980.0));
        // 216 samples: p99 leaves 2, p95 leaves 10.
        let v: Vec<f64> = (1..=216).map(f64::from).collect();
        assert_eq!(tail(&v), (95.0, 206.0));
        // Exactly ten beyond qualifies; nine does not.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 90.0));
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail(&v), (50.0, 50.0));
        // Too few samples for any rung: the median.
        assert_eq!(tail(&[5.0, 1.0, 3.0]), (50.0, 3.0));
        assert_eq!(tail(&[]), (50.0, 0.0));
    }

    #[test]
    fn self_time_subtracts_nested_spans_across_lanes() {
        let spans = vec![
            // Worker 1 simulates 0..100; a trace compile (lane 0) runs
            // inside it at 10..30 and a warm capture at 40..90, which
            // itself contains a compile at 50..60.
            span("simulate", 1, 0, 100),
            span("trace-compile", 0, 10, 20),
            span("warm-capture", 0, 40, 50),
            span("trace-compile", 0, 50, 10),
            // Worker 2 simulates 20..60, inside worker 1's interval but
            // not its work; the compile at 50..60 lies in its interval
            // too, but stays with the lane-0 capture around it.
            span("simulate", 2, 20, 40),
            // An instant carries no time.
            span("store-get", 1, 45, 0),
            // Reduce after the grid, not nested in anything.
            span("reduce", 0, 120, 5),
        ];
        let t = self_nanos(&spans);
        // Worker 2's 20..60 does not contain the 10..30 compile, so it
        // nests in worker 1's span.
        assert_eq!(t["trace-compile"], 30);
        assert_eq!(t["warm-capture"], 40);
        assert_eq!(t["simulate"], (100 - 20 - 50) + 40);
        assert_eq!(t["reduce"], 5);
        assert!(!t.contains_key("store-get"));
        // Self times add up to the outermost spans' durations.
        assert_eq!(t.values().sum::<u64>(), 100 + 40 + 5);
    }

    #[test]
    fn identical_intervals_nest_once() {
        let spans = vec![
            span("warm-capture", 0, 0, 10),
            span("trace-compile", 0, 0, 10),
        ];
        let t = self_nanos(&spans);
        assert_eq!(t.values().sum::<u64>(), 10);
        // Across worker lanes nothing nests, however the intervals fall.
        let spans = vec![span("simulate", 1, 0, 10), span("simulate", 2, 0, 10)];
        assert_eq!(self_nanos(&spans)["simulate"], 20);
    }

    #[test]
    fn tail_is_the_gap_between_lanes_finishing_per_grid() {
        let spans = vec![
            span("simulate", 1, 0, 50),
            span("simulate", 2, 0, 80),
            span("reduce", 0, 81, 1),
            span("simulate", 1, 100, 30),
            span("simulate", 2, 100, 10),
            span("reduce", 0, 131, 1),
        ];
        assert_eq!(tail_nanos(&spans), 30 + 20);
    }
}
