//! The benchmark's arithmetic: percentiles, the ladder rule behind
//! `max_rate_qps`, the backlog test, Little's law and span self time.
//!
//! Everything here is a pure function so the unit tests at the bottom pin
//! the rules down independently of any timing.

/// Median of `values` (linear interpolation between the two middle values);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Linear-interpolated percentile `p` (in `[0, 100]`) of unsorted `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    duet_query::percentile_sorted(&sorted, p)
}

/// The highest percentile of the fixed menu that leaves at least ten
/// samples above it, or `None` when even the median does not.
///
/// A tail percentile is only reported when it has ten samples beyond it;
/// with fewer, the "p99" of a phase would be one or two unlucky requests.
pub fn supported_percentile(samples: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| samples as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Whether percentile `p` is supported by `samples` under
/// [`supported_percentile`]'s rule.
pub fn supports(samples: usize, p: f64) -> bool {
    supported_percentile(samples).is_some_and(|best| best >= p)
}

/// Summary over the windows of a phase (see [`windowed`]).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSummary {
    /// Median of the per-window medians.
    pub p50: f64,
    /// Median of the per-window p99s (failures count as misses).
    pub p99: f64,
    /// Lowest per-window p99: the tail of the least disturbed stretch.
    pub p99_min: f64,
    /// Median of the per-window failed shares.
    pub failed_share: f64,
    /// Number of windows.
    pub windows: usize,
    /// The per-window p99s, in order.
    pub window_p99s: Vec<f64>,
}

/// Split `samples` (in scheduled order; `Some(latency)` for a success,
/// `None` for a failure) into at most `max_windows` consecutive windows of
/// equal count, each large enough to support its own p99 (see
/// [`supported_percentile`]), and
/// return the medians of the per-window p50, p99 and failed share. The
/// median over windows keeps one disturbed stretch of a run from setting
/// the reported tail.
pub fn windowed(samples: &[Option<f64>], max_windows: usize) -> WindowSummary {
    let windows =
        (1..=max_windows.max(1)).rev().find(|&w| supports(samples.len() / w, 99.0)).unwrap_or(1);
    let size = samples.len().div_ceil(windows).max(1);
    let (mut p50s, mut p99s, mut shares) = (Vec::new(), Vec::new(), Vec::new());
    for chunk in samples.chunks(size) {
        let ok: Vec<f64> = chunk.iter().flatten().copied().collect();
        let failed = chunk.len() - ok.len();
        p50s.push(median(&ok));
        p99s.push(tail_with_failures(&ok, failed, 99.0));
        shares.push(failed as f64 / chunk.len() as f64);
    }
    WindowSummary {
        p50: median(&p50s),
        p99: median(&p99s),
        p99_min: p99s.iter().copied().fold(f64::INFINITY, f64::min),
        failed_share: median(&shares),
        windows,
        window_p99s: p99s,
    }
}

/// Outcome of one ladder step, as judged by [`step_passes`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOutcome {
    /// Offered rate of the step (requests per second).
    pub rate: f64,
    /// Tail latency of the step in microseconds (failures count as misses,
    /// see [`tail_with_failures`]).
    pub p99_us: f64,
    /// Failed requests over attempted requests.
    pub failed_share: f64,
    /// Whether the outstanding-request count grew over the step.
    pub backlog_grew: bool,
    /// Whether the generator kept its schedule (see [`generator_on_time`]).
    pub valid: bool,
}

/// Limits a ladder step must meet to count towards `max_rate_qps`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepLimits {
    /// Highest acceptable tail latency (µs).
    pub p99_us: f64,
    /// Highest acceptable failed share.
    pub failed_share: f64,
}

/// A step passes when its generator was on time, its tail latency and
/// failed share are within the limits, and its backlog did not grow.
pub fn step_passes(step: &StepOutcome, limits: &StepLimits) -> bool {
    step.valid
        && !step.backlog_grew
        && step.p99_us <= limits.p99_us
        && step.failed_share <= limits.failed_share
}

/// Consecutive failing steps that end a ladder walk. Fewer failures in a
/// row are taken as a slow stretch of the machine, not the server's limit:
/// a passing step above them still counts.
pub const STOP_AFTER_FAILURES: usize = 3;

/// The highest passing rate of an ascending ladder. The ladder is walked
/// upwards and stops after [`STOP_AFTER_FAILURES`] consecutive failing
/// steps. `None` when no step passed.
pub fn max_passing_rate(steps: &[StepOutcome], limits: &StepLimits) -> Option<f64> {
    let mut best = None;
    let mut failures = 0;
    for step in steps {
        if step_passes(step, limits) {
            best = Some(step.rate);
            failures = 0;
        } else {
            failures += 1;
            if failures >= STOP_AFTER_FAILURES {
                break;
            }
        }
    }
    best
}

/// Whether a ladder walk over `outcomes_so_far` should stop
/// ([`STOP_AFTER_FAILURES`] consecutive failing steps at its top).
pub fn ladder_should_stop(outcomes_so_far: &[StepOutcome], limits: &StepLimits) -> bool {
    let n = outcomes_so_far.len();
    n >= STOP_AFTER_FAILURES
        && outcomes_so_far[n - STOP_AFTER_FAILURES..].iter().all(|s| !step_passes(s, limits))
}

/// Backlog test: the outstanding-request count at the end of a phase
/// exceeds the count at its midpoint by more than 5% of the requests sent
/// in the second half (and by more than a small absolute floor, so a
/// handful of in-flight requests never counts as growth).
pub fn backlog_grew(
    outstanding_mid: usize,
    outstanding_end: usize,
    sent_second_half: usize,
) -> bool {
    let growth = outstanding_end.saturating_sub(outstanding_mid) as f64;
    growth > (0.05 * sent_second_half as f64).max(16.0)
}

/// The generator kept its schedule when its median lateness is within
/// `late_limit_us` and it finished sending no later than `slack_us` after
/// the last scheduled send. Single late sends (a descheduled sender) are
/// jitter, already charged to the delayed requests' latencies; a generator
/// that is late most of the time, or ends behind, has fallen behind.
pub fn generator_on_time(
    late_median_us: f64,
    late_limit_us: f64,
    overrun_us: f64,
    slack_us: f64,
) -> bool {
    late_median_us <= late_limit_us && overrun_us <= slack_us
}

/// Tail latency with failures counted as misses: a failed request is
/// treated as infinitely slow, so the percentile is taken over all
/// attempted requests.
pub fn tail_with_failures(ok_latencies_us: &[f64], failed: usize, p: f64) -> f64 {
    let mut all = ok_latencies_us.to_vec();
    all.extend(std::iter::repeat_n(f64::INFINITY, failed));
    if all.is_empty() {
        return 0.0;
    }
    all.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * (all.len() - 1) as f64).ceil() as usize;
    all[rank.min(all.len() - 1)]
}

/// Little's law: mean wait `W = L / λ`, with `L` the mean number queued and
/// `λ` the completion rate (per second). Returned in microseconds; 0 when
/// nothing completed.
pub fn littles_law_wait_us(mean_queue_depth: f64, completions_per_s: f64) -> f64 {
    if completions_per_s <= 0.0 {
        return 0.0;
    }
    mean_queue_depth / completions_per_s * 1e6
}

/// A recorded span: `[start, end)` in nanoseconds and the index of its
/// parent in the same span list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanTimes {
    /// Start time (ns).
    pub start: u64,
    /// End time (ns).
    pub end: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children are merged first, and a
/// child's part outside the parent does not count).
pub fn self_times(spans: &[SpanTimes]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let (s, e) = (span.start.max(p.start), span.end.min(p.end));
            if s < e {
                children[parent].push((s, e));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = span.start;
            for &(s, e) in kids.iter() {
                let s = s.max(cursor);
                if e > s {
                    covered += e - s;
                    cursor = e;
                }
            }
            (span.end - span.start).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(10_000), Some(99.9));
        assert_eq!(supported_percentile(9_999), Some(99.0));
        assert_eq!(supported_percentile(1_000), Some(99.0));
        assert_eq!(supported_percentile(999), Some(95.0));
        assert_eq!(supported_percentile(200), Some(95.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(19), None);
        assert!(supports(1_000, 99.0));
        assert!(!supports(999, 99.0));
    }

    #[test]
    fn windowed_summary_takes_the_median_window() {
        // Five windows of 1000 samples; one window is uniformly slower and
        // another has a burst of failures.
        let mut samples = Vec::new();
        for w in 0..5 {
            for i in 0..1000 {
                let base = if w == 2 { 1000.0 } else { 100.0 };
                let failed = w == 1 && i < 50;
                samples.push((!failed).then_some(base + (i % 100) as f64));
            }
        }
        let s = windowed(&samples, 8);
        assert_eq!(s.windows, 5);
        assert_eq!(s.p50, 149.5);
        assert_eq!(s.p99, 199.0);
        assert_eq!(s.p99_min, 199.0);
        assert_eq!(s.failed_share, 0.0);
        // Too few samples for two windows with a p99 each: one window.
        let s = windowed(&samples[..1999], 8);
        assert_eq!(s.windows, 1);
        assert!(s.p99.is_infinite(), "50 failures in 1999 push the p99 to a miss");
    }

    fn step(rate: f64, p99: f64) -> StepOutcome {
        StepOutcome { rate, p99_us: p99, failed_share: 0.0, backlog_grew: false, valid: true }
    }

    #[test]
    fn ladder_takes_highest_passing_rate_and_stops_after_three_failures() {
        let limits = StepLimits { p99_us: 1000.0, failed_share: 0.01 };
        let steps = [
            step(100.0, 10.0),
            step(110.0, 5000.0),
            step(120.0, 5000.0),
            step(130.0, 30.0),
            step(140.0, 5000.0),
        ];
        assert_eq!(max_passing_rate(&steps, &limits), Some(130.0));
        assert!(!ladder_should_stop(&steps[..3], &limits));
        let steps = [
            step(100.0, 10.0),
            step(110.0, 5000.0),
            step(120.0, 5000.0),
            step(130.0, 5000.0),
            step(140.0, 30.0),
        ];
        assert_eq!(max_passing_rate(&steps, &limits), Some(100.0));
        assert!(ladder_should_stop(&steps[..4], &limits));
        assert!(!ladder_should_stop(&steps[..3], &limits));
        assert_eq!(max_passing_rate(&[step(100.0, 5000.0)], &limits), None);
    }

    #[test]
    fn ladder_step_fails_on_failures_backlog_or_late_generator() {
        let limits = StepLimits { p99_us: 1000.0, failed_share: 0.01 };
        let ok = step(100.0, 10.0);
        assert!(step_passes(&ok, &limits));
        assert!(!step_passes(&StepOutcome { failed_share: 0.02, ..ok }, &limits));
        assert!(!step_passes(&StepOutcome { backlog_grew: true, ..ok }, &limits));
        assert!(!step_passes(&StepOutcome { valid: false, ..ok }, &limits));
        assert!(!step_passes(&StepOutcome { p99_us: 1000.5, ..ok }, &limits));
    }

    #[test]
    fn backlog_rule() {
        assert!(!backlog_grew(10, 20, 1000));
        assert!(!backlog_grew(10, 60, 1000));
        assert!(backlog_grew(10, 61, 1000));
        assert!(!backlog_grew(50, 10, 1000));
        // The absolute floor keeps tiny phases from flagging growth.
        assert!(!backlog_grew(0, 16, 10));
        assert!(backlog_grew(0, 17, 10));
    }

    #[test]
    fn failures_count_as_latency_misses() {
        let ok: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_with_failures(&ok, 0, 99.0), 99.0);
        assert!(tail_with_failures(&ok, 2, 99.0).is_infinite());
        assert!(generator_on_time(100.0, 500.0, 1000.0, 2000.0));
        assert!(!generator_on_time(600.0, 500.0, 0.0, 2000.0));
        assert!(!generator_on_time(100.0, 500.0, 3000.0, 2000.0));
    }

    #[test]
    fn littles_law_wait() {
        // 4 requests queued on average, 2000 completions/s -> 2 ms wait.
        assert!((littles_law_wait_us(4.0, 2000.0) - 2000.0).abs() < 1e-9);
        assert_eq!(littles_law_wait_us(3.0, 0.0), 0.0);
        assert_eq!(littles_law_wait_us(0.0, 500.0), 0.0);
    }

    #[test]
    fn span_self_time_subtracts_covered_child_time() {
        let spans = [
            SpanTimes { start: 0, end: 100, parent: None },
            SpanTimes { start: 10, end: 30, parent: Some(0) },
            // Overlaps the first child: only 30..50 is new.
            SpanTimes { start: 20, end: 50, parent: Some(0) },
            // Sticks out of the parent: only 90..100 counts.
            SpanTimes { start: 90, end: 120, parent: Some(0) },
            SpanTimes { start: 12, end: 15, parent: Some(1) },
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20 - 3, 30, 30, 3]);
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }
}
