//! The benchmark's own statistics: percentiles from raw samples,
//! open-loop due-time latency, and span self time.
//!
//! Nothing here reads a program histogram's percentile: those return a
//! power-of-two bucket ceiling. Every percentile the benchmark reports is
//! computed from the raw samples it collected itself.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank `p`-quantile (`0 < p <= 1`) of `samples`: the
/// `ceil(p·n)`-th smallest value. `None` when there are no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Samples strictly beyond the nearest-rank `p`-quantile of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).min(n)
}

/// Whether `n` samples support reporting the `p`-quantile, i.e. at least
/// [`MIN_TAIL_SAMPLES`] samples lie beyond it.
pub fn tail_supported(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_TAIL_SAMPLES
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Completions per second: the median over the pass's whole one-second
/// windows of the completions in each, from completion times in seconds
/// since the pass started. A burst of host contention then moves one
/// window rather than the rate. Passes shorter than two windows fall
/// back to count over length.
pub fn rate_per_s(done_s: &[f64], len_s: f64) -> f64 {
    let windows = len_s.floor() as usize;
    if windows < 2 {
        return done_s.len() as f64 / len_s.max(f64::MIN_POSITIVE);
    }
    let mut counts = vec![0.0; windows];
    for &t in done_s {
        if let Some(c) = counts.get_mut(t as usize) {
            *c += 1.0;
        }
    }
    median(&counts)
}

/// Cost per completion, robust to bursts: `done` holds, per completion
/// in completion order, the cumulative cost counter read right after it
/// (e.g. process CPU seconds). The completions are cut into consecutive
/// blocks of `block`; each block's cost per completion is the counter's
/// rise over the block divided by `block`, and the result is the median
/// over whole blocks. A block spans a whole round of the workload's mix,
/// so blocks are comparable, and a burst of interference from other
/// tenants moves one block rather than the result. With fewer than two
/// whole blocks it is the total cost over all completions.
pub fn blocked_cost(done: &[f64], start: f64, block: usize) -> f64 {
    let block = block.max(1);
    if done.len() < 2 * block {
        return done.last().map_or(0.0, |&c| (c - start) / done.len() as f64);
    }
    let per: Vec<f64> = done
        .chunks_exact(block)
        .scan(start, |prev, chunk| {
            let end = chunk[block - 1];
            let cost = (end - *prev) / block as f64;
            *prev = end;
            Some(cost)
        })
        .collect();
    median(&per)
}

/// Open-loop latency of one operation: from when it was *due* to be
/// issued to when it completed. A stall that delays later operations is
/// charged to each of them, which is the point: timing from the actual
/// send would hide the queue the stall built.
pub fn due_latency_ns(due_ns: u64, done_ns: u64) -> u64 {
    done_ns.saturating_sub(due_ns)
}

/// Tracks how far an open-loop generator ran behind its schedule.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Lateness {
    /// Largest delay between an operation's due time and its issue.
    pub max_late_ns: u64,
    /// Sum of issue delays, for the mean.
    pub total_late_ns: u64,
    /// Most operations that were due but not yet issued at any issue.
    pub peak_backlog: u64,
    pub issued: u64,
}

impl Lateness {
    /// Record that operation `index`, due at `index * period_ns` on a
    /// schedule starting at 0, was issued at `now_ns`.
    pub fn issue(&mut self, index: u64, period_ns: u64, now_ns: u64) {
        let late = now_ns.saturating_sub(index * period_ns);
        self.max_late_ns = self.max_late_ns.max(late);
        self.total_late_ns += late;
        // Operations whose due time has passed, minus those issued.
        let due_so_far = now_ns / period_ns.max(1) + 1;
        self.peak_backlog = self.peak_backlog.max(due_so_far.saturating_sub(index + 1));
        self.issued += 1;
    }

    pub fn mean_late_ns(&self) -> u64 {
        self.total_late_ns.checked_div(self.issued).unwrap_or(0)
    }
}

/// Length of the union of `intervals` (half-open `[start, end)`), each
/// clipped to `[lo, hi)`.
pub fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of a span covering `[start, end)`: its duration minus the
/// part of it that the union of its children's intervals covers. Children
/// may overlap each other (parallel prefetch lanes) and may run on other
/// threads or outlive the parent; only the covered part of the parent's
/// own interval is subtracted.
pub fn self_time(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    (end - start) - union_len(children, start, end)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(500.0));
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&v, 1.0), Some(1000.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        // Order of the input does not matter.
        let rev: Vec<f64> = v.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 0.99), Some(990.0));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, ten beyond — the smallest supported n.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert!(tail_supported(1000, 0.99));
        assert!(!tail_supported(999, 0.99));
        assert!(!tail_supported(500, 0.99));
        // The median is supported from 20 samples on.
        assert!(tail_supported(20, 0.5));
        assert!(!tail_supported(19, 0.5));
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn rate_is_the_median_window() {
        // Three windows of 10, 2 (a stall) and 12 completions, plus a
        // partial fourth window that is ignored.
        let mut done = Vec::new();
        done.extend((0..10).map(|i| i as f64 / 10.0));
        done.extend([1.2, 1.7]);
        done.extend((0..12).map(|i| 2.0 + i as f64 / 12.0));
        done.extend([3.1, 3.2]);
        assert_eq!(rate_per_s(&done, 3.5), 10.0);
        // Short passes: count over length.
        assert_eq!(rate_per_s(&[0.1, 0.2, 0.3], 1.5), 2.0);
    }

    #[test]
    fn blocked_cost_takes_the_median_block() {
        // Blocks of two completions costing 2.0, 9.0 (a burst) and 2.4;
        // the trailing partial block is ignored.
        let done = [1.0, 2.0, 6.0, 11.0, 12.2, 13.4, 99.0];
        assert!((blocked_cost(&done, 0.0, 2) - 1.2).abs() < 1e-12);
        // Fewer than two whole blocks: total over count.
        assert_eq!(blocked_cost(&[3.0, 5.0, 7.0], 1.0, 2), 2.0);
        assert_eq!(blocked_cost(&[], 1.0, 2), 0.0);
    }

    #[test]
    fn due_time_latency_counts_the_stall() {
        // One op every 1 ms from t=0; the op due at 2 ms was stalled and
        // finished at 10 ms; the op due at 3 ms was issued late (at 10 ms)
        // and finished at 10.5 ms. Latency from due time charges both.
        assert_eq!(due_latency_ns(2_000_000, 10_000_000), 8_000_000);
        assert_eq!(due_latency_ns(3_000_000, 10_500_000), 7_500_000);
        // Done before due (clock skew between threads) reads as zero.
        assert_eq!(due_latency_ns(5, 3), 0);

        let mut late = Lateness::default();
        late.issue(0, 1_000_000, 0);
        late.issue(1, 1_000_000, 1_000_000);
        late.issue(2, 1_000_000, 2_000_000);
        // Op 3 issued at 10 ms: ops 3..=10 were due, only 3 issued.
        late.issue(3, 1_000_000, 10_000_000);
        assert_eq!(late.max_late_ns, 7_000_000);
        assert_eq!(late.peak_backlog, 7);
        assert_eq!(late.issued, 4);
        assert_eq!(late.mean_late_ns(), 7_000_000 / 4);
    }

    #[test]
    fn self_time_without_children_is_duration() {
        assert_eq!(self_time(100, 200, &mut []), 100);
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        // Two parallel prefetch lanes overlapping on [30, 40).
        let mut kids = vec![(20, 40), (30, 60)];
        assert_eq!(self_time(0, 100, &mut kids), 100 - 40);
        // Nested and identical children count once too.
        let mut kids = vec![(10, 20), (10, 20), (12, 15)];
        assert_eq!(self_time(0, 100, &mut kids), 90);
    }

    #[test]
    fn self_time_clips_children_on_other_threads() {
        // A server-side child that started before the client span closed
        // and finished after it: only the covered part is subtracted.
        let mut kids = vec![(90, 150)];
        assert_eq!(self_time(0, 100, &mut kids), 90);
        // A child entirely outside the parent subtracts nothing.
        let mut kids = vec![(200, 300)];
        assert_eq!(self_time(0, 100, &mut kids), 100);
        // Disjoint children on two threads plus one spanning both.
        let mut kids = vec![(10, 20), (50, 70), (15, 55)];
        assert_eq!(self_time(0, 100, &mut kids), 100 - 60);
    }
}
