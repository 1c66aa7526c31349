//! Closed-loop intervals cut into short windows, and the estimators the
//! end-to-end metrics use.
//!
//! On a shared virtual machine the hypervisor at times takes a quarter of
//! the CPU away ("steal") for tens of seconds. Latency tails then grow by
//! several times and throughput drops by a fifth, for reasons that are not
//! in the program. The end-to-end estimators therefore use the run's
//! calmest stretch: the 100-request windows with the lowest mean latency,
//! pooled until they hold `CALM_REQUESTS` requests. Both sides of a
//! comparison run the same number of requests through the same estimator.

use std::fs;
use std::time::Duration;

/// Requests per window: short, so a few calm seconds in a noisy run can
/// be told apart.
pub const WINDOW: usize = 100;

/// Requests the estimators pool: enough for a p99 with ten samples
/// beyond it.
pub const CALM_REQUESTS: usize = 1_000;

/// Requests after which the interval reads the peak RSS. Memory the
/// program holds per request grows with the request count, which a slow
/// host lowers; a fixed count keeps `rss_mb` a measure of the program.
pub const RSS_MARK: usize = 5_000;

/// Nearest-rank percentile of sorted values; 0 when there are none.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values; 0 when there are none.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Machine-wide CPU ticks from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    /// Read the counters now; zeros where `/proc/stat` is unreadable.
    pub fn now() -> Self {
        let Ok(stat) = fs::read_to_string("/proc/stat") else {
            return Self::default();
        };
        // cpu user nice system idle iowait irq softirq steal ...
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|f| f.parse().ok())
            .collect();
        Self {
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().sum(),
        }
    }

    /// Share of CPU time stolen between `self` and a later reading.
    pub fn steal_share(self, later: CpuTicks) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        later.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

/// Consecutive requests of one interval.
#[derive(Debug, Default)]
pub struct Window {
    /// Latency of each request, in ms, in issue order.
    pub latencies_ms: Vec<f64>,
    /// Wall time from the window's first request to the next window's.
    pub secs: f64,
}

impl Window {
    fn mean_ms(&self) -> f64 {
        self.latencies_ms.iter().sum::<f64>() / self.latencies_ms.len().max(1) as f64
    }
}

/// One closed-loop interval: windows of `WINDOW` requests, a short tail
/// joined to the last full window.
#[derive(Debug, Default)]
pub struct Interval {
    pub windows: Vec<Window>,
    /// Why each failed request failed.
    pub errors: Vec<String>,
    pub wall: Duration,
    /// CPU counters at the interval's start and end.
    pub cpu: (CpuTicks, CpuTicks),
    /// Peak RSS of the process, in MB, once `RSS_MARK` requests had run
    /// (or at the end of a shorter interval).
    pub peak_rss_mb: f64,
}

impl Interval {
    /// Close the window under construction. A window shorter than
    /// `WINDOW` joins the previous one.
    pub fn close_window(&mut self, window: Window) {
        if window.latencies_ms.is_empty() {
            return;
        }
        match self.windows.last_mut() {
            Some(last) if window.latencies_ms.len() < WINDOW => {
                last.latencies_ms.extend(window.latencies_ms);
                last.secs += window.secs;
            }
            _ => self.windows.push(window),
        }
    }

    /// Add `other`'s windows after this interval's.
    pub fn append(&mut self, other: Interval) {
        self.windows.extend(other.windows);
        self.errors.extend(other.errors);
        self.wall += other.wall;
    }

    pub fn attempted(&self) -> u64 {
        self.windows
            .iter()
            .map(|w| w.latencies_ms.len() as u64)
            .sum()
    }

    pub fn failed(&self) -> u64 {
        self.errors.len() as u64
    }

    /// Share of CPU time stolen over the interval.
    pub fn steal_share(&self) -> f64 {
        self.cpu.0.steal_share(self.cpu.1)
    }

    /// The windows with the lowest mean latency, until they hold
    /// `CALM_REQUESTS` requests (or every window, in a shorter interval).
    pub fn calm(&self) -> Vec<&Window> {
        let mut by_mean: Vec<&Window> = self.windows.iter().collect();
        by_mean.sort_by(|a, b| a.mean_ms().total_cmp(&b.mean_ms()));
        let mut held = 0;
        by_mean
            .into_iter()
            .take_while(|w| {
                let take = held < CALM_REQUESTS;
                held += w.latencies_ms.len();
                take
            })
            .collect()
    }

    fn calm_latencies(&self) -> Vec<f64> {
        let mut all: Vec<f64> = self
            .calm()
            .iter()
            .flat_map(|w| w.latencies_ms.iter().copied())
            .collect();
        all.sort_by(f64::total_cmp);
        all
    }

    /// Every latency, sorted.
    pub fn sorted_latencies(&self) -> Vec<f64> {
        let mut all: Vec<f64> = self
            .windows
            .iter()
            .flat_map(|w| w.latencies_ms.iter().copied())
            .collect();
        all.sort_by(f64::total_cmp);
        all
    }

    /// Median latency of the calm requests.
    pub fn p50(&self) -> f64 {
        percentile(&self.calm_latencies(), 0.50)
    }

    /// 99th-percentile latency of the calm requests.
    pub fn p99(&self) -> f64 {
        percentile(&self.calm_latencies(), 0.99)
    }

    /// Calm requests completed per second of their windows' wall time.
    pub fn throughput(&self) -> f64 {
        let calm = self.calm();
        let requests: usize = calm.iter().map(|w| w.latencies_ms.len()).sum();
        let secs: f64 = calm.iter().map(|w| w.secs).sum();
        if secs > 0.0 {
            requests as f64 / secs
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(latencies_ms: Vec<f64>, secs: f64) -> Window {
        Window { latencies_ms, secs }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn short_tail_joins_the_last_window() {
        let mut run = Interval::default();
        run.close_window(window(vec![1.0; 10], 0.1));
        run.close_window(window(vec![1.0; WINDOW], 1.0));
        run.close_window(window(vec![1.0; 10], 0.1));
        let sizes: Vec<usize> = run.windows.iter().map(|w| w.latencies_ms.len()).collect();
        assert_eq!(sizes, vec![10, WINDOW + 10]);
        assert_eq!(run.attempted(), 2 * 10 + WINDOW as u64);
    }

    #[test]
    fn a_noisy_stretch_does_not_count() {
        let calm_windows = CALM_REQUESTS / WINDOW;
        let mut run = Interval::default();
        for i in 0..3 * calm_windows {
            // Two noisy windows for every calm one; two slow requests in
            // each calm window are its tail.
            let mut latencies = vec![if i % 3 == 0 { 1.0 } else { 40.0 }; WINDOW];
            latencies[0] += 1.0;
            latencies[1] += 1.0;
            run.close_window(window(latencies, 0.1));
        }
        assert_eq!(run.calm().len(), calm_windows);
        assert_eq!(run.p50(), 1.0);
        assert_eq!(run.p99(), 2.0);
        assert!((run.throughput() - WINDOW as f64 / 0.1).abs() < 1e-9);
    }

    #[test]
    fn a_short_interval_uses_every_window() {
        let mut run = Interval::default();
        run.close_window(window(vec![1.0; WINDOW], 0.5));
        run.close_window(window(vec![3.0; WINDOW], 0.5));
        assert_eq!(run.calm().len(), 2);
        assert_eq!(run.p50(), 1.0);
        assert_eq!(run.p99(), 3.0);
    }

    #[test]
    fn steal_share_is_a_ratio_of_tick_deltas() {
        let a = CpuTicks {
            steal: 10,
            total: 100,
        };
        let b = CpuTicks {
            steal: 30,
            total: 300,
        };
        assert!((a.steal_share(b) - 0.1).abs() < 1e-12);
        assert_eq!(a.steal_share(a), 0.0);
    }
}
