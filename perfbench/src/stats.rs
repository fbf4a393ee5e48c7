//! Sample statistics and process measurements shared by every workload.

/// Samples a tail percentile must leave beyond itself before it is
/// reported: with fewer, one outlier moves it.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// A sorted copy of `samples` (NaNs are never produced by the harness).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Nearest-rank `q`-quantile of an ascending slice: the smallest sample
/// with at least `q * n` samples at or below it. `None` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples strictly beyond the nearest-rank `q`-quantile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// The `q`-quantile, or `None` when fewer than [`MIN_TAIL_SAMPLES`]
/// samples lie beyond it (the tail is refused, not guessed).
pub fn tail_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if samples_beyond(sorted.len(), q) < MIN_TAIL_SAMPLES {
        return None;
    }
    percentile(sorted, q)
}

/// The highest percentile of the ladder 50, 90, 99, 99.9 that leaves at
/// least [`MIN_TAIL_SAMPLES`] samples beyond it, as a fraction.
pub fn highest_supported(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&q| samples_beyond(n, q) >= MIN_TAIL_SAMPLES)
}

/// Median of unsorted samples (0 when there are none).
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 0.5).unwrap_or(0.0)
}

/// Arithmetic mean (0 when there are none).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Whether `name` obeys the metric-name grammar: starts with a letter or
/// digit, at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Clock ticks per second of the CPU times in `/proc/*/stat` (`USER_HZ`,
/// which the Linux ABI fixes at 100).
const USER_HZ: f64 = 100.0;

/// CPU time this process has used so far, user plus system, over all its
/// threads (exited ones included), in seconds; `None` where `/proc` is
/// unavailable. Under steal-time accounting the kernel leaves out time a
/// hypervisor gave this guest's CPUs to other guests, so on a shared host
/// it measures the work done rather than the wait for a CPU.
pub fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name in parentheses may hold spaces; utime and stime
    // are the 12th and 13th fields after it.
    let mut fields = stat.rsplit_once(')')?.1.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), Some(50.0));
        assert_eq!(percentile(&s, 0.9), Some(90.0));
        assert_eq!(percentile(&s, 0.99), Some(99.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&s, 1.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 0.9), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn process_cpu_time_advances_with_work() {
        let before = process_cpu_s().expect("/proc/self/stat is readable");
        let spin = std::time::Instant::now();
        let mut x = 0u64;
        while process_cpu_s().unwrap() <= before && spin.elapsed().as_secs() < 5 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_s().unwrap() > before);
    }

    #[test]
    fn tails_need_ten_samples_beyond() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(99, 0.9), 9);
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&s, 0.9), Some(90.0));
        assert_eq!(tail_percentile(&s[..99], 0.9), None);
        assert_eq!(tail_percentile(&s, 0.99), None);
    }

    #[test]
    fn highest_supported_percentile_ladder() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(0.5));
        assert_eq!(highest_supported(100), Some(0.9));
        assert_eq!(highest_supported(999), Some(0.9));
        assert_eq!(highest_supported(1000), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
    }

    #[test]
    fn metric_name_grammar() {
        for ok in ["setup_s", "serve.wire_ms", "a-b.c_d", "9lives"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
