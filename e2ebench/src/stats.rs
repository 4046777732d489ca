//! Order statistics and metric-name rules shared by every report.
//!
//! Percentiles use the nearest-rank definition: the `q`-quantile of `n`
//! sorted samples is the sample at 1-based rank `ceil(q·n)`. A
//! percentile is only *reportable* when at least [`TAIL_SUPPORT`]
//! samples lie beyond it — a p99 over 200 samples is two samples'
//! worth of evidence, and the benchmark refuses to print it as if it
//! were more.

/// Samples that must lie strictly beyond a percentile for it to be
/// reported.
pub const TAIL_SUPPORT: usize = 10;

/// Candidate tail percentiles, highest first, for
/// [`tail_percentile`].
const TAIL_LADDER: [f64; 7] = [0.999, 0.99, 0.98, 0.95, 0.9, 0.75, 0.5];

/// 1-based nearest rank of quantile `q` among `n` samples (the epsilon
/// keeps `0.99 × 1000` at rank 990 despite binary rounding).
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank `q`-quantile of `sorted` (ascending). `None` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// Samples strictly beyond the nearest-rank `q`-quantile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// [`percentile`], but only when at least [`TAIL_SUPPORT`] samples lie
/// beyond it.
pub fn reportable(sorted: &[f64], q: f64) -> Option<f64> {
    if beyond(sorted.len(), q) >= TAIL_SUPPORT {
        percentile(sorted, q)
    } else {
        None
    }
}

/// The highest percentile of a fixed ladder (p99.9 down to p50) that
/// is [`reportable`] for `sorted`, with its value.
pub fn tail_percentile(sorted: &[f64]) -> Option<(f64, f64)> {
    TAIL_LADDER
        .iter()
        .find_map(|&q| reportable(sorted, q).map(|v| (q, v)))
}

/// Sort a sample vector in place (total order; NaN never occurs in
/// timings but would sort last rather than panic).
pub fn sort(values: &mut [f64]) {
    values.sort_unstable_by(f64::total_cmp);
}

/// Sorted copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    sort(&mut out);
    out
}

/// Median (nearest-rank p50) of unsorted `values`, 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5).unwrap_or(0.0)
}

/// Whether `name` is a valid metric or workload name: starts with an
/// ASCII letter or digit, at most 64 characters drawn from letters,
/// digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1–16 characters drawn from letters,
/// digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples is rank 990: exactly ten beyond.
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(reportable(&ramp(1000), 0.99), Some(990.0));
        // 999 samples: rank 990 again, only nine beyond.
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(reportable(&ramp(999), 0.99), None);
        // p50 of 20 samples has ten beyond; of 19, nine.
        assert_eq!(reportable(&ramp(20), 0.5), Some(10.0));
        assert_eq!(reportable(&ramp(19), 0.5), None);
    }

    #[test]
    fn tail_percentile_picks_the_highest_supported_rung() {
        assert_eq!(tail_percentile(&ramp(10_000)), Some((0.999, 9990.0)));
        assert_eq!(tail_percentile(&ramp(1000)), Some((0.99, 990.0)));
        // 100 samples: p90 (rank 90) has ten beyond, p95 only five.
        assert_eq!(tail_percentile(&ramp(100)), Some((0.9, 90.0)));
        assert_eq!(tail_percentile(&ramp(40)), Some((0.75, 30.0)));
        assert_eq!(tail_percentile(&ramp(19)), None);
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn metric_names_follow_the_contract() {
        for ok in [
            "latency_p50_ms",
            "measures.compute_ms.betweenness-shift",
            "9lives",
            "a",
            &"x".repeat(64),
        ] {
            assert!(valid_name(ok), "{ok} should be valid");
        }
        for bad in [
            "",
            "_leading",
            ".dot",
            "-dash",
            "has space",
            "slash/name",
            "uni\u{e9}",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad} should be invalid");
        }
    }

    #[test]
    fn units_follow_the_contract() {
        for ok in [
            "ms",
            "s",
            "1/s",
            "req/s",
            "%",
            "count",
            "MiB",
            "events/epoch",
        ] {
            assert!(valid_unit(ok), "{ok} should be valid");
        }
        for bad in ["", "m s", "µs", "abcdefghijklmnopq"] {
            assert!(!valid_unit(bad), "{bad} should be invalid");
        }
    }
}
