//! The benchmark's own arithmetic: order statistics, ladder marginals,
//! fidelity log-errors and metric-name validation.

/// Median of `values` (mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` % of
/// the samples at or below it. Unlike an interpolated percentile it is
/// always a value that was actually observed, and
/// [`samples_beyond`] says how many observations lie above it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// How many of `n` samples lie strictly beyond the nearest-rank `p`-th
/// percentile's position.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n.max(1)).min(n)
}

/// A rung's cost per instruction over the rung below it: `(this −
/// below) / instructions`, in the unit the times are given in. May be
/// negative when the upper rung does strictly less per instruction
/// (a cheaper tracer demand, for instance).
pub fn marginal(this: f64, below: f64, instructions: u64) -> f64 {
    if instructions == 0 {
        return 0.0;
    }
    (this - below) / instructions as f64
}

/// Mean of `|ln(ours / paper)|` over the pairs: zero when every value
/// matches, symmetric in over- and under-estimation, and scale-free.
/// Pairs with a non-positive side carry no ratio and are skipped;
/// `None` when no pair is usable.
pub fn mean_log_error(pairs: &[(f64, f64)]) -> Option<f64> {
    let errs: Vec<f64> = pairs
        .iter()
        .filter(|(ours, paper)| *ours > 0.0 && *paper > 0.0)
        .map(|(ours, paper)| (ours / paper).ln().abs())
        .collect();
    if errs.is_empty() {
        None
    } else {
        Some(errs.iter().sum::<f64>() / errs.len() as f64)
    }
}

/// `true` for a metric name the result line may carry: 1 to 64
/// characters from `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// 64-bit FNV-1a over `bytes`, continuing from `state` (start with
/// [`FNV_OFFSET`]).
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn nearest_rank_percentile_returns_observed_values() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&v, 101.0), None);
    }

    #[test]
    fn p90_needs_a_hundred_samples_for_ten_beyond_it() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert!(samples_beyond(99, 90.0) < 10);
        assert_eq!(samples_beyond(10, 50.0), 5);
        assert_eq!(samples_beyond(1, 90.0), 0);
        assert_eq!(samples_beyond(0, 90.0), 0);
        // The percentile sits exactly `samples_beyond` from the top.
        let v: Vec<f64> = (1..=250).map(f64::from).collect();
        let p90 = percentile(&v, 90.0).unwrap();
        assert_eq!(
            v.iter().filter(|&&x| x > p90).count(),
            samples_beyond(250, 90.0)
        );
    }

    #[test]
    fn marginals_are_per_instruction_differences() {
        assert_eq!(marginal(3000.0, 1000.0, 1000), 2.0);
        assert_eq!(marginal(900.0, 1000.0, 100), -1.0);
        assert_eq!(marginal(5.0, 1.0, 0), 0.0);
    }

    #[test]
    fn log_error_is_symmetric_and_zero_on_a_match() {
        assert_eq!(mean_log_error(&[(2.0, 2.0)]), Some(0.0));
        let over = mean_log_error(&[(4.0, 2.0)]).unwrap();
        let under = mean_log_error(&[(1.0, 2.0)]).unwrap();
        assert!((over - under).abs() < 1e-12);
        assert!((over - 2f64.ln()).abs() < 1e-12);
        let mixed = mean_log_error(&[(4.0, 2.0), (2.0, 2.0)]).unwrap();
        assert!((mixed - 2f64.ln() / 2.0).abs() < 1e-12);
        assert_eq!(mean_log_error(&[(0.0, 2.0)]), None);
        assert_eq!(mean_log_error(&[]), None);
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in [
            "instr_per_s",
            "fidelity.fig6_logerr",
            "svc.hit_us",
            "a-b",
            "9x",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", ".x", "_x", "a b", "a/b", "ü", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
