//! Order statistics for the report: medians, nearest-rank
//! percentiles, and how many samples a percentile needs beyond it.

/// How many samples must lie beyond a reported percentile: a p99 over
/// 500 samples is five outliers, not a percentile. The report marks a
/// percentile with fewer as unsupported.
pub const BEYOND: usize = 10;

/// The median of `values` (mean of the two middle ones for an even
/// count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    match v.len() {
        0 => None,
        len if len % 2 == 1 => Some(v[mid]),
        _ => Some((v[mid - 1] + v[mid]) / 2.0),
    }
}

/// Nearest-rank percentile `q` (in percent) of an ascending-sorted
/// sample, together with how many samples lie strictly beyond the
/// returned rank. `None` when the sample is empty.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<(f64, usize)> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    let rank = rank.clamp(1, sorted.len());
    Some((sorted[rank - 1], sorted.len() - rank))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn nearest_rank_is_the_textbook_definition() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 50.0), Some((50.0, 50)));
        assert_eq!(nearest_rank(&s, 99.0), Some((99.0, 1)));
        assert_eq!(nearest_rank(&s, 100.0), Some((100.0, 0)));
        assert_eq!(nearest_rank(&s, 0.0), Some((1.0, 99)));
        assert_eq!(nearest_rank(&[7.0], 99.0), Some((7.0, 0)));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn a_p99_needs_a_thousand_samples_to_have_ten_beyond_it() {
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        // ceil(0.99 * 999) = 990 leaves 9 beyond: not supported.
        assert_eq!(nearest_rank(&short, 99.0), Some((990.0, 9)));
        let enough: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(nearest_rank(&enough, 99.0), Some((990.0, BEYOND)));
    }
}
