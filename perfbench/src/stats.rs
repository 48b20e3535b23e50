//! Small order statistics.

/// The `q`-quantile (0..=1) of `values` by nearest rank; 0 for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The median over consecutive blocks of at least `block` values (the
/// last block takes the remainder) of each block's `q`-quantile: a tail
/// quantile that one burst of slow values cannot move on its own. With
/// fewer than `2 * block` values it is the plain quantile.
pub fn blocked_quantile(values: &[f64], q: f64, block: usize) -> f64 {
    let blocks = (values.len() / block.max(1)).max(1);
    let size = values.len() / blocks;
    let per_block: Vec<f64> = (0..blocks)
        .map(|b| {
            let end = if b + 1 == blocks {
                values.len()
            } else {
                (b + 1) * size
            };
            quantile(&values[b * size..end], q)
        })
        .collect();
    median(&per_block)
}

/// Nanoseconds as microseconds.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Last-quarter median over first-quarter median of a series in
/// completion order: above 1 when later instances cost more.
pub fn drift(series: &[f64]) -> f64 {
    let q = series.len() / 4;
    if q == 0 {
        return 1.0;
    }
    ratio(median(&series[series.len() - q..]), median(&series[..q]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[3.0], 0.99), 3.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn blocked_quantile_ignores_one_slow_block() {
        let mut v: Vec<f64> = (0..3000).map(|i| f64::from(i % 100)).collect();
        assert_eq!(blocked_quantile(&v, 0.99, 1000), 98.0);
        for x in &mut v[..1000] {
            *x += 1000.0;
        }
        assert_eq!(blocked_quantile(&v, 0.99, 1000), 98.0);
        assert_eq!(
            blocked_quantile(&v[..1500], 0.5, 1000),
            quantile(&v[..1500], 0.5)
        );
        assert_eq!(blocked_quantile(&[], 0.99, 1000), 0.0);
    }

    #[test]
    fn drift_compares_quarters() {
        let v = [1.0, 1.0, 5.0, 5.0, 2.0, 2.0, 2.0, 2.0];
        assert_eq!(drift(&v), 2.0);
        assert_eq!(drift(&[1.0]), 1.0);
    }
}
