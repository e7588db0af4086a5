//! Order statistics with the benchmark's reporting rule: a percentile is
//! reported only where at least [`MIN_BEYOND`] samples lie beyond it.
//! Windowed latency samples are pooled minus their worst windows.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile (`0 < p < 100`) of `sorted`
/// (ascending), or `None` when fewer than [`MIN_BEYOND`] samples lie beyond
/// it — e.g. p99 needs at least 1000 samples, the median at least 20.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    let n = sorted.len();
    if n == 0 || !(0.0..100.0).contains(&p) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The median of `values` (mean of the middle pair for even counts), or
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// Pools the samples of every window but the worst `share` of them (ranked
/// by each window's nearest-rank p99, rounded down to whole windows) and
/// returns them sorted. A sporadic stall lands in a few windows and is left
/// out; a stall that recurs in more windows than `share` stays in the pool.
pub fn pool_trimmed(mut windows: Vec<Vec<u32>>, share: f64) -> Vec<u32> {
    for window in &mut windows {
        window.sort_unstable();
    }
    let p99 = |window: &Vec<u32>| match window.len() {
        0 => 0,
        n => window[((0.99 * n as f64).ceil() as usize).clamp(1, n) - 1],
    };
    windows.sort_by_key(p99);
    let keep = windows.len() - (windows.len() as f64 * share).floor() as usize;
    let mut pooled: Vec<u32> = windows.into_iter().take(keep).flatten().collect();
    pooled.sort_unstable();
    pooled
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let samples: Vec<u32> = (1..=1000).collect();
        // p99 of 1000 samples is rank 990: exactly ten samples lie beyond.
        assert_eq!(percentile(&samples, 99.0), Some(990));
        assert_eq!(percentile(&samples[..999], 99.0), None);
        assert_eq!(percentile(&samples[..20], 50.0), Some(10));
        assert_eq!(percentile(&samples[..19], 50.0), None);
        assert_eq!(percentile(&samples[..100], 90.0), Some(90));
        assert_eq!(percentile(&samples[..99], 90.0), None);
    }

    #[test]
    fn percentile_rejects_empty_input_and_bad_ranks() {
        assert_eq!(percentile::<u32>(&[], 50.0), None);
        assert_eq!(percentile(&[1u32; 100], 100.0), None);
        assert_eq!(percentile(&[1u32; 100], -1.0), None);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn trimming_drops_a_sporadic_stall_but_keeps_a_recurring_one() {
        let calm: Vec<u32> = (1..=1000).collect();
        let mut stalled = calm.clone();
        stalled[900..].fill(50_000);
        // One stalled window in twenty: trimmed away, the tail is calm.
        let mut windows = vec![calm.clone(); 19];
        windows.insert(7, stalled.clone());
        let pooled = pool_trimmed(windows, 0.1);
        assert_eq!(pooled.len(), 18_000);
        assert!(percentile(&pooled, 99.0).is_some_and(|p| p <= 1000));
        // A stall in every third window exceeds the trimmed share and shows
        // in the pooled p99.
        let windows: Vec<Vec<u32>> =
            (0..21).map(|w| if w % 3 == 0 { stalled.clone() } else { calm.clone() }).collect();
        let pooled = pool_trimmed(windows, 0.1);
        assert_eq!(pooled.len(), 19_000);
        assert_eq!(percentile(&pooled, 99.0), Some(50_000));
        // Fewer windows than one trimmed share: nothing is dropped.
        assert_eq!(pool_trimmed(vec![stalled.clone(); 9], 0.1).len(), 9000);
    }
}
