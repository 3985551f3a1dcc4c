//! Order statistics over the benchmark's samples.

/// A percentile together with the sample set it came from, so a report
/// can say how many observations it rests on and how many lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The nearest-rank percentile value.
    pub value: f64,
    /// Number of samples the percentile was taken over.
    pub samples: usize,
    /// Number of samples strictly ranked above the percentile.
    pub beyond: usize,
}

impl std::fmt::Display for Percentile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.4} (n={}, {} beyond)",
            self.value, self.samples, self.beyond
        )
    }
}

/// Nearest-rank percentile `q` (in `[0, 1]`) of `values`; `None` when
/// there are no samples.
pub fn percentile(values: &[f64], q: f64) -> Option<Percentile> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(Percentile {
        value: sorted[rank - 1],
        samples: sorted.len(),
        beyond: sorted.len() - rank,
    })
}

/// The median of `values` (mean of the two middle samples for an even
/// count); `None` when there are no samples.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Splits `(time, value)` samples into the complete windows of `width`
/// seconds that fit in `[0, span)` and returns each window's values, in
/// time order. Samples outside every complete window are dropped.
pub fn windows(samples: impl Iterator<Item = (f64, f64)>, width: f64, span: f64) -> Vec<Vec<f64>> {
    let count = (span / width + 1e-9).floor() as usize;
    let mut out = vec![Vec::new(); count];
    for (t, v) in samples {
        if t >= 0.0 {
            if let Some(window) = out.get_mut((t / width) as usize) {
                window.push(v);
            }
        }
    }
    out
}

/// Times `f` `reps` times after one untimed warm-up call and returns the
/// median duration in seconds.
pub fn median_secs<E>(reps: usize, mut f: impl FnMut() -> Result<(), E>) -> Result<f64, E> {
    f()?;
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let start = std::time::Instant::now();
        f()?;
        samples.push(start.elapsed().as_secs_f64());
    }
    Ok(median(&samples).expect("at least one timed repetition"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reports_its_sample_counts() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&values, 0.99).unwrap();
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.samples, 1000);
        assert_eq!(p99.beyond, 10);
        let p50 = percentile(&values, 0.5).unwrap();
        assert_eq!((p50.value, p50.beyond), (500.0, 500));
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn percentile_ignores_input_order() {
        let shuffled = [5.0, 1.0, 4.0, 2.0, 3.0];
        let p = percentile(&shuffled, 1.0).unwrap();
        assert_eq!((p.value, p.samples, p.beyond), (5.0, 5, 0));
        assert_eq!(percentile(&shuffled, 0.0).unwrap().value, 1.0);
    }

    #[test]
    fn windows_keep_only_complete_windows() {
        let samples = [(0.1, 1.0), (0.9, 2.0), (1.2, 3.0), (2.5, 4.0), (-0.1, 5.0)];
        let w = windows(samples.iter().copied(), 1.0, 2.5);
        assert_eq!(w, vec![vec![1.0, 2.0], vec![3.0]]);
        assert_eq!(windows(samples.iter().copied(), 0.5, 3.0).len(), 6);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
