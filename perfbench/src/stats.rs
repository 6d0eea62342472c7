//! Order statistics with their sample counts.

/// A percentile read from a sample, with the numbers that say how far it
/// can be trusted: the sample size and how many samples lie above it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pct {
    /// The selected sample value.
    pub value: f64,
    /// Samples the percentile was read from.
    pub n: usize,
    /// Samples strictly after the selected rank.
    pub beyond: usize,
}

/// Nearest-rank percentile of an ascending sample: the value at rank
/// `ceil(q * n)` (1-based), so at least a `q` share of the sample is at
/// or below it. `q` is in `(0, 1]`; an empty sample reads as 0.
pub fn percentile(sorted: &[f64], q: f64) -> Pct {
    let n = sorted.len();
    if n == 0 {
        return Pct {
            value: 0.0,
            n: 0,
            beyond: 0,
        };
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Pct {
        value: sorted[rank - 1],
        n,
        beyond: n - rank,
    }
}

/// A percentile read per slice and summarised by the median slice:
/// `samples`, in arrival order, are cut into consecutive slices of
/// `slice_len` (a short remainder joins the last slice), each read at `q`.
/// A stall confined to a few slices moves the result no further than to
/// a neighbouring slice's value. `n` and `beyond` describe the smallest
/// slice.
pub fn slice_percentile(samples: &[f64], slice_len: usize, q: f64) -> Pct {
    let slices = (samples.len() / slice_len.max(1)).max(1);
    let len = samples.len() / slices;
    let reads: Vec<Pct> = (0..slices)
        .map(|i| {
            let end = if i + 1 == slices {
                samples.len()
            } else {
                (i + 1) * len
            };
            percentile(&sorted(samples[i * len..end].to_vec()), q)
        })
        .collect();
    let values: Vec<f64> = reads.iter().map(|p| p.value).collect();
    Pct {
        value: median(&values),
        n: len,
        beyond: reads.iter().map(|p| p.beyond).min().unwrap_or(0),
    }
}

/// The slice length that leaves at least ten samples beyond percentile
/// `q`, and no fewer than `floor` samples.
pub fn slice_len(q: f64, floor: usize) -> usize {
    ((10.0 / (1.0 - q)).round() as usize).max(floor)
}

/// Sorts a sample ascending (total order; the benchmark never records NaN).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_and_tail_count() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(
            percentile(&s, 0.5),
            Pct {
                value: 500.0,
                n: 1000,
                beyond: 500
            }
        );
        assert_eq!(
            percentile(&s, 0.99),
            Pct {
                value: 990.0,
                n: 1000,
                beyond: 10
            }
        );
        assert_eq!(
            percentile(&s, 0.999),
            Pct {
                value: 999.0,
                n: 1000,
                beyond: 1
            }
        );
        // 40,000 samples leave 40 beyond p999.
        let big: Vec<f64> = (0..40_000).map(f64::from).collect();
        let p = percentile(&big, 0.999);
        assert_eq!((p.value, p.beyond), (39_959.0, 40));
    }

    #[test]
    fn percentile_edges() {
        assert_eq!(percentile(&[], 0.5).n, 0);
        assert_eq!(
            percentile(&[7.0], 0.999),
            Pct {
                value: 7.0,
                n: 1,
                beyond: 0
            }
        );
        assert_eq!(percentile(&[1.0, 2.0], 0.5).value, 1.0);
    }

    #[test]
    fn slice_percentile_takes_the_median_slice() {
        // Four slices of 1,000; the third carries a stall.
        let mut s: Vec<f64> = (0..4_000).map(|i| f64::from(i % 1_000)).collect();
        s[2_000..2_010].iter_mut().for_each(|v| *v = 1e6);
        let p = slice_percentile(&s, 1_000, 0.999);
        assert_eq!((p.value, p.n, p.beyond), (998.0, 1_000, 1));
        // The stall sets the pooled p999 but not the slice median.
        assert_eq!(percentile(&sorted(s.clone()), 0.999).value, 1e6);
        assert_eq!(
            slice_percentile(&s, 4_000, 0.5),
            percentile(&sorted(s.clone()), 0.5)
        );
        // A remainder joins the last slice; a short sample is one slice.
        let t: Vec<f64> = (0..4_500).map(f64::from).collect();
        assert_eq!(slice_percentile(&t, 2_000, 0.5).n, 2_250);
        assert_eq!(slice_percentile(&[3.0, 1.0, 2.0], 1_000, 0.5).value, 2.0);
    }

    #[test]
    fn slice_lengths_leave_ten_beyond() {
        assert_eq!(slice_len(0.999, 1_000), 10_000);
        assert_eq!(slice_len(0.99, 1_000), 1_000);
        assert_eq!(slice_len(0.5, 1_000), 1_000);
        let s: Vec<f64> = (0..40_000).map(f64::from).collect();
        for q in [0.5, 0.99, 0.999] {
            let p = slice_percentile(&s, slice_len(q, 1_000), q);
            assert!(p.beyond >= 10 || q == 0.5, "q={q}: {p:?}");
        }
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
