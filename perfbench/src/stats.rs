//! Order statistics for the report: medians, and the tail rule — a timing is
//! reported as its median plus the highest percentile that still has at
//! least ten samples beyond it.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Samples beyond the `nines`-nines percentile of `n` samples under the
/// nearest-rank definition: the percentile sits at rank `n - n / 10^nines`,
/// so exactly `n / 10^nines` samples rank above it.
pub fn beyond(n: usize, nines: u32) -> usize {
    n / 10usize.pow(nines)
}

/// The highest percentile of the form 90, 99, 99.9, ... (given as its
/// number of nines) that has at least [`MIN_BEYOND`] samples beyond it, or
/// `None` when even p90 has fewer.
pub fn tail_nines(n: usize) -> Option<u32> {
    (1..=9).take_while(|&k| beyond(n, k) >= MIN_BEYOND).last()
}

/// Nearest-rank percentile with `nines` nines (1 = p90, 2 = p99, ...).
/// Returns 0 for an empty slice.
pub fn percentile_nines(xs: &[f64], nines: u32) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = s.len() - beyond(s.len(), nines);
    s[rank.max(1) - 1]
}

/// Label of a `nines` percentile: 1 → "p90", 2 → "p99", 3 → "p99.9".
pub fn nines_label(nines: u32) -> String {
    match nines {
        0 => "p0".to_string(),
        1 => "p90".to_string(),
        k => format!("p99{}", ".9".repeat(k as usize - 2)),
    }
}

/// A timing summary: median, sample count and the tail percentile the
/// sample count supports.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// `(label, value)` of the highest supported tail percentile.
    pub tail: Option<(String, f64)>,
}

/// Summarise a sample under the tail rule.
pub fn summarize(xs: &[f64]) -> Summary {
    Summary {
        n: xs.len(),
        p50: median(xs),
        tail: tail_nines(xs.len()).map(|k| (nines_label(k), percentile_nines(xs, k))),
    }
}

impl Summary {
    /// One-line rendering, e.g. `p50 12.3 · p99.9 88.1 (n=20000)`.
    pub fn render(&self) -> String {
        match &self.tail {
            Some((label, v)) => format!("p50 {:.4} · {label} {v:.4} (n={})", self.p50, self.n),
            None => format!(
                "p50 {:.4} (n={}; no tail percentile has {MIN_BEYOND} samples beyond it)",
                self.p50, self.n
            ),
        }
    }
}

/// Nearest-rank 25th percentile: the level the quieter quarter of repeated
/// measurements stays under. Returns 0 for an empty slice.
pub fn lower_quartile(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s[(s.len() - 1) / 4]
}

/// The `nines` percentile of each consecutive window of `window` samples
/// (a trailing partial window is dropped), in order.
/// `nines = 0` gives each window's median.
pub fn windowed(xs: &[f64], window: usize, nines: u32) -> Vec<f64> {
    xs.chunks_exact(window.max(1))
        .map(|w| {
            if nines == 0 {
                median(w)
            } else {
                percentile_nines(w, nines)
            }
        })
        .collect()
}

/// `num / den`, or 0 when the base is empty.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
