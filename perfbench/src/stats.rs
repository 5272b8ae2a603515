//! Exact sample statistics. Every latency sample is kept; quantiles
//! come from the sorted samples (nearest rank), never from bucketed
//! histograms, and every reported quantile carries its sample count.

/// A set of raw samples of one quantity.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// The nearest-rank quantile `q` in `[0, 1]`: the smallest sample
    /// such that at least `q` of all samples are at or below it. `NaN`
    /// when empty.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.values.is_empty() {
            return f64::NAN;
        }
        self.sort();
        let n = self.values.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        self.values[rank - 1]
    }

    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            f64::NAN
        } else {
            self.sum() / self.values.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Samples;

    #[test]
    fn nearest_rank_quantiles() {
        let mut s = Samples::default();
        for v in [5.0, 1.0, 4.0, 2.0, 3.0] {
            s.push(v);
        }
        assert_eq!(s.quantile(0.5), 3.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(0.99), 5.0);
        assert_eq!(s.quantile(0.2), 1.0);
        assert_eq!(s.quantile(0.21), 2.0);
        assert!(Samples::default().median().is_nan());
    }
}
