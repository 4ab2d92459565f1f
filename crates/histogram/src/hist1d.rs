//! One-dimensional histograms.

use crate::edges::{BinEdges, BinningError};

/// A dense one-dimensional count histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct Hist1D {
    edges: BinEdges,
    counts: Vec<u64>,
    /// Number of values that fell outside the covered range.
    out_of_range: u64,
}

impl Hist1D {
    /// Create an empty histogram over `edges`.
    pub fn new(edges: BinEdges) -> Self {
        let n = edges.num_bins();
        Self {
            edges,
            counts: vec![0; n],
            out_of_range: 0,
        }
    }

    /// Build a histogram of `data` over `edges`.
    pub fn from_data(edges: BinEdges, data: &[f64]) -> Self {
        let mut h = Self::new(edges);
        h.accumulate(data);
        h
    }

    /// Build a histogram of the subset of `data` selected by `mask`
    /// (a conditional histogram computed by sequential scan).
    pub fn from_data_masked(
        edges: BinEdges,
        data: &[f64],
        mask: impl Iterator<Item = usize>,
    ) -> Self {
        let mut h = Self::new(edges);
        for i in mask {
            h.push(data[i]);
        }
        h
    }

    /// Add one value.
    #[inline]
    pub fn push(&mut self, value: f64) {
        match self.edges.locate(value) {
            Some(i) => self.counts[i] += 1,
            None => self.out_of_range += 1,
        }
    }

    /// Add every value in `data`.
    pub fn accumulate(&mut self, data: &[f64]) {
        for &v in data {
            self.push(v);
        }
    }

    /// Bin boundaries.
    #[inline]
    pub fn edges(&self) -> &BinEdges {
        &self.edges
    }

    /// Per-bin counts.
    #[inline]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Count stored in bin `i`.
    #[inline]
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Number of bins.
    #[inline]
    pub fn num_bins(&self) -> usize {
        self.counts.len()
    }

    /// Total number of in-range records.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Number of values that fell outside the binned range.
    #[inline]
    pub fn out_of_range(&self) -> u64 {
        self.out_of_range
    }

    /// Largest bin count (0 for an empty histogram).
    pub fn max_count(&self) -> u64 {
        self.counts.iter().copied().max().unwrap_or(0)
    }

    /// Indices of non-empty bins.
    pub fn non_empty_bins(&self) -> impl Iterator<Item = usize> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, _)| i)
    }

    /// Record density of bin `i` (count divided by bin width).
    pub fn density(&self, i: usize) -> f64 {
        self.counts[i] as f64 / self.edges.bin_width(i)
    }

    /// Add the counts of `other` into `self`. Both histograms must share the
    /// same number of bins; the caller is responsible for edge equality.
    pub fn merge_counts(&mut self, other: &Hist1D) -> crate::Result<()> {
        if other.num_bins() != self.num_bins() {
            return Err(BinningError::ShapeMismatch {
                expected: self.num_bins(),
                found: other.num_bins(),
            });
        }
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.out_of_range += other.out_of_range;
        Ok(())
    }

    /// Create a coarser histogram by merging `factor` adjacent bins into one.
    /// Only valid for uniform edges; the trailing partial group (if any) is
    /// merged into the last coarse bin.
    pub fn merged(&self, factor: usize) -> crate::Result<Hist1D> {
        if factor == 0 {
            return Err(BinningError::ZeroBins);
        }
        let coarse_bins = self.num_bins().div_ceil(factor).max(1);
        let edges = BinEdges::uniform(self.edges.lo(), self.edges.hi(), coarse_bins)?;
        let mut counts = vec![0u64; coarse_bins];
        for (i, &c) in self.counts.iter().enumerate() {
            counts[(i / factor).min(coarse_bins - 1)] += c;
        }
        Ok(Hist1D {
            edges,
            counts,
            out_of_range: self.out_of_range,
        })
    }

    /// Construct directly from precomputed per-bin counts (used by the
    /// indexed histogram path).
    pub fn from_counts(edges: BinEdges, counts: Vec<u64>) -> crate::Result<Self> {
        if counts.len() != edges.num_bins() {
            return Err(BinningError::ShapeMismatch {
                expected: edges.num_bins(),
                found: counts.len(),
            });
        }
        Ok(Self {
            edges,
            counts,
            out_of_range: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(bins: usize) -> BinEdges {
        BinEdges::uniform(0.0, 10.0, bins).unwrap()
    }

    #[test]
    fn counts_accumulate() {
        let mut h = Hist1D::new(uniform(10));
        h.accumulate(&[0.5, 1.5, 1.6, 9.9, 10.0, 11.0, -1.0]);
        assert_eq!(h.count(0), 1);
        assert_eq!(h.count(1), 2);
        assert_eq!(h.count(9), 2);
        assert_eq!(h.out_of_range(), 2);
        assert_eq!(h.total(), 5);
        assert_eq!(h.max_count(), 2);
    }

    #[test]
    fn masked_histogram_selects_subset() {
        let data = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let h = Hist1D::from_data_masked(uniform(10), &data, [0usize, 2, 4].into_iter());
        assert_eq!(h.total(), 3);
        assert_eq!(h.count(1), 1);
        assert_eq!(h.count(3), 1);
        assert_eq!(h.count(5), 1);
    }

    #[test]
    fn merge_counts_requires_same_shape() {
        let mut a = Hist1D::from_data(uniform(10), &[1.0, 2.0]);
        let b = Hist1D::from_data(uniform(10), &[2.5, 3.0]);
        a.merge_counts(&b).unwrap();
        assert_eq!(a.total(), 4);
        let c = Hist1D::new(uniform(5));
        assert!(a.merge_counts(&c).is_err());
    }

    #[test]
    fn merged_reduces_resolution() {
        let data: Vec<f64> = (0..100).map(|i| i as f64 / 10.0).collect();
        let fine = Hist1D::from_data(uniform(10), &data);
        let coarse = fine.merged(2).unwrap();
        assert_eq!(coarse.num_bins(), 5);
        assert_eq!(coarse.total(), fine.total());
        assert_eq!(coarse.count(0), fine.count(0) + fine.count(1));
    }

    #[test]
    fn merged_handles_non_divisible_factor() {
        let fine = Hist1D::from_data(uniform(10), &[0.5, 9.5]);
        let coarse = fine.merged(3).unwrap();
        assert_eq!(coarse.num_bins(), 4);
        assert_eq!(coarse.total(), 2);
    }

    #[test]
    fn from_counts_checks_shape() {
        assert!(Hist1D::from_counts(uniform(3), vec![1, 2, 3]).is_ok());
        assert!(Hist1D::from_counts(uniform(3), vec![1, 2]).is_err());
    }

    #[test]
    fn density_uses_bin_width() {
        let e = BinEdges::from_boundaries(vec![0.0, 1.0, 3.0]).unwrap();
        let h = Hist1D::from_data(e, &[0.5, 1.5, 2.0]);
        assert_eq!(h.density(0), 1.0);
        assert_eq!(h.density(1), 1.0);
    }

    #[test]
    fn non_empty_bins_iterates_sparse_structure() {
        let h = Hist1D::from_data(uniform(10), &[0.1, 5.5]);
        let idx: Vec<usize> = h.non_empty_bins().collect();
        assert_eq!(idx, vec![0, 5]);
    }
}
