//! Two-dimensional histograms: the unit of work for histogram-based parallel
//! coordinates. One `Hist2D` describes the joint distribution of the two
//! variables mapped to a pair of adjacent parallel axes.

use crate::edges::{BinEdges, BinningError};

/// A dense two-dimensional count histogram.
///
/// Counts are stored row-major: `counts[ix * ny + iy]` where `ix` indexes the
/// x (left axis) bins and `iy` the y (right axis) bins.
#[derive(Debug, Clone, PartialEq)]
pub struct Hist2D {
    x_edges: BinEdges,
    y_edges: BinEdges,
    counts: Vec<u64>,
    out_of_range: u64,
}

/// A single non-empty bin of a [`Hist2D`], as consumed by the renderer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bin2D {
    /// Bin index along the first (left-axis) variable.
    pub ix: usize,
    /// Bin index along the second (right-axis) variable.
    pub iy: usize,
    /// Number of records in the bin.
    pub count: u64,
    /// Value range covered on the first variable.
    pub x_range: (f64, f64),
    /// Value range covered on the second variable.
    pub y_range: (f64, f64),
    /// Record density: count divided by the bin area in value space.
    pub density: f64,
}

impl Hist2D {
    /// Create an empty histogram over the given edges.
    pub fn new(x_edges: BinEdges, y_edges: BinEdges) -> Self {
        let n = x_edges.num_bins() * y_edges.num_bins();
        Self {
            x_edges,
            y_edges,
            counts: vec![0; n],
            out_of_range: 0,
        }
    }

    /// Histogram the paired slices `xs[i], ys[i]`.
    ///
    /// # Panics
    /// Panics when the slices have different lengths.
    pub fn from_data(x_edges: BinEdges, y_edges: BinEdges, xs: &[f64], ys: &[f64]) -> Self {
        assert_eq!(xs.len(), ys.len(), "paired columns must have equal length");
        let mut h = Self::new(x_edges, y_edges);
        h.accumulate(xs, ys);
        h
    }

    /// Histogram only the rows yielded by `mask` — a conditional 2D histogram
    /// computed by sequential scan over a row-index selection.
    pub fn from_data_masked(
        x_edges: BinEdges,
        y_edges: BinEdges,
        xs: &[f64],
        ys: &[f64],
        mask: impl Iterator<Item = usize>,
    ) -> Self {
        assert_eq!(xs.len(), ys.len(), "paired columns must have equal length");
        let mut h = Self::new(x_edges, y_edges);
        for i in mask {
            h.push(xs[i], ys[i]);
        }
        h
    }

    /// Construct from precomputed counts (indexed path).
    pub fn from_counts(
        x_edges: BinEdges,
        y_edges: BinEdges,
        counts: Vec<u64>,
    ) -> crate::Result<Self> {
        let expected = x_edges.num_bins() * y_edges.num_bins();
        if counts.len() != expected {
            return Err(BinningError::ShapeMismatch {
                expected,
                found: counts.len(),
            });
        }
        Ok(Self {
            x_edges,
            y_edges,
            counts,
            out_of_range: 0,
        })
    }

    /// Add a single record.
    #[inline]
    pub fn push(&mut self, x: f64, y: f64) {
        match (self.x_edges.locate(x), self.y_edges.locate(y)) {
            (Some(ix), Some(iy)) => {
                let ny = self.y_edges.num_bins();
                self.counts[ix * ny + iy] += 1;
            }
            _ => self.out_of_range += 1,
        }
    }

    /// Add every record of the paired slices.
    pub fn accumulate(&mut self, xs: &[f64], ys: &[f64]) {
        for (&x, &y) in xs.iter().zip(ys.iter()) {
            self.push(x, y);
        }
    }

    /// Edges of the first (left-axis) variable.
    #[inline]
    pub fn x_edges(&self) -> &BinEdges {
        &self.x_edges
    }

    /// Edges of the second (right-axis) variable.
    #[inline]
    pub fn y_edges(&self) -> &BinEdges {
        &self.y_edges
    }

    /// Shape `(x bins, y bins)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.x_edges.num_bins(), self.y_edges.num_bins())
    }

    /// Raw row-major counts.
    #[inline]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Count in bin `(ix, iy)`.
    #[inline]
    pub fn count(&self, ix: usize, iy: usize) -> u64 {
        self.counts[ix * self.y_edges.num_bins() + iy]
    }

    /// Number of records that fell outside the binned area.
    #[inline]
    pub fn out_of_range(&self) -> u64 {
        self.out_of_range
    }

    /// Total in-range record count.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Largest single-bin count.
    pub fn max_count(&self) -> u64 {
        self.counts.iter().copied().max().unwrap_or(0)
    }

    /// Largest per-bin density (count / value-space area).
    pub fn max_density(&self) -> f64 {
        self.iter_non_empty().map(|b| b.density).fold(0.0, f64::max)
    }

    /// Number of non-empty bins — the quantity that drives rendering cost.
    pub fn non_empty_count(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// Iterate over non-empty bins with their value ranges and densities.
    pub fn iter_non_empty(&self) -> impl Iterator<Item = Bin2D> + '_ {
        let ny = self.y_edges.num_bins();
        self.counts
            .iter()
            .enumerate()
            .filter_map(move |(flat, &count)| {
                if count == 0 {
                    return None;
                }
                let ix = flat / ny;
                let iy = flat % ny;
                let x_range = self.x_edges.bin_range(ix);
                let y_range = self.y_edges.bin_range(iy);
                let area = (x_range.1 - x_range.0) * (y_range.1 - y_range.0);
                Some(Bin2D {
                    ix,
                    iy,
                    count,
                    x_range,
                    y_range,
                    density: count as f64 / area,
                })
            })
    }

    /// Non-empty bins sorted back-to-front: ascending count for uniform bins,
    /// ascending density for adaptive bins (as prescribed by the paper, which
    /// orders by the actual data density `p(i,j) = h(i,j)/a(i,j)` when bin
    /// areas differ).
    pub fn bins_back_to_front(&self) -> Vec<Bin2D> {
        let adaptive = !(self.x_edges.is_uniform() && self.y_edges.is_uniform());
        let mut bins: Vec<Bin2D> = self.iter_non_empty().collect();
        if adaptive {
            bins.sort_by(|a, b| a.density.partial_cmp(&b.density).expect("finite density"));
        } else {
            bins.sort_by_key(|b| b.count);
        }
        bins
    }

    /// Marginal histogram along the first variable.
    pub fn marginal_x(&self) -> crate::Hist1D {
        let ny = self.y_edges.num_bins();
        let counts: Vec<u64> = (0..self.x_edges.num_bins())
            .map(|ix| self.counts[ix * ny..(ix + 1) * ny].iter().sum())
            .collect();
        crate::Hist1D::from_counts(self.x_edges.clone(), counts)
            .expect("shape matches by construction")
    }

    /// Marginal histogram along the second variable.
    pub fn marginal_y(&self) -> crate::Hist1D {
        let ny = self.y_edges.num_bins();
        let mut counts = vec![0u64; ny];
        for (flat, &c) in self.counts.iter().enumerate() {
            counts[flat % ny] += c;
        }
        crate::Hist1D::from_counts(self.y_edges.clone(), counts)
            .expect("shape matches by construction")
    }

    /// Add the counts of `other` into `self`; shapes must match.
    pub fn merge_counts(&mut self, other: &Hist2D) -> crate::Result<()> {
        if other.counts.len() != self.counts.len() {
            return Err(BinningError::ShapeMismatch {
                expected: self.counts.len(),
                found: other.counts.len(),
            });
        }
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.out_of_range += other.out_of_range;
        Ok(())
    }

    /// Produce a coarser histogram by merging `fx × fy` blocks of bins
    /// (the drill-down / level-of-detail operation of Novotný & Hauser,
    /// retained here for comparison with free re-binning).
    pub fn merged(&self, fx: usize, fy: usize) -> crate::Result<Hist2D> {
        if fx == 0 || fy == 0 {
            return Err(BinningError::ZeroBins);
        }
        let (nx, ny) = self.shape();
        let cx = nx.div_ceil(fx).max(1);
        let cy = ny.div_ceil(fy).max(1);
        let x_edges = BinEdges::uniform(self.x_edges.lo(), self.x_edges.hi(), cx)?;
        let y_edges = BinEdges::uniform(self.y_edges.lo(), self.y_edges.hi(), cy)?;
        let mut counts = vec![0u64; cx * cy];
        for ix in 0..nx {
            for iy in 0..ny {
                let tx = (ix / fx).min(cx - 1);
                let ty = (iy / fy).min(cy - 1);
                counts[tx * cy + ty] += self.count(ix, iy);
            }
        }
        Ok(Hist2D {
            x_edges,
            y_edges,
            counts,
            out_of_range: self.out_of_range,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges(bins: usize) -> BinEdges {
        BinEdges::uniform(0.0, 10.0, bins).unwrap()
    }

    #[test]
    fn counts_and_shape() {
        let h = Hist2D::from_data(edges(4), edges(2), &[1.0, 6.0, 6.0], &[1.0, 9.0, 9.5]);
        assert_eq!(h.shape(), (4, 2));
        assert_eq!(h.count(0, 0), 1);
        assert_eq!(h.count(2, 1), 2);
        assert_eq!(h.total(), 3);
        assert_eq!(h.non_empty_count(), 2);
        assert_eq!(h.max_count(), 2);
    }

    #[test]
    fn out_of_range_is_tracked() {
        let mut h = Hist2D::new(edges(2), edges(2));
        h.push(-1.0, 5.0);
        h.push(5.0, 50.0);
        h.push(5.0, 5.0);
        assert_eq!(h.out_of_range(), 2);
        assert_eq!(h.total(), 1);
    }

    #[test]
    fn masked_conditional_histogram() {
        let xs = vec![1.0, 2.0, 3.0, 4.0];
        let ys = vec![1.0, 2.0, 3.0, 4.0];
        let h = Hist2D::from_data_masked(edges(10), edges(10), &xs, &ys, [1usize, 3].into_iter());
        assert_eq!(h.total(), 2);
        assert_eq!(h.count(2, 2), 1);
        assert_eq!(h.count(4, 4), 1);
    }

    #[test]
    fn back_to_front_ordering_by_count_for_uniform() {
        let h = Hist2D::from_data(
            edges(2),
            edges(2),
            &[1.0, 1.0, 1.0, 9.0],
            &[1.0, 1.0, 1.0, 9.0],
        );
        let order = h.bins_back_to_front();
        assert_eq!(order.len(), 2);
        assert!(order[0].count <= order[1].count);
        assert_eq!(order[1].count, 3);
    }

    #[test]
    fn back_to_front_ordering_by_density_for_adaptive() {
        let xe = BinEdges::from_boundaries(vec![0.0, 1.0, 10.0]).unwrap();
        let ye = BinEdges::from_boundaries(vec![0.0, 1.0, 10.0]).unwrap();
        // Bin (0,0) has area 1 with 2 records (density 2); bin (1,1) has
        // area 81 with 3 records (density ~0.037). Count order and density
        // order disagree; adaptive path must use density.
        let h = Hist2D::from_data(
            xe,
            ye,
            &[0.5, 0.5, 5.0, 6.0, 7.0],
            &[0.5, 0.5, 5.0, 6.0, 7.0],
        );
        let order = h.bins_back_to_front();
        assert_eq!(order.len(), 2);
        assert!(order[0].density < order[1].density);
        assert_eq!(
            order[1].count, 2,
            "densest bin drawn last has fewer records"
        );
    }

    #[test]
    fn marginals_sum_to_total() {
        let xs: Vec<f64> = (0..100).map(|i| (i % 10) as f64).collect();
        let ys: Vec<f64> = (0..100).map(|i| (i % 7) as f64).collect();
        let h = Hist2D::from_data(edges(10), edges(10), &xs, &ys);
        assert_eq!(h.marginal_x().total(), h.total());
        assert_eq!(h.marginal_y().total(), h.total());
        assert_eq!(h.marginal_x().count(3), 10);
    }

    #[test]
    fn merged_preserves_total() {
        let xs: Vec<f64> = (0..1000).map(|i| (i % 100) as f64 / 10.0).collect();
        let ys: Vec<f64> = (0..1000).map(|i| (i % 83) as f64 / 8.3).collect();
        let h = Hist2D::from_data(edges(32), edges(32), &xs, &ys);
        let c = h.merged(2, 2).unwrap();
        assert_eq!(c.shape(), (16, 16));
        assert_eq!(c.total(), h.total());
        let c2 = h.merged(5, 3).unwrap();
        assert_eq!(c2.total(), h.total());
    }

    #[test]
    fn merge_counts_shape_checked() {
        let mut a = Hist2D::new(edges(4), edges(4));
        let b = Hist2D::from_data(edges(4), edges(4), &[1.0], &[1.0]);
        a.merge_counts(&b).unwrap();
        assert_eq!(a.total(), 1);
        let c = Hist2D::new(edges(2), edges(2));
        assert!(a.merge_counts(&c).is_err());
    }

    #[test]
    fn from_counts_validates_length() {
        assert!(Hist2D::from_counts(edges(2), edges(2), vec![0; 4]).is_ok());
        assert!(Hist2D::from_counts(edges(2), edges(2), vec![0; 5]).is_err());
    }
}
