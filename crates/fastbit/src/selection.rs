//! Row selections: the result of evaluating a query.
//!
//! A [`Selection`] is a compressed bitmap over the rows of one dataset
//! (one timestep file in the paper's setting). Compound Boolean range queries
//! are built by combining per-predicate selections with `AND`/`OR`/`NOT`.

use crate::error::{FastBitError, Result};
use crate::wah::Wah;

/// A set of selected rows, stored as a WAH-compressed bitmap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selection {
    bits: Wah,
}

impl Selection {
    /// A selection containing no rows out of `num_rows`.
    pub fn none(num_rows: usize) -> Self {
        Self {
            bits: Wah::zeros(num_rows as u64),
        }
    }

    /// A selection containing every one of `num_rows` rows.
    pub fn all(num_rows: usize) -> Self {
        Self {
            bits: Wah::ones(num_rows as u64),
        }
    }

    /// Wrap an existing bitmap.
    pub fn from_wah(bits: Wah) -> Self {
        Self { bits }
    }

    /// Build from sorted, unique row indices.
    pub fn from_sorted_rows(num_rows: usize, rows: impl IntoIterator<Item = usize>) -> Self {
        Self {
            bits: Wah::from_sorted_indices(num_rows as u64, rows.into_iter().map(|r| r as u64)),
        }
    }

    /// Build by evaluating a predicate over every row (sequential scan).
    pub fn from_predicate<T>(data: &[T], mut pred: impl FnMut(&T) -> bool) -> Self {
        let mut builder = crate::wah::WahBuilder::new();
        for v in data {
            builder.push_bit(pred(v));
        }
        Self {
            bits: builder.finish(),
        }
    }

    /// Number of rows covered (selected or not).
    pub fn num_rows(&self) -> usize {
        self.bits.len() as usize
    }

    /// Number of selected rows ("hits").
    pub fn count(&self) -> u64 {
        self.bits.count_ones()
    }

    /// True when no row is selected.
    pub fn is_none_selected(&self) -> bool {
        self.count() == 0
    }

    /// Iterate over selected row indices in increasing order.
    pub fn iter_rows(&self) -> impl Iterator<Item = usize> + '_ {
        self.bits.iter_ones().map(|i| i as usize)
    }

    /// Collect the selected row indices.
    pub fn to_rows(&self) -> Vec<usize> {
        self.iter_rows().collect()
    }

    /// Access the underlying bitmap.
    pub fn as_wah(&self) -> &Wah {
        &self.bits
    }

    /// Intersection with another selection over the same rows.
    pub fn and(&self, other: &Selection) -> Result<Selection> {
        Ok(Selection {
            bits: self.bits.and(&other.bits)?,
        })
    }

    /// Union with another selection over the same rows.
    pub fn or(&self, other: &Selection) -> Result<Selection> {
        Ok(Selection {
            bits: self.bits.or(&other.bits)?,
        })
    }

    /// Rows selected here but not in `other`.
    pub fn and_not(&self, other: &Selection) -> Result<Selection> {
        Ok(Selection {
            bits: self.bits.and_not(&other.bits)?,
        })
    }

    /// Complement over the covered rows.
    pub fn not(&self) -> Selection {
        Selection {
            bits: self.bits.not(),
        }
    }

    /// Check that this selection covers exactly `rows` rows.
    pub fn check_rows(&self, rows: usize) -> Result<()> {
        if self.num_rows() != rows {
            return Err(FastBitError::RowCountMismatch {
                index_rows: self.num_rows(),
                data_rows: rows,
            });
        }
        Ok(())
    }

    /// Expand into a dense little-endian word bitmap, one bit per row
    /// (padding bits past the last row zero). Cost is proportional to the
    /// row count, not to the number of selected rows.
    pub fn to_dense_words(&self) -> Vec<u64> {
        let mut words = vec![0u64; self.num_rows().div_ceil(64)];
        self.bits.write_dense_words(&mut words);
        words
    }

    /// Gather the values of `column` at the selected rows.
    pub fn gather(&self, column: &[f64]) -> Vec<f64> {
        self.iter_rows().map(|r| column[r]).collect()
    }

    /// Gather the values of an integer column at the selected rows.
    pub fn gather_u64(&self, column: &[u64]) -> Vec<u64> {
        self.iter_rows().map(|r| column[r]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_counts() {
        let all = Selection::all(100);
        let none = Selection::none(100);
        assert_eq!(all.count(), 100);
        assert_eq!(none.count(), 0);
        assert!(none.is_none_selected());
        assert_eq!(all.num_rows(), 100);
    }

    #[test]
    fn predicate_scan_selects_rows() {
        let data = vec![1.0, 5.0, 2.0, 8.0, 3.0];
        let s = Selection::from_predicate(&data, |&v| v > 2.5);
        assert_eq!(s.to_rows(), vec![1, 3, 4]);
        assert_eq!(s.gather(&data), vec![5.0, 8.0, 3.0]);
    }

    #[test]
    fn boolean_combinations() {
        let a = Selection::from_sorted_rows(10, [1, 3, 5, 7]);
        let b = Selection::from_sorted_rows(10, [3, 4, 5]);
        assert_eq!(a.and(&b).unwrap().to_rows(), vec![3, 5]);
        assert_eq!(a.or(&b).unwrap().to_rows(), vec![1, 3, 4, 5, 7]);
        assert_eq!(a.and_not(&b).unwrap().to_rows(), vec![1, 7]);
        assert_eq!(a.not().count(), 6);
    }

    #[test]
    fn mismatched_row_counts_error() {
        let a = Selection::all(10);
        let b = Selection::all(11);
        assert!(a.and(&b).is_err());
        assert!(a.check_rows(10).is_ok());
        assert!(a.check_rows(11).is_err());
    }

    #[test]
    fn gather_u64_collects_ids() {
        let ids: Vec<u64> = (100..110).collect();
        let s = Selection::from_sorted_rows(10, [0, 9]);
        assert_eq!(s.gather_u64(&ids), vec![100, 109]);
    }
}
