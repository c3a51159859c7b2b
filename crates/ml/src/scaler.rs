//! Per-column standardisation (zero mean, unit variance).
//!
//! The paper scales the *deviation-based* attributes before PCA because raw
//! property counts span very different ranges (§6.4.1). Time-based
//! attributes are already binary; scaling them is harmless (they become two
//! centred values), so the scaler is applied uniformly unless the caller
//! restricts it to a column subset.

use crate::error::MlError;
use crate::matrix::{Matrix, RowGroups};
use serde::{Deserialize, Serialize};

/// Fitted per-column standardiser: `x -> (x - mean) / std`.
///
/// Columns with zero variance are passed through centred only (divided by 1
/// instead of 0), matching scikit-learn's behaviour.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StandardScaler {
    means: Vec<f64>,
    scales: Vec<f64>,
}

impl StandardScaler {
    /// Fits the scaler on the columns of `x`.
    ///
    /// Rejects non-finite training cells: a single NaN or infinity would
    /// otherwise produce a non-finite column mean/std and silently poison
    /// every value that column ever scales. The zero-variance guard also
    /// requires a *finite* positive std — a NaN std must fall into the
    /// pass-through (divide by 1) branch, never be divided by.
    pub fn fit(x: &Matrix) -> Result<Self, MlError> {
        Self::fit_grouped(&RowGroups::of(x))
    }

    /// [`StandardScaler::fit`] on the rows `groups` partitions. The
    /// finiteness check is a function of one row and runs per group; the
    /// means and deviations are sums taken once per group, weighted by
    /// its row count.
    pub fn fit_grouped(groups: &RowGroups) -> Result<Self, MlError> {
        // Groups are numbered by first row, so the first group holding a
        // non-finite cell holds the first row that does.
        for (g, row) in groups.distinct().iter_rows().enumerate() {
            if let Some(col) = row.iter().position(|v| !v.is_finite()) {
                let first = groups.group_of().iter().position(|&o| o == g);
                return Err(MlError::NonFiniteInput {
                    row: first.expect("every group has a row"),
                    col,
                });
            }
        }
        let means = groups.col_means();
        let scales = groups
            .col_stds()
            .into_iter()
            .map(|s| if s.is_finite() && s > 0.0 { s } else { 1.0 })
            .collect();
        Ok(Self { means, scales })
    }

    /// Fits on `x` and transforms it in one step.
    pub fn fit_transform(x: &Matrix) -> Result<(Self, Matrix), MlError> {
        let s = Self::fit(x)?;
        let t = s
            .transform(x)
            .expect("fit/transform dimensions match by construction");
        Ok((s, t))
    }

    /// Number of columns the scaler was fitted on.
    pub fn n_features(&self) -> usize {
        self.means.len()
    }

    /// Per-column means captured at fit time.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Per-column scales captured at fit time (1.0 for constant columns).
    pub fn scales(&self) -> &[f64] {
        &self.scales
    }

    /// Applies the fitted transform to a new matrix.
    pub fn transform(&self, x: &Matrix) -> Result<Matrix, MlError> {
        if x.cols() != self.means.len() {
            return Err(MlError::DimensionMismatch {
                got: x.cols(),
                expected: self.means.len(),
                what: "columns",
            });
        }
        let mut out = x.clone();
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            for ((v, &m), &s) in row.iter_mut().zip(&self.means).zip(&self.scales) {
                *v = (*v - m) / s;
            }
        }
        Ok(out)
    }

    /// Applies the fitted transform to a single sample.
    pub fn transform_row(&self, row: &[f64]) -> Result<Vec<f64>, MlError> {
        if row.len() != self.means.len() {
            return Err(MlError::DimensionMismatch {
                got: row.len(),
                expected: self.means.len(),
                what: "row length",
            });
        }
        Ok(row
            .iter()
            .zip(&self.means)
            .zip(&self.scales)
            .map(|((&v, &m), &s)| (v - m) / s)
            .collect())
    }

    /// Neutralises the transform on the listed columns: they pass through
    /// unscaled and uncentred. The paper scales only its deviation-based
    /// attributes — "the time-based attributes were already in the binary
    /// format which was suitable" (§6.4.1) — and this is how that
    /// selective scaling is expressed.
    ///
    /// Out-of-range indices are ignored.
    pub fn neutralize_columns(&mut self, cols: &[usize]) {
        for &c in cols {
            if c < self.means.len() {
                self.means[c] = 0.0;
                self.scales[c] = 1.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The transform inverted, `v · scale + mean`: what the round-trip
    /// properties hold [`StandardScaler::transform_row`] to.
    fn inverse_transform_row(s: &StandardScaler, row: &[f64]) -> Vec<f64> {
        row.iter()
            .zip(s.means())
            .zip(s.scales())
            .map(|((&v, &m), &s)| v * s + m)
            .collect()
    }

    #[test]
    fn scaled_columns_have_zero_mean_unit_variance() {
        let x = Matrix::from_rows(&[
            vec![1.0, 100.0],
            vec![2.0, 200.0],
            vec![3.0, 300.0],
            vec![4.0, 400.0],
        ])
        .unwrap();
        let (_, t) = StandardScaler::fit_transform(&x).unwrap();
        let groups = RowGroups::of(&t);
        let (means, stds) = (groups.col_means(), groups.col_stds());
        for m in means {
            assert!(m.abs() < 1e-12);
        }
        for s in stds {
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_column_is_centred_not_divided() {
        let x = Matrix::from_rows(&[vec![5.0], vec![5.0], vec![5.0]]).unwrap();
        let (s, t) = StandardScaler::fit_transform(&x).unwrap();
        assert_eq!(s.scales(), &[1.0]);
        for r in t.iter_rows() {
            assert_eq!(r[0], 0.0);
        }
    }

    #[test]
    fn transform_rejects_wrong_width() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let s = StandardScaler::fit(&x).unwrap();
        let y = Matrix::from_rows(&[vec![1.0]]).unwrap();
        assert!(s.transform(&y).is_err());
        assert!(s.transform_row(&[1.0]).is_err());
    }

    #[test]
    fn transform_row_matches_matrix_transform() {
        let x = Matrix::from_rows(&[vec![1.0, 10.0], vec![3.0, 30.0]]).unwrap();
        let s = StandardScaler::fit(&x).unwrap();
        let t = s.transform(&x).unwrap();
        for (i, row) in x.iter_rows().enumerate() {
            assert_eq!(s.transform_row(row).unwrap(), t.row(i));
        }
    }

    #[test]
    fn non_finite_training_input_is_rejected_with_position() {
        for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, poison]]).unwrap();
            assert_eq!(
                StandardScaler::fit(&x),
                Err(MlError::NonFiniteInput { row: 1, col: 1 })
            );
            assert!(StandardScaler::fit_transform(&x).is_err());
            // Repeated rows: the position is the first row holding the
            // cell (row 2), not the number of its group (1).
            let x = Matrix::from_rows(&[
                vec![1.0, 2.0],
                vec![1.0, 2.0],
                vec![poison, 2.0],
                vec![poison, 2.0],
            ])
            .unwrap();
            assert_eq!(
                StandardScaler::fit(&x),
                Err(MlError::NonFiniteInput { row: 2, col: 0 })
            );
        }
    }

    #[test]
    fn overflowing_column_std_falls_back_to_pass_through() {
        // Finite cells whose variance overflows to +inf: the old
        // `s > 0.0` guard happily divided by the infinite std and zeroed
        // the column. The finite-guard must treat it like a constant
        // column instead (scale 1.0), keeping every scaled value finite.
        let x = Matrix::from_rows(&[vec![1e200], vec![-1e200], vec![1e200]]).unwrap();
        let s = StandardScaler::fit(&x).unwrap();
        assert_eq!(s.scales(), &[1.0]);
        let t = s.transform(&x).unwrap();
        for r in t.iter_rows() {
            assert!(r[0].is_finite(), "scaled value must stay finite");
        }
    }

    proptest! {
        #[test]
        fn prop_inverse_round_trips(
            vals in proptest::collection::vec(-1e4f64..1e4, 4..40)
        ) {
            let cols = 2;
            let rows = vals.len() / cols;
            let x = Matrix::from_vec(rows, cols, vals[..rows * cols].to_vec()).unwrap();
            let s = StandardScaler::fit(&x).unwrap();
            for row in x.iter_rows() {
                let fwd = s.transform_row(row).unwrap();
                let back = inverse_transform_row(&s, &fwd);
                for (a, b) in back.iter().zip(row) {
                    prop_assert!((a - b).abs() < 1e-6);
                }
            }
        }

        #[test]
        fn prop_inverse_round_trips_with_neutralized_columns(
            vals in proptest::collection::vec(-1e4f64..1e4, 6..60),
            neutral in 0usize..3
        ) {
            // Neutralised columns become the identity transform, so the
            // round trip must stay exact-ish on them too.
            let cols = 3;
            let rows = vals.len() / cols;
            let x = Matrix::from_vec(rows, cols, vals[..rows * cols].to_vec()).unwrap();
            let mut s = StandardScaler::fit(&x).unwrap();
            s.neutralize_columns(&[neutral, 99]); // out-of-range is ignored
            prop_assert_eq!(s.means()[neutral], 0.0);
            prop_assert_eq!(s.scales()[neutral], 1.0);
            for row in x.iter_rows() {
                let fwd = s.transform_row(row).unwrap();
                // The neutralised column passes through untouched.
                prop_assert_eq!(fwd[neutral].to_bits(), row[neutral].to_bits());
                let back = inverse_transform_row(&s, &fwd);
                for (a, b) in back.iter().zip(row) {
                    prop_assert!((a - b).abs() < 1e-6);
                }
            }
        }

        #[test]
        fn prop_transform_then_inverse_on_unseen_rows(
            vals in proptest::collection::vec(-1e3f64..1e3, 8..40),
            probe in proptest::collection::vec(-1e6f64..1e6, 2..3)
        ) {
            // The inverse must hold for rows the scaler never saw at fit
            // time, including values far outside the training range.
            let cols = 2;
            let rows = vals.len() / cols;
            let x = Matrix::from_vec(rows, cols, vals[..rows * cols].to_vec()).unwrap();
            let s = StandardScaler::fit(&x).unwrap();
            let mut probe = probe;
            probe.resize(cols, 0.0);
            let fwd = s.transform_row(&probe).unwrap();
            let back = inverse_transform_row(&s, &fwd);
            for (a, b) in back.iter().zip(&probe) {
                prop_assert!((a - b).abs() < 1e-6 * b.abs().max(1.0));
            }
        }
    }
}
