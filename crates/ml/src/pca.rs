//! Principal Component Analysis (§6.4.2, Figure 2).
//!
//! Fits on centred data via the covariance matrix's eigendecomposition.
//! `explained_variance_ratio` and [`Pca::cumulative_variance`] regenerate
//! the curve of the paper's Figure 2, where 7 components capture >98.5% of
//! the variance of the 28-feature dataset.

use crate::eigen::symmetric_eigen;
use crate::error::MlError;
use crate::matrix::{Matrix, RowGroups};
use serde::{Deserialize, Serialize};

/// A fitted PCA transform.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Pca {
    /// Column means subtracted before projection.
    means: Vec<f64>,
    /// Projection matrix: one principal axis per *column*
    /// (`n_features x n_components`).
    components: Matrix,
    /// Eigenvalues of the retained components, descending.
    explained_variance: Vec<f64>,
    /// Fraction of total variance captured by each retained component.
    explained_variance_ratio: Vec<f64>,
}

impl Pca {
    /// Fits PCA on `x`, keeping `n_components` components.
    ///
    /// `n_components` must be in `1..=x.cols()`.
    pub fn fit(x: &Matrix, n_components: usize) -> Result<Self, MlError> {
        Self::fit_grouped(&RowGroups::of(x), n_components)
    }

    /// [`Pca::fit`] on the rows `groups` partitions: the means and the
    /// covariance are sums taken once per group, weighted by its row
    /// count, and the covariance centres each group's row once.
    pub fn fit_grouped(groups: &RowGroups, n_components: usize) -> Result<Self, MlError> {
        let cols = groups.distinct().cols();
        if n_components == 0 || n_components > cols {
            return Err(MlError::InvalidParameter {
                name: "n_components",
                reason: format!("must be in 1..={cols}, got {n_components}"),
            });
        }
        let means = groups.col_means();
        let cov = groups.covariance()?;
        let eig = symmetric_eigen(&cov)?;
        // Covariance eigenvalues are >= 0 up to round-off; clamp the noise.
        let values: Vec<f64> = eig.values.iter().map(|&v| v.max(0.0)).collect();
        let total: f64 = values.iter().sum();
        let ratios: Vec<f64> = if total > 0.0 {
            values.iter().map(|v| v / total).collect()
        } else {
            vec![0.0; values.len()]
        };

        let keep: Vec<usize> = (0..n_components).collect();
        let components = eig.vectors.select_columns(&keep)?;
        Ok(Self {
            means,
            components,
            explained_variance: values[..n_components].to_vec(),
            explained_variance_ratio: ratios[..n_components].to_vec(),
        })
    }

    /// Number of retained components.
    pub fn n_components(&self) -> usize {
        self.components.cols()
    }

    /// Number of input features expected by [`Pca::transform`].
    pub fn n_features(&self) -> usize {
        self.means.len()
    }

    /// Column means subtracted before projection.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Principal axes as columns (`n_features x n_components`).
    pub fn components(&self) -> &Matrix {
        &self.components
    }

    /// Variance (eigenvalue) captured per retained component, descending.
    pub fn explained_variance(&self) -> &[f64] {
        &self.explained_variance
    }

    /// Fraction of total variance captured per retained component.
    pub fn explained_variance_ratio(&self) -> &[f64] {
        &self.explained_variance_ratio
    }

    /// Cumulative explained-variance curve (the series plotted in Figure 2).
    pub fn cumulative_variance(&self) -> Vec<f64> {
        self.explained_variance_ratio
            .iter()
            .scan(0.0, |acc, &r| {
                *acc += r;
                Some(*acc)
            })
            .collect()
    }

    /// Projects a matrix into component space (`rows x n_components`).
    pub fn transform(&self, x: &Matrix) -> Result<Matrix, MlError> {
        if x.cols() != self.means.len() {
            return Err(MlError::DimensionMismatch {
                got: x.cols(),
                expected: self.means.len(),
                what: "columns",
            });
        }
        let mut centred = x.clone();
        for r in 0..centred.rows() {
            let row = centred.row_mut(r);
            for (v, &m) in row.iter_mut().zip(&self.means) {
                *v -= m;
            }
        }
        centred.matmul(&self.components)
    }

    /// Projects a single sample.
    pub fn transform_row(&self, row: &[f64]) -> Result<Vec<f64>, MlError> {
        if row.len() != self.means.len() {
            return Err(MlError::DimensionMismatch {
                got: row.len(),
                expected: self.means.len(),
                what: "row length",
            });
        }
        let centred: Vec<f64> = row.iter().zip(&self.means).map(|(&v, &m)| v - m).collect();
        let mut out = vec![0.0; self.components.cols()];
        for (i, &c) in centred.iter().enumerate() {
            if c == 0.0 {
                continue;
            }
            for (j, o) in out.iter_mut().enumerate() {
                *o += c * self.components[(i, j)];
            }
        }
        Ok(out)
    }

    /// Computes the full explained-variance-ratio spectrum of `x` without
    /// retaining a transform — the cheap way to draw Figure 2 for every
    /// candidate component count at once.
    pub fn variance_spectrum(x: &Matrix) -> Result<Vec<f64>, MlError> {
        let cov = x.covariance()?;
        let eig = symmetric_eigen(&cov)?;
        let values: Vec<f64> = eig.values.iter().map(|&v| v.max(0.0)).collect();
        let total: f64 = values.iter().sum();
        if total == 0.0 {
            return Ok(vec![0.0; values.len()]);
        }
        Ok(values.iter().map(|v| v / total).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Maps a point in component space back to feature space,
    /// `x̂ = components · z + means`: the least-squares reconstruction,
    /// which recovers a [`Pca::transform_row`] input exactly only at full
    /// rank.
    fn inverse_transform_row(pca: &Pca, z: &[f64]) -> Vec<f64> {
        let mut out = pca.means().to_vec();
        for (o, axis) in out.iter_mut().zip(pca.components().iter_rows()) {
            for (&a, &zj) in axis.iter().zip(z) {
                *o += a * zj;
            }
        }
        out
    }

    /// Builds a 2-D dataset stretched along the (1,1) diagonal with small
    /// orthogonal noise, so the first principal axis is known.
    fn diagonal_cloud() -> Matrix {
        let mut rows = Vec::new();
        for i in 0..40 {
            let t = i as f64 - 20.0;
            let noise = if i % 2 == 0 { 0.1 } else { -0.1 };
            rows.push(vec![t + noise, t - noise]);
        }
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn first_component_captures_dominant_axis() {
        let x = diagonal_cloud();
        let pca = Pca::fit(&x, 2).unwrap();
        let r = pca.explained_variance_ratio();
        assert!(r[0] > 0.99, "first component should dominate, got {}", r[0]);
        let cum = pca.cumulative_variance();
        assert!((cum[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn transform_projects_onto_diagonal() {
        let x = diagonal_cloud();
        let pca = Pca::fit(&x, 1).unwrap();
        let t = pca.transform(&x).unwrap();
        assert_eq!(t.cols(), 1);
        // Projection of (t, t) onto the unit diagonal has magnitude |t|*sqrt(2);
        // the first sample sits at t = -20 and the cloud mean at t = -0.5.
        let first = t[(0, 0)].abs();
        assert!((first - 19.5 * std::f64::consts::SQRT_2).abs() < 0.5);
    }

    #[test]
    fn invalid_component_counts_rejected() {
        let x = diagonal_cloud();
        assert!(Pca::fit(&x, 0).is_err());
        assert!(Pca::fit(&x, 3).is_err());
    }

    #[test]
    fn transform_row_matches_matrix_transform() {
        let x = diagonal_cloud();
        let pca = Pca::fit(&x, 2).unwrap();
        let t = pca.transform(&x).unwrap();
        for (i, row) in x.iter_rows().enumerate() {
            let tr = pca.transform_row(row).unwrap();
            for (a, b) in tr.iter().zip(t.row(i)) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn full_rank_inverse_transform_round_trips() {
        let x = diagonal_cloud();
        let pca = Pca::fit(&x, 2).unwrap();
        for row in x.iter_rows() {
            let z = pca.transform_row(row).unwrap();
            let back = inverse_transform_row(&pca, &z);
            for (a, b) in row.iter().zip(&back) {
                assert!((a - b).abs() < 1e-9, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn variance_spectrum_sums_to_one() {
        let x = diagonal_cloud();
        let spec = Pca::variance_spectrum(&x).unwrap();
        let sum: f64 = spec.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn constant_data_yields_zero_spectrum() {
        let x = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0], vec![1.0, 1.0]]).unwrap();
        let spec = Pca::variance_spectrum(&x).unwrap();
        assert!(spec.iter().all(|&v| v == 0.0));
    }

    proptest! {
        #[test]
        fn prop_cumulative_variance_monotone_and_bounded(
            seed in any::<u64>(), rows in 5usize..30
        ) {
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 1000) as f64 / 10.0
            };
            let data: Vec<Vec<f64>> = (0..rows)
                .map(|_| vec![next(), next(), next(), next()])
                .collect();
            let x = Matrix::from_rows(&data).unwrap();
            let pca = Pca::fit(&x, 4).unwrap();
            let cum = pca.cumulative_variance();
            for w in cum.windows(2) {
                prop_assert!(w[1] >= w[0] - 1e-12);
            }
            prop_assert!(cum.last().copied().unwrap_or(0.0) <= 1.0 + 1e-9);
        }

        #[test]
        fn prop_reconstruction_error_monotone_in_component_count(
            seed in any::<u64>()
        ) {
            // Retaining more principal components can only explain more
            // variance, so the total squared reconstruction error must be
            // non-increasing as the component count grows.
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 1000) as f64 / 10.0
            };
            let data: Vec<Vec<f64>> = (0..30)
                .map(|_| vec![next(), next(), next(), next()])
                .collect();
            let x = Matrix::from_rows(&data).unwrap();
            let mut prev = f64::INFINITY;
            for n in 1..=4usize {
                let pca = Pca::fit(&x, n).unwrap();
                let err: f64 = x.iter_rows().map(|row| {
                    let z = pca.transform_row(row).unwrap();
                    let back = inverse_transform_row(&pca, &z);
                    Matrix::sq_dist(row, &back)
                }).sum();
                prop_assert!(
                    err <= prev + 1e-6,
                    "reconstruction error rose at n={}: {} -> {}", n, prev, err
                );
                prev = err;
            }
            // Full rank reconstructs exactly (up to round-off).
            prop_assert!(prev < 1e-6);
        }

        #[test]
        fn prop_projection_preserves_total_variance_with_full_rank(
            seed in any::<u64>()
        ) {
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 1000) as f64 / 10.0
            };
            let data: Vec<Vec<f64>> = (0..25).map(|_| vec![next(), next(), next()]).collect();
            let x = Matrix::from_rows(&data).unwrap();
            let pca = Pca::fit(&x, 3).unwrap();
            let t = pca.transform(&x).unwrap();
            let orig_var: f64 = x.covariance().unwrap().as_slice().iter().enumerate()
                .filter(|(i, _)| i % 4 == 0) // diagonal of a 3x3
                .map(|(_, &v)| v).sum();
            let proj_var: f64 = t.covariance().unwrap().as_slice().iter().enumerate()
                .filter(|(i, _)| i % 4 == 0)
                .map(|(_, &v)| v).sum();
            prop_assert!((orig_var - proj_var).abs() < 1e-6 * orig_var.max(1.0));
        }
    }
}
