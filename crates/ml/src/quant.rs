//! Fused fixed-point inference: scaler + PCA folded into one integer
//! affine transform, with a certified branch-free centroid scan.
//!
//! The staged f64 serve path pays three passes per frame — standardise,
//! centre + project, then a distance scan — each walking its own arrays.
//! This module compiles a fitted `(StandardScaler, Pca, KMeans)` triple
//! into a single [`QuantModel`]:
//!
//! * the scaler and PCA collapse algebraically into one affine map
//!   `p_j = Σ_i x_i·w_ij + b_j` with `w_ij = C_ij / s_i` and
//!   `b_j = −Σ_i (m_i / s_i + pm_i)·C_ij`, so a frame is projected in a
//!   single fused pass;
//! * weights, biases, and centroids are quantised to fixed point
//!   (`round(v · 2^F)` as `i64`), so the fused projection runs in exact
//!   integer arithmetic — identical on every machine;
//! * the distance scan runs over the quantised grid in plain (FMA-free)
//!   IEEE f64 — also bit-identical on every machine — against a flat
//!   cluster-major centroid table, fusing scan and argmin into one
//!   branch-free, SIMD-friendly pass with a register-resident
//!   accumulator; its rounding is absorbed by the margin certificate.
//!
//! # Why decisions cannot flip
//!
//! Quantisation changes arithmetic, not decisions. Every compile-time
//! rounding error is bounded, and at predict time the scan computes the
//! best and second-best quantised-grid distances. The winner is accepted
//! only when the margin between them exceeds the total worst-case error
//! of *both* paths (fixed-point rounding and this scan's f64 rounding
//! here, floating-point accumulation in the staged path). Inside that
//! margin no bounded error can reorder
//! the two clusters, so the staged f64 path provably agrees. When the
//! margin is too small — or a frame's values fall outside the integer
//! fast-path domain — the caller is told to fall back to the staged
//! path for that frame ([`QuantModel::predict_row`] returns `None`).
//! Byte-identical verdict streams therefore hold by construction, not
//! by testing alone.

use crate::error::MlError;
use crate::kmeans::KMeans;
use crate::pca::Pca;
use crate::scaler::StandardScaler;

/// Fixed-point shift ceiling: `F ≤ 32` keeps quantised magnitudes far
/// inside the `2^58` accumulator budget for realistic models.
const MAX_SHIFT: u32 = 32;

/// Minimum acceptable shift. Below this the fixed-point grid is so
/// coarse that nearly every frame would fail its margin certificate and
/// fall back, making compilation pointless.
const MIN_SHIFT: u32 = 8;

/// Bit budget for any single quantised projection value or centroid
/// coordinate: the exact `i64` projection accumulator never exceeds
/// `2^58`, leaving five bits of sign/carry headroom.
const ACC_BITS: u32 = 58;

/// Component ceiling: keeps the distance-scan accumulation error term
/// (proportional to `n_components·u`) far below the certificate slop.
const MAX_COMPONENTS: usize = 64;

/// Per-coordinate input magnitude the shift selection plans for.
/// Fingerprint attributes are small property counts; `2^24` leaves four
/// orders of magnitude of headroom. Larger inputs still serve correctly
/// — the authoritative per-row [`QuantModel::x_limit`] check routes them
/// to the staged fallback.
const X_TARGET: f64 = (1u64 << 24) as f64;

/// A compiled model: one fixed-point affine transform plus a flat
/// centroid table (laid out as the `centroids_f` field says), with the
/// precomputed error bounds that make its decisions certifiable.
#[derive(Debug, Clone)]
pub struct QuantModel {
    n_features: usize,
    n_components: usize,
    k: usize,
    /// Fixed-point shift `F`: stored integers are `round(v · 2^F)`.
    shift: u32,
    /// Fused weights, component-major: `weights[j·n_features + i]`.
    weights: Vec<i64>,
    /// Fused bias per component.
    bias: Vec<i64>,
    /// Flat quantised centroid table in model units, one contiguous
    /// coordinate block per centroid: `centroids_f[c·n_components + j]`
    /// holds `round(v·2^F) as f64 · 2^-F`. Values snap to the same
    /// fixed-point grid as the projection; the i64→f64 conversion's
    /// rounding is covered by `conv_err`.
    centroids_f: Vec<f64>,
    /// Largest per-coordinate input the integer path accepts, derived
    /// from the *rounded* weights so overflow is impossible.
    x_limit: i64,
    x_limit_f: f64,
    /// `2^-F`, for converting integer projections back to model units.
    inv_scale: f64,
    /// `2^-(F+1)`: half a fixed-point ulp.
    half_ulp: f64,
    /// Per-unit-of-input projection error bound (see margin certificate).
    err_per_unit: f64,
    /// Input-independent projection error bound.
    err_const: f64,
    /// `sqrt(n_components)`, for lifting coordinate bounds to L2.
    sqrt_nc: f64,
    /// Relative floating-point slop coefficient covering the distance
    /// accumulation of *both* scans (the staged f64 path and this
    /// module's f64 scan over the quantised grid).
    fp_slop: f64,
    /// Per-coordinate absolute error of representing quantised-grid
    /// values in f64: `u/2 · max(|projection| bound, |centroid| max)`
    /// in model units. Exact below `2^53`; this covers the rest.
    conv_err: f64,
}

/// Reusable per-thread buffers for [`QuantModel::predict_row`], so the
/// batch drain allocates nothing per frame.
#[derive(Debug, Clone, Default)]
pub struct QuantScratch {
    x: Vec<i64>,
    proj: Vec<i64>,
    proj_f: Vec<f64>,
}

impl QuantModel {
    /// Compiles a fitted pipeline into the fused fixed-point form.
    ///
    /// Fails when the three stages disagree on dimensions, when the
    /// model is wider than [`MAX_COMPONENTS`], when any fused
    /// coefficient is non-finite, or when the magnitudes force the
    /// shift below [`MIN_SHIFT`].
    pub fn compile(scaler: &StandardScaler, pca: &Pca, kmeans: &KMeans) -> Result<Self, MlError> {
        let n = scaler.n_features();
        if pca.n_features() != n {
            return Err(MlError::DimensionMismatch {
                got: pca.n_features(),
                expected: n,
                what: "PCA input width",
            });
        }
        let nc = pca.n_components();
        if kmeans.centroids().cols() != nc {
            return Err(MlError::DimensionMismatch {
                got: kmeans.centroids().cols(),
                expected: nc,
                what: "centroid width",
            });
        }
        if nc > MAX_COMPONENTS {
            return Err(MlError::InvalidParameter {
                name: "n_components",
                reason: format!("must be <= {MAX_COMPONENTS} for certifiable distances, got {nc}"),
            });
        }
        let k = kmeans.k();

        // Fuse scaler + PCA: p_j = Σ_i x_i·w_ij + b_j.
        let sm = scaler.means();
        let ss = scaler.scales();
        let pm = pca.means();
        let comp = pca.components();
        let mut w = vec![0.0f64; nc * n];
        let mut b = vec![0.0f64; nc];
        for j in 0..nc {
            let mut bj = 0.0;
            for i in 0..n {
                let cij = comp[(i, j)];
                w[j * n + i] = cij / ss[i];
                bj += (sm[i] / ss[i] + pm[i]) * cij;
            }
            b[j] = -bj;
        }

        // Shift selection: the largest value either side of the affine
        // map can take must stay inside the 2^58 accumulator budget at
        // the planned per-coordinate input magnitude.
        let budget = (1u64 << ACC_BITS) as f64;
        let mut max_affine = 1.0f64;
        for j in 0..nc {
            let sw: f64 = w[j * n..(j + 1) * n].iter().map(|v| v.abs()).sum();
            max_affine = max_affine.max(sw * X_TARGET + b[j].abs());
        }
        let mut max_centroid = 1.0f64;
        for row in kmeans.centroids().iter_rows() {
            for &v in row {
                max_centroid = max_centroid.max(v.abs());
            }
        }
        if !(max_affine.is_finite() && max_centroid.is_finite()) {
            return Err(MlError::InvalidParameter {
                name: "model",
                reason: "fused coefficients are non-finite".into(),
            });
        }
        let f1 = (budget / max_affine).log2().floor();
        let f2 = (budget / max_centroid).log2().floor();
        let shift_f = f1.min(f2).min(f64::from(MAX_SHIFT));
        if shift_f.is_nan() || shift_f < f64::from(MIN_SHIFT) {
            return Err(MlError::InvalidParameter {
                name: "shift",
                reason: format!(
                    "model magnitudes leave only {shift_f} fractional bits; \
                     need at least {MIN_SHIFT}"
                ),
            });
        }
        let shift = shift_f as u32;
        let scale = (1u64 << shift) as f64;

        let quantize = |v: f64| (v * scale).round() as i64;
        let weights: Vec<i64> = w.iter().map(|&v| quantize(v)).collect();
        let bias: Vec<i64> = b.iter().map(|&v| quantize(v)).collect();
        // Flat centroid table, one contiguous coordinate block per
        // centroid: centroids[c·n_components + j].
        let mut centroids = vec![0i64; nc * k];
        for (c, row) in kmeans.centroids().iter_rows().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                centroids[c * nc + j] = quantize(v);
            }
        }

        // Authoritative input ceiling from the *rounded* integers: with
        // every |x_i| ≤ x_limit the projection accumulator provably
        // stays under 2^58, whatever the f64 estimates said.
        let max_bias = bias.iter().map(|v| v.unsigned_abs()).max().unwrap_or(0);
        let mut max_wsum: u128 = 1;
        for j in 0..nc {
            let sw: u128 = weights[j * n..(j + 1) * n]
                .iter()
                .map(|v| u128::from(v.unsigned_abs()))
                .sum();
            max_wsum = max_wsum.max(sw);
        }
        let headroom = u128::from((1u64 << ACC_BITS) - 1 - max_bias);
        let x_limit = (headroom / max_wsum).min(1u128 << 53) as i64;
        if x_limit < 1 {
            return Err(MlError::InvalidParameter {
                name: "x_limit",
                reason: "rounded weights leave no integer input headroom".into(),
            });
        }

        // Margin-certificate bounds. `a` dominates the relative error
        // of both paths' projections per unit of input mass; `d` the
        // input-independent part (means and PCA centring). The constant
        // 8·(n+4)·u generously covers the staged path's division,
        // subtraction, and n-term dot-product accumulation error as
        // well as the fused f64 pre-quantisation arithmetic.
        let u = 2f64.powi(-52);
        let c1 = 8.0 * (n as f64 + 4.0) * u;
        let mut a = 0.0f64;
        let mut d = 0.0f64;
        for j in 0..nc {
            let mut aj = 0.0;
            let mut dj = 0.0;
            for i in 0..n {
                let cij = comp[(i, j)].abs();
                aj += cij / ss[i];
                dj += (sm[i].abs() / ss[i] + pm[i].abs()) * cij;
            }
            a = a.max(aj);
            d = d.max(dj);
        }
        let half_ulp = 2f64.powi(-(shift as i32 + 1));
        // Quantised-weight rounding contributes ≤ half_ulp per unit of
        // input plus half_ulp for the bias; both paths' f64 error is
        // covered by the c1 terms.
        let err_per_unit = c1 * a + half_ulp;
        let err_const = c1 * d + half_ulp;

        let inv_scale = 1.0 / scale;
        let centroids_f: Vec<f64> = centroids.iter().map(|&v| v as f64 * inv_scale).collect();
        // Representing quantised values in f64 is exact below 2^53 but
        // the accumulator budget allows up to 2^58; u/2 of the largest
        // possible magnitude (projection bound or centroid max, in
        // model units) bounds the per-coordinate conversion error.
        let proj_bound = (1u64 << ACC_BITS) as f64 * inv_scale;
        let cent_bound = centroids_f.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        let conv_err = 0.5 * u * proj_bound.max(cent_bound);

        Ok(Self {
            n_features: n,
            n_components: nc,
            k,
            shift,
            weights,
            bias,
            centroids_f,
            x_limit,
            x_limit_f: x_limit as f64,
            inv_scale,
            half_ulp,
            err_per_unit,
            err_const,
            sqrt_nc: (nc as f64).sqrt(),
            // Covers the squared-distance accumulation of both scans:
            // the staged path's (≤ (n+nc+4)·u relative) and this
            // module's f64 scan over the quantised grid (≤ (nc+2)·u).
            fp_slop: 32.0 * (n as f64 + nc as f64 + 4.0) * u,
            conv_err,
        })
    }

    /// Input feature width the model expects.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Retained PCA components.
    pub fn n_components(&self) -> usize {
        self.n_components
    }

    /// Number of centroids.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Fixed-point shift `F` chosen at compile time.
    pub fn shift(&self) -> u32 {
        self.shift
    }

    /// Largest per-coordinate input value the integer fast path accepts.
    pub fn x_limit(&self) -> i64 {
        self.x_limit
    }

    /// Fresh scratch buffers sized for this model.
    pub fn scratch(&self) -> QuantScratch {
        QuantScratch {
            x: vec![0; self.n_features],
            proj: vec![0; self.n_components],
            proj_f: vec![0.0; self.n_components],
        }
    }

    /// Predicts the nearest centroid for one frame on the integer path.
    ///
    /// Returns `Ok(Some(cluster))` only when the margin certificate
    /// proves the staged f64 path would pick the same cluster.
    /// `Ok(None)` means the caller must fall back to the staged path
    /// for this frame: its values lie outside the integer domain
    /// (negative, fractional, or above [`QuantModel::x_limit`]), or the
    /// two nearest centroids are too close to certify.
    pub fn predict_row(
        &self,
        row: &[f64],
        scratch: &mut QuantScratch,
    ) -> Result<Option<usize>, MlError> {
        if row.len() != self.n_features {
            return Err(MlError::DimensionMismatch {
                got: row.len(),
                expected: self.n_features,
                what: "row length",
            });
        }
        scratch.x.resize(self.n_features, 0);
        scratch.proj.resize(self.n_components, 0);
        scratch.proj_f.resize(self.n_components, 0.0);

        // Integer-domain gate + input mass for the error bound. The
        // integrality test is a cast round-trip rather than `fract()`:
        // below `x_limit < 2^53` the `as i64` truncation is exact, so
        // the round-trip equals `v` iff `v` is an integer — and it
        // stays inline SIMD on baseline x86-64, where `fract()` lowers
        // to a libm call that would dominate this tiny kernel. The loop
        // is branch-free — one `ok` accumulator instead of per-element
        // early-outs — so it pipelines; out-of-domain values saturate
        // harmlessly (`as i64` is defined for NaN/∞) and are discarded
        // by the single check at the end. The row is converted once
        // here; the projection below reuses it.
        let mut sum_x = 0.0f64;
        let mut ok = true;
        for (xi, &v) in scratch.x.iter_mut().zip(row) {
            let iv = v as i64;
            ok &= v >= 0.0;
            ok &= v <= self.x_limit_f;
            ok &= iv as f64 == v;
            *xi = iv;
            sum_x += v;
        }
        if !ok {
            return Ok(None);
        }

        // Fused projection: exact i64 (bounded by the 2^58 budget),
        // then converted once to model units for the scan — `2^-F` is a
        // power of two so only the i64→f64 cast can round, which
        // `conv_err` covers.
        let n = self.n_features;
        for (j, (p, pf)) in scratch
            .proj
            .iter_mut()
            .zip(scratch.proj_f.iter_mut())
            .enumerate()
        {
            let mut acc = self.bias[j];
            for (wi, &xv) in self.weights[j * n..(j + 1) * n].iter().zip(&scratch.x) {
                acc += wi * xv;
            }
            *p = acc;
            *pf = acc as f64 * self.inv_scale;
        }

        // Distance scan + argmin fused into one pass over the flat
        // centroid table: each centroid's contiguous coordinate block
        // streams against the projection in plain IEEE f64 (no FMA —
        // bit-identical everywhere) with the accumulator living in
        // registers — no per-centroid distance buffer is ever written
        // back, and `chunks_exact` keeps the inner loop free of bounds
        // checks and lets it vectorise. Strict `<` keeps the lowest
        // index on ties, like the staged scan; the runner-up feeds the
        // margin certificate, which absorbs this scan's rounding.
        let mut best = 0usize;
        let mut d_best = f64::INFINITY;
        let mut d_second = f64::INFINITY;
        for (c, block) in self.centroids_f.chunks_exact(self.n_components).enumerate() {
            let mut acc = 0.0f64;
            for (&pj, &cq) in scratch.proj_f.iter().zip(block) {
                let diff = pj - cq;
                acc += diff * diff;
            }
            if acc < d_best {
                d_second = d_best;
                d_best = acc;
                best = c;
            } else if acc < d_second {
                d_second = acc;
            }
        }
        if self.k == 1 {
            // A single centroid cannot be reordered.
            return Ok(Some(0));
        }

        // Margin certificate, in model units. Each projected coordinate
        // of the two paths differs by at most e, each centroid
        // coordinate by half an ulp, and representing the quantised
        // grid in f64 adds conv_err per coordinate; so the two paths'
        // distances to any centroid differ by at most g (L2 lift).
        // fp_slop covers both scans' squared-distance accumulation. A
        // gap wider than both sides' worst case means no bounded error
        // can swap winner and runner-up.
        let d1 = d_best.sqrt();
        let d2 = d_second.sqrt();
        let e = self.err_per_unit * sum_x + self.err_const;
        let g = self.sqrt_nc * (e + self.half_ulp + 2.0 * self.conv_err);
        let slop = self.fp_slop * (d2 + g);
        if d2 - d1 > 2.0 * g + slop {
            Ok(Some(best))
        } else {
            Ok(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::KMeansConfig;
    use crate::matrix::Matrix;

    /// Builds a small fitted pipeline over integer-count-shaped data.
    fn fitted(rows: &[Vec<f64>], nc: usize, k: usize) -> (StandardScaler, Pca, KMeans) {
        let x = Matrix::from_rows(rows).unwrap();
        let (scaler, scaled) = StandardScaler::fit_transform(&x).unwrap();
        let pca = Pca::fit(&scaled, nc).unwrap();
        let projected = pca.transform(&scaled).unwrap();
        let kmeans = KMeans::fit(&projected, KMeansConfig::new(k)).unwrap();
        (scaler, pca, kmeans)
    }

    fn staged_predict(scaler: &StandardScaler, pca: &Pca, kmeans: &KMeans, row: &[f64]) -> usize {
        let s = scaler.transform_row(row).unwrap();
        let p = pca.transform_row(&s).unwrap();
        kmeans.predict_row(&p).unwrap()
    }

    fn grid_rows() -> Vec<Vec<f64>> {
        // Two well-separated integer blobs in 4 features.
        let mut rows = Vec::new();
        for a in 0..5 {
            for b in 0..5 {
                rows.push(vec![f64::from(a), f64::from(b), f64::from(a + b), 1.0]);
                rows.push(vec![
                    f64::from(a + 40),
                    f64::from(b + 40),
                    f64::from(a + b + 80),
                    7.0,
                ]);
            }
        }
        rows
    }

    #[test]
    fn certified_predictions_match_the_staged_path() {
        let rows = grid_rows();
        let (scaler, pca, kmeans) = fitted(&rows, 2, 2);
        let q = QuantModel::compile(&scaler, &pca, &kmeans).unwrap();
        let mut scratch = q.scratch();
        let mut certified = 0usize;
        for row in &rows {
            match q.predict_row(row, &mut scratch).unwrap() {
                Some(c) => {
                    certified += 1;
                    assert_eq!(c, staged_predict(&scaler, &pca, &kmeans, row));
                }
                None => {
                    // Fallback is always allowed; agreement is checked
                    // end to end by the detector proptest.
                }
            }
        }
        assert!(
            certified > rows.len() / 2,
            "well-separated blobs should mostly certify ({certified}/{})",
            rows.len()
        );
    }

    #[test]
    fn out_of_domain_rows_fall_back() {
        let rows = grid_rows();
        let (scaler, pca, kmeans) = fitted(&rows, 2, 2);
        let q = QuantModel::compile(&scaler, &pca, &kmeans).unwrap();
        let mut scratch = q.scratch();
        for bad in [
            vec![-1.0, 0.0, 0.0, 1.0],                     // negative
            vec![0.5, 0.0, 0.0, 1.0],                      // fractional
            vec![q.x_limit() as f64 * 2.0, 0.0, 0.0, 1.0], // too large
            vec![f64::NAN, 0.0, 0.0, 1.0],                 // non-finite
        ] {
            assert_eq!(q.predict_row(&bad, &mut scratch).unwrap(), None);
        }
    }

    #[test]
    fn single_centroid_always_certifies() {
        let rows = grid_rows();
        let (scaler, pca, kmeans) = fitted(&rows, 2, 1);
        let q = QuantModel::compile(&scaler, &pca, &kmeans).unwrap();
        let mut scratch = q.scratch();
        for row in &rows {
            assert_eq!(q.predict_row(row, &mut scratch).unwrap(), Some(0));
        }
    }

    #[test]
    fn width_mismatch_is_an_error_not_a_fallback() {
        let rows = grid_rows();
        let (scaler, pca, kmeans) = fitted(&rows, 2, 2);
        let q = QuantModel::compile(&scaler, &pca, &kmeans).unwrap();
        let mut scratch = q.scratch();
        assert!(matches!(
            q.predict_row(&[1.0, 2.0], &mut scratch),
            Err(MlError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn compile_rejects_dimension_disagreements() {
        let rows = grid_rows();
        let (scaler, pca, kmeans) = fitted(&rows, 2, 2);
        // A scaler fitted on a different width than the PCA.
        let narrow = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let other = StandardScaler::fit(&narrow).unwrap();
        assert!(QuantModel::compile(&other, &pca, &kmeans).is_err());
        // A k-means fitted in a different projection width.
        let projected = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]).unwrap();
        let wrong_k = KMeans::fit(&projected, KMeansConfig::new(1)).unwrap();
        assert!(QuantModel::compile(&scaler, &pca, &wrong_k).is_err());
    }

    #[test]
    fn shift_stays_in_the_planned_window() {
        let rows = grid_rows();
        let (scaler, pca, kmeans) = fitted(&rows, 2, 2);
        let q = QuantModel::compile(&scaler, &pca, &kmeans).unwrap();
        assert!(q.shift() >= MIN_SHIFT && q.shift() <= MAX_SHIFT);
        assert!(q.x_limit() >= 1 << 20, "count-scale inputs must qualify");
    }

    #[test]
    fn zero_variance_columns_survive_compilation() {
        // Constant columns get scale 1.0 from the scaler; the fused
        // weights must stay finite and the model must still certify.
        let mut rows = grid_rows();
        for r in &mut rows {
            r.push(3.0); // constant extra column
        }
        let (scaler, pca, kmeans) = fitted(&rows, 2, 2);
        let q = QuantModel::compile(&scaler, &pca, &kmeans).unwrap();
        let mut scratch = q.scratch();
        let mut agree = 0usize;
        for row in &rows {
            if let Some(c) = q.predict_row(row, &mut scratch).unwrap() {
                assert_eq!(c, staged_predict(&scaler, &pca, &kmeans, row));
                agree += 1;
            }
        }
        assert!(agree > 0);
    }
}
