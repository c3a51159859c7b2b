//! Dense row-major matrix with the column statistics the pipeline needs.
//!
//! This is intentionally a *small* matrix type: the Polygraph pipeline works
//! on datasets of a few hundred thousand rows by a few dozen columns, so a
//! contiguous `Vec<f64>` with straightforward loops is both simple and fast
//! enough. No BLAS, no SIMD tricks.

use crate::error::MlError;
use crate::memo::{mix_row, Memo, MEMO_SLOTS};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Rows per partial sum of the row reductions that fold a whole window
/// (the covariance, the k-means WCSS): each block of `ROW_CHUNK`
/// rows accumulates its own partial, and the partials are added in block
/// order. Floating-point addition is not associative, so this constant
/// fixes how those sums round — changing it, or summing in one flat loop,
/// changes a fitted model's bytes (`tests/kernel_bytes.rs`,
/// `tests/fit_bytes.rs`).
pub(crate) const ROW_CHUNK: usize = 1024;

/// A dense, row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix from a flat row-major buffer.
    ///
    /// Returns [`MlError::DimensionMismatch`] if `data.len() != rows * cols`
    /// and [`MlError::EmptyInput`] if either dimension is zero.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, MlError> {
        if rows == 0 || cols == 0 {
            return Err(MlError::EmptyInput);
        }
        if data.len() != rows * cols {
            return Err(MlError::DimensionMismatch {
                got: data.len(),
                expected: rows * cols,
                what: "buffer length",
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a matrix from a slice of equally-long rows.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, MlError> {
        let nrows = rows.len();
        if nrows == 0 {
            return Err(MlError::EmptyInput);
        }
        let ncols = rows[0].len();
        if ncols == 0 {
            return Err(MlError::EmptyInput);
        }
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            if r.len() != ncols {
                return Err(MlError::DimensionMismatch {
                    got: r.len(),
                    expected: ncols,
                    what: "row length",
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Self {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Creates an all-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Result<Self, MlError> {
        if rows == 0 || cols == 0 {
            return Err(MlError::EmptyInput);
        }
        Ok(Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        })
    }

    /// Creates the identity matrix of size `n`.
    pub fn identity(n: usize) -> Result<Self, MlError> {
        let mut m = Self::zeros(n, n)?;
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        Ok(m)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    ///
    /// # Panics
    /// Panics if `c >= self.cols()`.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(
            c < self.cols,
            "column index {c} out of bounds ({})",
            self.cols
        );
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// The underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Iterator over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols)
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix {
            rows: self.cols,
            cols: self.rows,
            data: vec![0.0; self.data.len()],
        };
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Matrix product `self * other`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix, MlError> {
        if self.cols != other.rows {
            return Err(MlError::DimensionMismatch {
                got: other.rows,
                expected: self.cols,
                what: "inner dimension",
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols)?;
        // (i,k)-(k,j) loop order keeps the inner loop contiguous in both
        // `other` and `out`.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let orow = other.row(k);
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(orow) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Per-column means.
    pub fn col_means(&self) -> Vec<f64> {
        col_means_of(self.cols, self.data.chunks_exact(self.cols))
    }

    /// Per-column population standard deviations.
    pub fn col_stds(&self) -> Vec<f64> {
        col_stds_of(self.cols, self.data.chunks_exact(self.cols))
    }

    /// Sample covariance matrix of the columns (divides by `n - 1`; by `n`
    /// when there is a single row): [`RowGroups::of`] the rows, then the
    /// covariance of the partition.
    pub fn covariance(&self) -> Result<Matrix, MlError> {
        RowGroups::of(self).covariance()
    }

    /// Returns a new matrix keeping only the listed columns, in order.
    pub fn select_columns(&self, cols: &[usize]) -> Result<Matrix, MlError> {
        if cols.is_empty() {
            return Err(MlError::EmptyInput);
        }
        for &c in cols {
            if c >= self.cols {
                return Err(MlError::DimensionMismatch {
                    got: c,
                    expected: self.cols,
                    what: "column index",
                });
            }
        }
        let mut data = Vec::with_capacity(self.rows * cols.len());
        for row in self.iter_rows() {
            for &c in cols {
                data.push(row[c]);
            }
        }
        Matrix::from_vec(self.rows, cols.len(), data)
    }

    /// Squared Euclidean distance between two equal-length slices.
    ///
    /// A free function on slices rather than rows so that callers holding
    /// plain vectors (e.g. centroids) can use it too.
    #[inline]
    pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }
}

/// The one body of the column means: every row added in the order given.
fn col_means_of<'a>(cols: usize, rows: impl Iterator<Item = &'a [f64]>) -> Vec<f64> {
    let mut means = vec![0.0; cols];
    let mut n = 0usize;
    for row in rows {
        n += 1;
        for (m, &v) in means.iter_mut().zip(row) {
            *m += v;
        }
    }
    for m in &mut means {
        *m /= n as f64;
    }
    means
}

/// The one body of the population standard deviations: the means, then
/// every row's squared deviation added in the order given.
fn col_stds_of<'a>(cols: usize, rows: impl Iterator<Item = &'a [f64]> + Clone) -> Vec<f64> {
    let means = col_means_of(cols, rows.clone());
    let mut vars = vec![0.0; cols];
    let mut n = 0usize;
    for row in rows {
        n += 1;
        for ((v, &x), &m) in vars.iter_mut().zip(row).zip(&means) {
            let d = x - m;
            *v += d * d;
        }
    }
    vars.iter().map(|v| (v / n as f64).sqrt()).collect()
}

/// The rows of a window partitioned by bit-identical content: the distinct
/// rows as a matrix of their own, and for every row the group it is in.
///
/// Coarse-grained fingerprints collide by design — a 205 000-session
/// training window holds a few hundred distinct rows — so a kernel that
/// evaluates a *pure function of one row* (a forest traversal, a
/// nearest-centroid search, a scaler or PCA transform) over the whole
/// window evaluates it once per group ([`RowGroups::map`], or a
/// matrix-wide transform of [`RowGroups::distinct`]) and lets every row
/// read its group's value.
///
/// That is the only thing a group may be used for. A *reduction over
/// rows* (a sum of distances, a centroid's mean, a sampling walk, a
/// learning-rate update) keeps its row order and its operand count and
/// merely looks each operand up by group: `n` additions of `v` and one
/// `n × v` round differently, and the fitted model is pinned byte for
/// byte (`tests/fit_bytes.rs`).
///
/// Identity is [`f64::to_bits`], never `==`: `0.0` and `-0.0` compare
/// equal yet `1.0 / x` tells them apart, and a NaN equals nothing, itself
/// included. Every row is interned once through a [`DistinctRows`]
/// table — a seedless memo in front of an ordered map, the map deciding
/// every id — so the partition is deterministic: group `g` is the `g`-th
/// distinct row in row order, and a repeated row costs one hash and one
/// bit comparison. [`RowGroups::of`] interns a matrix's rows;
/// [`RowGroups::from_table`] takes a window interned when it was
/// collected (a training set holds its rows so) and interns nothing.
///
/// The partition owns its distinct rows, so it outlives the window it was
/// taken from and can be *carried* through a pipeline of per-row stages:
/// [`RowGroups::with_distinct`] keeps `group_of` and swaps in each group's
/// transformed row. Rows that were equal stay equal under any function of
/// one row, so the carried partition is still a partition of the
/// transformed window (two groups may now hold equal rows; that costs a
/// repeated evaluation, never a wrong one). [`RowGroups::filter_rows`]
/// drops rows (the fit's outliers) and keeps groups numbered by first
/// row, so the full fit carries one partition from the raw window to the
/// cluster table.
#[derive(Debug)]
pub struct RowGroups {
    /// Row `g` is the content of group `g`.
    distinct: Matrix,
    /// Group of every row of the window.
    group_of: Vec<usize>,
}

/// The distinct rows of a sequence of rows, each kept once and numbered
/// in order of first appearance: the one interning body, behind
/// [`RowGroups`] and any table that holds each distinct row once (a
/// training set, a reservoir window).
///
/// Identity is [`f64::to_bits`], as for [`RowGroups`]. The source of
/// truth is an ordered map keyed by the bits; in front of it sits a
/// direct-mapped memo of ids whose slot a seedless mix of the bits picks
/// (four word lanes and a splitmix finaliser). A hit is guarded by an
/// exact bit comparison with the held row, so a slot shared by two rows
/// sends the other one to the map, which answers and takes the slot;
/// the ids are the map's either way, by first appearance. A window's few
/// hundred distinct rows mostly sit in slots of their own, so a repeat
/// costs one hash and one comparison. Rows crafted to share a slot
/// cost what the map alone cost — an O(log n) lookup, on a copy of the
/// bits in a buffer the table reuses — plus the hash, and only a row
/// never seen before allocates.
#[derive(Debug, Clone)]
pub struct DistinctRows {
    cols: usize,
    /// Id of every distinct row, keyed by its bits.
    ids: BTreeMap<Box<[u64]>, usize>,
    /// Id last interned in each slot of the row hash.
    memo: Memo,
    /// Row `id` is `data[id * cols..(id + 1) * cols]`.
    data: Vec<f64>,
    /// The probe's bits: scratch, overwritten by every lookup the memo
    /// misses.
    bits: Vec<u64>,
}

impl DistinctRows {
    /// An empty table of `cols`-wide rows.
    pub fn new(cols: usize) -> Self {
        Self::with_memo(cols, Memo::new(MEMO_SLOTS))
    }

    fn with_memo(cols: usize, memo: Memo) -> Self {
        Self {
            cols,
            ids: BTreeMap::new(),
            memo,
            data: Vec::new(),
            bits: Vec::with_capacity(cols),
        }
    }

    /// The id of `row`, adding it as the next id if it is new.
    ///
    /// # Panics
    /// Panics if `row` is not `cols` wide.
    pub fn intern(&mut self, row: &[f64]) -> usize {
        assert_eq!(row.len(), self.cols, "row width");
        let hash = mix_row(row);
        if let Some(id) = self.memo.get(hash) {
            if same_bits(self.row(id), row) {
                return id;
            }
        }
        self.bits.clear();
        self.bits.extend(row.iter().map(|v| v.to_bits()));
        let id = match self.ids.get(self.bits.as_slice()) {
            Some(&id) => id,
            None => {
                let id = self.ids.len();
                self.ids.insert(self.bits.as_slice().into(), id);
                self.data.extend_from_slice(row);
                id
            }
        };
        self.memo.set(hash, id);
        id
    }

    /// Width of every row.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Distinct rows held.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether no row is held.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The content of row `id`.
    ///
    /// # Panics
    /// Panics if `id >= self.len()`.
    #[inline]
    pub fn row(&self, id: usize) -> &[f64] {
        &self.data[id * self.cols..(id + 1) * self.cols]
    }

    /// Keeps the rows whose id `keep` marks and renumbers them in their
    /// old order; returns each old id's new id (`usize::MAX` for a dropped
    /// row).
    ///
    /// # Panics
    /// Panics unless `keep` has one entry per row.
    pub fn retain(&mut self, keep: &[bool]) -> Vec<usize> {
        assert_eq!(keep.len(), self.len(), "one keep flag per row");
        let cols = self.cols;
        let mut renumbered = vec![usize::MAX; keep.len()];
        let mut kept = 0;
        for (id, _) in keep.iter().enumerate().filter(|(_, &k)| k) {
            renumbered[id] = kept;
            self.data
                .copy_within(id * cols..(id + 1) * cols, kept * cols);
            kept += 1;
        }
        self.data.truncate(kept * cols);
        self.ids.retain(|_, id| {
            *id = renumbered[*id];
            *id != usize::MAX
        });
        self.memo.clear();
        renumbered
    }
}

/// Whether two equally wide rows are the same bits, word for word. The
/// words' differences are or-ed together, not compared one by one: with
/// no early exit the loop vectorises, which took an intern of a repeated
/// 28-word drift row from ≈60 to ≈40 ns (2 vCPUs).
#[inline]
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    let diff = a
        .iter()
        .zip(b)
        .fold(0, |diff, (x, y)| diff | (x.to_bits() ^ y.to_bits()));
    diff == 0
}

impl RowGroups {
    /// Partitions the rows of `x` in one pass over them.
    pub fn of(x: &Matrix) -> Self {
        let mut table = DistinctRows::new(x.cols());
        let group_of = x.iter_rows().map(|row| table.intern(row)).collect();
        let distinct = Matrix {
            rows: table.len(),
            cols: x.cols(),
            data: table.data,
        };
        Self { distinct, group_of }
    }

    /// The partition of a window already interned: row `r` of the window
    /// is `table.row(group_of[r])`. Nothing is interned again; the table's
    /// rows are copied once and the ids once.
    ///
    /// The ids must number the table's rows by first appearance and use
    /// every one of them — what interning the window row by row into an
    /// empty [`DistinctRows`] leaves — so the result is [`RowGroups::of`]
    /// the window, group for group. [`MlError::EmptyInput`] for no rows or
    /// zero-width rows, [`MlError::InvalidParameter`] for ids that break
    /// that numbering.
    pub fn from_table(table: &DistinctRows, group_of: &[usize]) -> Result<Self, MlError> {
        if group_of.is_empty() || table.cols == 0 {
            return Err(MlError::EmptyInput);
        }
        let mut next = 0;
        let numbered = group_of.iter().all(|&g| {
            if g == next {
                next += 1;
            }
            g < next
        });
        if !numbered || next != table.len() {
            return Err(MlError::InvalidParameter {
                name: "group_of",
                reason: format!(
                    "ids must number the table's {} rows by first appearance",
                    table.len()
                ),
            });
        }
        let distinct = Matrix::from_vec(table.len(), table.cols, table.data.clone())?;
        Ok(Self {
            distinct,
            group_of: group_of.to_vec(),
        })
    }

    /// The distinct rows: row `g` is the content of group `g`.
    pub fn distinct(&self) -> &Matrix {
        &self.distinct
    }

    /// Group of every row of the window.
    pub fn group_of(&self) -> &[usize] {
        &self.group_of
    }

    /// Rows in the partitioned window.
    pub fn rows(&self) -> usize {
        self.group_of.len()
    }

    /// Row `r` of the window, read from its group.
    ///
    /// # Panics
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        self.distinct.row(self.group_of[r])
    }

    /// The same partition over transformed rows: `distinct` holds, row for
    /// row, a pure per-row function of [`RowGroups::distinct`] (a scaler
    /// or PCA transform of it). [`MlError::DimensionMismatch`] unless it
    /// has one row per group.
    pub fn with_distinct(self, distinct: Matrix) -> Result<Self, MlError> {
        if distinct.rows() != self.distinct.rows() {
            return Err(MlError::DimensionMismatch {
                got: distinct.rows(),
                expected: self.distinct.rows(),
                what: "distinct rows",
            });
        }
        Ok(Self {
            distinct,
            group_of: self.group_of,
        })
    }

    /// Evaluates `f` on each group's row and returns the values in group
    /// order.
    pub fn map<T>(&self, f: impl Fn(&[f64]) -> T) -> Vec<T> {
        self.distinct.iter_rows().map(f).collect()
    }

    /// The partition of the rows whose index satisfies `keep`, in their
    /// order; [`MlError::EmptyInput`] if none does. A group left with no
    /// row is dropped, and the groups are renumbered by their first *kept*
    /// row, so the result is numbered exactly as [`RowGroups::of`] the
    /// kept rows would be — which is what lets a tie-break on the lowest
    /// group stand for one on the first row (`kmeans::farthest_point`).
    pub fn filter_rows(&self, keep: impl Fn(usize) -> bool) -> Result<Self, MlError> {
        let cols = self.distinct.cols();
        let mut renumbered = vec![usize::MAX; self.distinct.rows()];
        let mut data = Vec::new();
        let mut group_of = Vec::new();
        for (r, &g) in self.group_of.iter().enumerate() {
            if !keep(r) {
                continue;
            }
            if renumbered[g] == usize::MAX {
                renumbered[g] = data.len() / cols;
                data.extend_from_slice(self.distinct.row(g));
            }
            group_of.push(renumbered[g]);
        }
        let distinct = Matrix::from_vec(data.len() / cols, cols, data)?;
        Ok(Self { distinct, group_of })
    }

    /// Every row of the window, in row order, read from its group.
    fn rows_in_order(&self) -> impl Iterator<Item = &[f64]> + Clone {
        self.group_of.iter().map(|&g| self.distinct.row(g))
    }

    /// [`Matrix::col_means`] of the window's rows.
    pub(crate) fn col_means(&self) -> Vec<f64> {
        col_means_of(self.distinct.cols(), self.rows_in_order())
    }

    /// [`Matrix::col_stds`] of the window's rows.
    pub(crate) fn col_stds(&self) -> Vec<f64> {
        col_stds_of(self.distinct.cols(), self.rows_in_order())
    }

    /// [`Matrix::covariance`] of the window's rows — its one body.
    ///
    /// A row's centred value `row − means` is a pure function of the row,
    /// so each group's row is centred once. The sum of the centred
    /// products is a reduction and visits every row, in row order: each
    /// [`ROW_CHUNK`] block of rows accumulates its own upper-triangular
    /// partial, and the partials are added in block order.
    pub(crate) fn covariance(&self) -> Result<Matrix, MlError> {
        let cols = self.distinct.cols();
        let means = self.col_means();
        let mut centred = self.distinct.clone();
        for row in centred.data.chunks_exact_mut(cols) {
            for (v, &m) in row.iter_mut().zip(&means) {
                *v -= m;
            }
        }
        let n = self.rows();
        let denom = if n > 1 { (n - 1) as f64 } else { 1.0 };
        let mut cov = Matrix::zeros(cols, cols)?;
        let mut acc = vec![0.0f64; cols * cols];
        for block in self.group_of.chunks(ROW_CHUNK) {
            acc.fill(0.0);
            for &g in block {
                let d = centred.row(g);
                for (i, &di) in d.iter().enumerate() {
                    if di == 0.0 {
                        continue;
                    }
                    for (a, &dj) in acc[i * cols + i..(i + 1) * cols].iter_mut().zip(&d[i..]) {
                        *a += di * dj;
                    }
                }
            }
            for (c, a) in cov.data.iter_mut().zip(&acc) {
                *c += a;
            }
        }
        for i in 0..cols {
            for j in i..cols {
                cov[(i, j)] /= denom;
                cov[(j, i)] = cov[(i, j)];
            }
        }
        Ok(cov)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iforest::{IsolationForest, IsolationForestConfig};
    use crate::kmeans::{KMeans, KMeansConfig};
    use proptest::prelude::*;

    fn m(rows: &[&[f64]]) -> Matrix {
        Matrix::from_rows(&rows.iter().map(|r| r.to_vec()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn from_vec_validates_dimensions() {
        assert_eq!(Matrix::from_vec(0, 3, vec![]), Err(MlError::EmptyInput));
        assert_eq!(Matrix::from_vec(2, 0, vec![]), Err(MlError::EmptyInput));
        assert!(matches!(
            Matrix::from_vec(2, 2, vec![1.0; 3]),
            Err(MlError::DimensionMismatch { .. })
        ));
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let rows = vec![vec![1.0, 2.0], vec![3.0]];
        assert!(matches!(
            Matrix::from_rows(&rows),
            Err(MlError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn indexing_round_trips() {
        let mut a = Matrix::zeros(2, 3).unwrap();
        a[(1, 2)] = 5.0;
        assert_eq!(a[(1, 2)], 5.0);
        assert_eq!(a.row(1), &[0.0, 0.0, 5.0]);
        assert_eq!(a.col(2), vec![0.0, 5.0]);
    }

    #[test]
    fn transpose_involution() {
        let a = m(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t[(0, 1)], 4.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = m(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Matrix::identity(2).unwrap();
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = m(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = m(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, m(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_rejects_mismatched_inner_dimension() {
        let a = Matrix::zeros(2, 3).unwrap();
        let b = Matrix::zeros(2, 2).unwrap();
        assert!(matches!(
            a.matmul(&b),
            Err(MlError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn col_means_and_stds() {
        let a = m(&[&[1.0, 10.0], &[3.0, 10.0]]);
        assert_eq!(a.col_means(), vec![2.0, 10.0]);
        let stds = a.col_stds();
        assert!((stds[0] - 1.0).abs() < 1e-12);
        assert_eq!(stds[1], 0.0);
    }

    #[test]
    fn covariance_of_perfectly_correlated_columns() {
        // y = 2x => cov(x,y) = 2*var(x)
        let a = m(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        let cov = a.covariance().unwrap();
        assert!((cov[(0, 0)] - 1.0).abs() < 1e-12); // sample var of 1,2,3
        assert!((cov[(0, 1)] - 2.0).abs() < 1e-12);
        assert!((cov[(1, 1)] - 4.0).abs() < 1e-12);
        assert_eq!(cov[(0, 1)], cov[(1, 0)]);
    }

    #[test]
    fn select_columns_reorders() {
        let a = m(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let s = a.select_columns(&[2, 0]).unwrap();
        assert_eq!(s, m(&[&[3.0, 1.0], &[6.0, 4.0]]));
        assert!(s.select_columns(&[]).is_err());
        assert!(a.select_columns(&[3]).is_err());
    }

    #[test]
    fn sq_dist_basic() {
        assert_eq!(Matrix::sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(Matrix::sq_dist(&[1.0], &[1.0]), 0.0);
    }

    /// The invariants every `RowGroups` of `x` must satisfy, whatever `x`.
    fn assert_well_formed(g: &RowGroups, x: &Matrix) {
        assert_eq!(g.rows(), x.rows());
        assert_eq!(g.distinct().cols(), x.cols());
        let bits = |row: &[f64]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // Groups are numbered by first row: the first rows ascend, and no
        // two groups hold the same bits.
        let firsts: Vec<usize> = (0..g.distinct().rows())
            .map(|id| {
                g.group_of()
                    .iter()
                    .position(|&o| o == id)
                    .expect("a group has a row")
            })
            .collect();
        assert!(firsts.windows(2).all(|w| w[0] < w[1]), "{firsts:?}");
        let mut contents: Vec<Vec<u64>> = g.distinct().iter_rows().map(bits).collect();
        contents.sort();
        contents.dedup();
        assert_eq!(contents.len(), g.distinct().rows());
        for r in 0..x.rows() {
            assert_eq!(bits(g.row(r)), bits(x.row(r)), "row {r}");
        }
    }

    #[test]
    fn row_groups_number_distinct_rows_by_first_occurrence() {
        let (a, b, c): (&[f64], &[f64], &[f64]) = (&[1.0, 2.0], &[1.0, 3.0], &[0.5, 2.0]);
        let x = m(&[a, b, a, c, b, a]);
        let g = RowGroups::of(&x);
        assert_eq!(g.distinct(), &m(&[a, b, c]));
        assert_eq!(g.group_of(), &[0, 1, 0, 2, 1, 0]);
        assert_well_formed(&g, &x);
    }

    #[test]
    fn row_groups_of_equal_rows_and_of_distinct_rows() {
        let same = Matrix::from_rows(&vec![vec![4.0, 4.0]; 7]).unwrap();
        let g = RowGroups::of(&same);
        assert_eq!(g.distinct(), &m(&[&[4.0, 4.0]]));
        assert_eq!(g.group_of(), &[0; 7]);

        // The first column agrees everywhere: the order looks past it.
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![9.0, ((i * 7) % 40) as f64]).collect();
        let distinct = Matrix::from_rows(&rows).unwrap();
        let g = RowGroups::of(&distinct);
        assert_eq!(g.distinct(), &distinct);
        assert_eq!(g.group_of(), (0..40).collect::<Vec<_>>());
        assert_well_formed(&g, &distinct);
    }

    #[test]
    fn row_groups_compare_bits_not_values() {
        // `0.0 == -0.0`, and a NaN equals nothing, itself included: value
        // equality would merge the first pair and never group a NaN.
        let nan_a = f64::from_bits(0x7ff8_0000_0000_0001);
        let nan_b = f64::from_bits(0x7ff8_0000_0000_0002);
        let x = m(&[&[0.0], &[-0.0], &[nan_a], &[nan_b], &[nan_a], &[-0.0]]);
        let g = RowGroups::of(&x);
        assert_eq!(g.distinct().rows(), 4);
        assert_eq!(g.group_of(), &[0, 1, 2, 3, 2, 1]);
        assert_well_formed(&g, &x);
    }

    #[test]
    fn distinct_rows_retain_renumbers_in_id_order_and_keeps_interning() {
        let mut table = DistinctRows::new(2);
        let rows: [&[f64]; 4] = [&[1.0, 0.0], &[2.0, 0.0], &[3.0, -0.0], &[4.0, 0.0]];
        let ids: Vec<usize> = rows.iter().map(|r| table.intern(r)).collect();
        assert_eq!(ids, [0, 1, 2, 3]);
        assert_eq!(table.intern(&[2.0, 0.0]), 1, "a repeat keeps its id");
        assert_eq!(table.intern(&[3.0, 0.0]), 4, "-0.0 and 0.0 are two rows");

        let renumbered = table.retain(&[false, true, false, true, true]);
        assert_eq!(renumbered, [usize::MAX, 0, usize::MAX, 1, 2]);
        assert_eq!(table.len(), 3);
        assert_eq!(
            (table.row(0), table.row(1), table.row(2)),
            (&[2.0, 0.0][..], &[4.0, 0.0][..], &[3.0, 0.0][..])
        );
        // A kept row is found under its new id; a dropped one comes back
        // as the next id.
        assert_eq!(table.intern(&[4.0, 0.0]), 1);
        assert_eq!(table.intern(&[1.0, 0.0]), 3);
        assert_eq!(table.row(3), &[1.0, 0.0]);
    }

    /// The interning body before the memo: an ordered map from a row's
    /// bits to its id, ids by first appearance, `retain` renumbering the
    /// kept ids in their old order. `DistinctRows` must give its ids.
    #[derive(Default)]
    struct ReferenceInterner {
        ids: BTreeMap<Box<[u64]>, usize>,
    }

    impl ReferenceInterner {
        fn intern(&mut self, row: &[f64]) -> usize {
            let next = self.ids.len();
            *self.ids.entry(bits(row).into()).or_insert(next)
        }

        fn retain(&mut self, keep: &[bool]) -> Vec<usize> {
            let mut renumbered = vec![usize::MAX; keep.len()];
            let kept_ids = keep.iter().enumerate().filter(|(_, &k)| k);
            for (kept, (id, _)) in kept_ids.enumerate() {
                renumbered[id] = kept;
            }
            self.ids.retain(|_, id| {
                *id = renumbered[*id];
                *id != usize::MAX
            });
            renumbered
        }
    }

    /// The values rows are drawn from: few enough that rows repeat, with
    /// both zeros and two NaN payloads, which only the bits tell apart.
    const ALPHABET: [f64; 6] = [
        0.0,
        -0.0,
        1.0,
        2.5,
        f64::from_bits(0x7ff8_0000_0000_0001),
        f64::from_bits(0x7ff8_0000_0000_0002),
    ];

    /// Interns `picks` (three alphabet letters a row) into `table` and
    /// `reference` in three rounds with a `retain` between each, and
    /// asserts the two agree on every id, every renumbering and every
    /// held row.
    fn assert_interns_as_the_reference(mut table: DistinctRows, picks: &[usize], masks: &[bool]) {
        let mut reference = ReferenceInterner::default();
        let rows: Vec<Vec<f64>> = picks
            .chunks_exact(3)
            .map(|w| w.iter().map(|&p| ALPHABET[p % ALPHABET.len()]).collect())
            .collect();
        let rounds = rows.chunks(rows.len().div_ceil(3).max(1));
        for (round, batch) in rounds.enumerate() {
            for row in batch {
                assert_eq!(table.intern(row), reference.intern(row));
            }
            assert_eq!(table.len(), reference.ids.len());
            for (key, &id) in &reference.ids {
                assert_eq!(bits(table.row(id)), key.to_vec());
            }
            let keep: Vec<bool> = masks[round * 216..][..table.len()].to_vec();
            assert_eq!(table.retain(&keep), reference.retain(&keep));
        }
    }

    proptest! {
        /// `DistinctRows` numbers rows exactly as the ordered-map
        /// interner does, across `retain`s, whether its memo spreads rows
        /// over every slot or — the path a crafted stream forces — sends
        /// every row to one.
        #[test]
        fn prop_distinct_rows_intern_as_the_reference(
            picks in proptest::collection::vec(0usize..6, 3..900),
            masks in proptest::collection::vec(any::<bool>(), 648..649),
        ) {
            assert_interns_as_the_reference(DistinctRows::new(3), &picks, &masks);
            assert_interns_as_the_reference(DistinctRows::with_memo(3, Memo::new(1)), &picks, &masks);
        }
    }

    #[test]
    fn row_groups_from_a_table_equal_row_groups_of_the_matrix() {
        let rows = vec![
            vec![1.0, 2.0],
            vec![0.0, 2.0],
            vec![1.0, 2.0],
            vec![-0.0, 2.0],
            vec![0.0, 2.0],
        ];
        let x = Matrix::from_rows(&rows).unwrap();
        let mut table = DistinctRows::new(2);
        let ids: Vec<usize> = rows.iter().map(|r| table.intern(r)).collect();
        let (from_table, from_matrix) = (
            RowGroups::from_table(&table, &ids).unwrap(),
            RowGroups::of(&x),
        );
        assert_eq!(from_table.group_of(), &[0, 1, 0, 2, 1]);
        assert_eq!(from_table.group_of(), from_matrix.group_of());
        assert_eq!(from_table.distinct(), from_matrix.distinct());
        assert_well_formed(&from_table, &x);
    }

    #[test]
    fn row_groups_from_a_table_reject_empty_input_and_misnumbered_ids() {
        let mut table = DistinctRows::new(1);
        for v in [1.0, 2.0, 3.0] {
            table.intern(&[v]);
        }
        assert!(matches!(
            RowGroups::from_table(&table, &[]),
            Err(MlError::EmptyInput)
        ));
        let mut flat = DistinctRows::new(0);
        flat.intern(&[]);
        assert!(matches!(
            RowGroups::from_table(&flat, &[0, 0]),
            Err(MlError::EmptyInput)
        ));
        assert!(RowGroups::from_table(&table, &[0, 1, 0, 2]).is_ok());
        // Out of first-appearance order, past the table, or leaving a
        // table row unused: none is the partition `of` would give.
        for ids in [&[0, 2, 1][..], &[0, 2, 1, 2], &[0, 1, 2, 3], &[0, 1, 1]] {
            assert!(
                matches!(
                    RowGroups::from_table(&table, ids),
                    Err(MlError::InvalidParameter { .. })
                ),
                "{ids:?}"
            );
        }
    }

    #[test]
    fn row_groups_carry_their_partition_over_transformed_rows() {
        let x = m(&[&[1.0, 2.0], &[3.0, 4.0], &[1.0, 2.0]]);
        // A per-row function of the distinct rows: the sum of each.
        let carried = RowGroups::of(&x)
            .with_distinct(m(&[&[3.0], &[7.0]]))
            .unwrap();
        assert_eq!(carried.group_of(), &[0, 1, 0]);
        assert_eq!(carried.rows(), 3);
        assert_eq!(
            (carried.row(0), carried.row(1), carried.row(2)),
            (&[3.0][..], &[7.0][..], &[3.0][..])
        );
        // One row per group, or it is not the same partition.
        assert!(matches!(
            RowGroups::of(&x).with_distinct(m(&[&[3.0]])),
            Err(MlError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn filter_rows_keeps_matching() {
        let a = m(&[&[1.0], &[2.0], &[3.0]]);
        let g = RowGroups::of(&a);
        let f = g.filter_rows(|i| i != 1).unwrap();
        assert_eq!(f.distinct(), &m(&[&[1.0], &[3.0]]));
        assert_eq!(f.group_of(), &[0, 1]);
        let all = g.filter_rows(|_| true).unwrap();
        assert_eq!(
            (all.distinct(), all.group_of()),
            (g.distinct(), g.group_of())
        );
        assert!(matches!(g.filter_rows(|_| false), Err(MlError::EmptyInput)));
    }

    #[test]
    fn row_groups_filter_renumbers_by_first_kept_row() {
        // Group 0 (`a`) loses its first row and keeps a later one, behind
        // `b` and `c`'s first rows: it must move behind them, or the
        // lowest group would no longer hold the first row.
        let (a, b, c): (&[f64], &[f64], &[f64]) = (&[1.0, 2.0], &[1.0, 3.0], &[0.5, 2.0]);
        let x = m(&[a, b, c, a, b]);
        let f = RowGroups::of(&x).filter_rows(|i| i != 0).unwrap();
        assert_eq!(f.distinct(), &m(&[b, c, a]));
        assert_eq!(f.group_of(), &[0, 1, 2, 0]);
        assert_well_formed(&f, &m(&[b, c, a, b]));
        // A group every row of which is cut is gone.
        let f = RowGroups::of(&x).filter_rows(|i| i != 2).unwrap();
        assert_eq!(f.distinct(), &m(&[a, b]));
        assert_well_formed(&f, &m(&[a, b, a, b]));
    }

    #[test]
    fn row_groups_map_visits_one_row_per_group() {
        // Each row twice.
        let n = 50;
        let rows: Vec<Vec<f64>> = (0..2 * n).map(|i| vec![(i % n) as f64, 1.0]).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let g = RowGroups::of(&x);
        let expected: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
        assert_eq!(g.map(|row| row[0] + row[1]), expected);
    }

    /// The row-order bodies `Matrix` had before it shared them with
    /// `RowGroups`: column means, population deviations, and the
    /// covariance centring each row as it goes, one partial per
    /// [`ROW_CHUNK`] block, the partials added in block order.
    fn row_order_stats(rows: &[Vec<f64>]) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let (n, cols) = (rows.len(), rows[0].len());
        let mut means = vec![0.0; cols];
        for row in rows {
            for (m, &v) in means.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= n as f64;
        }
        let mut vars = vec![0.0; cols];
        for row in rows {
            for ((v, &x), &m) in vars.iter_mut().zip(row).zip(&means) {
                *v += (x - m) * (x - m);
            }
        }
        let stds = vars.iter().map(|v| (v / n as f64).sqrt()).collect();
        let mut cov = vec![0.0; cols * cols];
        for block in rows.chunks(ROW_CHUNK) {
            let mut acc = vec![0.0; cols * cols];
            for row in block {
                for i in 0..cols {
                    let di = row[i] - means[i];
                    if di == 0.0 {
                        continue;
                    }
                    for j in i..cols {
                        acc[i * cols + j] += di * (row[j] - means[j]);
                    }
                }
            }
            for (c, a) in cov.iter_mut().zip(&acc) {
                *c += a;
            }
        }
        let denom = if n > 1 { (n - 1) as f64 } else { 1.0 };
        for i in 0..cols {
            for j in i..cols {
                cov[i * cols + j] /= denom;
                cov[j * cols + i] = cov[i * cols + j];
            }
        }
        (means, stds, cov)
    }

    /// A per-row function that merges rows: `-v` and `v` in the first
    /// column become equal, so a carried partition may hold two groups
    /// with the same content.
    fn fold(row: &[f64]) -> Vec<f64> {
        let mut out: Vec<f64> = row.iter().map(|v| v * 1.75 - 0.3).collect();
        out[0] = row[0].abs();
        out
    }

    /// `rows`' partition cut by `keep` and carried through [`fold`],
    /// beside the kept rows folded one by one.
    fn carried(rows: &[Vec<f64>], keep: &[bool]) -> (RowGroups, Vec<Vec<f64>>) {
        let filtered = RowGroups::of(&Matrix::from_rows(rows).unwrap())
            .filter_rows(|i| keep[i])
            .unwrap();
        let kept: Vec<Vec<f64>> = rows
            .iter()
            .zip(keep)
            .filter(|(_, &k)| k)
            .map(|(r, _)| r.clone())
            .collect();
        assert_well_formed(&filtered, &Matrix::from_rows(&kept).unwrap());
        let folded: Vec<Vec<f64>> = filtered.distinct().iter_rows().map(fold).collect();
        let groups = filtered
            .with_distinct(Matrix::from_rows(&folded).unwrap())
            .unwrap();
        (groups, kept.iter().map(|r| fold(r)).collect())
    }

    /// Bits of a slice of floats.
    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        /// Filtered and carried partitions of duplicate-heavy windows —
        /// at most eight vectors, scattered over more than one
        /// [`ROW_CHUNK`] of rows, about one row in ten cut — are
        /// well-formed, and their column statistics are the row-order
        /// bodies' bits.
        #[test]
        fn prop_row_groups_carried_stats_equal_row_order_loops(
            vectors in proptest::collection::vec(
                proptest::collection::vec(-9.0f64..9.0, 3..4), 1..9),
            picks in proptest::collection::vec(0usize..8, 1025..2600),
            cuts in proptest::collection::vec(0u8..10, 2600..2601),
        ) {
            let rows: Vec<Vec<f64>> =
                picks.iter().map(|&p| vectors[p % vectors.len()].clone()).collect();
            let keep: Vec<bool> = cuts.iter().map(|&c| c != 0).collect();
            let (groups, folded) = carried(&rows, &keep);
            let (means, stds, cov) = row_order_stats(&folded);
            prop_assert_eq!(bits(&groups.col_means()), bits(&means));
            prop_assert_eq!(bits(&groups.col_stds()), bits(&stds));
            prop_assert_eq!(bits(groups.covariance().unwrap().as_slice()), bits(&cov));
            let matrix = Matrix::from_rows(&folded).unwrap();
            prop_assert_eq!(bits(&matrix.col_means()), bits(&means));
            prop_assert_eq!(bits(&matrix.col_stds()), bits(&stds));
            prop_assert_eq!(bits(matrix.covariance().unwrap().as_slice()), bits(&cov));
        }

        /// The grouped k-means and forest bodies on a filtered, carried
        /// partition against the `&Matrix` entry points on the filtered
        /// matrix, and the outlier cut against a stable sort of every row
        /// by descending score. One contamination cuts a single row, so
        /// whenever the top-scoring group has two rows the cut splits it.
        #[test]
        fn prop_row_groups_carried_kernels_equal_the_filtered_matrix(
            vectors in proptest::collection::vec(
                proptest::collection::vec(-9.0f64..9.0, 3..4), 1..9),
            picks in proptest::collection::vec(0usize..8, 1025..2600),
            cuts in proptest::collection::vec(0u8..10, 2600..2601),
            k in 1usize..7,
            contamination in 0.001f64..0.5,
            seed in any::<u64>(),
        ) {
            let rows: Vec<Vec<f64>> =
                picks.iter().map(|&p| vectors[p % vectors.len()].clone()).collect();
            let keep: Vec<bool> = cuts.iter().map(|&c| c != 0).collect();
            let (groups, folded) = carried(&rows, &keep);
            let x = Matrix::from_rows(&folded).unwrap();

            let cfg = KMeansConfig::new(k).with_seed(seed).with_n_init(2);
            let (grouped, plain) =
                (KMeans::fit_grouped(&groups, cfg).unwrap(), KMeans::fit(&x, cfg).unwrap());
            prop_assert_eq!(bits(grouped.centroids().as_slice()), bits(plain.centroids().as_slice()));
            prop_assert_eq!(grouped.wcss().to_bits(), plain.wcss().to_bits());
            prop_assert_eq!(grouped.iterations(), plain.iterations());

            let cfg = IsolationForestConfig { n_trees: 20, sample_size: 64, seed };
            let grouped = IsolationForest::fit_grouped(&groups, cfg).unwrap();
            let plain = IsolationForest::fit(&x, cfg).unwrap();
            let scores = plain.score(&x);
            prop_assert_eq!(bits(&grouped.score(&x)), bits(&scores));
            for c in [1.0 / x.rows() as f64, contamination] {
                let cut = grouped.outlier_indices_grouped(&groups, c).unwrap();
                prop_assert_eq!(&cut, &plain.outlier_indices(&x, c).unwrap());
                let n_out = ((x.rows() as f64 * c).round() as usize).max(1);
                let mut ranked: Vec<usize> = (0..x.rows()).collect();
                ranked.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap());
                let mut expected = ranked[..n_out].to_vec();
                expected.sort_unstable();
                prop_assert_eq!(cut, expected, "contamination {}", c);
            }
        }

        #[test]
        fn prop_row_groups_partition_survives_row_permutation(
            vectors in proptest::collection::vec(
                proptest::collection::vec(-4.0f64..4.0, 2..3), 1..7),
            picks in proptest::collection::vec(0usize..6, 1..60),
            keys in proptest::collection::vec(any::<u64>(), 60..61),
        ) {
            let rows: Vec<Vec<f64>> = picks
                .iter()
                .map(|&p| vectors[p % vectors.len()].clone())
                .collect();
            // `perm[i]` is the original row that lands at position `i`.
            let mut perm: Vec<usize> = (0..rows.len()).collect();
            perm.sort_by_key(|&i| keys[i]);
            let permuted: Vec<Vec<f64>> = perm.iter().map(|&i| rows[i].clone()).collect();
            let (x, y) = (
                Matrix::from_rows(&rows).unwrap(),
                Matrix::from_rows(&permuted).unwrap(),
            );
            let (gx, gy) = (RowGroups::of(&x), RowGroups::of(&y));
            assert_well_formed(&gx, &x);
            assert_well_formed(&gy, &y);
            // Same partition: the sets of original rows, as a sorted list.
            let members = |g: &RowGroups, original: &dyn Fn(usize) -> usize| {
                let mut sets = vec![Vec::new(); g.distinct().rows()];
                for (r, &id) in g.group_of().iter().enumerate() {
                    sets[id].push(original(r));
                }
                sets.iter_mut().for_each(|s| s.sort_unstable());
                sets.sort();
                sets
            };
            prop_assert_eq!(members(&gx, &|r| r), members(&gy, &|r| perm[r]));
        }

        #[test]
        fn prop_transpose_twice_is_identity(
            rows in 1usize..8, cols in 1usize..8, seed in any::<u64>()
        ) {
            let data: Vec<f64> = (0..rows * cols)
                .map(|i| ((seed.wrapping_add(i as u64).wrapping_mul(2654435761)) % 1000) as f64)
                .collect();
            let a = Matrix::from_vec(rows, cols, data).unwrap();
            prop_assert_eq!(a.transpose().transpose(), a);
        }

        #[test]
        fn prop_matmul_associative_with_identity(
            n in 1usize..6, vals in proptest::collection::vec(-100.0f64..100.0, 1..36)
        ) {
            let mut data = vals;
            data.resize(n * n, 1.0);
            let a = Matrix::from_vec(n, n, data).unwrap();
            let i = Matrix::identity(n).unwrap();
            prop_assert_eq!(a.matmul(&i).unwrap(), a.clone());
        }

        #[test]
        fn prop_covariance_is_symmetric_psd_diagonal(
            rows in 2usize..12, cols in 1usize..6,
            vals in proptest::collection::vec(-50.0f64..50.0, 2..72)
        ) {
            let mut data = vals;
            data.resize(rows * cols, 0.0);
            let a = Matrix::from_vec(rows, cols, data).unwrap();
            let cov = a.covariance().unwrap();
            for i in 0..cols {
                prop_assert!(cov[(i, i)] >= -1e-9, "diagonal must be non-negative");
                for j in 0..cols {
                    prop_assert!((cov[(i, j)] - cov[(j, i)]).abs() < 1e-9);
                }
            }
        }

        #[test]
        fn prop_sq_dist_nonnegative_and_zero_iff_equal(
            a in proptest::collection::vec(-1e3f64..1e3, 1..16)
        ) {
            prop_assert_eq!(Matrix::sq_dist(&a, &a), 0.0);
            let b: Vec<f64> = a.iter().map(|x| x + 1.0).collect();
            prop_assert!(Matrix::sq_dist(&a, &b) > 0.0);
        }
    }
}
