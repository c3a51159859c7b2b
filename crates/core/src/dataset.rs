//! Training data: fingerprints paired with their claimed user-agents.

use crate::error::PolygraphError;
use browser_engine::UserAgent;
use polygraph_ml::{Matrix, RowGroups};

/// A labelled fingerprint dataset.
///
/// The paper's training data is exactly this shape: 205k rows of 513 (or,
/// post-pre-processing, 28) integer outputs, each with the
/// `navigator.userAgent` it arrived with (§6.2). Session identifiers are
/// deliberately *not* part of the training set — the model never sees
/// anything user-linked.
#[derive(Debug, Clone)]
pub struct TrainingSet {
    rows: Vec<Vec<f64>>,
    user_agents: Vec<UserAgent>,
    width: usize,
}

impl TrainingSet {
    /// Creates an empty set expecting `width`-feature rows.
    pub fn new(width: usize) -> Self {
        Self {
            rows: Vec::new(),
            user_agents: Vec::new(),
            width,
        }
    }

    /// Builds a set from parallel vectors.
    pub fn from_rows(
        rows: Vec<Vec<f64>>,
        user_agents: Vec<UserAgent>,
    ) -> Result<Self, PolygraphError> {
        if rows.is_empty() {
            return Err(PolygraphError::BadTrainingSet("no rows".into()));
        }
        if rows.len() != user_agents.len() {
            return Err(PolygraphError::BadTrainingSet(format!(
                "{} rows but {} user-agents",
                rows.len(),
                user_agents.len()
            )));
        }
        let width = rows[0].len();
        let mut set = Self::new(width);
        for (row, ua) in rows.into_iter().zip(user_agents) {
            set.push(row, ua)?;
        }
        Ok(set)
    }

    /// Appends one observation.
    pub fn push(&mut self, row: Vec<f64>, ua: UserAgent) -> Result<(), PolygraphError> {
        if row.len() != self.width {
            return Err(PolygraphError::FeatureWidthMismatch {
                got: row.len(),
                expected: self.width,
            });
        }
        self.rows.push(row);
        self.user_agents.push(ua);
        Ok(())
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the set holds no observations.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Feature width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The feature rows.
    pub fn rows(&self) -> &[Vec<f64>] {
        &self.rows
    }

    /// The user-agents, parallel to [`TrainingSet::rows`].
    pub fn user_agents(&self) -> &[UserAgent] {
        &self.user_agents
    }

    /// Number of distinct user-agents (the paper's "113 different browser
    /// releases").
    pub fn distinct_user_agents(&self) -> usize {
        let mut uas: Vec<&UserAgent> = self.user_agents.iter().collect();
        uas.sort();
        uas.dedup();
        uas.len()
    }

    /// Number of distinct feature rows, compared by bit pattern — the
    /// groups of the [`RowGroups`] partition a fit or a streaming refit
    /// evaluates its per-row kernels on. Coarse-grained
    /// fingerprints collide by design: the paper-scale window of 205 000
    /// simulated sessions holds a few hundred.
    pub fn distinct_rows(&self) -> usize {
        RowGroups::of_rows(&self.rows).map_or(0, |groups| groups.distinct().rows())
    }

    /// The features as a matrix.
    pub fn to_matrix(&self) -> Result<Matrix, PolygraphError> {
        Matrix::from_rows(&self.rows).map_err(Into::into)
    }

    /// A copy with only the rows whose index satisfies `keep` — used to
    /// drop Isolation-Forest outliers before the final fit.
    pub fn filtered(&self, keep: impl Fn(usize) -> bool) -> TrainingSet {
        let mut out = TrainingSet::new(self.width);
        for (i, (row, ua)) in self.rows.iter().zip(&self.user_agents).enumerate() {
            if keep(i) {
                out.rows.push(row.clone());
                out.user_agents.push(*ua);
            }
        }
        out
    }

    /// A copy keeping only the listed feature columns, in order.
    pub fn select_columns(&self, cols: &[usize]) -> Result<TrainingSet, PolygraphError> {
        if cols.iter().any(|&c| c >= self.width) {
            return Err(PolygraphError::BadTrainingSet(
                "column index out of range".into(),
            ));
        }
        let mut out = TrainingSet::new(cols.len());
        for (row, ua) in self.rows.iter().zip(&self.user_agents) {
            out.rows.push(cols.iter().map(|&c| row[c]).collect());
            out.user_agents.push(*ua);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use browser_engine::Vendor;

    fn ua(v: u32) -> UserAgent {
        UserAgent::new(Vendor::Chrome, v)
    }

    #[test]
    fn construction_validates_shape() {
        assert!(TrainingSet::from_rows(vec![], vec![]).is_err());
        assert!(TrainingSet::from_rows(vec![vec![1.0]], vec![]).is_err());
        let mut set = TrainingSet::new(2);
        assert!(set.push(vec![1.0], ua(100)).is_err());
        assert!(set.push(vec![1.0, 2.0], ua(100)).is_ok());
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn distinct_user_agents_counts_unique() {
        let set = TrainingSet::from_rows(
            vec![vec![1.0], vec![2.0], vec![3.0]],
            vec![ua(100), ua(100), ua(101)],
        )
        .unwrap();
        assert_eq!(set.distinct_user_agents(), 2);
    }

    #[test]
    fn distinct_rows_counts_bit_patterns() {
        let set = TrainingSet::from_rows(
            vec![
                vec![1.0, 2.0],
                vec![1.0, 3.0],
                vec![1.0, 2.0],
                vec![0.0, 2.0],
                vec![-0.0, 2.0],
                vec![1.0, 3.0],
            ],
            vec![ua(100); 6],
        )
        .unwrap();
        // Two pairs repeat; `0.0` and `-0.0` are equal values, not equal rows.
        assert_eq!(set.distinct_rows(), 4);
    }

    #[test]
    fn filtered_drops_rows() {
        let set = TrainingSet::from_rows(
            vec![vec![1.0], vec![2.0], vec![3.0]],
            vec![ua(1), ua(2), ua(3)],
        )
        .unwrap();
        let f = set.filtered(|i| i != 1);
        assert_eq!(f.len(), 2);
        assert_eq!(f.user_agents()[1], ua(3));
    }

    #[test]
    fn select_columns_projects() {
        let set = TrainingSet::from_rows(
            vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]],
            vec![ua(1), ua(2)],
        )
        .unwrap();
        let s = set.select_columns(&[2, 0]).unwrap();
        assert_eq!(s.rows()[0], vec![3.0, 1.0]);
        assert!(set.select_columns(&[9]).is_err());
    }

    #[test]
    fn to_matrix_round_trips() {
        let set = TrainingSet::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]], vec![ua(1), ua(2)])
            .unwrap();
        let m = set.to_matrix().unwrap();
        assert_eq!(m.rows(), 2);
        assert_eq!(m[(1, 0)], 3.0);
    }
}
