//! Training data: fingerprints paired with their claimed user-agents.

use crate::error::PolygraphError;
use browser_engine::UserAgent;
use polygraph_ml::{DistinctRows, Matrix, RowGroups};
use std::fmt;
use std::ops::Index;

/// A labelled fingerprint dataset, held as its own partition by distinct
/// row.
///
/// The paper's training data is exactly this shape: 205k rows of 513 (or,
/// post-pre-processing, 28) integer outputs, each with the
/// `navigator.userAgent` it arrived with (§6.2). Session identifiers are
/// deliberately *not* part of the training set — the model never sees
/// anything user-linked.
///
/// Coarse fingerprints collide by design: the 205 000-session training
/// window holds a few hundred distinct rows, the 50 000-session drift
/// window 355–391. So the set keeps each distinct row once, in a
/// [`DistinctRows`] table numbered by first appearance, and beside each
/// session's claimed user-agent the id of its row. A row is interned when
/// it enters the set ([`TrainingSet::push`], [`TrainingSet::from_rows`], a
/// reservoir hand-over) and never again: a fit starts from the set's
/// partition ([`TrainingSet::row_groups`]), and [`TrainingSet::rows`]
/// reads each row out of the table. Every way of building a set keeps
/// that partition equal to [`RowGroups::of`] its rows, group for group
/// and bit for bit, which is what keeps a fitted model's bytes.
#[derive(Debug, Clone)]
pub struct TrainingSet {
    /// Each distinct row once, numbered by first appearance.
    table: DistinctRows,
    /// Row `i` of the set is `table.row(group_of[i])`.
    group_of: Vec<usize>,
    user_agents: Vec<UserAgent>,
}

impl TrainingSet {
    /// Creates an empty set expecting `width`-feature rows.
    pub fn new(width: usize) -> Self {
        Self {
            table: DistinctRows::new(width),
            group_of: Vec::new(),
            user_agents: Vec::new(),
        }
    }

    /// Builds a set from parallel vectors, interning each row and dropping
    /// its vector.
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

    /// Appends one observation, interning its row.
    pub fn push(&mut self, row: Vec<f64>, ua: UserAgent) -> Result<(), PolygraphError> {
        if row.len() != self.width() {
            return Err(PolygraphError::FeatureWidthMismatch {
                got: row.len(),
                expected: self.width(),
            });
        }
        self.group_of.push(self.table.intern(&row));
        self.user_agents.push(ua);
        Ok(())
    }

    /// The set of `rows`, each a row id in `table` and its claimed
    /// release, in their order. A row of `table` is interned once, when it
    /// first appears, so the set is numbered as if its rows had been
    /// pushed one by one and no row is copied per session.
    ///
    /// # Panics
    /// Panics if an id is not a row of `table`.
    pub(crate) fn gather(
        table: &DistinctRows,
        rows: impl IntoIterator<Item = (usize, UserAgent)>,
    ) -> Self {
        let rows = rows.into_iter();
        let mut set = Self::new(table.cols());
        set.group_of.reserve(rows.size_hint().0);
        set.user_agents.reserve(rows.size_hint().0);
        let mut renumbered = vec![usize::MAX; table.len()];
        for (id, ua) in rows {
            if renumbered[id] == usize::MAX {
                renumbered[id] = set.table.intern(table.row(id));
            }
            set.group_of.push(renumbered[id]);
            set.user_agents.push(ua);
        }
        set
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.group_of.len()
    }

    /// True when the set holds no observations.
    pub fn is_empty(&self) -> bool {
        self.group_of.is_empty()
    }

    /// Feature width.
    pub fn width(&self) -> usize {
        self.table.cols()
    }

    /// The feature rows, borrowed.
    pub fn rows(&self) -> Rows<'_> {
        Rows {
            table: &self.table,
            group_of: &self.group_of,
        }
    }

    /// The user-agents, parallel to [`TrainingSet::rows`].
    pub fn user_agents(&self) -> &[UserAgent] {
        &self.user_agents
    }

    /// The id of every row in the set's table of distinct rows.
    pub(crate) fn group_of(&self) -> &[usize] {
        &self.group_of
    }

    /// The set's distinct rows, numbered by first appearance.
    pub(crate) fn table(&self) -> &DistinctRows {
        &self.table
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
    /// groups of [`TrainingSet::row_groups`]. Coarse-grained fingerprints
    /// collide by design: the paper-scale window of 205 000 simulated
    /// sessions holds a few hundred.
    pub fn distinct_rows(&self) -> usize {
        self.table.len()
    }

    /// The set's partition by distinct row, which a fit or a streaming
    /// refit evaluates its per-row kernels on: [`RowGroups::of`] the rows,
    /// read from the set without interning a row again.
    /// [`PolygraphError::Ml`] for an empty set or zero-width rows.
    pub fn row_groups(&self) -> Result<RowGroups, PolygraphError> {
        RowGroups::from_table(&self.table, &self.group_of).map_err(Into::into)
    }

    /// The features as a matrix.
    pub fn to_matrix(&self) -> Result<Matrix, PolygraphError> {
        let mut data = Vec::with_capacity(self.len() * self.width());
        for row in self.rows().iter() {
            data.extend_from_slice(row);
        }
        Matrix::from_vec(self.len(), self.width(), data).map_err(Into::into)
    }

    /// A copy with only the rows whose index satisfies `keep` — used to
    /// drop Isolation-Forest outliers before the final fit. Its rows are
    /// renumbered by their first kept session, as
    /// [`RowGroups::filter_rows`] does.
    pub fn filtered(&self, keep: impl Fn(usize) -> bool) -> TrainingSet {
        let kept = self.group_of.iter().zip(&self.user_agents).enumerate();
        let kept = kept.filter(|&(i, _)| keep(i)).map(|(_, (&g, &ua))| (g, ua));
        Self::gather(&self.table, kept)
    }

    /// A copy keeping only the listed feature columns, in order.
    ///
    /// Each distinct row is projected once. The table's rows are in order
    /// of first appearance, so interning their projections in id order
    /// numbers the projected rows — two of which may now be equal — by
    /// first appearance too.
    pub fn select_columns(&self, cols: &[usize]) -> Result<TrainingSet, PolygraphError> {
        if cols.iter().any(|&c| c >= self.width()) {
            return Err(PolygraphError::BadTrainingSet(
                "column index out of range".into(),
            ));
        }
        let mut table = DistinctRows::new(cols.len());
        let mut projected = Vec::with_capacity(cols.len());
        let renumbered: Vec<usize> = (0..self.table.len())
            .map(|id| {
                let row = self.table.row(id);
                projected.clear();
                projected.extend(cols.iter().map(|&c| row[c]));
                table.intern(&projected)
            })
            .collect();
        Ok(TrainingSet {
            table,
            group_of: self.group_of.iter().map(|&g| renumbered[g]).collect(),
            user_agents: self.user_agents.clone(),
        })
    }
}

/// The rows of a [`TrainingSet`], borrowed: row `i` is read from the set's
/// table of distinct rows. `rows[i]` is row `i` as a slice, and
/// [`Rows::iter`] walks the rows in order.
#[derive(Clone, Copy)]
pub struct Rows<'a> {
    table: &'a DistinctRows,
    group_of: &'a [usize],
}

impl<'a> Rows<'a> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.group_of.len()
    }

    /// True when there is no row.
    pub fn is_empty(&self) -> bool {
        self.group_of.is_empty()
    }

    /// The rows in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &'a [f64]> + Clone + 'a {
        let table = self.table;
        self.group_of.iter().map(move |&g| table.row(g))
    }
}

impl Index<usize> for Rows<'_> {
    type Output = [f64];

    fn index(&self, i: usize) -> &[f64] {
        self.table.row(self.group_of[i])
    }
}

/// Row by row, by value, as two `Vec<Vec<f64>>` compare.
impl PartialEq for Rows<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl fmt::Debug for Rows<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use browser_engine::Vendor;
    use proptest::prelude::*;

    fn ua(v: u32) -> UserAgent {
        UserAgent::new(Vendor::Chrome, v)
    }

    fn bits(row: &[f64]) -> Vec<u64> {
        row.iter().map(|v| v.to_bits()).collect()
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

    /// The set as it was held before it became its own partition, one
    /// vector per row, with that body's operations: what a set must equal.
    struct Reference {
        rows: Vec<Vec<f64>>,
        uas: Vec<UserAgent>,
    }

    impl Reference {
        fn filtered(&self, keep: impl Fn(usize) -> bool) -> Self {
            let kept = self.rows.iter().zip(&self.uas).enumerate();
            let (rows, uas) = kept
                .filter(|&(i, _)| keep(i))
                .map(|(_, (row, &ua))| (row.clone(), ua))
                .unzip();
            Self { rows, uas }
        }

        fn select_columns(&self, cols: &[usize]) -> Self {
            let rows = self
                .rows
                .iter()
                .map(|row| cols.iter().map(|&c| row[c]).collect())
                .collect();
            Self {
                rows,
                uas: self.uas.clone(),
            }
        }

        fn to_matrix(&self) -> Result<Matrix, polygraph_ml::MlError> {
            Matrix::from_rows(&self.rows)
        }

        fn distinct_rows(&self) -> usize {
            self.to_matrix()
                .map_or(0, |x| RowGroups::of(&x).distinct().rows())
        }
    }

    /// `set` holds `reference`'s rows and user-agents bit for bit, and its
    /// partition, matrix and distinct-row count are the reference's.
    fn assert_holds(set: &TrainingSet, reference: &Reference) {
        assert_eq!(set.len(), reference.rows.len());
        assert_eq!(set.user_agents(), &reference.uas[..]);
        let rows = set.rows();
        assert_eq!(rows.len(), reference.rows.len());
        let read: Vec<Vec<u64>> = rows.iter().map(bits).collect();
        let want: Vec<Vec<u64>> = reference.rows.iter().map(|row| bits(row)).collect();
        assert_eq!(read, want);
        for (i, row) in want.iter().enumerate() {
            assert_eq!(&bits(&rows[i]), row, "row {i}");
        }
        assert_eq!(set.distinct_rows(), reference.distinct_rows());
        match reference.to_matrix() {
            Ok(x) => {
                let (groups, of) = (set.row_groups().unwrap(), RowGroups::of(&x));
                assert_eq!(groups.group_of(), of.group_of());
                assert_eq!(
                    bits(groups.distinct().as_slice()),
                    bits(of.distinct().as_slice())
                );
                let m = set.to_matrix().unwrap();
                assert_eq!((m.rows(), m.cols()), (x.rows(), x.cols()));
                assert_eq!(bits(m.as_slice()), bits(x.as_slice()));
            }
            Err(_) => {
                assert!(set.row_groups().is_err());
                assert!(set.to_matrix().is_err());
            }
        }
    }

    proptest! {
        /// A set built row by row or from vectors is the partition of its
        /// rows: its groups are `RowGroups::of` them, its rows read back
        /// bit for bit, and `filtered`, `select_columns`, `to_matrix` and
        /// `distinct_rows` give what the one-vector-per-row body gave.
        #[test]
        fn prop_training_set_is_the_partition_of_its_rows(
            width in 1usize..4,
            picks in proptest::collection::vec(0usize..6, 3..600),
            versions in proptest::collection::vec(100u32..104, 600..601),
            keep in proptest::collection::vec(any::<bool>(), 600..601),
            cols in proptest::collection::vec(0usize..3, 1..5),
        ) {
            let rows: Vec<Vec<f64>> = picks
                .chunks_exact(width)
                .map(|w| w.iter().map(|&p| ALPHABET[p]).collect())
                .collect();
            let uas: Vec<UserAgent> = versions[..rows.len()].iter().map(|&v| ua(v)).collect();
            let reference = Reference { rows: rows.clone(), uas: uas.clone() };
            let built = TrainingSet::from_rows(rows.clone(), uas.clone()).unwrap();
            let mut pushed = TrainingSet::new(width);
            for (row, &claimed) in rows.iter().zip(&uas) {
                pushed.push(row.clone(), claimed).unwrap();
            }
            let keep = |i: usize| keep[i];
            let cols: Vec<usize> = cols.iter().map(|&c| c % width).collect();
            for set in [&built, &pushed] {
                assert_holds(set, &reference);
                assert_holds(&set.filtered(keep), &reference.filtered(keep));
                let projected = set.select_columns(&cols).unwrap();
                assert_holds(&projected, &reference.select_columns(&cols));
                assert_holds(
                    &projected.filtered(keep),
                    &reference.select_columns(&cols).filtered(keep),
                );
            }
        }
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
