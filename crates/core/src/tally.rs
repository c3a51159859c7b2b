//! Sessions counted per (row id, claimed release): the one count behind
//! every majority-cluster reading — the fit's vote and accuracy (Formula
//! 1, §6.4.3), both drift doors (§6.6) and the sweeps (Tables 10–12).
//!
//! A row id is a window's distinct-row id (the fit, the sweeps, the batch
//! drift door), a reservoir's (the sessions a drift stream has not yet
//! counted) or a cluster (the sessions it has). A tally keeps one entry
//! per (row, release) pair it saw, in a hashed table, so a session costs
//! O(1) and a tally never holds more pairs than the sessions it counted,
//! whatever the traffic. A
//! reader folds it through a row → cluster map, asked once per row, into
//! sessions per (release, cluster): the releases × k table every reading
//! above is taken from.

use crate::dataset::TrainingSet;
use crate::error::PolygraphError;
use browser_engine::{UserAgent, Vendor};
use std::collections::BTreeMap;

/// Versions below this are looked up in a table; later ones, which
/// generated or collected traffic never claims, in an ordered map.
const DENSE_VERSIONS: usize = 1 << 10;

/// Releases numbered by first counted session, looked up with no hashing:
/// one table slot per vendor and version. Each release keeps the value its
/// first counted session claimed, OS included (`UserAgent` equality
/// ignores the OS, and the fit's lab instance is built on the value kept).
#[derive(Debug, Clone)]
struct ReleaseIds {
    /// Slot `vendor × DENSE_VERSIONS + version` holds the release's id plus
    /// one; 0 is unseen.
    dense: Vec<usize>,
    /// Ids of the releases at or past [`DENSE_VERSIONS`].
    beyond: BTreeMap<UserAgent, usize>,
    /// Release `id`, as its first counted session claimed it.
    first: Vec<UserAgent>,
}

impl ReleaseIds {
    fn new() -> Self {
        Self {
            dense: vec![0; Vendor::ALL.len() * DENSE_VERSIONS],
            beyond: BTreeMap::new(),
            first: Vec::new(),
        }
    }

    /// `ua`'s slot in the dense table, if its version has one.
    #[inline]
    fn slot(ua: UserAgent) -> Option<usize> {
        let version = ua.version as usize;
        (version < DENSE_VERSIONS).then(|| ua.vendor as usize * DENSE_VERSIONS + version)
    }

    /// The id of `ua`'s release, numbering it next if it is new.
    #[inline]
    fn intern(&mut self, ua: UserAgent) -> usize {
        let next = self.first.len();
        let id = match Self::slot(ua) {
            Some(slot) => {
                if self.dense[slot] == 0 {
                    self.dense[slot] = next + 1;
                }
                self.dense[slot] - 1
            }
            None => *self.beyond.entry(ua).or_insert(next),
        };
        if id == next {
            self.first.push(ua);
        }
        id
    }

    /// The id of `ua`'s release, if any session of it was counted.
    fn get(&self, ua: UserAgent) -> Option<usize> {
        match Self::slot(ua) {
            Some(slot) => self.dense[slot].checked_sub(1),
            None => self.beyond.get(&ua).copied(),
        }
    }

    /// Forgets every release, keeping the allocations.
    fn clear(&mut self) {
        for &ua in &self.first {
            if let Some(slot) = Self::slot(ua) {
                self.dense[slot] = 0;
            }
        }
        self.beyond.clear();
        self.first.clear();
    }
}

/// One (row, release) pair and its sessions: a slot of the tally's table.
#[derive(Debug, Clone, Copy)]
struct Entry {
    row: usize,
    release: usize,
    sessions: usize,
}

/// A free slot. No row id is `usize::MAX`: ids index a table of rows.
const FREE: Entry = Entry {
    row: usize::MAX,
    release: 0,
    sessions: 0,
};

/// Sessions per (row id, release). See the module docs.
#[derive(Debug, Clone)]
pub(crate) struct ReleaseTally {
    releases: ReleaseIds,
    /// The (row, release) pairs counted, open-addressed: a pair's probe
    /// starts at its [`slot`] and walks up to the pair or a free slot.
    /// A power of two long, and never more than a quarter full, so a
    /// probe almost always ends at its first slot.
    slots: Vec<Entry>,
    /// Pairs in `slots`: at most one per session counted.
    pairs: usize,
    sessions: usize,
}

/// Where a (row, release) pair's probe starts: the two ids multiplied by
/// the golden ratio (Fibonacci hashing), read above the low word.
/// Seedless, so a window crafted to collide lengthens the probes but
/// never changes a count.
#[inline]
fn slot(row: usize, release: usize, mask: usize) -> usize {
    let key = (row as u64).rotate_left(32) ^ release as u64;
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask
}

impl ReleaseTally {
    /// An empty tally.
    pub(crate) fn new() -> Self {
        Self {
            releases: ReleaseIds::new(),
            slots: Vec::new(),
            pairs: 0,
            sessions: 0,
        }
    }

    /// Every session of `set`, by its distinct-row id.
    pub(crate) fn of(set: &TrainingSet) -> Self {
        let mut tally = Self::new();
        for (&row, &ua) in set.group_of().iter().zip(set.user_agents()) {
            tally.add(row, ua, 1);
        }
        tally
    }

    /// Counts `sessions` sessions of `row` claiming `release`.
    #[inline]
    pub(crate) fn add(&mut self, row: usize, release: UserAgent, sessions: usize) {
        let release = self.releases.intern(release);
        self.sessions += sessions;
        if 4 * (self.pairs + 1) > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut at = slot(row, release, mask);
        loop {
            let entry = &mut self.slots[at];
            if entry.row == row && entry.release == release {
                entry.sessions += sessions;
                return;
            }
            if entry.row == FREE.row {
                *entry = Entry {
                    row,
                    release,
                    sessions,
                };
                self.pairs += 1;
                return;
            }
            at = (at + 1) & mask;
        }
    }

    /// Doubles the table and re-files every pair in it.
    fn grow(&mut self) {
        let len = (2 * self.slots.len()).max(16);
        let old = std::mem::replace(&mut self.slots, vec![FREE; len]);
        for entry in old.into_iter().filter(|entry| entry.row != FREE.row) {
            let mut at = slot(entry.row, entry.release, len - 1);
            while self.slots[at].row != FREE.row {
                at = (at + 1) & (len - 1);
            }
            self.slots[at] = entry;
        }
    }

    /// Sessions counted.
    pub(crate) fn sessions(&self) -> usize {
        self.sessions
    }

    /// The releases counted, by id: each as its first session claimed it.
    pub(crate) fn releases(&self) -> &[UserAgent] {
        &self.releases.first
    }

    /// The id of `release`, if any session of it was counted.
    pub(crate) fn release_id(&self, release: UserAgent) -> Option<usize> {
        self.releases.get(release)
    }

    /// Sessions per (release, cluster), release-major: cell
    /// `id × k + c` holds the sessions of release `id` whose row
    /// `cluster_of` maps to `c`. `cluster_of` is asked once for each row
    /// holding a session and must answer below `k`.
    pub(crate) fn fold(
        &self,
        k: usize,
        mut cluster_of: impl FnMut(usize) -> Result<usize, PolygraphError>,
    ) -> Result<Vec<usize>, PolygraphError> {
        let mut counts = vec![0; self.releases.first.len() * k];
        // Row `r`'s cluster plus one; 0 is not asked yet.
        let mut clusters: Vec<usize> = Vec::new();
        for entry in self.slots.iter().filter(|entry| entry.row != FREE.row) {
            if entry.row >= clusters.len() {
                clusters.resize(entry.row + 1, 0);
            }
            if clusters[entry.row] == 0 {
                let cluster = cluster_of(entry.row)?;
                assert!(
                    cluster < k,
                    "row {} folds to cluster {cluster} of {k}",
                    entry.row
                );
                clusters[entry.row] = cluster + 1;
            }
            counts[entry.release * k + clusters[entry.row] - 1] += entry.sessions;
        }
        Ok(counts)
    }

    /// Forgets every session, keeping the allocations, so a tally emptied
    /// and refilled with as many pairs and releases allocates nothing.
    pub(crate) fn clear(&mut self) {
        self.releases.clear();
        self.slots.fill(FREE);
        self.pairs = 0;
        self.sessions = 0;
    }
}

#[cfg(test)]
thread_local! {
    /// The most pairs a tally dropped on this thread held: what the
    /// bound tests read of tallies a fit or a refit keeps to itself.
    pub(crate) static PEAK_ENTRIES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
impl Drop for ReleaseTally {
    fn drop(&mut self) {
        PEAK_ENTRIES.with(|peak| peak.set(peak.get().max(self.pairs)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-session reference: sessions per (release, cluster) in an
    /// ordered map, each release keyed as its first session claimed it.
    fn reference(
        sessions: &[(usize, UserAgent)],
        cluster_of: impl Fn(usize) -> usize,
    ) -> BTreeMap<UserAgent, BTreeMap<usize, usize>> {
        let mut counts: BTreeMap<UserAgent, BTreeMap<usize, usize>> = BTreeMap::new();
        for &(row, ua) in sessions {
            *counts
                .entry(ua)
                .or_default()
                .entry(cluster_of(row))
                .or_default() += 1;
        }
        counts
    }

    const OSES: [browser_engine::Os; 2] =
        [browser_engine::Os::Windows10, browser_engine::Os::Linux];

    proptest! {
        /// The fold equals the per-session maps, cell for cell, with each
        /// release as its first session claimed it; the tally never holds
        /// more pairs than sessions, and a cleared tally refilled with
        /// the same sessions folds the same. Versions past the dense table
        /// are among the releases.
        #[test]
        fn prop_fold_equals_the_per_session_maps(
            draws in proptest::collection::vec(0usize..12 * 6 * 2, 1..300),
            map in proptest::collection::vec(0usize..4, 12..13),
        ) {
            let versions = [100, 101, 1_023, 1_024, 50_000, 4_000_000_000];
            let sessions: Vec<(usize, UserAgent)> = draws
                .iter()
                .map(|&x| {
                    // Row, release and OS, as the digits of one draw.
                    let (row, v, os) = (x % 12, x / 12 % 6, x / 72);
                    let mut ua = UserAgent::new(Vendor::ALL[v % 3], versions[v]);
                    ua.os = OSES[os];
                    (row, ua)
                })
                .collect();
            let want = reference(&sessions, |row| map[row]);
            let mut tally = ReleaseTally::new();
            for round in 0..2 {
                for &(row, ua) in &sessions {
                    tally.add(row, ua, 1);
                }
                prop_assert!(tally.pairs <= sessions.len());
                prop_assert_eq!(tally.sessions(), sessions.len());
                let counts = tally.fold(4, |row| Ok(map[row])).unwrap();
                let mut got = BTreeMap::new();
                for (id, &ua) in tally.releases().iter().enumerate() {
                    prop_assert_eq!(tally.release_id(ua), Some(id));
                    let first = sessions.iter().find(|(_, u)| *u == ua).unwrap().1;
                    prop_assert_eq!(ua.os, first.os, "round {}", round);
                    let clusters: BTreeMap<usize, usize> = counts[id * 4..][..4]
                        .iter()
                        .enumerate()
                        .filter(|&(_, &n)| n > 0)
                        .map(|(c, &n)| (c, n))
                        .collect();
                    got.insert(ua, clusters);
                }
                prop_assert_eq!(&got, &want);
                tally.clear();
                prop_assert_eq!(tally.sessions(), 0);
                prop_assert!(tally.releases().is_empty());
                for &(_, ua) in &sessions {
                    prop_assert_eq!(tally.release_id(ua), None);
                }
            }
        }
    }

    #[test]
    fn fold_asks_each_row_holding_a_session_once() {
        let chrome = UserAgent::new(Vendor::Chrome, 100);
        let mut tally = ReleaseTally::new();
        for row in [5, 2, 5, 9, 2, 2] {
            tally.add(row, chrome, 1);
        }
        let mut asked = Vec::new();
        let counts = tally
            .fold(2, |row| {
                asked.push(row);
                Ok(row % 2)
            })
            .unwrap();
        asked.sort_unstable();
        assert_eq!(asked, [2, 5, 9]);
        assert_eq!(counts, [3, 3]);
        assert_eq!(
            tally.fold(2, |_| Err(PolygraphError::NoObservations("x".into()))),
            Err(PolygraphError::NoObservations("x".into()))
        );
    }
}
