//! # polygraph-cache
//!
//! A sharded, read-mostly verdict cache for the risk-server hot path.
//!
//! The paper's whole premise is that fingerprints are *coarse*: 28 small
//! integer features plus a handful of booleans means the distinct
//! (fingerprint, user-agent) population is tiny relative to the traffic
//! volume served. At FinOrg scale most submissions are exact repeats of
//! an already-assessed pair, so the dominant serving win is memoizing the
//! model's decision, not re-running scaler→PCA→k-means→Algorithm 1 for
//! every frame.
//!
//! ## Design
//!
//! * **Keys are caller-supplied 64-bit hashes** of the canonical encoded
//!   submission (see `fingerprint::submission_cache_key`), computed with
//!   a fixed, seedless hash — never `RandomState` — so the same frame
//!   maps to the same slot in every process, every run. Replayability is
//!   a workspace invariant (`clippy.toml` bans the seeded std hashers).
//! * **Power-of-two sharding**: the low key bits select one of N shards,
//!   each an independent `RwLock`-protected bounded map. Lookups take a
//!   read lock only; the reference bits CLOCK eviction needs are atomics,
//!   so concurrent hits never serialize on a shard.
//! * **An open-addressed index per shard**: the key is already a
//!   finalised 64-bit hash, so a shard finds a key's slot in a flat
//!   power-of-two table at most half full — linear probing from a cell
//!   an odd multiply picks, backward-shift deletion, no tombstones — not
//!   in an ordered tree. It is only the map; which slot a key gets and
//!   which one CLOCK takes do not depend on it.
//! * **CLOCK / second-chance eviction** per shard: a full shard evicts
//!   the first slot whose reference bit is clear, clearing bits as the
//!   hand sweeps. Entries whose epoch is stale are evicted on sight —
//!   they can never hit again.
//! * **Epoch invalidation**: every entry carries the model epoch it was
//!   assessed under. A model swap bumps one `AtomicU64` instead of
//!   draining shards; entries from older epochs lazily miss (and report
//!   as [`Lookup::Stale`] so the caller can count them). Each shard keeps
//!   the count of its newest epoch's entries as it inserts, so "how many
//!   entries can hit right now" is read per shard, never per slot.
//!
//! The cache is value-generic: the service stores its wire `Verdict`, the
//! tests store small integers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Upper bound on the shard count (a power of two; more shards than this
/// buys nothing and wastes memory on empty maps).
pub const MAX_SHARDS: usize = 1024;

/// The outcome of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup<V> {
    /// A current-epoch entry was found.
    Hit(V),
    /// An entry was found but it was assessed under an older model epoch;
    /// the caller must re-assess (and should count the stale sighting).
    Stale,
    /// No entry for this key.
    Miss,
}

/// What an insert did, for the caller's metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InsertOutcome {
    /// A victim entry (different key) was evicted to make room.
    pub evicted: bool,
    /// The key was already present and its value/epoch were replaced in
    /// place (refreshing a stale entry lands here).
    pub replaced: bool,
}

/// One cached entry. The reference bit is atomic so read-locked lookups
/// can set it without upgrading to a write lock.
struct Slot<V> {
    key: u64,
    epoch: u64,
    referenced: AtomicBool,
    value: V,
}

/// Odd multiplier that spreads a key over an [`Index`]'s cells (2^64 / φ).
/// Fixed, like everything that places a key (no `RandomState`).
const HOME_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// One cell of an [`Index`]: a key and, plus one, the slot holding it.
/// `slot1 == 0` is an empty cell, so a zeroed table is an empty index and
/// key 0 is a key like any other.
#[derive(Clone, Copy, Default)]
struct Cell {
    key: u64,
    slot1: usize,
}

/// A shard's key→slot map: open addressing with linear probing over a
/// power-of-two table of at least twice the shard's capacity, so it is
/// never more than half full and a probe always ends at an empty cell.
///
/// A key's home cell is the top bits of an odd multiple of it — the low
/// bits chose the shard and are the same for every key here. Removal
/// shifts the rest of the probe run back over the hole instead of
/// leaving a tombstone: a shard at capacity removes one key per insert
/// for as long as it lives, and tombstones would lengthen every probe
/// until a rebuild; this way a probe is never longer than the run of
/// resident keys it walks. Keys built to share a home make that run as
/// long as the shard's resident count, and no longer (DESIGN.md §5g).
struct Index {
    cells: Vec<Cell>,
    /// `64 - log2(cells.len())`: what is left of the multiplied key after
    /// the shift is a cell number.
    shift: u32,
}

impl Index {
    fn new(capacity: usize) -> Self {
        let len = capacity.saturating_mul(2).next_power_of_two().max(2);
        Self {
            cells: vec![Cell::default(); len],
            shift: u64::BITS - len.trailing_zeros(),
        }
    }

    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(HOME_MUL) >> self.shift) as usize
    }

    /// The cells a probe for `key` visits, in order: every cell once,
    /// from the key's home, wrapping at the table's end.
    fn probe(&self, key: u64) -> impl Iterator<Item = usize> {
        let (home, len) = (self.home(key), self.cells.len());
        (0..len).map(move |step| (home + step) & (len - 1))
    }

    /// The cell holding `key` and the slot it names, if it is indexed.
    fn find(&self, key: u64) -> Option<(usize, usize)> {
        for at in self.probe(key) {
            let cell = self.cells.get(at)?;
            if cell.key == key || cell.slot1 == 0 {
                return Some((at, cell.slot1.checked_sub(1)?));
            }
        }
        None
    }

    fn get(&self, key: u64) -> Option<usize> {
        self.find(key).map(|(_, slot)| slot)
    }

    /// Indexes `key` (not indexed yet) at `slot`: the first empty cell of
    /// its probe.
    fn insert(&mut self, key: u64, slot: usize) {
        let free = self
            .probe(key)
            .find(|&at| self.cells.get(at).is_some_and(|cell| cell.slot1 == 0));
        if let Some(cell) = free.and_then(|at| self.cells.get_mut(at)) {
            *cell = Cell {
                key,
                slot1: slot + 1,
            };
        }
    }

    /// Forgets `key` and closes the hole: each later cell of the run moves
    /// back into it if the hole lies between that cell's home and the
    /// cell — then every key is still reachable from its home without
    /// crossing an empty cell — and leaves a new hole where it was.
    fn remove(&mut self, key: u64) {
        let Some((mut hole, _)) = self.find(key) else {
            return;
        };
        let mask = self.cells.len() - 1;
        let mut at = hole;
        for _ in 0..mask {
            at = (at + 1) & mask;
            let Some(&cell) = self.cells.get(at) else {
                break;
            };
            if cell.slot1 == 0 {
                break;
            }
            let from_home = at.wrapping_sub(self.home(cell.key)) & mask;
            if from_home >= (at.wrapping_sub(hole) & mask) {
                if let Some(freed) = self.cells.get_mut(hole) {
                    *freed = cell;
                }
                hole = at;
            }
        }
        if let Some(freed) = self.cells.get_mut(hole) {
            *freed = Cell::default();
        }
    }
}

/// One shard: a bounded slot arena, a key→slot index, the CLOCK hand,
/// and the count that answers [`VerdictCache::current_occupancy`].
struct Shard<V> {
    slots: Vec<Slot<V>>,
    index: Index,
    hand: usize,
    /// The newest epoch an insert has brought to this shard.
    live_epoch: u64,
    /// Slots tagged `live_epoch`, kept exact by every [`Self::insert`]
    /// (the only slot mutation) so that nobody has to count them.
    live: usize,
}

impl<V: Clone> Shard<V> {
    fn new(capacity: usize) -> Self {
        Self {
            slots: Vec::with_capacity(capacity),
            index: Index::new(capacity),
            hand: 0,
            live_epoch: 0,
            live: 0,
        }
    }

    fn lookup(&self, key: u64, current_epoch: u64) -> Lookup<V> {
        let Some(pos) = self.index.get(key) else {
            return Lookup::Miss;
        };
        let Some(slot) = self.slots.get(pos) else {
            return Lookup::Miss;
        };
        if slot.epoch != current_epoch {
            return Lookup::Stale;
        }
        // `Relaxed` on purpose (CI's `Relaxed` grep allows this file
        // alone): the bit is a CLOCK hint, not a publication. Slot data
        // changes only under the shard's write lock, so a racy mark can
        // at worst cost a recently hit entry its second chance.
        slot.referenced.store(true, Ordering::Relaxed);
        Lookup::Hit(slot.value.clone())
    }

    fn insert(&mut self, key: u64, epoch: u64, value: V, capacity: usize) -> InsertOutcome {
        if epoch > self.live_epoch {
            // The first entry of a newer epoch: nothing resident carries
            // it yet.
            self.live_epoch = epoch;
            self.live = 0;
        }
        // The new entry joins the live count, the entry it displaces (if
        // any) leaves it — each only if it carries the live epoch, which
        // a late insert from an older epoch does not.
        self.live += usize::from(epoch == self.live_epoch);
        let fresh = Slot {
            key,
            epoch,
            referenced: AtomicBool::new(true),
            value,
        };
        let (pos, outcome) = if let Some(pos) = self.index.get(key) {
            let replaced = InsertOutcome {
                evicted: false,
                replaced: true,
            };
            (pos, replaced)
        } else if self.slots.len() < capacity {
            self.index.insert(key, self.slots.len());
            self.slots.push(fresh);
            return InsertOutcome::default();
        } else {
            let evicted = InsertOutcome {
                evicted: true,
                replaced: false,
            };
            (self.clock_victim(epoch), evicted)
        };
        if let Some(slot) = self.slots.get_mut(pos) {
            self.live -= usize::from(slot.epoch == self.live_epoch);
            if outcome.evicted {
                self.index.remove(slot.key);
                self.index.insert(key, pos);
            }
            *slot = fresh;
        }
        outcome
    }

    /// CLOCK sweep: clear reference bits until an unreferenced slot is
    /// found. Stale-epoch slots are victims on sight — they can never hit
    /// again, so their second chance is worthless. Bounded by two full
    /// revolutions (after one sweep every bit is clear).
    fn clock_victim(&mut self, current_epoch: u64) -> usize {
        let n = self.slots.len().max(1);
        for _ in 0..(2 * n) {
            let pos = self.hand % n;
            self.hand = (self.hand + 1) % n;
            let Some(slot) = self.slots.get(pos) else {
                continue;
            };
            // `Relaxed`: the reference bit is a hint, see `Shard::lookup`.
            if slot.epoch != current_epoch || !slot.referenced.swap(false, Ordering::Relaxed) {
                return pos;
            }
        }
        // Unreachable with a correct sweep; fall back to the hand slot.
        self.hand % n
    }
}

/// A sharded, bounded, epoch-invalidated map from 64-bit keys to verdict
/// values. See the crate docs for the design.
#[expect(
    clippy::disallowed_types,
    reason = "one lock per shard: a lookup's read guard spans one probe and one clone, an \
              insert's write guard one probe and at most one CLOCK sweep; shards are locked \
              one at a time and no guard spans I/O"
)]
pub struct VerdictCache<V> {
    shards: Vec<parking_lot::RwLock<Shard<V>>>,
    /// `shards.len() - 1`; shard selection is `key & mask`.
    mask: u64,
    capacity_per_shard: usize,
    epoch: AtomicU64,
}

impl<V: Clone> VerdictCache<V> {
    /// A cache of roughly `capacity` entries spread over `shards` shards.
    ///
    /// `shards` is rounded up to a power of two and clamped to
    /// `1..=`[`MAX_SHARDS`]; `capacity` is divided evenly (rounding up)
    /// so the total never falls below the request. A zero `capacity`
    /// still yields one slot per shard — callers gate "cache disabled"
    /// above this type.
    #[expect(
        clippy::disallowed_types,
        reason = "builds the shard locks `VerdictCache` describes"
    )]
    pub fn new(shards: usize, capacity: usize) -> Self {
        let shard_count = shards.clamp(1, MAX_SHARDS).next_power_of_two();
        let capacity_per_shard = capacity.div_ceil(shard_count).max(1);
        Self {
            shards: (0..shard_count)
                .map(|_| parking_lot::RwLock::new(Shard::new(capacity_per_shard)))
                .collect(),
            mask: (shard_count - 1) as u64,
            capacity_per_shard,
            epoch: AtomicU64::new(0),
        }
    }

    /// Number of shards (a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total entry capacity across all shards.
    pub fn capacity(&self) -> usize {
        self.capacity_per_shard * self.shards.len()
    }

    /// The current model epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Invalidates every cached entry by advancing the model epoch, and
    /// returns the new epoch. O(1): no shard is locked or drained — old
    /// entries lazily miss as [`Lookup::Stale`] and are preferred CLOCK
    /// victims.
    ///
    /// Callers publish the new model together with the epoch this
    /// returns, and tag each insert with the epoch published beside the
    /// model that assessed it: a verdict of the old model then always
    /// carries a pre-bump epoch and can never be served at the new one.
    pub fn bump_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::SeqCst) + 1
    }

    #[expect(
        clippy::disallowed_types,
        reason = "hands out one shard's lock; see `VerdictCache`"
    )]
    fn shard(&self, key: u64) -> Option<&parking_lot::RwLock<Shard<V>>> {
        self.shards.get((key & self.mask) as usize)
    }

    /// Looks up `key` at the current epoch. Read-lock only.
    pub fn lookup(&self, key: u64) -> Lookup<V> {
        let epoch = self.epoch();
        match self.shard(key) {
            Some(shard) => shard.read().lookup(key, epoch),
            None => Lookup::Miss,
        }
    }

    /// Inserts (or refreshes) `key` with a value assessed under `epoch`.
    ///
    /// `epoch` must be the one published with the model that assessed
    /// `value` (see [`Self::bump_epoch`]): if a newer epoch has been
    /// bumped since, the entry is tagged with the old one and harmlessly
    /// misses forever.
    pub fn insert(&self, key: u64, epoch: u64, value: V) -> InsertOutcome {
        match self.shard(key) {
            Some(shard) => shard
                .write()
                .insert(key, epoch, value, self.capacity_per_shard),
            None => InsertOutcome::default(),
        }
    }

    /// Number of resident entries (current and stale epochs alike).
    ///
    /// This counts slots still holding memory, including stale-epoch
    /// entries that can never hit again and are merely awaiting CLOCK
    /// eviction. For "how many entries can actually serve a hit right
    /// now" use [`Self::current_occupancy`].
    pub fn occupancy(&self) -> usize {
        self.shards.iter().map(|s| s.read().slots.len()).sum()
    }

    /// Number of resident entries tagged with the *current* epoch — the
    /// only ones a [`Self::lookup`] can hit. After [`Self::bump_epoch`]
    /// this drops to zero immediately even though [`Self::occupancy`]
    /// still reports the stale slots until CLOCK sweeps them.
    ///
    /// One read lock and one comparison per shard: each shard counts its
    /// newest epoch's slots as it inserts, so no slot is visited here —
    /// the serve path publishes this gauge once per batch.
    pub fn current_occupancy(&self) -> usize {
        let epoch = self.epoch();
        self.shards
            .iter()
            .map(|s| {
                let shard = s.read();
                if shard.live_epoch == epoch {
                    shard.live
                } else {
                    0
                }
            })
            .sum()
    }

    /// [`Self::current_occupancy`] by visiting every slot — what it used
    /// to cost, kept as the reference the per-shard count is held to.
    #[cfg(test)]
    fn scanned_current_occupancy(&self) -> usize {
        let epoch = self.epoch();
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .slots
                    .iter()
                    .filter(|slot| slot.epoch == epoch)
                    .count()
            })
            .sum()
    }

    /// Every resident key (current and stale epochs alike), ascending —
    /// how the model test below sees which key an insert evicted.
    #[cfg(test)]
    fn resident_keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.read()
                    .slots
                    .iter()
                    .map(|slot| slot.key)
                    .collect::<Vec<_>>()
            })
            .collect();
        keys.sort_unstable();
        keys
    }
}

impl<V> std::fmt::Debug for VerdictCache<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VerdictCache")
            .field("shards", &self.shards.len())
            .field("capacity_per_shard", &self.capacity_per_shard)
            .field("epoch", &self.epoch.load(Ordering::SeqCst))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    #[test]
    fn miss_then_insert_then_hit() {
        let cache: VerdictCache<u32> = VerdictCache::new(4, 64);
        assert_eq!(cache.lookup(7), Lookup::Miss);
        let outcome = cache.insert(7, cache.epoch(), 42);
        assert_eq!(outcome, InsertOutcome::default());
        assert_eq!(cache.lookup(7), Lookup::Hit(42));
        assert_eq!(cache.occupancy(), 1);
    }

    #[test]
    fn shard_and_capacity_rounding() {
        let cache: VerdictCache<u8> = VerdictCache::new(3, 10);
        assert_eq!(cache.shard_count(), 4);
        assert_eq!(cache.capacity(), 12); // ceil(10/4) = 3 per shard
        let tiny: VerdictCache<u8> = VerdictCache::new(0, 0);
        assert_eq!(tiny.shard_count(), 1);
        assert_eq!(tiny.capacity(), 1);
        let huge: VerdictCache<u8> = VerdictCache::new(1 << 30, 1 << 12);
        assert_eq!(huge.shard_count(), MAX_SHARDS);
    }

    #[test]
    fn epoch_bump_turns_hits_into_stale_then_refresh() {
        let cache: VerdictCache<u32> = VerdictCache::new(1, 8);
        cache.insert(1, cache.epoch(), 10);
        assert_eq!(cache.lookup(1), Lookup::Hit(10));

        let new_epoch = cache.bump_epoch();
        assert_eq!(new_epoch, 1);
        assert_eq!(
            cache.lookup(1),
            Lookup::Stale,
            "old-epoch entries must never hit"
        );

        // Re-inserting at the new epoch refreshes the same slot.
        let outcome = cache.insert(1, new_epoch, 20);
        assert!(outcome.replaced);
        assert_eq!(cache.lookup(1), Lookup::Hit(20));
        assert_eq!(cache.occupancy(), 1);
    }

    #[test]
    fn current_occupancy_drops_to_zero_across_a_bump_while_resident_holds() {
        let cache: VerdictCache<u32> = VerdictCache::new(2, 16);
        for key in 0..6u64 {
            cache.insert(key, cache.epoch(), key as u32);
        }
        assert_eq!(cache.occupancy(), 6);
        assert_eq!(cache.current_occupancy(), 6);

        let new_epoch = cache.bump_epoch();
        // The stale slots still hold memory…
        assert_eq!(cache.occupancy(), 6, "resident count keeps stale slots");
        // …but none of them can serve a hit any more.
        assert_eq!(
            cache.current_occupancy(),
            0,
            "current-epoch occupancy must drop to zero at the bump"
        );

        // Refreshing a subset at the new epoch is reflected immediately.
        for key in 0..2u64 {
            cache.insert(key, new_epoch, key as u32 + 100);
        }
        assert_eq!(cache.current_occupancy(), 2);
        assert_eq!(cache.occupancy(), 6);
    }

    #[test]
    fn old_epoch_insert_never_hits() {
        // The swap race, distilled: a verdict assessed under epoch 0 is
        // inserted after the bump to epoch 1. It must miss, not poison.
        let cache: VerdictCache<u32> = VerdictCache::new(1, 8);
        let old = cache.epoch();
        cache.bump_epoch();
        cache.insert(5, old, 99);
        assert_eq!(cache.lookup(5), Lookup::Stale);
    }

    #[test]
    fn clock_eviction_gives_referenced_entries_a_second_chance() {
        // Single shard, capacity 2. Insert a and b; touch a; insert c.
        // CLOCK must evict b (a's reference bit buys it a second chance).
        let cache: VerdictCache<u32> = VerdictCache::new(1, 2);
        let e = cache.epoch();
        cache.insert(0, e, 0);
        cache.insert(1, e, 1);
        // Clear both reference bits with one wasted eviction cycle is
        // avoided: lookups set the bit, so touch only `0`.
        assert_eq!(cache.lookup(0), Lookup::Hit(0));
        assert_eq!(cache.lookup(1), Lookup::Hit(1));
        // Both referenced: the sweep clears 0's bit, clears 1's bit, then
        // wraps and takes 0... give `0` an extra touch pattern instead:
        // clear bits deterministically by inserting twice.
        let out = cache.insert(2, e, 2);
        assert!(out.evicted);
        // Exactly one of the old keys survived and capacity holds.
        let survivors = [0u64, 1]
            .iter()
            .filter(|&&k| cache.lookup(k) != Lookup::Miss)
            .count();
        assert_eq!(survivors, 1);
        assert_eq!(cache.lookup(2), Lookup::Hit(2));
        assert_eq!(cache.occupancy(), 2);
    }

    #[test]
    fn stale_entries_are_preferred_victims() {
        let cache: VerdictCache<u32> = VerdictCache::new(1, 2);
        let e0 = cache.epoch();
        cache.insert(10, e0, 1);
        let e1 = cache.bump_epoch();
        cache.insert(11, e1, 2);
        assert_eq!(cache.lookup(11), Lookup::Hit(2)); // referenced, current
                                                      // Full shard: the stale key 10 must be the victim even though the
                                                      // hand may point at the referenced current entry first.
        let out = cache.insert(12, e1, 3);
        assert!(out.evicted);
        assert_eq!(cache.lookup(10), Lookup::Miss, "stale entry evicted");
        assert_eq!(cache.lookup(11), Lookup::Hit(2), "current entry kept");
        assert_eq!(cache.lookup(12), Lookup::Hit(3));
    }

    #[test]
    fn keys_spread_across_shards() {
        let cache: VerdictCache<u64> = VerdictCache::new(8, 8 * 16);
        let e = cache.epoch();
        for k in 0..128u64 {
            cache.insert(k, e, k);
        }
        assert_eq!(cache.occupancy(), 128);
        for k in 0..128u64 {
            assert_eq!(cache.lookup(k), Lookup::Hit(k));
        }
    }

    #[test]
    fn concurrent_hammering_stays_consistent() {
        let cache: Arc<VerdictCache<u64>> = Arc::new(VerdictCache::new(8, 256));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let c = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                for i in 0..2_000u64 {
                    let key = (t * 31 + i) % 512;
                    match c.lookup(key) {
                        Lookup::Hit(v) => {
                            assert_eq!(v, key, "a hit must carry its own key's value")
                        }
                        Lookup::Stale | Lookup::Miss => {
                            c.insert(key, c.epoch(), key);
                        }
                    }
                    if i % 500 == 0 && t == 0 {
                        c.bump_epoch();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(cache.occupancy() <= cache.capacity());
        assert_eq!(cache.current_occupancy(), cache.scanned_current_occupancy());
    }

    proptest::proptest! {
        /// The per-shard count against the scan it replaced, after every
        /// step of a random history on a cache small enough (2 shards of
        /// 2 slots, 12 keys) that most inserts replace or evict: inserts
        /// at the current epoch, epoch bumps, and inserts that read their
        /// epoch any number of bumps ago (the swap race's late arrival).
        #[test]
        fn current_occupancy_equals_the_reference_scan(
            ops in proptest::collection::vec(proptest::any::<u64>(), 0..200),
        ) {
            let cache: VerdictCache<u64> = VerdictCache::new(2, 4);
            for op in ops {
                let key = (op >> 8) % 12;
                match op % 8 {
                    0 => {
                        cache.bump_epoch();
                    }
                    1 | 2 => {
                        let late = cache.epoch().saturating_sub(1 + (op >> 16) % 3);
                        cache.insert(key, late, op);
                    }
                    _ => {
                        cache.insert(key, cache.epoch(), op);
                    }
                }
                proptest::prop_assert_eq!(
                    cache.current_occupancy(),
                    cache.scanned_current_occupancy()
                );
                proptest::prop_assert!(cache.occupancy() <= cache.capacity());
            }
        }
    }

    /// One shard of [`Model`]: the slot arena, the CLOCK hand, and the
    /// ordered key→slot map this crate's shards were first written with.
    #[derive(Default)]
    struct ModelShard {
        /// `(key, epoch, referenced, value)`.
        slots: Vec<(u64, u64, bool, u64)>,
        index: BTreeMap<u64, usize>,
        hand: usize,
    }

    /// A straightforward sharded CLOCK cache, kept as the reference the
    /// real one is compared against step by step: same shard choice, same
    /// sweep, same victims — whatever the real shards index their slots
    /// with.
    struct Model {
        shards: Vec<ModelShard>,
        capacity_per_shard: usize,
        epoch: u64,
    }

    impl Model {
        fn new(shards: usize, capacity: usize) -> Self {
            Self {
                shards: (0..shards).map(|_| ModelShard::default()).collect(),
                capacity_per_shard: capacity / shards,
                epoch: 0,
            }
        }

        fn shard(&mut self, key: u64) -> &mut ModelShard {
            let at = (key % self.shards.len() as u64) as usize;
            &mut self.shards[at]
        }

        fn lookup(&mut self, key: u64) -> Lookup<u64> {
            let epoch = self.epoch;
            let shard = self.shard(key);
            let Some(&pos) = shard.index.get(&key) else {
                return Lookup::Miss;
            };
            let slot = &mut shard.slots[pos];
            if slot.1 != epoch {
                return Lookup::Stale;
            }
            slot.2 = true;
            Lookup::Hit(slot.3)
        }

        /// What the insert did, and the key it evicted (if it did).
        fn insert(&mut self, key: u64, epoch: u64, value: u64) -> (InsertOutcome, Option<u64>) {
            let capacity = self.capacity_per_shard;
            let shard = self.shard(key);
            let fresh = (key, epoch, true, value);
            if let Some(&pos) = shard.index.get(&key) {
                shard.slots[pos] = fresh;
                let replaced = InsertOutcome {
                    evicted: false,
                    replaced: true,
                };
                return (replaced, None);
            }
            if shard.slots.len() < capacity {
                shard.index.insert(key, shard.slots.len());
                shard.slots.push(fresh);
                return (InsertOutcome::default(), None);
            }
            // The sweep: a slot of another epoch than the insert's goes
            // on sight, a referenced one loses its bit and is passed.
            let victim = loop {
                let pos = shard.hand;
                shard.hand = (shard.hand + 1) % capacity;
                let slot = &mut shard.slots[pos];
                if slot.1 != epoch || !std::mem::replace(&mut slot.2, false) {
                    break pos;
                }
            };
            let evicted_key = shard.slots[victim].0;
            shard.index.remove(&evicted_key);
            shard.index.insert(key, victim);
            shard.slots[victim] = fresh;
            let evicted = InsertOutcome {
                evicted: true,
                replaced: false,
            };
            (evicted, Some(evicted_key))
        }

        fn resident_keys(&self) -> Vec<u64> {
            let mut keys: Vec<u64> = self
                .shards
                .iter()
                .flat_map(|s| s.index.keys().copied())
                .collect();
            keys.sort_unstable();
            keys
        }

        fn current_occupancy(&self) -> usize {
            self.shards
                .iter()
                .flat_map(|s| &s.slots)
                .filter(|slot| slot.1 == self.epoch)
                .count()
        }
    }

    /// The first `n` keys that land in shard 0 of `shards` and share the
    /// last-but-one cell of that shard's index: resident together they
    /// form one probe run that wraps past the table's end, and evicting
    /// any but the last of them opens a hole in its middle.
    fn keys_sharing_a_home(shards: usize, capacity: usize, n: usize) -> Vec<u64> {
        let index = Index::new(capacity / shards);
        let home = index.cells.len() - 2;
        (0..)
            .step_by(shards)
            .filter(|&key| index.home(key) == home)
            .take(n)
            .collect()
    }

    #[test]
    fn index_closes_a_hole_in_the_middle_of_a_wrapped_run() {
        // Four keys (a 4-slot shard's capacity) sharing cell 6 of its
        // 8-cell table occupy cells 6, 7, 0, 1.
        let keys = keys_sharing_a_home(1, 4, 4);
        let mut index = Index::new(4);
        assert_eq!(index.cells.len(), 8);
        for (slot, &key) in keys.iter().enumerate() {
            index.insert(key, slot);
        }
        let occupied = |index: &Index| -> Vec<usize> {
            (0..8).filter(|&at| index.cells[at].slot1 != 0).collect()
        };
        assert_eq!(occupied(&index), [0, 1, 6, 7]);
        // Removing the second key shifts the two behind it back across
        // the table's end; the run stays gapless and one cell shorter.
        index.remove(keys[1]);
        assert_eq!(occupied(&index), [0, 6, 7]);
        assert_eq!(index.get(keys[1]), None);
        for slot in [0, 2, 3] {
            assert_eq!(index.get(keys[slot]), Some(slot));
        }
        // A key whose home is past the hole is not dragged before it.
        let homed_past_it = (0..).find(|&key| index.home(key) == 1).unwrap();
        index.insert(homed_past_it, 1);
        assert_eq!(occupied(&index), [0, 1, 6, 7]);
        index.remove(keys[0]);
        assert_eq!(occupied(&index), [1, 6, 7], "the run before cell 1 shrank");
        assert_eq!(index.get(homed_past_it), Some(1));
        assert_eq!(index.get(keys[2]), Some(2));
        assert_eq!(index.get(keys[3]), Some(3));
        // Key 0 and slot 0 are ordinary.
        let mut index = Index::new(4);
        assert_eq!(index.get(0), None);
        index.insert(0, 0);
        assert_eq!(index.get(0), Some(0));
        index.remove(0);
        assert_eq!(index.get(0), None);
    }

    /// Replays `ops` on the real cache and on [`Model`], comparing after
    /// every step what the step returned, which key it evicted, and what
    /// is resident. Keys come from a small uniform range or from
    /// `crafted`, so that most inserts replace or evict.
    fn replay_against_model(shards: usize, capacity: usize, uniform: u64, ops: &[u64]) {
        let crafted = keys_sharing_a_home(shards, capacity, capacity);
        let cache: VerdictCache<u64> = VerdictCache::new(shards, capacity);
        let mut model = Model::new(shards, capacity);
        assert_eq!(cache.capacity(), capacity);
        for (step, &op) in ops.iter().enumerate() {
            let pick = op >> 8;
            let key = if pick & 1 == 0 {
                (pick >> 1) % uniform
            } else {
                crafted[(pick >> 1) as usize % crafted.len()]
            };
            let context = format!("step {step}, op {op:#x}, key {key}");
            match op % 8 {
                0 => {
                    model.epoch += 1;
                    assert_eq!(cache.bump_epoch(), model.epoch, "{context}");
                }
                1 | 2 => assert_eq!(cache.lookup(key), model.lookup(key), "{context}"),
                kind => {
                    // The swap race's late arrival: an epoch read one to
                    // three bumps ago.
                    let epoch = if kind == 3 {
                        model.epoch.saturating_sub(1 + (op >> 40) % 3)
                    } else {
                        model.epoch
                    };
                    let before = cache.resident_keys();
                    let outcome = cache.insert(key, epoch, op);
                    let after = cache.resident_keys();
                    let evicted: Vec<u64> = before
                        .iter()
                        .copied()
                        .filter(|k| after.binary_search(k).is_err())
                        .collect();
                    let (want_outcome, want_evicted) = model.insert(key, epoch, op);
                    assert_eq!(outcome, want_outcome, "{context}");
                    assert_eq!(
                        evicted,
                        want_evicted.into_iter().collect::<Vec<_>>(),
                        "{context}"
                    );
                }
            }
            assert_eq!(cache.resident_keys(), model.resident_keys(), "{context}");
            assert_eq!(
                cache.current_occupancy(),
                model.current_occupancy(),
                "{context}"
            );
        }
        // The index and the slots agree on who is resident: every key
        // either cache ever saw answers as the model says.
        for key in (0..uniform).chain(crafted) {
            assert_eq!(
                cache.lookup(key),
                model.lookup(key),
                "final lookup of {key}"
            );
        }
    }

    proptest::proptest! {
        /// Two shards of four slots: nearly every insert evicts, and the
        /// crafted keys fill shard 0 with one wrapped probe run.
        #[test]
        fn small_cache_matches_the_reference_clock(
            ops in proptest::collection::vec(proptest::any::<u64>(), 0..300),
        ) {
            replay_against_model(2, 8, 24, &ops);
        }

        /// One shard of 64 slots: long runs, deletions in their middle.
        #[test]
        fn one_wide_shard_matches_the_reference_clock(
            ops in proptest::collection::vec(proptest::any::<u64>(), 0..1500),
        ) {
            replay_against_model(1, 64, 96, &ops);
        }
    }
}
