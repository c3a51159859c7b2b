//! The direct-mapped memo in front of [`crate::DistinctRows`]' ordered
//! map, which numbers a window's rows by first appearance: coarse
//! fingerprints collide, so most rows interned are repeats, and a repeat
//! found in the memo skips the map walk.
//!
//! A slot holds `id + 1` (zero is empty) and is picked by a seedless mix
//! of the row's bits ([`mix_row`]). The caller guards every hit with an
//! exact comparison and answers a miss from its ordered map, which stays
//! the source of truth, then writes the slot. A collision therefore costs
//! one ordered-map lookup, never a wrong id, and a stream crafted to
//! collide costs the map's O(log n) lookup plus one hash per row.

/// Slots in a memo, 16 KiB: about ten times the few hundred distinct
/// rows a traffic window holds, so only a few percent of them share a
/// slot with another.
pub(crate) const MEMO_SLOTS: usize = 4096;

/// Multiplier of the row mix's lanes (the golden-ratio constant, odd).
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// A fixed table of `id + 1`, indexed by the low bits of a key's hash.
#[derive(Clone)]
pub(crate) struct Memo {
    /// `MEMO_SLOTS` long outside tests; a power of two.
    slots: Box<[u32]>,
}

impl std::fmt::Debug for Memo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Memo")
            .field("slots", &self.slots.len())
            .finish()
    }
}

impl Memo {
    /// An empty memo of `slots` slots (a power of two).
    pub(crate) fn new(slots: usize) -> Self {
        debug_assert!(slots.is_power_of_two(), "memo slots");
        Self {
            slots: vec![0; slots].into_boxed_slice(),
        }
    }

    #[inline]
    fn slot(&self, hash: u64) -> usize {
        hash as usize & (self.slots.len() - 1)
    }

    /// The id last stored in `hash`'s slot, if any — a candidate the
    /// caller must still compare with the key.
    #[inline]
    pub(crate) fn get(&self, hash: u64) -> Option<usize> {
        let held = self.slots[self.slot(hash)];
        (held != 0).then(|| held as usize - 1)
    }

    /// Stores `id` in `hash`'s slot, over whatever it held. An id beyond
    /// `u32` is not memoised.
    #[inline]
    pub(crate) fn set(&mut self, hash: u64, id: usize) {
        let at = self.slot(hash);
        self.slots[at] = u32::try_from(id + 1).unwrap_or(0);
    }

    /// Empties every slot (the ids were renumbered).
    pub(crate) fn clear(&mut self) {
        self.slots.fill(0);
    }
}

/// splitmix64's finaliser: spreads every input bit over the low bits a
/// slot is taken from.
#[inline]
fn finalise(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The memo hash of a row: its [`f64::to_bits`] words mixed in four
/// independent lanes (word `i` into lane `i % 4`), the lanes combined and
/// finalised. Four lanes let the multiplies overlap, a quarter of the
/// chain a one-lane mix has; the finaliser is what makes the low bits
/// usable, since the bits of a small integer's `f64` are zero below the
/// mantissa's top few and a multiply only carries upwards.
#[inline]
pub(crate) fn mix_row(row: &[f64]) -> u64 {
    let mut lanes = [1u64, 2, 3, 4];
    let mut words = row.chunks_exact(4);
    for chunk in &mut words {
        for (lane, v) in lanes.iter_mut().zip(chunk) {
            *lane = (*lane ^ v.to_bits()).wrapping_mul(MIX);
        }
    }
    for (lane, v) in lanes.iter_mut().zip(words.remainder()) {
        *lane = (*lane ^ v.to_bits()).wrapping_mul(MIX);
    }
    finalise(
        lanes[0] ^ lanes[1].rotate_left(16) ^ lanes[2].rotate_left(32) ^ lanes[3].rotate_left(48),
    )
}
