//! The lock-free table: sharded fixed-size bucket arrays with
//! XOR-validated atomic entries, generation aging, and counters.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering::Relaxed};

use gametree::{Value, Window};
use problem_heap::CachePadded;

/// Result classification of a stored search (the usual alpha-beta bound
/// semantics): the searched value was exact, a lower bound (the search
/// failed high: value ≥ β), or an upper bound (failed low: value ≤ α).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bound {
    /// The stored value is the exact negamax value at the stored depth.
    Exact,
    /// The true value is ≥ the stored value (a β-cutoff occurred).
    Lower,
    /// The true value is ≤ the stored value (no child raised α).
    Upper,
}

/// Default table size exponent: 2^20 entries (16 MiB).
pub const DEFAULT_BITS: u32 = 20;

/// Hint sentinel: "no best move recorded".
const NO_HINT: u64 = 0;

// Packed `data` word layout (all fields validated together by the XOR
// trick, so a torn write can never yield a plausible mix of two entries):
//   bits  0..32  value (i32 as u32)
//   bits 32..48  best-move hint + 1 (0 = none); the hint is the child's
//                index in natural move order
//   bits 48..56  remaining search depth (clamped to 255)
//   bits 56..62  generation the entry was written in (mod 64)
//   bits 62..64  bound tag (0 = empty slot, 1 = Exact, 2 = Lower, 3 = Upper)
fn pack(value: Value, hint: Option<u16>, depth: u32, generation: u8, bound: Bound) -> u64 {
    let tag: u64 = match bound {
        Bound::Exact => 1,
        Bound::Lower => 2,
        Bound::Upper => 3,
    };
    let hint = hint.map_or(NO_HINT, |h| u64::from(h) + 1);
    (value.get() as u32 as u64)
        | (hint << 32)
        | (u64::from(depth.min(255)) << 48)
        | (u64::from(generation & 63) << 56)
        | (tag << 62)
}

fn unpack_value(data: u64) -> Value {
    Value::new(data as u32 as i32)
}

fn unpack_hint(data: u64) -> Option<u16> {
    let h = (data >> 32) & 0xffff;
    (h != NO_HINT).then(|| (h - 1) as u16)
}

fn unpack_depth(data: u64) -> u32 {
    ((data >> 48) & 0xff) as u32
}

fn unpack_generation(data: u64) -> u8 {
    ((data >> 56) & 63) as u8
}

fn unpack_bound(data: u64) -> Option<Bound> {
    match data >> 62 {
        1 => Some(Bound::Exact),
        2 => Some(Bound::Lower),
        3 => Some(Bound::Upper),
        _ => None, // 0: empty slot
    }
}

/// A validated table entry, decoded for the prober.
#[derive(Clone, Copy, Debug)]
pub struct Probe {
    /// The stored search value.
    pub value: Value,
    /// Remaining depth the value was searched to.
    pub depth: u32,
    /// How the stored value bounds the true value.
    pub bound: Bound,
    /// The best child in *natural move order*, if one was recorded. Usable
    /// for move ordering at any depth, unlike the value.
    pub hint: Option<u16>,
}

impl Probe {
    /// The value to return without searching, if this entry settles a node
    /// searched to `depth` under `window` — standard bound semantics, but
    /// only at *equal* depth (see the crate docs: equal-depth matching is
    /// what keeps TT-on root values bit-identical to TT-off).
    pub fn cutoff(&self, depth: u32, window: Window) -> Option<Value> {
        if self.depth != depth {
            return None;
        }
        match self.bound {
            Bound::Exact => Some(self.value),
            Bound::Lower if self.value >= window.beta => Some(self.value),
            Bound::Upper if self.value <= window.alpha => Some(self.value),
            _ => None,
        }
    }
}

/// One slot: `key` holds `hash ^ data`, `data` the packed record. A reader
/// recomputes `key ^ data` and compares against its own hash; any torn
/// combination of an old key with a new data word (or vice versa) fails
/// the comparison, so no locking is needed (Hyatt's lockless hashing).
#[derive(Default)]
struct Slot {
    key: AtomicU64,
    data: AtomicU64,
}

const WAYS: usize = 4;

/// A 4-way set-associative bucket: exactly one 64-byte cache line, and
/// `#[repr(align(64))]` so the allocator can never straddle a bucket
/// across two lines — one probe touches one line, period.
#[derive(Default)]
#[repr(align(64))]
struct Bucket {
    slots: [Slot; WAYS],
}

// The layout contract the probe path is built on, enforced at compile
// time: a slot is two packed words, a bucket is one full aligned line.
const _: () = {
    use std::mem::{align_of, size_of};
    assert!(size_of::<Slot>() == 16);
    assert!(size_of::<Bucket>() == 64);
    assert!(align_of::<Bucket>() == 64);
};

/// Number of counter stripes; a power of two so stripe selection is a
/// mask. Eight padded stripes spread unrelated workers' relaxed
/// `fetch_add` traffic across eight cache lines instead of piling every
/// increment onto one shared line.
const COUNTER_STRIPES: usize = 8;

/// Monotonic per-table event counters, updated with relaxed atomics — they
/// instrument, never synchronize.
#[derive(Default, Debug)]
pub struct TtCounters {
    /// Probe calls.
    pub probes: AtomicU64,
    /// Probes that validated an entry for the requested key.
    pub hits: AtomicU64,
    /// Hits whose entry carried an [`Bound::Exact`] value.
    pub exact_hits: AtomicU64,
    /// Stored move hints actually spliced to the front of a child list.
    pub hint_hits: AtomicU64,
    /// Store calls.
    pub stores: AtomicU64,
    /// Stores that overwrote a live entry (same or different key).
    pub replacements: AtomicU64,
    /// Stores that evicted a live *current-generation* entry of a
    /// different key — bucket-competition collisions, the signal that the
    /// table is too small for the search.
    pub collisions: AtomicU64,
}

/// A plain snapshot of [`TtCounters`], for results and JSON.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TtStats {
    /// Probe calls.
    pub probes: u64,
    /// Probes that validated an entry.
    pub hits: u64,
    /// Hits with an exact value.
    pub exact_hits: u64,
    /// Move hints spliced into child orderings.
    pub hint_hits: u64,
    /// Store calls.
    pub stores: u64,
    /// Stores overwriting a live entry.
    pub replacements: u64,
    /// Live current-generation entries evicted by a different key.
    pub collisions: u64,
}

impl TtStats {
    /// Hits per probe, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.probes == 0 {
            0.0
        } else {
            self.hits as f64 / self.probes as f64
        }
    }

    /// Counter deltas since an `earlier` snapshot of the same table
    /// (field-wise saturating subtraction).
    pub fn since(&self, earlier: &TtStats) -> TtStats {
        TtStats {
            probes: self.probes.saturating_sub(earlier.probes),
            hits: self.hits.saturating_sub(earlier.hits),
            exact_hits: self.exact_hits.saturating_sub(earlier.exact_hits),
            hint_hits: self.hint_hits.saturating_sub(earlier.hint_hits),
            stores: self.stores.saturating_sub(earlier.stores),
            replacements: self.replacements.saturating_sub(earlier.replacements),
            collisions: self.collisions.saturating_sub(earlier.collisions),
        }
    }
}

/// A sharded, lock-free concurrent transposition table.
///
/// The entry array is split into up to 64 shards, each its own boxed
/// bucket slice: shard selection uses the *high* hash bits and bucket
/// selection the *low* bits, so consecutive probes of unrelated positions
/// land in independent allocations. Entries themselves are wait-free
/// atomics (see `Slot`); the shards stripe memory, not locks — there is
/// nothing to lock.
pub struct TranspositionTable {
    shards: Vec<Box<[Bucket]>>,
    /// `log2(shards.len())`.
    shard_bits: u32,
    /// `buckets per shard - 1` (buckets per shard is a power of two).
    bucket_mask: u64,
    /// Current search generation (mod 64); see [`Self::new_search`].
    generation: AtomicU8,
    /// Total [`Self::new_generation`] calls since construction — the
    /// *unwrapped* generation clock. The packed entries only carry the
    /// 6-bit residue, so once this passes 63 each further bump must
    /// demote entries stamped with the residue being re-entered (see
    /// [`Self::new_generation`]); the epoch tells us when that starts.
    epoch: AtomicU64,
    /// Hash-striped counter blocks, each padded to its own cache line so
    /// concurrent workers' bookkeeping doesn't false-share; see
    /// [`Self::counters`].
    counters: [CachePadded<TtCounters>; COUNTER_STRIPES],
}

impl TranspositionTable {
    /// A table with `2^bits` entries (`bits` is clamped to `[2, 30]`; the
    /// minimum is a single 4-way bucket, the churn configuration the
    /// replacement-policy tests use).
    pub fn with_bits(bits: u32) -> TranspositionTable {
        let bits = bits.clamp(2, 30);
        let buckets = 1usize << (bits - 2); // 4 entries per bucket
        let shard_count = buckets.min(64);
        let buckets_per_shard = buckets / shard_count;
        let shards = (0..shard_count)
            .map(|_| {
                (0..buckets_per_shard)
                    .map(|_| Bucket::default())
                    .collect::<Vec<_>>()
                    .into_boxed_slice()
            })
            .collect();
        TranspositionTable {
            shards,
            shard_bits: shard_count.trailing_zeros(),
            bucket_mask: buckets_per_shard as u64 - 1,
            generation: AtomicU8::new(0),
            epoch: AtomicU64::new(0),
            counters: Default::default(),
        }
    }

    /// A table of the default size (`2^`[`DEFAULT_BITS`] entries).
    pub fn new_default() -> TranspositionTable {
        TranspositionTable::with_bits(DEFAULT_BITS)
    }

    /// Total entry capacity.
    pub fn capacity(&self) -> usize {
        self.shards.len() * (self.bucket_mask as usize + 1) * WAYS
    }

    /// Number of independent shard allocations backing the table.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Sampled fill rate in `[0, 1]`: the live-slot fraction over up to
    /// `n` buckets spread evenly across the whole table (all of it when
    /// `n` covers the bucket count). A slot is live when its packed
    /// bound field decodes (the same emptiness test the probe path
    /// uses); reads are relaxed, so the estimate races benignly with
    /// concurrent stores — exactly what a scrape-time gauge wants.
    /// Walking every bucket of a big table on each snapshot would dwarf
    /// the metric's value; `n = 1024` keeps the cost at a few microseconds
    /// with a worst-case sampling error a fill-rate gauge can absorb.
    pub fn occupancy_sample(&self, n: usize) -> f64 {
        let buckets_per_shard = self.bucket_mask as usize + 1;
        let total_buckets = self.shards.len() * buckets_per_shard;
        let sample = n.clamp(1, total_buckets);
        // Fixed-point stride walk hits `sample` distinct buckets spread
        // over the full [0, total_buckets) range, shards included.
        let mut filled = 0usize;
        for i in 0..sample {
            let g = i * total_buckets / sample;
            let bucket = &self.shards[g / buckets_per_shard][g % buckets_per_shard];
            for slot in &bucket.slots {
                if unpack_bound(slot.data.load(Relaxed)).is_some() {
                    filled += 1;
                }
            }
        }
        filled as f64 / (sample * WAYS) as f64
    }

    /// Advances the table to a new generation so existing entries age.
    /// Aged entries remain probe-able (iterative deepening and later
    /// sessions reuse them) but lose replacement priority, freeing the
    /// table for fresh work.
    ///
    /// This is the *aging policy hook*: callers decide what one generation
    /// means. The iterative-deepening drivers bump once per depth
    /// iteration; the multi-session engine server bumps once per
    /// *session-slice*, so entries written by M interleaved sessions age
    /// coherently on one shared clock instead of one session's depth loop
    /// racing everyone else's; the game loop bumps once per *move*.
    /// Aging never invalidates an entry — XOR validation is independent
    /// of generation — it only reorders eviction priority (`depth − 8·age`).
    ///
    /// Wraparound: entries store their generation mod 64, so once the
    /// clock has lapped (65th bump onward) an entry written 64 bumps ago
    /// would carry the *same* residue as the incoming generation and
    /// alias as brand-new — exactly the entries that should be evicted
    /// first would instead win every replacement race for the rest of the
    /// game. To keep the residues honest, each bump past the first lap
    /// demotes survivors stamped with the residue being re-entered to the
    /// residue *one ahead* of it, i.e. age 63. The demoted stamp is
    /// itself re-entered on the next bump, so a long-lived entry keeps
    /// riding at maximum age instead of ever cycling back to "current".
    /// The sweep is O(capacity) of relaxed loads once per bump — per
    /// move/slice noise next to the millions of probes in between.
    pub fn new_generation(&self) {
        let epoch = self.epoch.fetch_add(1, Relaxed) + 1;
        let next = (epoch & 63) as u8;
        if epoch > 63 {
            self.demote_generation(next);
        }
        self.generation.store(next, Relaxed);
    }

    /// Re-stamps every live entry whose generation residue equals `next`
    /// (about to be re-entered by the wrapping clock) to `next + 1` —
    /// the oldest possible age under the incoming generation. Rewrites
    /// preserve XOR validation (`new_key = old_key ^ old_data ^ new_data`
    /// keeps `key ^ data` equal to the entry's hash); a concurrent store
    /// racing a demotion at worst tears the pair, which the validation
    /// already treats as a miss.
    fn demote_generation(&self, next: u8) {
        let demoted = u64::from((next + 1) & 63);
        const GEN_MASK: u64 = 63 << 56;
        for shard in &self.shards {
            for bucket in shard.iter() {
                for slot in &bucket.slots {
                    let key = slot.key.load(Relaxed);
                    let data = slot.data.load(Relaxed);
                    if unpack_bound(data).is_none() || unpack_generation(data) != next {
                        continue;
                    }
                    let new_data = (data & !GEN_MASK) | (demoted << 56);
                    slot.data.store(new_data, Relaxed);
                    slot.key.store(key ^ data ^ new_data, Relaxed);
                }
            }
        }
    }

    /// Starts a new search: an alias of [`Self::new_generation`] kept for
    /// the per-depth drivers, whose "searches" are depth iterations.
    pub fn new_search(&self) {
        self.new_generation();
    }

    /// The current generation (mod 64) — lets drivers such as iterative
    /// deepening assert that each depth ran under its own generation.
    pub fn generation(&self) -> u8 {
        self.generation.load(Relaxed)
    }

    /// Total generation bumps since construction (the unwrapped clock
    /// behind [`Self::generation`]) — lets a game loop assert one bump
    /// per move across arbitrarily long games.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Relaxed)
    }

    /// The counter stripe `hash` bills to. Any well-mixed bits work; the
    /// point is only that concurrent workers (whose hashes are unrelated)
    /// usually land on different cache lines. Hashless bookkeeping
    /// ([`Self::note_hint_used`]) bills stripe 0.
    #[inline]
    fn counters(&self, hash: u64) -> &TtCounters {
        &self.counters[(hash as usize) & (COUNTER_STRIPES - 1)]
    }

    fn bucket(&self, hash: u64) -> &Bucket {
        // High bits pick the shard, low bits the bucket within it, so the
        // two indices never alias even for tiny tables.
        let shard = if self.shard_bits == 0 {
            0
        } else {
            (hash >> (64 - self.shard_bits)) as usize
        };
        &self.shards[shard][(hash & self.bucket_mask) as usize]
    }

    /// Looks up `hash`, returning the decoded entry if any slot of its
    /// bucket validates.
    pub fn probe(&self, hash: u64) -> Option<Probe> {
        let counters = self.counters(hash);
        counters.probes.fetch_add(1, Relaxed);
        for slot in &self.bucket(hash).slots {
            let key = slot.key.load(Relaxed);
            let data = slot.data.load(Relaxed);
            if key ^ data != hash {
                continue;
            }
            let Some(bound) = unpack_bound(data) else {
                continue; // empty slot (only reachable when hash == 0)
            };
            counters.hits.fetch_add(1, Relaxed);
            if bound == Bound::Exact {
                counters.exact_hits.fetch_add(1, Relaxed);
            }
            return Some(Probe {
                value: unpack_value(data),
                depth: unpack_depth(data),
                bound,
                hint: unpack_hint(data),
            });
        }
        None
    }

    /// Records a search result for `hash`.
    ///
    /// Replacement policy (DESIGN.md §8): a slot already holding this key
    /// is always overwritten (with equal-depth probing, the most recent
    /// result is the most useful one); otherwise an empty slot is taken;
    /// otherwise the slot with the lowest `depth − 8·age` score is evicted
    /// — old generations go first, then shallow entries, so deep
    /// current-search results survive bucket pressure longest.
    pub fn store(&self, hash: u64, depth: u32, value: Value, bound: Bound, hint: Option<u16>) {
        let counters = self.counters(hash);
        counters.stores.fetch_add(1, Relaxed);
        let generation = self.generation.load(Relaxed);
        let bucket = self.bucket(hash);
        let mut victim = 0usize;
        let mut victim_score = i64::MAX;
        let mut victim_live = false;
        let mut victim_current_gen = false;
        for (i, slot) in bucket.slots.iter().enumerate() {
            let key = slot.key.load(Relaxed);
            let data = slot.data.load(Relaxed);
            if unpack_bound(data).is_none() {
                // Empty slot: free real estate, unless the key itself is
                // already present later in the bucket — same-key wins, and
                // an earlier empty slot cannot shadow it because stores
                // only ever fill the chosen slot.
                if victim_live || victim_score > i64::MIN {
                    victim = i;
                    victim_score = i64::MIN;
                    victim_live = false;
                    victim_current_gen = false;
                }
                continue;
            }
            if key ^ data == hash {
                // Same position: overwrite in place.
                let new = pack(value, hint, depth, generation, bound);
                slot.data.store(new, Relaxed);
                slot.key.store(hash ^ new, Relaxed);
                return;
            }
            let age = i64::from((generation + 64 - unpack_generation(data)) & 63);
            let score = i64::from(unpack_depth(data)) - 8 * age;
            if score < victim_score {
                victim = i;
                victim_score = score;
                victim_live = true;
                victim_current_gen = age == 0;
            }
        }
        if victim_live {
            counters.replacements.fetch_add(1, Relaxed);
            if victim_current_gen {
                counters.collisions.fetch_add(1, Relaxed);
            }
        }
        let slot = &bucket.slots[victim];
        let new = pack(value, hint, depth, generation, bound);
        slot.data.store(new, Relaxed);
        slot.key.store(hash ^ new, Relaxed);
    }

    /// Counts one applied move hint (called by searches through
    /// [`crate::TtAccess`] when a stored best move is spliced to the front
    /// of a child list).
    pub fn note_hint_used(&self) {
        self.counters[0].hint_hits.fetch_add(1, Relaxed);
    }

    /// A consistent-enough snapshot of the counters (relaxed reads; exact
    /// once the search has quiesced).
    pub fn stats(&self) -> TtStats {
        let mut t = TtStats::default();
        for stripe in &self.counters {
            t.probes += stripe.probes.load(Relaxed);
            t.hits += stripe.hits.load(Relaxed);
            t.exact_hits += stripe.exact_hits.load(Relaxed);
            t.hint_hits += stripe.hint_hits.load(Relaxed);
            t.stores += stripe.stores.load(Relaxed);
            t.replacements += stripe.replacements.load(Relaxed);
            t.collisions += stripe.collisions.load(Relaxed);
        }
        t
    }
}

impl std::fmt::Debug for TranspositionTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TranspositionTable")
            .field("capacity", &self.capacity())
            .field("shards", &self.shards.len())
            .field("generation", &self.generation.load(Relaxed))
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_round_trips_all_fields() {
        for value in [Value::NEG_INF, Value::INF, Value::ZERO, Value::new(-1234)] {
            for hint in [None, Some(0u16), Some(63), Some(u16::MAX - 1)] {
                for depth in [0u32, 1, 17, 255] {
                    for generation in [0u8, 1, 63] {
                        for bound in [Bound::Exact, Bound::Lower, Bound::Upper] {
                            let d = pack(value, hint, depth, generation, bound);
                            assert_eq!(unpack_value(d), value);
                            assert_eq!(unpack_hint(d), hint);
                            assert_eq!(unpack_depth(d), depth);
                            assert_eq!(unpack_generation(d), generation);
                            assert_eq!(unpack_bound(d), Some(bound));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn store_then_probe_round_trips() {
        let t = TranspositionTable::with_bits(10);
        t.store(0xdead_beef, 5, Value::new(42), Bound::Exact, Some(3));
        let p = t.probe(0xdead_beef).expect("stored entry found");
        assert_eq!(p.value, Value::new(42));
        assert_eq!(p.depth, 5);
        assert_eq!(p.bound, Bound::Exact);
        assert_eq!(p.hint, Some(3));
        assert!(t.probe(0xdead_beef + 1).is_none());
        let s = t.stats();
        assert_eq!((s.probes, s.hits, s.stores), (2, 1, 1));
    }

    #[test]
    fn hash_zero_is_storable_and_empty_slots_never_validate_it() {
        let t = TranspositionTable::with_bits(4);
        assert!(t.probe(0).is_none(), "empty slot must not validate hash 0");
        t.store(0, 3, Value::new(-7), Bound::Lower, None);
        let p = t.probe(0).expect("hash 0 entry");
        assert_eq!(p.value, Value::new(-7));
        assert_eq!(p.bound, Bound::Lower);
    }

    #[test]
    fn cutoff_requires_equal_depth() {
        let p = Probe {
            value: Value::new(10),
            depth: 4,
            bound: Bound::Exact,
            hint: None,
        };
        assert_eq!(p.cutoff(4, Window::FULL), Some(Value::new(10)));
        assert_eq!(p.cutoff(3, Window::FULL), None);
        assert_eq!(p.cutoff(5, Window::FULL), None);
    }

    #[test]
    fn cutoff_respects_bound_semantics() {
        let w = Window::new(Value::new(0), Value::new(10));
        let lower = Probe {
            value: Value::new(10),
            depth: 2,
            bound: Bound::Lower,
            hint: None,
        };
        assert_eq!(lower.cutoff(2, w), Some(Value::new(10)));
        let weak_lower = Probe {
            value: Value::new(5),
            ..lower
        };
        assert_eq!(weak_lower.cutoff(2, w), None);
        let upper = Probe {
            value: Value::new(0),
            depth: 2,
            bound: Bound::Upper,
            hint: None,
        };
        assert_eq!(upper.cutoff(2, w), Some(Value::new(0)));
        let weak_upper = Probe {
            value: Value::new(5),
            ..upper
        };
        assert_eq!(weak_upper.cutoff(2, w), None);
    }

    #[test]
    fn same_key_store_overwrites_in_place() {
        let t = TranspositionTable::with_bits(2); // a single bucket
        t.store(77, 2, Value::new(1), Bound::Upper, None);
        t.store(77, 1, Value::new(9), Bound::Exact, Some(0));
        let p = t.probe(77).expect("entry");
        assert_eq!(p.depth, 1, "latest result wins for the same key");
        assert_eq!(p.value, Value::new(9));
        // In-place overwrite is not a replacement.
        assert_eq!(t.stats().replacements, 0);
    }

    #[test]
    fn one_bucket_table_evicts_shallowest() {
        let t = TranspositionTable::with_bits(2); // 4 entries, 1 bucket
        for h in 1..=4u64 {
            t.store(h, h as u32 + 1, Value::ZERO, Bound::Exact, None);
        }
        assert_eq!(t.stats().replacements, 0, "four stores fill four ways");
        // A fifth key evicts the shallowest (depth 2 = hash 1).
        t.store(5, 10, Value::ZERO, Bound::Exact, None);
        assert!(t.probe(1).is_none(), "shallowest entry evicted");
        assert!(t.probe(5).is_some());
        let s = t.stats();
        assert_eq!(s.replacements, 1);
        assert_eq!(s.collisions, 1, "victim was current-generation");
    }

    #[test]
    fn aged_entries_lose_replacement_priority_but_stay_probeable() {
        let t = TranspositionTable::with_bits(2);
        t.store(1, 200, Value::ZERO, Bound::Exact, None); // deep, old
        t.new_search();
        assert!(
            t.probe(1).is_some(),
            "previous-generation entries still probe"
        );
        for h in 2..=4u64 {
            t.store(h, 1, Value::ZERO, Bound::Exact, None);
        }
        // Bucket now full: deep-but-old (200 - 8*1) loses to shallow-but-new
        // (1 - 0) only if its score is lower; 192 > 1, so a new store evicts
        // a *shallow current* entry instead.
        t.store(5, 1, Value::ZERO, Bound::Exact, None);
        assert!(t.probe(1).is_some(), "deep old entry survives");
        // But a sufficiently shallow old entry goes first.
        let t = TranspositionTable::with_bits(2);
        t.store(1, 3, Value::ZERO, Bound::Exact, None);
        t.new_search();
        for h in 2..=4u64 {
            t.store(h, 2, Value::ZERO, Bound::Exact, None);
        }
        t.store(5, 1, Value::ZERO, Bound::Exact, None);
        assert!(t.probe(1).is_none(), "shallow aged entry evicted first");
        assert_eq!(t.stats().collisions, 0, "victim was a past generation");
    }

    #[test]
    fn cross_session_hits_still_xor_validate() {
        // Two interleaved "sessions" share one table under the engine
        // server's per-slice aging policy: every slice bumps the
        // generation via `new_generation()`. Entries written by either
        // session in any earlier slice must keep XOR-validating — a hit
        // must always decode the payload stored for exactly that key —
        // and aging must never fabricate a hit for a key never stored.
        let t = TranspositionTable::with_bits(10);
        let hash_a = |i: u64| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let hash_b = |i: u64| i.wrapping_mul(0xc2b2_ae3d_27d4_eb4f) | 2;
        for slice in 0..12u64 {
            t.new_generation(); // one bump per session-slice
            if slice % 2 == 0 {
                t.store(
                    hash_a(slice),
                    3,
                    Value::new(slice as i32),
                    Bound::Exact,
                    Some(1),
                );
            } else {
                t.store(
                    hash_b(slice),
                    4,
                    Value::new(-(slice as i32)),
                    Bound::Lower,
                    None,
                );
            }
        }
        // Session A probing entries B wrote (and vice versa): every hit
        // carries the payload stored under that exact hash.
        for slice in 0..12u64 {
            let (hash, want, depth) = if slice % 2 == 0 {
                (hash_a(slice), Value::new(slice as i32), 3)
            } else {
                (hash_b(slice), Value::new(-(slice as i32)), 4)
            };
            if let Some(p) = t.probe(hash) {
                assert_eq!(p.value, want, "slice {slice}: wrong payload for key");
                assert_eq!(p.depth, depth, "slice {slice}: wrong depth for key");
            }
        }
        // Keys never stored must not validate, whatever the generation.
        for slice in 0..12u64 {
            assert!(t.probe(hash_a(slice) ^ hash_b(slice)).is_none());
        }
    }

    #[test]
    fn generation_wraps_mod_64() {
        let t = TranspositionTable::with_bits(4);
        assert_eq!(t.generation(), 0);
        t.new_search();
        assert_eq!(t.generation(), 1);
        for _ in 1..130 {
            t.new_search();
        }
        assert_eq!(t.generation(), 130 % 64);
        assert_eq!(t.epoch(), 130);
        t.store(9, 1, Value::ZERO, Bound::Exact, None);
        assert!(t.probe(9).is_some());
    }

    #[test]
    fn wrapped_generation_entry_loses_replacement_race() {
        // The cross-move aging bug: a normal-length game bumps the
        // generation once per move, and the 6-bit residue laps after 64
        // moves. Pre-fix, an entry written on move 1 aliased as *current*
        // from move 65 onward, so a deep stale entry (depth 200 here)
        // outranked every genuinely fresh entry in replacement for the
        // rest of the game. Post-fix the wrap demotion keeps it pinned at
        // age 63, so it is the first to go.
        let t = TranspositionTable::with_bits(2); // one 4-way bucket
        t.store(1, 200, Value::ZERO, Bound::Exact, None); // deep, move 1
        for _ in 0..70 {
            t.new_generation();
        }
        // It aged, it did not vanish: still probeable after the lap.
        assert!(t.probe(1).is_some(), "aging must never invalidate");
        // Fill the rest of the bucket with fresh shallow entries, then
        // force one eviction.
        for h in 2..=4u64 {
            t.store(h, 1, Value::ZERO, Bound::Exact, None);
        }
        t.store(5, 1, Value::ZERO, Bound::Exact, None);
        assert!(
            t.probe(1).is_none(),
            "64-generation-old entry must lose the replacement race \
             to current-generation entries after the clock wraps"
        );
        for h in 2..=5u64 {
            assert!(t.probe(h).is_some(), "fresh entry {h} evicted instead");
        }
        assert_eq!(t.stats().collisions, 0, "victim was a past generation");
    }

    #[test]
    fn demotion_preserves_xor_validation_and_payload() {
        // Entries that survive many wrap demotions must still decode the
        // exact payload stored for their key — the key fix-up
        // `new_key = old_key ^ old_data ^ new_data` keeps `key ^ data`
        // equal to the hash through every re-stamp.
        let t = TranspositionTable::with_bits(8);
        let hash = |i: u64| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        for i in 0..32u64 {
            t.store(hash(i), 7, Value::new(i as i32 - 16), Bound::Lower, Some(2));
        }
        for _ in 0..200 {
            t.new_generation(); // three full laps of demotion sweeps
        }
        for i in 0..32u64 {
            let p = t.probe(hash(i)).expect("entry survives in a roomy table");
            assert_eq!(p.value, Value::new(i as i32 - 16));
            assert_eq!(p.depth, 7);
            assert_eq!(p.bound, Bound::Lower);
            assert_eq!(p.hint, Some(2));
        }
        // And unknown keys still never validate.
        for i in 0..32u64 {
            assert!(t.probe(hash(i) ^ 0xffff).is_none());
        }
    }

    #[test]
    fn capacity_matches_bits() {
        assert_eq!(TranspositionTable::with_bits(2).capacity(), 4);
        assert_eq!(TranspositionTable::with_bits(10).capacity(), 1024);
        // Clamped below 2.
        assert_eq!(TranspositionTable::with_bits(0).capacity(), 4);
    }

    #[test]
    fn occupancy_sample_tracks_fill() {
        let t = TranspositionTable::with_bits(10);
        assert_eq!(t.occupancy_sample(64), 0.0, "fresh table is empty");

        // Saturate every bucket: far more well-spread keys than slots.
        for h in 0..8192u64 {
            let hash = h.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            t.store(hash, 3, Value::new(h as i32), Bound::Exact, None);
        }
        let full = t.occupancy_sample(64);
        assert!(
            full > 0.9,
            "saturated table should sample near 1.0, got {full}"
        );
        // Exhaustive sampling (n >= bucket count) visits each bucket
        // once, so requesting more changes nothing.
        let exact = t.occupancy_sample(usize::MAX);
        assert_eq!(exact, t.occupancy_sample(t.capacity()));
        assert!(exact > 0.9);

        // A half-warm table lands strictly between the extremes.
        let t = TranspositionTable::with_bits(10);
        for h in 0..96u64 {
            let hash = h.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            t.store(hash, 3, Value::new(h as i32), Bound::Exact, None);
        }
        let part = t.occupancy_sample(usize::MAX);
        assert!(part > 0.0 && part < 1.0, "partial fill sampled {part}");

        // Degenerate n never divides by zero.
        assert!(t.occupancy_sample(0) >= 0.0);
    }

    #[test]
    fn distinct_hashes_do_not_cross_validate() {
        let t = TranspositionTable::with_bits(12);
        for h in 0..512u64 {
            let hash = h.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            t.store(hash, 1, Value::new(h as i32), Bound::Exact, None);
        }
        for h in 0..512u64 {
            let hash = h.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            if let Some(p) = t.probe(hash) {
                assert_eq!(p.value, Value::new(h as i32), "wrong payload for key");
            }
        }
    }
}

#[cfg(test)]
mod sizes {
    //! Layout asserts, mirrored at compile time above: CI runs
    //! `cargo test sizes` so a field addition that bloats a hot struct
    //! fails loudly, with this module naming the contract.

    use super::*;
    use std::mem::{align_of, size_of};

    #[test]
    fn slot_is_sixteen_bytes() {
        assert_eq!(size_of::<Slot>(), 16);
    }

    #[test]
    fn bucket_is_exactly_one_aligned_cache_line() {
        assert_eq!(size_of::<Bucket>(), 64);
        assert_eq!(align_of::<Bucket>(), 64);
        // And the allocation respects it: every bucket of a live table
        // starts on a line boundary.
        let tt = TranspositionTable::with_bits(6);
        for shard in &tt.shards {
            for bucket in shard.iter() {
                assert_eq!(bucket as *const Bucket as usize % 64, 0);
            }
        }
    }

    #[test]
    fn counter_stripes_are_line_disjoint() {
        let tt = TranspositionTable::with_bits(4);
        assert_eq!(size_of::<CachePadded<TtCounters>>(), 64);
        let lines: Vec<usize> = tt
            .counters
            .iter()
            .map(|c| (&**c) as *const TtCounters as usize / 64)
            .collect();
        for (i, a) in lines.iter().enumerate() {
            for b in &lines[i + 1..] {
                assert_ne!(a, b, "two counter stripes share a cache line");
            }
        }
    }

    #[test]
    fn striped_counters_still_sum_in_stats() {
        let tt = TranspositionTable::with_bits(8);
        // Hashes chosen to scatter across stripes (low bits differ).
        for h in 0..64u64 {
            let hash = h.wrapping_mul(0x9e37_79b9_7f4a_7c15) | h;
            tt.store(hash, 3, Value::new(1), Bound::Exact, None);
            assert!(tt.probe(hash).is_some());
        }
        let s = tt.stats();
        assert_eq!(s.probes, 64);
        assert_eq!(s.hits, 64);
        assert_eq!(s.stores, 64);
    }
}
