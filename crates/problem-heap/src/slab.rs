//! Append-only publish slab: the lock-free position arena.
//!
//! The threaded back-end's scheduler mutates the search tree under the
//! heap mutex, but executors must read node positions *without* it: the
//! paper's §3.1 interference analysis charges every nanosecond of lock
//! hold time to every waiting processor. The search tree therefore keeps
//! every node's position in this slab, keyed by node id: applying a move
//! list *moves* each child position in once (no clone, no refcount), and
//! workers — owners and thieves alike — read it back lock-free after
//! dropping the lock.
//!
//! The slab is fully safe code: a chunked spine of [`OnceLock`]s. Each
//! spine slot lazily materializes a chunk of `OnceLock<T>` cells, chunk
//! sizes growing geometrically (1024, 2048, 4096, …) so the spine stays
//! tiny while indexing is O(1). Published entries are immutable —
//! publishing the same index twice keeps the first value, which is
//! harmless here because node ids are reserved once and a node's position
//! never changes.
//!
//! Writes happen under the heap lock (so they are already serialized);
//! reads are lock-free from any thread. `OnceLock::get` is a single atomic
//! load on the fast path.

use std::sync::OnceLock;

/// Base chunk size; chunk `k` holds `BASE << k` entries.
const BASE: usize = 1024;
/// Number of spine slots. 24 geometric chunks cover ~17 billion indices —
/// far beyond any node-id this repo can allocate.
const SPINE: usize = 24;

/// A lazily-materialized chunk of publication cells.
type Chunk<T> = Box<[OnceLock<T>]>;

/// An append-only, index-addressed publication table. Writes are
/// serialized by the caller (the heap lock); reads are lock-free.
pub struct PublishSlab<T> {
    spine: Box<[OnceLock<Chunk<T>>]>,
}

impl<T> PublishSlab<T> {
    /// An empty slab. Allocates only the spine (a few hundred bytes);
    /// chunks materialize on first publish into their index range.
    pub fn new() -> PublishSlab<T> {
        let spine = (0..SPINE)
            .map(|_| OnceLock::new())
            .collect::<Vec<_>>()
            .into_boxed_slice();
        PublishSlab { spine }
    }

    /// Chunk number and offset within the chunk for a flat index.
    ///
    /// Chunk `k` covers `[BASE * (2^k - 1), BASE * (2^(k+1) - 1))`.
    fn locate(idx: usize) -> (usize, usize) {
        let k = usize::BITS - 1 - (idx / BASE + 1).leading_zeros();
        let k = k as usize;
        let start = BASE * ((1 << k) - 1);
        (k, idx - start)
    }

    /// Publishes `value` at `idx`. First publication wins; a repeat at the
    /// same index is a no-op (returns `false`). Panics if `idx` exceeds the
    /// slab's astronomically large addressable range.
    pub fn publish(&self, idx: usize, value: T) -> bool {
        let (k, off) = Self::locate(idx);
        let chunk = self.spine[k].get_or_init(|| {
            (0..BASE << k)
                .map(|_| OnceLock::new())
                .collect::<Vec<_>>()
                .into_boxed_slice()
        });
        chunk[off].set(value).is_ok()
    }

    /// Lock-free read of the entry published at `idx`, if any.
    pub fn get(&self, idx: usize) -> Option<&T> {
        let (k, off) = Self::locate(idx);
        self.spine[k].get()?[off].get()
    }
}

impl<T> Default for PublishSlab<T> {
    fn default() -> Self {
        PublishSlab::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn locate_covers_chunk_boundaries() {
        assert_eq!(PublishSlab::<()>::locate(0), (0, 0));
        assert_eq!(PublishSlab::<()>::locate(BASE - 1), (0, BASE - 1));
        assert_eq!(PublishSlab::<()>::locate(BASE), (1, 0));
        assert_eq!(PublishSlab::<()>::locate(3 * BASE - 1), (1, 2 * BASE - 1));
        assert_eq!(PublishSlab::<()>::locate(3 * BASE), (2, 0));
    }

    #[test]
    fn publish_then_get_round_trips() {
        let slab = PublishSlab::new();
        assert!(slab.get(0).is_none());
        assert!(slab.publish(0, 42u64));
        assert!(slab.publish(5000, 99u64)); // second chunk
        assert_eq!(slab.get(0), Some(&42));
        assert_eq!(slab.get(5000), Some(&99));
        assert!(slab.get(1).is_none());
        assert!(slab.get(100_000).is_none());
    }

    #[test]
    fn first_publication_wins() {
        let slab = PublishSlab::new();
        assert!(slab.publish(7, "first"));
        assert!(!slab.publish(7, "second"));
        assert_eq!(slab.get(7), Some(&"first"));
    }

    #[test]
    fn arc_entries_are_shared_not_cloned() {
        let slab = PublishSlab::new();
        let p = Arc::new(vec![1u8; 64]);
        slab.publish(3, Arc::clone(&p));
        let got = slab.get(3).unwrap();
        assert!(Arc::ptr_eq(&p, got), "slab hands back the same allocation");
    }

    #[test]
    fn concurrent_readers_see_published_entries() {
        let slab = Arc::new(PublishSlab::new());
        for i in 0..4000usize {
            slab.publish(i, i * 3);
        }
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let slab = Arc::clone(&slab);
                std::thread::spawn(move || {
                    for i in 0..4000usize {
                        assert_eq!(slab.get(i), Some(&(i * 3)));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
