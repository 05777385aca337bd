//! Copy-on-write epoch snapshots: the cell behind the store's lock-free
//! read path.
//!
//! A [`SnapshotCell`] holds the current immutable state of one shard behind
//! an `Arc`. Readers call [`SnapshotCell::load`] and get their own reference
//! to a consistent snapshot; mutators build the *next* state off to the side
//! (typically via `Arc::make_mut`) and [`SnapshotCell::publish`] it as a
//! single pointer swap. Readers therefore never wait behind mutation work —
//! spec clones, cache invalidation, WAL appends and fsyncs all happen
//! before the publish, outside the cell's critical section.
//!
//! The crate forbids `unsafe`, so the swap is guarded by a plain `RwLock`
//! rather than a hand-rolled atomic pointer. The lock is only ever held for
//! the O(1) clone/store of the `Arc` itself — the cell's contention profile
//! is that of an atomic, not of the data behind it. Memory reclamation is
//! `Arc`'s reference count: a superseded snapshot stays alive exactly as
//! long as the last in-flight reader holds it, then drops — no epochs to
//! advance, no deferred free lists.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

/// One shard's current immutable state, swapped atomically on publish.
#[derive(Debug)]
pub(crate) struct SnapshotCell<T> {
    current: RwLock<Arc<T>>,
    publishes: AtomicU64,
}

impl<T> SnapshotCell<T> {
    /// Wraps the initial state.
    pub(crate) fn new(initial: T) -> Self {
        SnapshotCell {
            current: RwLock::new(Arc::new(initial)),
            publishes: AtomicU64::new(0),
        }
    }

    /// The current snapshot. O(1): an `Arc` clone under a momentary read
    /// lock; never blocks behind in-progress mutation work.
    pub(crate) fn load(&self) -> Arc<T> {
        Arc::clone(&self.current.read())
    }

    /// Atomically replaces the current snapshot. O(1): a pointer store
    /// under a momentary write lock.
    pub(crate) fn publish(&self, next: Arc<T>) {
        *self.current.write() = next;
        self.publishes.fetch_add(1, Ordering::Relaxed);
    }

    /// How many snapshots have been published (the initial state counts as
    /// zero).
    pub(crate) fn publish_count(&self) -> u64 {
        self.publishes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_returns_the_published_snapshot() {
        let cell = SnapshotCell::new(vec![1, 2, 3]);
        let before = cell.load();
        assert_eq!(*before, vec![1, 2, 3]);
        assert_eq!(cell.publish_count(), 0);

        // copy-on-write mutation: readers holding `before` are unaffected
        let mut next = cell.load();
        Arc::make_mut(&mut next).push(4);
        cell.publish(next);

        assert_eq!(*cell.load(), vec![1, 2, 3, 4]);
        assert_eq!(*before, vec![1, 2, 3], "old snapshot stays consistent");
        assert_eq!(cell.publish_count(), 1);
    }

    #[test]
    fn make_mut_clones_a_shared_arc_and_edits_a_unique_one_in_place() {
        let cell = SnapshotCell::new(String::from("state"));
        let mut next = cell.load();
        // shared (the cell holds it too): make_mut clones, and the
        // published value is untouched
        Arc::make_mut(&mut next).push('!');
        assert!(!Arc::ptr_eq(&next, &cell.load()));
        assert_eq!(*cell.load(), "state");
        // `next` is unique now: make_mut edits it in place
        let before = Arc::as_ptr(&next);
        Arc::make_mut(&mut next).push('?');
        assert_eq!(Arc::as_ptr(&next), before);
        // a snapshot the publish retired is unique once no reader holds
        // it: the store's spare spec relies on this to skip the clone
        let mut retired = cell.load();
        cell.publish(next);
        let before = Arc::as_ptr(&retired);
        Arc::make_mut(&mut retired).push('#');
        assert_eq!(Arc::as_ptr(&retired), before);
        assert_eq!(*cell.load(), "state!?");
    }
}
