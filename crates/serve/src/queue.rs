//! Bounded MPSC request queue with explicit backpressure.
//!
//! Producers `push` from any thread; the engine's workers `pop_group`.
//! When the queue is at capacity, `push` fails *immediately* with a typed
//! [`PushError::Full`] — callers get a reject-with-reason they can turn
//! into load shedding, never a silent block. `pop_group` performs the
//! batcher's job under a single lock: it removes the oldest request plus
//! up to `max - 1` further requests with the same batching key (model +
//! shape), preserving FIFO order within the group.
//!
//! A `paused` switch (used by the backpressure tests and the shard-chaos
//! wedge) stops consumers without stopping producers, so the queue can be
//! filled to its bound deterministically.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Why a `push` was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue holds `capacity` requests; shed load or retry later.
    Full {
        /// The configured bound.
        capacity: usize,
    },
    /// The queue was closed (engine shutting down).
    Closed,
}

impl fmt::Display for PushError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PushError::Full { capacity } => {
                write!(f, "queue full (capacity {capacity}); request rejected")
            }
            PushError::Closed => write!(f, "queue closed"),
        }
    }
}

impl std::error::Error for PushError {}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
    paused: bool,
}

/// A bounded multi-producer queue with group-aware consumption.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    notify: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue bounded at `capacity` (≥ 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
                paused: false,
            }),
            notify: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Requests currently queued.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues a request, failing fast when at capacity or closed.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity; [`PushError::Closed`] after
    /// [`BoundedQueue::close`].
    pub fn push(&self, item: T) -> Result<(), PushError> {
        self.offer(item).map_err(|(e, _)| e)
    }

    /// Like [`BoundedQueue::push`], but hands the item back on failure so
    /// the caller can settle it (the engine's retry path must answer the
    /// request's ticket even when re-enqueueing is impossible).
    ///
    /// # Errors
    ///
    /// `(PushError, item)` — same reasons as [`BoundedQueue::push`].
    pub fn offer(&self, item: T) -> Result<(), (PushError, T)> {
        let mut g = self.lock();
        if g.closed {
            return Err((PushError::Closed, item));
        }
        if g.items.len() >= self.capacity {
            return Err((
                PushError::Full {
                    capacity: self.capacity,
                },
                item,
            ));
        }
        g.items.push_back(item);
        drop(g);
        self.notify.notify_one();
        Ok(())
    }

    /// Blocks until work is available, then removes the oldest request
    /// plus up to `max - 1` more with the same `key`, in FIFO order.
    /// Returns `None` once the queue is closed *and* drained. While
    /// paused, consumers wait even if items are queued (closing
    /// overrides pausing so shutdown always drains).
    pub fn pop_group<K: Eq>(&self, max: usize, key: impl Fn(&T) -> K) -> Option<Vec<T>> {
        let mut g = self.lock();
        loop {
            if g.closed && g.items.is_empty() {
                return None;
            }
            if !g.items.is_empty() && (!g.paused || g.closed) {
                break;
            }
            g = self.notify.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
        let first = g.items.pop_front()?;
        let k = key(&first);
        let mut group = vec![first];
        let mut i = 0;
        while group.len() < max.max(1) && i < g.items.len() {
            if key(&g.items[i]) == k {
                if let Some(item) = g.items.remove(i) {
                    group.push(item);
                }
            } else {
                i += 1;
            }
        }
        Some(group)
    }

    /// Closes the queue: future pushes fail, consumers drain what remains
    /// and then observe `None`.
    pub fn close(&self) {
        self.lock().closed = true;
        self.notify.notify_all();
    }

    /// Pauses or resumes consumption (producers are unaffected).
    pub fn set_paused(&self, paused: bool) {
        self.lock().paused = paused;
        if !paused {
            self.notify.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn overflow_is_rejected_with_capacity() {
        let q = BoundedQueue::new(2);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.push(3), Err(PushError::Full { capacity: 2 }));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn closed_queue_rejects_and_drains() {
        let q = BoundedQueue::new(4);
        q.push(1).unwrap();
        q.close();
        assert_eq!(q.push(2), Err(PushError::Closed));
        assert_eq!(q.pop_group(4, |_| 0), Some(vec![1]));
        assert_eq!(q.pop_group(4, |_| 0), None);
    }

    #[test]
    fn groups_same_key_in_fifo_order() {
        let q = BoundedQueue::new(8);
        for v in [10, 20, 11, 30, 12, 13] {
            q.push(v).unwrap();
        }
        // Key = tens digit; first item (10) groups with 11, 12, 13 but the
        // batch cap of 3 stops after 11 and 12.
        let group = q.pop_group(3, |v| v / 10);
        assert_eq!(group, Some(vec![10, 11, 12]));
        // Remaining items keep their relative order.
        assert_eq!(q.pop_group(3, |v| v / 10), Some(vec![20]));
        assert_eq!(q.pop_group(3, |v| v / 10), Some(vec![30]));
        assert_eq!(q.pop_group(3, |v| v / 10), Some(vec![13]));
    }

    #[test]
    fn paused_queue_holds_items_for_consumers() {
        let q = Arc::new(BoundedQueue::new(4));
        q.set_paused(true);
        q.push(7).unwrap();
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop_group(1, |_| 0));
        // Give the consumer a moment to block, then release it.
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.set_paused(false);
        assert_eq!(h.join().unwrap(), Some(vec![7]));
    }

    #[test]
    fn blocking_pop_wakes_on_push() {
        let q = Arc::new(BoundedQueue::new(4));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop_group(2, |_| 0));
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.push(42).unwrap();
        assert_eq!(h.join().unwrap(), Some(vec![42]));
    }

    #[test]
    fn offer_returns_the_item_on_failure() {
        let q = BoundedQueue::new(1);
        q.push(1).unwrap();
        let (err, item) = q.offer(2).unwrap_err();
        assert_eq!((err, item), (PushError::Full { capacity: 1 }, 2));
        q.close();
        let (err, item) = q.offer(3).unwrap_err();
        assert_eq!((err, item), (PushError::Closed, 3));
    }

    #[test]
    fn concurrent_push_vs_close_loses_nothing() {
        // Producers race close(): every push must either land (and later
        // drain) or fail typed — no item may vanish and no Ok may be lost.
        for round in 0..8 {
            let q = Arc::new(BoundedQueue::new(4096));
            let producers: Vec<_> = (0..4)
                .map(|p| {
                    let q = Arc::clone(&q);
                    std::thread::spawn(move || {
                        let mut accepted = 0u64;
                        for i in 0..200 {
                            match q.push(p * 1000 + i) {
                                Ok(()) => accepted += 1,
                                Err(PushError::Closed) => break,
                                Err(PushError::Full { .. }) => {
                                    unreachable!("capacity covers all pushes")
                                }
                            }
                        }
                        accepted
                    })
                })
                .collect();
            // Close at a slightly different point each round to vary the
            // interleaving.
            std::thread::sleep(std::time::Duration::from_micros(50 * round));
            q.close();
            let accepted: u64 = producers.into_iter().map(|h| h.join().unwrap()).sum();
            assert_eq!(q.push(9999), Err(PushError::Closed));
            let mut drained = 0u64;
            while let Some(group) = q.pop_group(64, |_| 0) {
                drained += group.len() as u64;
            }
            assert_eq!(drained, accepted, "accepted pushes must all drain");
            assert!(q.is_empty());
        }
    }

    #[test]
    fn pop_after_close_drains_remaining_in_fifo_order() {
        let q = BoundedQueue::new(8);
        for v in 0..5 {
            q.push(v).unwrap();
        }
        q.close();
        // Grouped draining still respects FIFO within the group key.
        assert_eq!(q.pop_group(2, |_| 0), Some(vec![0, 1]));
        assert_eq!(q.pop_group(2, |_| 0), Some(vec![2, 3]));
        assert_eq!(q.pop_group(2, |_| 0), Some(vec![4]));
        assert_eq!(q.pop_group(2, |_| 0), None);
        // Once drained, every further pop observes closure immediately.
        assert_eq!(q.pop_group(2, |_| 0), None);
    }

    #[test]
    fn close_overrides_pause_so_shutdown_always_drains() {
        let q = Arc::new(BoundedQueue::new(4));
        q.set_paused(true);
        q.push(5).unwrap();
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || (q2.pop_group(1, |_| 0), q2.pop_group(1, |_| 0)));
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.close(); // never unpaused: close alone must release the consumer
        assert_eq!(h.join().unwrap(), (Some(vec![5]), None));
    }
}
