//! A bounded single-producer/single-consumer ring, in-tree.
//!
//! The sharded stack runtime feeds each shard through one of these: the
//! ingress side steers a frame and pushes it; the shard's worker pops a
//! batch and feeds it to `Stack::receive` frame by frame. The workspace's
//! hermetic discipline applies — no crossbeam, no `unsafe`: each slot is
//! a `Mutex<Option<T>>` (uncontended by construction, since exactly one
//! side touches a given slot between the two index updates) and the
//! head/tail indices are monotonic atomics, so `len` is simply
//! `tail - head` and full/empty are never ambiguous.
//!
//! Single-producer and single-consumer are enforced at compile time: the
//! [`SpscProducer`] and [`SpscConsumer`] halves are `Send` but their
//! methods take `&mut self`, so each half has exactly one user at a time.
//!
//! Overload policy is *drop-tail with accounting*: a push against a full
//! ring fails, hands the value back, and bumps the `rejected` counter —
//! the runtime surfaces that number, because dropped ingress frames are a
//! measured quantity, not a silent loss.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Counters describing everything that has happened to a ring.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingStats {
    /// Values accepted by [`SpscProducer::push`].
    pub pushed: u64,
    /// Values returned by [`SpscConsumer::pop`] / `pop_batch`.
    pub popped: u64,
    /// Push attempts refused because the ring was full.
    pub rejected: u64,
    /// Maximum occupancy ever observed at push time.
    pub high_water: usize,
    /// The ring's fixed capacity.
    pub capacity: usize,
}

struct RingShared<T> {
    slots: Box<[Mutex<Option<T>>]>,
    /// Total values ever popped. `head <= tail` always.
    head: AtomicUsize,
    /// Total values ever pushed.
    tail: AtomicUsize,
    rejected: AtomicU64,
    high_water: AtomicUsize,
}

impl<T> RingShared<T> {
    fn len(&self) -> usize {
        // tail is loaded second: seeing a *stale* tail can only
        // under-report occupancy, which is harmless for stats readers.
        let head = self.head.load(Ordering::Acquire);
        let tail = self.tail.load(Ordering::Acquire);
        tail.saturating_sub(head)
    }
}

/// Create a bounded ring of `capacity` slots and split it into its two
/// halves. `capacity` must be nonzero.
pub fn spsc_ring<T>(capacity: usize) -> (SpscProducer<T>, SpscConsumer<T>) {
    assert!(capacity > 0, "ring capacity must be nonzero");
    let shared = Arc::new(RingShared {
        slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
        head: AtomicUsize::new(0),
        tail: AtomicUsize::new(0),
        rejected: AtomicU64::new(0),
        high_water: AtomicUsize::new(0),
    });
    (
        SpscProducer {
            shared: Arc::clone(&shared),
        },
        SpscConsumer { shared },
    )
}

/// The producing half of an SPSC ring; exactly one exists per ring.
pub struct SpscProducer<T> {
    shared: Arc<RingShared<T>>,
}

/// The consuming half of an SPSC ring; exactly one exists per ring.
pub struct SpscConsumer<T> {
    shared: Arc<RingShared<T>>,
}

impl<T> SpscProducer<T> {
    /// Append `value`, or hand it back if the ring is full (the rejection
    /// is counted either way).
    pub fn push(&mut self, value: T) -> Result<(), T> {
        let s = &*self.shared;
        let tail = s.tail.load(Ordering::Relaxed);
        let head = s.head.load(Ordering::Acquire);
        let occupied = tail - head;
        if occupied >= s.slots.len() {
            s.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(value);
        }
        // This slot is ours alone: the consumer will not touch index
        // `tail % cap` until it observes the tail advance below.
        *s.slots[tail % s.slots.len()]
            .lock()
            .expect("spsc slot lock") = Some(value);
        s.tail.store(tail + 1, Ordering::Release);
        s.high_water.fetch_max(occupied + 1, Ordering::Relaxed);
        Ok(())
    }

    /// Current occupancy (approximate from the other side's view).
    pub fn len(&self) -> usize {
        self.shared.len()
    }

    /// Whether the ring currently holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ring's fixed capacity.
    pub fn capacity(&self) -> usize {
        self.shared.slots.len()
    }

    /// Lifetime counters for this ring.
    pub fn stats(&self) -> RingStats {
        stats_of(&self.shared)
    }
}

impl<T> SpscConsumer<T> {
    /// Remove and return the oldest value, if any.
    pub fn pop(&mut self) -> Option<T> {
        let s = &*self.shared;
        let head = s.head.load(Ordering::Relaxed);
        let tail = s.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        let value = s.slots[head % s.slots.len()]
            .lock()
            .expect("spsc slot lock")
            .take();
        debug_assert!(value.is_some(), "occupied slot must hold a value");
        s.head.store(head + 1, Ordering::Release);
        value
    }

    /// Pop up to `max` values into `out` (appended); returns how many.
    pub fn pop_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        let mut n = 0;
        while n < max {
            match self.pop() {
                Some(v) => {
                    out.push(v);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    /// Current occupancy (approximate from the other side's view).
    pub fn len(&self) -> usize {
        self.shared.len()
    }

    /// Whether the ring currently holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ring's fixed capacity.
    pub fn capacity(&self) -> usize {
        self.shared.slots.len()
    }

    /// Lifetime counters for this ring.
    pub fn stats(&self) -> RingStats {
        stats_of(&self.shared)
    }
}

fn stats_of<T>(s: &RingShared<T>) -> RingStats {
    RingStats {
        pushed: s.tail.load(Ordering::Acquire) as u64,
        popped: s.head.load(Ordering::Acquire) as u64,
        rejected: s.rejected.load(Ordering::Relaxed),
        high_water: s.high_water.load(Ordering::Relaxed),
        capacity: s.slots.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_capacity_bound() {
        let (mut tx, mut rx) = spsc_ring::<u32>(4);
        for i in 0..4 {
            tx.push(i).unwrap();
        }
        assert_eq!(tx.push(99), Err(99));
        assert_eq!(tx.len(), 4);
        for i in 0..4 {
            assert_eq!(rx.pop(), Some(i));
        }
        assert_eq!(rx.pop(), None);
        let stats = tx.stats();
        assert_eq!(stats.pushed, 4);
        assert_eq!(stats.popped, 4);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.high_water, 4);
        assert_eq!(stats.capacity, 4);
    }

    #[test]
    fn wraparound_reuses_slots() {
        let (mut tx, mut rx) = spsc_ring::<usize>(3);
        for round in 0..10 {
            for i in 0..3 {
                tx.push(round * 3 + i).unwrap();
            }
            let mut out = Vec::new();
            assert_eq!(rx.pop_batch(&mut out, 8), 3);
            assert_eq!(out, vec![round * 3, round * 3 + 1, round * 3 + 2]);
        }
        assert_eq!(tx.stats().pushed, 30);
    }

    #[test]
    fn pop_batch_respects_max() {
        let (mut tx, mut rx) = spsc_ring::<u8>(8);
        for i in 0..6 {
            tx.push(i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(rx.pop_batch(&mut out, 4), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(rx.len(), 2);
    }

    #[test]
    #[should_panic(expected = "ring capacity must be nonzero")]
    fn zero_capacity_rejected() {
        let _ = spsc_ring::<u8>(0);
    }

    #[test]
    fn threaded_handoff_preserves_order() {
        let (mut tx, mut rx) = spsc_ring::<u64>(16);
        const N: u64 = 20_000;
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..N {
                    let mut v = i;
                    loop {
                        match tx.push(v) {
                            Ok(()) => break,
                            Err(back) => {
                                v = back;
                                std::thread::yield_now();
                            }
                        }
                    }
                }
            });
            let mut expect = 0u64;
            while expect < N {
                if let Some(v) = rx.pop() {
                    assert_eq!(v, expect);
                    expect += 1;
                } else {
                    std::thread::yield_now();
                }
            }
            assert_eq!(rx.pop(), None);
        });
    }
}
