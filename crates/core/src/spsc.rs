//! A bounded FIFO ring under one lock, in-tree.
//!
//! The sharded stack runtime feeds each shard through one of these: the
//! ingress side steers a frame and pushes it; the shard's worker pops a
//! batch and feeds it to `Stack::receive` frame by frame. The workspace's
//! hermetic discipline applies — no crossbeam, no `unsafe`: a [`Ring`] is
//! one `Mutex` around a `VecDeque` allocated to the ring's capacity and
//! the ring's counters, so a push is one lock and a batch pop is one lock
//! however many values it moves. The deque never grows, so neither
//! `push` nor `pop_batch` allocates.
//!
//! [`Ring`] takes `&self`, so any number of threads may push and pop.
//! [`spsc_ring`] splits one into a [`SpscProducer`] and an
//! [`SpscConsumer`] whose methods take `&mut self`, for a caller that
//! wants single-producer and single-consumer use held by the types.
//!
//! Overload policy is *drop-tail with accounting*: a push against a full
//! ring fails, hands the value back, and bumps the `rejected` counter —
//! the runtime surfaces that number, because dropped ingress frames are a
//! measured quantity, not a silent loss.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};

/// Counters describing everything that has happened to a ring.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingStats {
    /// Values accepted by [`Ring::push`].
    pub pushed: u64,
    /// Values returned by [`Ring::pop`] / [`Ring::pop_batch`].
    pub popped: u64,
    /// Push attempts refused because the ring was full.
    pub rejected: u64,
    /// Maximum occupancy ever observed at push time.
    pub high_water: usize,
    /// The ring's fixed capacity.
    pub capacity: usize,
}

/// A bounded FIFO of at most `capacity` values behind one lock.
pub struct Ring<T> {
    inner: Mutex<RingInner<T>>,
}

struct RingInner<T> {
    /// Allocated to `stats.capacity` up front and never past it.
    queue: VecDeque<T>,
    stats: RingStats,
}

impl<T> Ring<T> {
    /// An empty ring of `capacity` slots. `capacity` must be nonzero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be nonzero");
        Self {
            inner: Mutex::new(RingInner {
                queue: VecDeque::with_capacity(capacity),
                stats: RingStats {
                    capacity,
                    ..RingStats::default()
                },
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, RingInner<T>> {
        // Every update leaves the queue and its counters consistent, but
        // a panic under this lock is a bug in this module: surface it.
        self.inner.lock().expect("ring lock poisoned by a panic")
    }

    /// Append `value`, or hand it back if the ring is full (the rejection
    /// is counted either way).
    pub fn push(&self, value: T) -> Result<(), T> {
        let mut inner = self.lock();
        let RingInner { queue, stats } = &mut *inner;
        if queue.len() >= stats.capacity {
            stats.rejected += 1;
            return Err(value);
        }
        queue.push_back(value);
        stats.pushed += 1;
        stats.high_water = stats.high_water.max(queue.len());
        Ok(())
    }

    /// Remove and return the oldest value, if any.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.lock();
        let value = inner.queue.pop_front();
        inner.stats.popped += u64::from(value.is_some());
        value
    }

    /// Move up to `max` of the oldest values into `out` (appended), under
    /// one lock; returns how many.
    pub fn pop_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        let mut inner = self.lock();
        let n = inner.queue.len().min(max);
        out.extend(inner.queue.drain(..n));
        inner.stats.popped += n as u64;
        n
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.lock().queue.len()
    }

    /// Whether the ring currently holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime counters for this ring.
    pub fn stats(&self) -> RingStats {
        self.lock().stats
    }
}

/// Create a bounded ring of `capacity` slots and split it into its two
/// halves. `capacity` must be nonzero.
pub fn spsc_ring<T>(capacity: usize) -> (SpscProducer<T>, SpscConsumer<T>) {
    let ring = Arc::new(Ring::new(capacity));
    (
        SpscProducer {
            ring: Arc::clone(&ring),
        },
        SpscConsumer { ring },
    )
}

/// The producing half of a split [`Ring`]; exactly one exists per ring.
pub struct SpscProducer<T> {
    ring: Arc<Ring<T>>,
}

/// The consuming half of a split [`Ring`]; exactly one exists per ring.
pub struct SpscConsumer<T> {
    ring: Arc<Ring<T>>,
}

impl<T> SpscProducer<T> {
    /// [`Ring::push`].
    pub fn push(&mut self, value: T) -> Result<(), T> {
        self.ring.push(value)
    }

    /// The shared ring, for its occupancy and counters.
    pub fn ring(&self) -> &Ring<T> {
        &self.ring
    }
}

impl<T> SpscConsumer<T> {
    /// [`Ring::pop`].
    pub fn pop(&mut self) -> Option<T> {
        self.ring.pop()
    }

    /// [`Ring::pop_batch`].
    pub fn pop_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        self.ring.pop_batch(out, max)
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
        assert_eq!(tx.ring().len(), 4);
        for i in 0..4 {
            assert_eq!(rx.pop(), Some(i));
        }
        assert_eq!(rx.pop(), None);
        let stats = tx.ring().stats();
        assert_eq!(stats.pushed, 4);
        assert_eq!(stats.popped, 4);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.high_water, 4);
        assert_eq!(stats.capacity, 4);
    }

    #[test]
    fn fifo_order_holds_across_the_wrap() {
        // Pushes and pops out of step, so the deque's head walks round
        // its buffer many times with values on both sides of the seam.
        let ring = Ring::new(5);
        let (mut next_in, mut next_out) = (0u32, 0u32);
        let mut out = Vec::new();
        for step in 0..200 {
            for _ in 0..1 + step % 4 {
                if ring.push(next_in).is_ok() {
                    next_in += 1;
                }
            }
            out.clear();
            ring.pop_batch(&mut out, 1 + step % 3);
            for &v in &out {
                assert_eq!(v, next_out, "step {step}");
                next_out += 1;
            }
        }
        assert!(next_out > 100, "the ring moved values");
        let stats = ring.stats();
        assert_eq!(stats.pushed, u64::from(next_in));
        assert_eq!(stats.popped, u64::from(next_out));
        assert_eq!(ring.len() as u64, stats.pushed - stats.popped);
    }

    #[test]
    fn a_full_ring_hands_the_value_back_and_counts_it() {
        let ring = Ring::new(2);
        ring.push("a").unwrap();
        ring.push("b").unwrap();
        assert_eq!(ring.push("c"), Err("c"));
        assert_eq!(ring.push("d"), Err("d"));
        assert_eq!(ring.pop(), Some("a"));
        ring.push("e").unwrap();
        let stats = ring.stats();
        assert_eq!((stats.pushed, stats.rejected), (3, 2));
        let mut out = Vec::new();
        ring.pop_batch(&mut out, 8);
        assert_eq!(out, ["b", "e"]);
    }

    #[test]
    fn high_water_is_the_most_ever_held() {
        let ring = Ring::new(8);
        assert_eq!(ring.stats().high_water, 0);
        for i in 0..3 {
            ring.push(i).unwrap();
        }
        assert_eq!(ring.stats().high_water, 3);
        ring.pop_batch(&mut Vec::new(), 2);
        ring.push(3).unwrap();
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.stats().high_water, 3, "a lower peak leaves it");
        for i in 4..9 {
            ring.push(i).unwrap();
        }
        assert_eq!(ring.stats().high_water, 7);
        // A refused push is not occupancy.
        ring.push(9).unwrap();
        assert_eq!(ring.push(10), Err(10));
        assert_eq!(ring.stats().high_water, 8);
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
        assert_eq!(tx.ring().stats().pushed, 30);
    }

    #[test]
    fn pop_batch_respects_max() {
        let ring = Ring::new(8);
        for i in 0..6u8 {
            ring.push(i).unwrap();
        }
        let mut out = vec![100];
        assert_eq!(ring.pop_batch(&mut out, 4), 4);
        assert_eq!(out, vec![100, 0, 1, 2, 3], "appended, oldest first");
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.pop_batch(&mut out, 0), 0);
        assert_eq!(ring.pop_batch(&mut out, 4), 2);
        assert_eq!(ring.pop_batch(&mut out, 4), 0);
        assert_eq!(out.len(), 7);
    }

    #[test]
    fn pushed_equals_popped_once_drained() {
        let ring = Ring::new(16);
        let mut out = Vec::new();
        for round in 0..50u64 {
            for i in 0..round % 20 {
                let _ = ring.push(i);
            }
            ring.pop_batch(&mut out, 7);
        }
        while ring.pop_batch(&mut out, 7) > 0 {}
        let stats = ring.stats();
        assert!(ring.is_empty());
        assert_eq!(stats.pushed, stats.popped);
        assert_eq!(stats.pushed, out.len() as u64);
        assert!(stats.rejected > 0, "some rounds overfilled the ring");
        assert_eq!(stats.high_water, 16);
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
