//! A free-list of transmit buffers, making steady-state TX allocation-free.
//!
//! Every frame the stack emits ([`Stack::send`](crate::Stack::send), ACKs,
//! SYN-ACKs, RSTs, ICMP replies…) is an owned `Vec<u8>` handed to the
//! caller. Without pooling, each one is a fresh heap allocation — per
//! packet, exactly the cost the paper's environment (a kernel with its own
//! mbuf/STREAMS buffer pools) never pays. [`TxPool`] closes that gap: the
//! caller returns spent buffers via [`Stack::recycle`](crate::Stack::recycle)
//! and subsequent emissions reuse their capacity instead of allocating.
//!
//! The pool tracks how often it had to fall back to a fresh allocation, so
//! tests can pin the steady-state invariant:
//! after warm-up, `allocations` stays flat while `reuses` grows.

/// Counters describing pool behavior since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxPoolStats {
    /// Buffers handed out by allocating fresh (pool was empty).
    pub allocations: u64,
    /// Buffers handed out by reusing a recycled buffer's capacity.
    pub reuses: u64,
    /// Buffers currently parked in the free list.
    pub free: usize,
}

/// A bounded free-list of `Vec<u8>` transmit buffers.
///
/// The bound follows the caller: the pool parks as many buffers as it
/// has ever had to make (never fewer than `max_free`, never more than
/// [`BURST_MAX_FREE`](Self::BURST_MAX_FREE)). A buffer is made only when
/// every parked one is out, so that count is the burst the caller has
/// shown it holds, and what the same burst will ask for next time: a
/// driver that collects a block of 64 replies and then 64 FINs before
/// recycling either holds 128, and a bound of 64 would free half of them
/// only to make them again.
#[derive(Debug)]
pub struct TxPool {
    free: Vec<Vec<u8>>,
    max_free: usize,
    allocations: u64,
    reuses: u64,
}

impl Default for TxPool {
    fn default() -> Self {
        Self::new(Self::DEFAULT_MAX_FREE)
    }
}

impl TxPool {
    /// Default floor of the bound on parked buffers. A caller who never
    /// recycles wastes nothing whatever the bound.
    pub const DEFAULT_MAX_FREE: usize = 64;

    /// Most buffers parked however large a burst the caller has held.
    pub const BURST_MAX_FREE: usize = 1024;

    /// Create a pool that parks `max_free` recycled buffers, and more
    /// only for a caller it has had to make more for.
    pub fn new(max_free: usize) -> Self {
        Self {
            free: Vec::new(),
            max_free,
            allocations: 0,
            reuses: 0,
        }
    }

    /// Hand out a buffer: a recycled one if available, else a fresh
    /// allocation. The returned buffer's contents are unspecified; every
    /// emit path overwrites it in full.
    pub fn take(&mut self) -> Vec<u8> {
        match self.free.pop() {
            Some(buf) => {
                self.reuses += 1;
                buf
            }
            None => {
                self.allocations += 1;
                // Every buffer made so far is out: the caller holds that
                // many at once, and will give that many back.
                let made = usize::try_from(self.allocations).unwrap_or(usize::MAX);
                self.max_free = self.max_free.max(made.min(Self::BURST_MAX_FREE));
                Vec::new()
            }
        }
    }

    /// Return a spent buffer's capacity to the pool. Buffers beyond the
    /// free-list bound are dropped (deallocated) instead of parked.
    pub fn recycle(&mut self, buf: Vec<u8>) {
        if self.free.len() < self.max_free {
            self.free.push(buf);
        }
    }

    /// Snapshot the pool's counters.
    pub fn stats(&self) -> TxPoolStats {
        TxPoolStats {
            allocations: self.allocations,
            reuses: self.reuses,
            free: self.free.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_allocates_when_empty_and_reuses_after_recycle() {
        let mut pool = TxPool::default();
        let a = pool.take();
        assert_eq!(pool.stats().allocations, 1);
        assert_eq!(pool.stats().reuses, 0);
        pool.recycle(a);
        assert_eq!(pool.stats().free, 1);
        let _b = pool.take();
        assert_eq!(pool.stats().allocations, 1, "no second allocation");
        assert_eq!(pool.stats().reuses, 1);
    }

    #[test]
    fn capacity_survives_the_round_trip() {
        let mut pool = TxPool::default();
        let mut a = pool.take();
        a.resize(1500, 0xAB);
        let cap = a.capacity();
        pool.recycle(a);
        let b = pool.take();
        assert!(b.capacity() >= cap, "recycled capacity is retained");
    }

    #[test]
    fn free_list_is_bounded() {
        let mut pool = TxPool::new(2);
        for _ in 0..5 {
            pool.recycle(Vec::with_capacity(64));
        }
        assert_eq!(pool.stats().free, 2);
    }

    #[test]
    fn the_bound_grows_to_the_burst_the_caller_holds_and_no_further() {
        let mut pool = TxPool::new(2);
        for round in 0..3 {
            let held: Vec<_> = (0..5).map(|_| pool.take()).collect();
            held.into_iter().for_each(|buf| pool.recycle(buf));
            assert_eq!(pool.stats().free, 5, "round {round}");
        }
        assert_eq!(pool.stats().allocations, 5, "the second burst reuses");
        // Buffers from elsewhere do not raise the bound.
        for _ in 0..5 {
            pool.recycle(Vec::new());
        }
        assert_eq!(pool.stats().free, 5);
        let held: Vec<_> = (0..2 * TxPool::BURST_MAX_FREE)
            .map(|_| pool.take())
            .collect();
        held.into_iter().for_each(|buf| pool.recycle(buf));
        assert_eq!(pool.stats().free, TxPool::BURST_MAX_FREE);
    }
}
