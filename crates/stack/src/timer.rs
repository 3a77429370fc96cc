//! A hashed timing wheel (Varghese & Lauck, SOSP 1987) — the timer
//! substrate a TCP stack of the paper's era actually used.
//!
//! TCP needs per-connection timers (TIME-WAIT's 2·MSL drain, SYN-RCVD
//! abort, retransmission). A timing wheel makes `schedule`, `cancel`, and
//! per-tick expiry O(1) amortized: time is divided into ticks, the wheel
//! has `S` slots, and a timer due at tick `t` lives in slot `t mod S`
//! carrying its absolute due tick (so timers farther than one rotation
//! simply stay in their slot until their rotation comes around).
//!
//! All timers are nodes of one slab and a slot is a doubly linked list
//! threaded through it, so capacity is shared: the slab grows only when
//! more timers are outstanding at once than ever before, not whenever
//! one tick arms more than its own slot has held.

/// "No node": ends a slot's list and the free list. Never a slab index
/// (`schedule` asserts it), so looking it up finds nothing.
const NIL: u32 = u32::MAX;

/// Handle to a scheduled timer, usable to cancel it: the index of the
/// timer's slab node, and the never-reused id that tells a node since
/// recycled for another timer from the handle's own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId {
    id: u64,
    node: u32,
}

/// A scheduled timer while `payload` is `Some`, linked into its slot's
/// list; otherwise on the free list, linked by `next` alone.
#[derive(Debug)]
struct Node<T> {
    id: u64,
    due_tick: u64,
    prev: u32,
    next: u32,
    payload: Option<T>,
}

/// A hashed timing wheel over payloads `T`.
///
/// Ticks are abstract; the caller decides what a tick means (the stack
/// uses 1 ms). `advance_to` must be called with nondecreasing tick
/// values.
#[derive(Debug)]
pub struct TimerWheel<T> {
    nodes: Vec<Node<T>>,
    /// Each slot's first node, and the first free one.
    heads: Vec<u32>,
    free: u32,
    /// Scratch for `advance_into`, kept for its capacity.
    expiring: Vec<u32>,
    current_tick: u64,
    next_id: u64,
    live: usize,
}

impl<T> TimerWheel<T> {
    /// Create a wheel with `slots` slots (more slots = fewer stale
    /// entries touched per tick for long timers). Must be nonzero.
    pub fn new(slots: usize) -> Self {
        assert!(slots > 0, "wheel needs at least one slot");
        Self {
            nodes: Vec::new(),
            heads: vec![NIL; slots],
            free: NIL,
            expiring: Vec::new(),
            current_tick: 0,
            next_id: 0,
            live: 0,
        }
    }

    /// The wheel's current tick.
    pub fn now(&self) -> u64 {
        self.current_tick
    }

    /// Number of scheduled (uncancelled, unexpired) timers.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no timers are scheduled.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    fn slot_of(&self, due_tick: u64) -> usize {
        (due_tick % self.heads.len() as u64) as usize
    }

    /// Schedule `payload` to expire `after` ticks from now. Time must
    /// actually pass before a timer fires: an `after` of 0 (or 1) expires
    /// on the next `advance_to` past the current tick, never on an
    /// `advance_to(now())` that does not move the clock.
    pub fn schedule(&mut self, after: u64, payload: T) -> TimerId {
        let due_tick = self.current_tick + after.max(1);
        let id = self.next_id;
        self.next_id += 1;
        let slot = self.slot_of(due_tick);
        let next = self.heads[slot];
        let timer = Node {
            id,
            due_tick,
            prev: NIL,
            next,
            payload: Some(payload),
        };
        let mut node = self.free;
        match self.nodes.get_mut(node as usize) {
            Some(free) => self.free = std::mem::replace(free, timer).next,
            None => {
                assert!(self.nodes.len() < NIL as usize, "fewer than 2^32 timers");
                node = self.nodes.len() as u32;
                self.nodes.push(timer);
            }
        }
        self.heads[slot] = node;
        if let Some(old_head) = self.nodes.get_mut(next as usize) {
            old_head.prev = node;
        }
        self.live += 1;
        TimerId { id, node }
    }

    /// Unlink a scheduled node and free it, returning its payload.
    fn release(&mut self, idx: u32) -> T {
        let node = &mut self.nodes[idx as usize];
        let payload = node.payload.take().expect("a scheduled node");
        let (prev, next, due_tick) = (node.prev, node.next, node.due_tick);
        node.next = std::mem::replace(&mut self.free, idx);
        match self.nodes.get_mut(prev as usize) {
            Some(before) => before.next = next,
            None => {
                let slot = self.slot_of(due_tick);
                self.heads[slot] = next;
            }
        }
        if let Some(after) = self.nodes.get_mut(next as usize) {
            after.prev = prev;
        }
        self.live -= 1;
        payload
    }

    /// Cancel a timer; returns its payload if it had not yet expired.
    /// O(1): the handle names the node, and the node's id says whether
    /// it is still that timer's.
    pub fn cancel(&mut self, id: TimerId) -> Option<T> {
        let node = self.nodes.get(id.node as usize)?;
        (node.id == id.id && node.payload.is_some()).then(|| self.release(id.node))
    }

    /// The earliest due tick among scheduled timers, if any. Lets a
    /// discrete-event driver jump the clock straight to the next
    /// deadline instead of ticking through idle time.
    pub fn next_due_tick(&self) -> Option<u64> {
        let scheduled = self.nodes.iter().filter(|n| n.payload.is_some());
        scheduled.map(|n| n.due_tick).min()
    }

    /// Advance the wheel to `tick`, collecting every expired payload in
    /// due order. `tick` must be ≥ the current tick. Allocates the vector
    /// it returns whenever something expires; a caller on a hot path
    /// keeps one of its own and uses [`advance_into`](Self::advance_into).
    pub fn advance_to(&mut self, tick: u64) -> Vec<T> {
        let mut expired = Vec::new();
        self.advance_into(tick, &mut expired);
        expired
    }

    /// [`advance_to`](Self::advance_to), appending the expired payloads
    /// to `expired`: once the caller's vector and the wheel's own scratch
    /// have grown to the most timers that expire at once, advancing
    /// allocates nothing.
    pub fn advance_into(&mut self, tick: u64, expired: &mut Vec<T>) {
        let now = self.current_tick;
        assert!(tick >= now, "time went backwards: {tick} < {now}");
        let mut expiring = std::mem::take(&mut self.expiring);
        // Visit each slot at most once even if the jump spans rotations.
        let span = (tick - now + 1).min(self.heads.len() as u64);
        for offset in 0..span {
            let mut idx = self.heads[self.slot_of(now + offset)];
            while let Some(node) = self.nodes.get(idx as usize) {
                if node.due_tick <= tick {
                    expiring.push(idx);
                }
                idx = node.next;
            }
        }
        self.current_tick = tick;
        // Due order, then schedule order for ties.
        expiring.sort_unstable_by_key(|&idx| {
            let node = &self.nodes[idx as usize];
            (node.due_tick, node.id)
        });
        expired.extend(expiring.drain(..).map(|idx| self.release(idx)));
        self.expiring = expiring;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_expiry() {
        let mut wheel = TimerWheel::new(8);
        wheel.schedule(3, "a");
        wheel.schedule(5, "b");
        assert_eq!(wheel.len(), 2);
        assert!(wheel.advance_to(2).is_empty());
        assert_eq!(wheel.advance_to(3), vec!["a"]);
        assert_eq!(wheel.advance_to(10), vec!["b"]);
        assert!(wheel.is_empty());
        assert_eq!(wheel.now(), 10);
    }

    #[test]
    fn expiry_is_due_ordered() {
        let mut wheel = TimerWheel::new(4);
        wheel.schedule(9, "later");
        wheel.schedule(2, "sooner");
        wheel.schedule(2, "sooner-second");
        let fired = wheel.advance_to(20);
        assert_eq!(fired, vec!["sooner", "sooner-second", "later"]);
    }

    #[test]
    fn timers_beyond_one_rotation_wait() {
        let mut wheel = TimerWheel::new(4);
        // Due at tick 9; slot 9 % 4 = 1. Advancing to 1 must NOT fire it.
        wheel.schedule(9, "far");
        assert!(wheel.advance_to(1).is_empty());
        assert_eq!(wheel.len(), 1);
        assert!(wheel.advance_to(8).is_empty());
        assert_eq!(wheel.advance_to(9), vec!["far"]);
    }

    #[test]
    fn cancel_prevents_expiry() {
        let mut wheel = TimerWheel::new(8);
        let id = wheel.schedule(4, 42);
        let other = wheel.schedule(4, 7);
        assert_eq!(wheel.cancel(id), Some(42));
        assert_eq!(wheel.cancel(id), None, "double-cancel is None");
        assert_eq!(wheel.advance_to(4), vec![7]);
        let _ = other;
    }

    #[test]
    fn cancel_after_expiry_is_none() {
        let mut wheel = TimerWheel::new(8);
        let id = wheel.schedule(1, ());
        wheel.advance_to(1);
        assert_eq!(wheel.cancel(id), None);
    }

    #[test]
    fn stale_handle_to_a_reused_node_cancels_nothing() {
        let mut wheel = TimerWheel::new(8);
        let stale = wheel.schedule(4, "first");
        assert_eq!(wheel.cancel(stale), Some("first"));
        // The freed node is the next one handed out.
        let reused = wheel.schedule(6, "second");
        assert_eq!(reused.node, stale.node);
        assert_eq!(wheel.cancel(stale), None, "not this handle's timer");
        assert_eq!(wheel.len(), 1);
        // Same after the first tenant expired rather than was cancelled.
        assert_eq!(wheel.advance_to(6), vec!["second"]);
        let third = wheel.schedule(3, "third");
        assert_eq!(third.node, reused.node);
        assert_eq!(wheel.cancel(reused), None);
        assert_eq!(wheel.len(), 1);
        assert_eq!(wheel.advance_to(9), vec!["third"]);
    }

    #[test]
    fn zero_delay_fires_on_next_advance() {
        let mut wheel = TimerWheel::new(8);
        wheel.advance_to(5);
        wheel.schedule(0, "now");
        // Re-advancing to the current tick moves no time: nothing fires.
        assert!(wheel.advance_to(5).is_empty());
        assert_eq!(wheel.len(), 1);
        // The first advance past the current tick fires it.
        assert_eq!(wheel.advance_to(6), vec!["now"]);
    }

    #[test]
    fn no_timer_ever_fires_without_time_passing() {
        let mut wheel = TimerWheel::new(4);
        wheel.advance_to(17);
        for after in 0..6u64 {
            wheel.schedule(after, after);
        }
        // advance_to(now) is a no-op regardless of the delays scheduled.
        assert!(wheel.advance_to(17).is_empty());
        assert_eq!(wheel.len(), 6);
        // after=0 and after=1 both mean "the next tick".
        assert_eq!(wheel.advance_to(18), vec![0, 1]);
    }

    #[test]
    fn cancel_works_after_rotations_and_reports_next_due() {
        let mut wheel = TimerWheel::new(4);
        assert_eq!(wheel.next_due_tick(), None);
        let far = wheel.schedule(11, "far");
        let near = wheel.schedule(2, "near");
        assert_eq!(wheel.next_due_tick(), Some(2));
        // Spin the wheel through several rotations, then cancel the
        // survivor: the slot encoded in the handle must still find it.
        assert_eq!(wheel.advance_to(9), vec!["near"]);
        assert_eq!(wheel.cancel(near), None, "already expired");
        assert_eq!(wheel.next_due_tick(), Some(11));
        assert_eq!(wheel.cancel(far), Some("far"));
        assert_eq!(wheel.next_due_tick(), None);
        assert!(wheel.is_empty());
    }

    #[test]
    fn large_jump_spanning_many_rotations() {
        let mut wheel = TimerWheel::new(4);
        for i in 0..20u64 {
            wheel.schedule(i, i);
        }
        let fired = wheel.advance_to(1000);
        assert_eq!(fired, (0..20).collect::<Vec<_>>());
        assert!(wheel.is_empty());
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn backwards_advance_panics() {
        let mut wheel: TimerWheel<()> = TimerWheel::new(4);
        wheel.advance_to(10);
        wheel.advance_to(9);
    }

    #[test]
    fn single_slot_wheel_still_correct() {
        let mut wheel = TimerWheel::new(1);
        wheel.schedule(2, "a");
        wheel.schedule(7, "b");
        assert!(wheel.advance_to(1).is_empty());
        assert_eq!(wheel.advance_to(2), vec!["a"]);
        assert_eq!(wheel.advance_to(7), vec!["b"]);
    }

    #[test]
    fn advance_into_appends_in_due_order_and_reuses_the_callers_vector() {
        let mut wheel = TimerWheel::new(8);
        let mut expired = vec!["kept"];
        wheel.schedule(5, "late");
        wheel.schedule(2, "early");
        wheel.advance_into(6, &mut expired);
        assert_eq!(expired, ["kept", "early", "late"]);
        expired.clear();
        let capacity = expired.capacity();
        wheel.schedule(1, "again");
        wheel.advance_into(7, &mut expired);
        assert_eq!(expired, ["again"]);
        assert_eq!(expired.capacity(), capacity, "no reallocation");
    }

    #[test]
    fn heavy_churn() {
        let mut wheel = TimerWheel::new(32);
        let mut ids = Vec::new();
        for round in 0u64..50 {
            for i in 0..100u64 {
                ids.push(wheel.schedule(i % 37, (round, i)));
            }
            // Cancel every third timer scheduled this round.
            for chunk in ids.chunks(3) {
                let _ = wheel.cancel(chunk[0]);
            }
            let _ = wheel.advance_to(wheel.now() + 10);
            ids.clear();
        }
        // Drain completely.
        let _ = wheel.advance_to(wheel.now() + 100);
        assert!(wheel.is_empty());
    }
}
