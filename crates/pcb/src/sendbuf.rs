//! Per-connection send buffer backing the enqueue/poll transmit API.
//!
//! [`SendBuffer`] is a capped byte queue holding everything a
//! connection may still have to put on the wire, in sequence order:
//! the bytes already sent and not yet acknowledged, then the bytes the
//! application's `send` enqueued that `poll_transmit` has not framed
//! yet. It is the retransmission store as well — BSD's `so_snd` — so
//! each in-flight byte exists once. The buffer does not know where the
//! sent/unsent boundary is; the stack derives it from its
//! retransmission queue, whose segments are contiguous from offset 0.
//!
//! It is a ring (a `VecDeque<u8>`): a cumulative ACK moves the head and
//! copies nothing, and a sender that keeps the buffer full holds exactly
//! its cap, where a flat vector with a head cursor grew to twice that and
//! moved the live bytes down whenever the dead prefix outgrew them. The
//! price is that a byte range may straddle the wrap, so
//! [`peek`](SendBuffer::peek) hands out up to two slices and the frame
//! builder copies a segment's payload out of both.

use core::ops::Range;
use std::collections::VecDeque;

/// A capped FIFO byte buffer for unacknowledged and unsent data.
///
/// `push` accepts as many bytes as fit under the cap and reports how
/// many it took; `peek` exposes a range of the contents, oldest first,
/// as two slices; `consume` releases the oldest bytes once the peer's
/// cumulative ACK has passed them.
///
/// Storage is allocated on the first push at exactly that push's size,
/// so a 200 B response costs 200 B, and doubles from there, never past
/// the cap. An emptied buffer keeps its storage and starts again at its
/// front, so a request/response connection never wraps.
#[derive(Debug, Clone)]
pub struct SendBuffer {
    ring: VecDeque<u8>,
    cap: usize,
}

impl SendBuffer {
    /// An empty buffer holding at most `cap` bytes.
    pub fn new(cap: usize) -> Self {
        Self {
            ring: VecDeque::new(),
            cap,
        }
    }

    /// The configured occupancy cap in bytes.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Bytes of storage allocated: never more than [`cap`](Self::cap).
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Bytes currently buffered.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Free space under the cap.
    pub fn free(&self) -> usize {
        self.cap - self.len()
    }

    /// Append as much of `payload` as fits under the cap; returns the
    /// number of bytes accepted (possibly zero).
    pub fn push(&mut self, payload: &[u8]) -> usize {
        let take = payload.len().min(self.free());
        if take == 0 {
            return 0;
        }
        let need = self.ring.len() + take;
        let capacity = self.ring.capacity();
        if need > capacity {
            // `reserve_exact`, so that the cap bounds the allocation:
            // `reserve` would round a 256 KiB buffer up past it.
            let grown = need.max(2 * capacity).min(self.cap);
            self.ring.reserve_exact(grown - self.ring.len());
        }
        self.ring.extend(&payload[..take]);
        take
    }

    /// The buffered bytes at offsets `range` (oldest byte at offset 0),
    /// as two slices whose concatenation is the range: the part before
    /// the ring's wrap point and the part after it, either possibly
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics if `range` reaches past [`len`](Self::len).
    pub fn peek(&self, range: Range<usize>) -> [&[u8]; 2] {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "peeking past what is buffered"
        );
        let (front, back) = self.ring.as_slices();
        let split = front.len();
        [
            &front[range.start.min(split)..range.end.min(split)],
            &back[range.start.saturating_sub(split)..range.end.saturating_sub(split)],
        ]
    }

    /// Release the oldest `n` bytes (the peer has acknowledged them, so
    /// they will never be transmitted again).
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`len`](Self::len).
    pub fn consume(&mut self, n: usize) {
        assert!(n <= self.len(), "consuming more than is buffered");
        if n == self.len() {
            // Back to the front of the storage: the next push is
            // contiguous and the ring does not wrap.
            self.ring.clear();
        } else {
            self.ring.drain(..n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcpdemux_testprop::{check_cases, sweep_seeds};

    /// The whole contents as one vector, through `peek`.
    fn contents(buf: &SendBuffer) -> Vec<u8> {
        buf.peek(0..buf.len()).concat()
    }

    #[test]
    fn push_honors_cap_and_reports_acceptance() {
        let mut buf = SendBuffer::new(8);
        assert_eq!(buf.push(b"hello"), 5);
        assert_eq!(buf.push(b"world"), 3, "only 3 of 5 fit");
        assert_eq!(buf.len(), 8);
        assert_eq!(buf.free(), 0);
        assert_eq!(buf.push(b"!"), 0);
        assert_eq!(contents(&buf), b"hellowor");
    }

    #[test]
    fn consume_is_fifo_and_frees_capacity() {
        let mut buf = SendBuffer::new(8);
        buf.push(b"abcdefgh");
        buf.consume(3);
        assert_eq!(contents(&buf), b"defgh");
        assert_eq!(buf.push(b"xyz"), 3);
        assert_eq!(contents(&buf), b"defghxyz");
        assert_eq!(buf.peek(2..7), [&b"fgh"[..], &b"xy"[..]], "across the wrap");
        buf.consume(8);
        assert!(buf.is_empty());
        assert_eq!(contents(&buf), b"");
    }

    #[test]
    fn a_full_buffer_holds_its_cap_and_no_more() {
        // A sender keeping a 256 KiB buffer full in 16 KiB pushes while
        // ACKs retire 1,460 B at a time: the storage ends at the cap.
        let (cap, chunk) = (256 * 1024, [7u8; 16 * 1024]);
        let mut buf = SendBuffer::new(cap);
        for _ in 0..2000 {
            while buf.push(&chunk) == chunk.len() {}
            buf.consume(1460);
            assert!(buf.capacity() <= cap, "{} > {cap}", buf.capacity());
        }
        assert_eq!(buf.capacity(), cap);
    }

    #[test]
    fn an_emptied_buffer_starts_again_at_the_front() {
        let mut buf = SendBuffer::new(1024);
        buf.push(&[1; 200]);
        for round in 0..100u8 {
            buf.consume(buf.len());
            buf.push(&[round; 200]);
            let [front, back] = buf.peek(0..200);
            assert_eq!((front.len(), back.len()), (200, 0), "round {round}");
        }
        assert_eq!(buf.capacity(), 200);
    }

    /// Interleaved pushes, consumes and peeks across the wrap agree with
    /// a byte-`VecDeque` reference; the storage never passes the cap and
    /// grows only when a push needs it, by doubling or to what the push
    /// needs.
    #[test]
    fn prop_matches_a_byte_deque() {
        check_cases("sendbuf_matches_a_byte_deque", sweep_seeds(8), |rng| {
            let cap = rng.usize_in(1, 4096);
            let mut buf = SendBuffer::new(cap);
            let mut model: VecDeque<u8> = VecDeque::new();
            let mut next = 0u8;
            for _ in 0..rng.usize_in(200, 400) {
                match rng.u8_in(0, 3) {
                    0 => {
                        let len = rng.usize_in(0, cap + cap / 2 + 2);
                        let payload: Vec<u8> = (0..len)
                            .map(|_| {
                                next = next.wrapping_add(1);
                                next
                            })
                            .collect();
                        let (before, len_before) = (buf.capacity(), buf.len());
                        let took = buf.push(&payload);
                        assert_eq!(took, len.min(cap - model.len()));
                        model.extend(&payload[..took]);
                        let after = buf.capacity();
                        if len_before + took <= before {
                            assert_eq!(after, before, "grew without need");
                        } else if before == 0 {
                            assert_eq!(after, took, "a first push allocates its length");
                        } else {
                            assert_eq!(after, (len_before + took).max(2 * before).min(cap));
                        }
                    }
                    1 => {
                        let n = rng.usize_in(0, model.len() + 1);
                        buf.consume(n);
                        model.drain(..n);
                    }
                    _ => {
                        let start = rng.usize_in(0, model.len() + 1);
                        let end = rng.usize_in(start, model.len() + 1);
                        let want: Vec<u8> = model.range(start..end).copied().collect();
                        assert_eq!(buf.peek(start..end).concat(), want);
                    }
                }
                assert_eq!(buf.len(), model.len());
                assert_eq!(buf.free(), cap - model.len());
                assert!(buf.capacity() <= cap, "{} > {cap}", buf.capacity());
            }
            assert_eq!(contents(&buf), model.iter().copied().collect::<Vec<_>>());
        });
    }

    #[test]
    fn a_lone_push_allocates_exactly_its_length() {
        for len in [1, 7, 8, 100, 200, 1460, 8760, 65_536] {
            let mut buf = SendBuffer::new(256 * 1024);
            buf.push(&vec![3; len]);
            assert_eq!(buf.capacity(), len);
        }
    }

    /// One `SendBuffer` sits in every sender half, so a field added here
    /// is paid by every connection with something in flight. That is why
    /// the sent/unsent boundary is derived by the stack, not stored here.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn stays_five_words() {
        assert_eq!(core::mem::size_of::<SendBuffer>(), 40);
    }

    #[test]
    #[should_panic(expected = "consuming more than is buffered")]
    fn overconsume_panics() {
        let mut buf = SendBuffer::new(4);
        buf.push(b"ab");
        buf.consume(3);
    }

    #[test]
    #[should_panic(expected = "peeking past what is buffered")]
    fn overpeek_panics() {
        let mut buf = SendBuffer::new(4);
        buf.push(b"ab");
        buf.peek(1..3);
    }
}
