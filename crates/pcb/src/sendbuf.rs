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
//!
//! The cap is not fixed: the stack lowers and raises it with
//! [`set_cap`](SendBuffer::set_cap) to follow the peer's window (twice
//! the window, above a floor, under the configured `send_buffer`), so
//! a bulk sender's ring grows to what the window can use rather than to
//! the configured ceiling. Lowering the cap below what is buffered drops
//! nothing and frees no storage; the buffer just accepts nothing more
//! until ACKs bring it back under.

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
/// the cap in force at that push. An emptied buffer keeps its storage
/// and starts again at its front, so a request/response connection
/// never wraps.
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

    /// The occupancy cap in bytes.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Change the occupancy cap. A cap below [`len`](Self::len) keeps
    /// what is buffered and the storage it sits in; [`free`](Self::free)
    /// reads zero until consumes bring the buffer back under it.
    pub fn set_cap(&mut self, cap: usize) {
        self.cap = cap;
    }

    /// Bytes of storage allocated: never more than the largest cap in
    /// force at a push that grew it.
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

    /// Free space under the cap (zero while the cap is below what is
    /// buffered).
    pub fn free(&self) -> usize {
        self.cap.saturating_sub(self.len())
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

    #[test]
    fn a_lowered_cap_keeps_what_is_buffered_and_takes_nothing_more() {
        let mut buf = SendBuffer::new(16);
        assert_eq!(buf.push(b"abcdefghij"), 10);
        buf.set_cap(4);
        assert_eq!(buf.free(), 0, "saturates below what is buffered");
        assert_eq!(buf.push(b"k"), 0);
        assert_eq!(
            (contents(&buf).as_slice(), buf.capacity()),
            (&b"abcdefghij"[..], 10)
        );
        buf.consume(7);
        assert_eq!(buf.push(b"klm"), 1, "back under the cap: one byte of room");
        assert_eq!(contents(&buf), b"hijk");
        buf.set_cap(16);
        assert_eq!(buf.push(b"lmnopqrstuvw"), 12);
        assert_eq!(buf.capacity(), 16, "grows to the raised cap, no further");
    }

    /// Interleaved pushes, consumes, peeks and cap changes across the
    /// wrap agree with a byte-`VecDeque` reference. A cap lowered below
    /// what is buffered keeps every byte and takes nothing until consumes
    /// bring the buffer under it. The storage grows only when a push
    /// needs it, by doubling or to what the push needs, never past the
    /// cap in force at that push, and a cap change never moves it.
    #[test]
    fn prop_matches_a_byte_deque() {
        check_cases("sendbuf_matches_a_byte_deque", sweep_seeds(8), |rng| {
            let ceiling = rng.usize_in(1, 4096);
            let mut buf = SendBuffer::new(ceiling);
            let mut model: VecDeque<u8> = VecDeque::new();
            let mut next = 0u8;
            // The largest cap in force at a push that grew the storage.
            let mut grown_under = 0;
            for _ in 0..rng.usize_in(200, 400) {
                let cap = buf.cap();
                match rng.u8_in(0, 4) {
                    0 => {
                        let len = rng.usize_in(0, ceiling + ceiling / 2 + 2);
                        let payload: Vec<u8> = (0..len)
                            .map(|_| {
                                next = next.wrapping_add(1);
                                next
                            })
                            .collect();
                        let (before, len_before) = (buf.capacity(), buf.len());
                        let took = buf.push(&payload);
                        assert_eq!(took, len.min(cap.saturating_sub(model.len())));
                        model.extend(&payload[..took]);
                        let after = buf.capacity();
                        if len_before + took <= before {
                            assert_eq!(after, before, "grew without need");
                        } else if before == 0 {
                            assert_eq!(after, took, "a first push allocates its length");
                        } else {
                            assert_eq!(after, (len_before + took).max(2 * before).min(cap));
                        }
                        if after > before {
                            grown_under = grown_under.max(cap);
                        }
                    }
                    1 => {
                        let n = rng.usize_in(0, model.len() + 1);
                        buf.consume(n);
                        model.drain(..n);
                    }
                    2 => {
                        // Anywhere up to the starting cap, so often below
                        // what is buffered.
                        let before = buf.capacity();
                        buf.set_cap(rng.usize_in(0, ceiling + 1));
                        assert_eq!(buf.capacity(), before, "a cap change moves no storage");
                    }
                    _ => {
                        let start = rng.usize_in(0, model.len() + 1);
                        let end = rng.usize_in(start, model.len() + 1);
                        let want: Vec<u8> = model.range(start..end).copied().collect();
                        assert_eq!(buf.peek(start..end).concat(), want);
                    }
                }
                assert_eq!(buf.len(), model.len());
                assert_eq!(buf.free(), buf.cap().saturating_sub(model.len()));
                assert!(
                    buf.capacity() <= grown_under,
                    "{} > {grown_under}",
                    buf.capacity()
                );
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
