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
//! It is a flat `Vec<u8>` with a head cursor rather than a ring: the
//! contents are always one contiguous slice, so a first transmission
//! and a retransmission both frame MSS-sized chunks straight out of
//! the buffer without gathering.

/// A capped FIFO byte buffer for unacknowledged and unsent data.
///
/// `push` accepts as many bytes as fit under the cap and reports how
/// many it took; `peek` exposes the contents, oldest first, as one
/// contiguous slice; `consume` releases the oldest bytes once the
/// peer's cumulative ACK has passed them. Storage is compacted when the
/// consumed prefix grows past half the backing vector, so the buffer
/// never holds more than ~2× its occupancy.
#[derive(Debug, Clone)]
pub struct SendBuffer {
    data: Vec<u8>,
    head: usize,
    cap: usize,
}

impl SendBuffer {
    /// An empty buffer holding at most `cap` bytes.
    pub fn new(cap: usize) -> Self {
        Self {
            data: Vec::new(),
            head: 0,
            cap,
        }
    }

    /// The configured occupancy cap in bytes.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Bytes currently buffered.
    pub fn len(&self) -> usize {
        self.data.len() - self.head
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.head == self.data.len()
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
        if self.is_empty() {
            // Nothing buffered: restart at the front so `peek` slices
            // stay near the allocation's start.
            self.data.clear();
            self.head = 0;
        }
        self.data.extend_from_slice(&payload[..take]);
        take
    }

    /// The buffered bytes, oldest first, as one contiguous slice.
    pub fn peek(&self) -> &[u8] {
        &self.data[self.head..]
    }

    /// Release the oldest `n` bytes (the peer has acknowledged them, so
    /// they will never be transmitted again).
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`len`](Self::len).
    pub fn consume(&mut self, n: usize) {
        assert!(n <= self.len(), "consuming more than is buffered");
        self.head += n;
        if self.is_empty() {
            self.data.clear();
            self.head = 0;
        } else if self.head > self.data.len() / 2 {
            // The dead prefix dominates: compact in place.
            self.data.copy_within(self.head.., 0);
            self.data.truncate(self.data.len() - self.head);
            self.head = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_honors_cap_and_reports_acceptance() {
        let mut buf = SendBuffer::new(8);
        assert_eq!(buf.push(b"hello"), 5);
        assert_eq!(buf.push(b"world"), 3, "only 3 of 5 fit");
        assert_eq!(buf.len(), 8);
        assert_eq!(buf.free(), 0);
        assert_eq!(buf.push(b"!"), 0);
        assert_eq!(buf.peek(), b"hellowor");
    }

    #[test]
    fn consume_is_fifo_and_frees_capacity() {
        let mut buf = SendBuffer::new(8);
        buf.push(b"abcdefgh");
        buf.consume(3);
        assert_eq!(buf.peek(), b"defgh");
        assert_eq!(buf.push(b"xyz"), 3);
        assert_eq!(buf.peek(), b"defghxyz");
        buf.consume(8);
        assert!(buf.is_empty());
        assert_eq!(buf.peek(), b"");
    }

    #[test]
    fn compaction_bounds_backing_storage() {
        let mut buf = SendBuffer::new(16);
        // Churn many times the cap through the buffer; the backing
        // vector must stay bounded by ~2× the cap, not grow linearly.
        for round in 0..1000u32 {
            let byte = (round % 251) as u8;
            assert_eq!(buf.push(&[byte; 8]), 8);
            assert_eq!(buf.peek()[buf.len() - 1], byte);
            buf.consume(8);
        }
        assert!(buf.is_empty());
        assert!(
            buf.data.capacity() <= 64,
            "backing vec grew to {} despite compaction",
            buf.data.capacity()
        );
    }

    /// One `SendBuffer` sits inline in a map entry per connection that
    /// has ever sent, so a field added here is paid by every connection
    /// at rest (the benchmark's `heap_bytes_per_conn`). That is why the
    /// sent/unsent boundary is derived by the stack, not stored here.
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
}
