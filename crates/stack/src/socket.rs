//! Per-connection socket receive buffers.

use core::fmt;

/// A terminal error the stack surfaces to the application through its
/// socket, analogous to the `so_error` a BSD socket reports on the next
/// syscall after an asynchronous failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketError {
    /// The retransmission budget was exhausted without an ACK from the
    /// peer; the connection was aborted (ETIMEDOUT).
    TimedOut,
}

impl fmt::Display for SocketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SocketError::TimedOut => f.write_str("connection timed out"),
        }
    }
}

impl std::error::Error for SocketError {}

/// The application-facing side of one connection: bytes the stack has
/// accepted in order and not yet read.
///
/// Reads advance a head index instead of shifting what is still buffered,
/// so draining a backlog in small reads costs what it copies out. The dead
/// prefix is dropped when the buffer empties and compacted away when it
/// outgrows the live bytes (as `pcb::SendBuffer` does), so the backing
/// vector never holds more than ~2× its occupancy.
#[derive(Debug, Default, Clone)]
pub struct SocketBuffer {
    data: Vec<u8>,
    total_received: u64,
    /// Bytes of `data` already read. 32 bits, so that it shares a word with
    /// the two flags below and a connection at rest pays nothing for it;
    /// [`consume`](Self::consume) compacts rather than let it overflow.
    head: u32,
    fin_seen: bool,
    error: Option<SocketError>,
}

impl SocketBuffer {
    /// A fresh, empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append in-order payload bytes (called by the stack).
    pub(crate) fn deliver(&mut self, payload: &[u8]) {
        self.data.extend_from_slice(payload);
        self.total_received += payload.len() as u64;
    }

    /// Mark end-of-stream (peer FIN).
    pub(crate) fn mark_fin(&mut self) {
        self.fin_seen = true;
    }

    /// Record a terminal error (called by the stack when it aborts the
    /// connection, e.g. on retransmission timeout). The first error
    /// sticks; later ones are ignored.
    pub(crate) fn set_error(&mut self, error: SocketError) {
        self.error.get_or_insert(error);
    }

    /// The terminal error, if the connection was aborted by the stack.
    /// Buffered data remains readable after an error.
    pub fn error(&self) -> Option<SocketError> {
        self.error
    }

    /// The unread bytes.
    fn unread(&self) -> &[u8] {
        &self.data[self.head as usize..]
    }

    /// Bytes available to read.
    pub fn available(&self) -> usize {
        self.unread().len()
    }

    /// Total bytes ever delivered on this connection.
    pub fn total_received(&self) -> u64 {
        self.total_received
    }

    /// Whether the peer has closed its direction.
    pub fn is_eof(&self) -> bool {
        self.fin_seen && self.unread().is_empty()
    }

    /// Release the oldest `n` unread bytes.
    fn consume(&mut self, n: usize) {
        let head = self.head as usize + n;
        if head == self.data.len() {
            self.data.clear();
            self.head = 0;
        } else if head > self.data.len() / 2 || head > u32::MAX as usize {
            // The dead prefix dominates: compact in place.
            self.data.copy_within(head.., 0);
            self.data.truncate(self.data.len() - head);
            self.head = 0;
        } else {
            self.head = head as u32;
        }
    }

    /// Read up to `max` bytes, removing them from the buffer.
    pub fn read(&mut self, max: usize) -> Vec<u8> {
        let n = max.min(self.available());
        let out = self.unread()[..n].to_vec();
        self.consume(n);
        out
    }

    /// Read everything currently buffered.
    pub fn read_all(&mut self) -> Vec<u8> {
        let mut out = core::mem::take(&mut self.data);
        out.drain(..core::mem::take(&mut self.head) as usize);
        out
    }

    /// Read up to `out.len()` bytes into `out`, removing them from the
    /// buffer; returns how many bytes were copied. Allocation-free: a
    /// bulk-transfer loop drains the socket through one reused slice
    /// instead of materializing a `Vec` per read.
    pub fn read_into(&mut self, out: &mut [u8]) -> usize {
        let n = out.len().min(self.available());
        out[..n].copy_from_slice(&self.unread()[..n]);
        self.consume(n);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deliver_and_read() {
        let mut buf = SocketBuffer::new();
        buf.deliver(b"hello ");
        buf.deliver(b"world");
        assert_eq!(buf.available(), 11);
        assert_eq!(buf.total_received(), 11);
        assert_eq!(buf.read(5), b"hello".to_vec());
        assert_eq!(buf.available(), 6);
        assert_eq!(buf.read_all(), b" world".to_vec());
        assert_eq!(buf.available(), 0);
        // total_received is cumulative, not reduced by reads.
        assert_eq!(buf.total_received(), 11);
    }

    #[test]
    fn read_more_than_available() {
        let mut buf = SocketBuffer::new();
        buf.deliver(b"abc");
        assert_eq!(buf.read(100), b"abc".to_vec());
        assert!(buf.read(1).is_empty());
    }

    #[test]
    fn read_into_drains_through_a_reused_slice() {
        let mut buf = SocketBuffer::new();
        buf.deliver(b"hello world");
        let mut scratch = [0u8; 4];
        assert_eq!(buf.read_into(&mut scratch), 4);
        assert_eq!(&scratch, b"hell");
        assert_eq!(buf.read_into(&mut scratch), 4);
        assert_eq!(&scratch, b"o wo");
        assert_eq!(buf.read_into(&mut scratch), 3);
        assert_eq!(&scratch[..3], b"rld");
        assert_eq!(buf.read_into(&mut scratch), 0);
        assert_eq!(buf.available(), 0);
        assert_eq!(buf.total_received(), 11);
    }

    #[test]
    fn partial_reads_keep_backing_storage_bounded() {
        let byte = |i: usize| (i * 31 % 251) as u8;
        let mut buf = SocketBuffer::new();
        let mut scratch = [0u8; 512];
        let (mut delivered, mut read) = (0usize, 0usize);
        let mut check_read = |buf: &mut SocketBuffer, read: &mut usize| {
            let n = buf.read_into(&mut scratch);
            for (i, got) in scratch[..n].iter().enumerate() {
                assert_eq!(*got, byte(*read + i));
            }
            *read += n;
            n
        };
        // A reader that stays 8 KiB behind a 256 KiB stream: the buffer is
        // never empty, so only compaction can keep the dead prefix bounded.
        while delivered < 256 * 1024 {
            let segment: Vec<u8> = (delivered..delivered + 1024).map(byte).collect();
            buf.deliver(&segment);
            delivered += segment.len();
            while delivered - read > 8 * 1024 {
                assert_eq!(check_read(&mut buf, &mut read), 512);
                assert_eq!(buf.available(), delivered - read);
            }
            assert!(
                buf.data.capacity() <= 32 * 1024,
                "backing vec grew to {} for 9 KiB of occupancy",
                buf.data.capacity()
            );
        }
        while check_read(&mut buf, &mut read) > 0 {}
        assert_eq!((read, buf.available()), (delivered, 0));
        assert_eq!(
            (buf.head, buf.data.len()),
            (0, 0),
            "empty resets the prefix"
        );
    }

    /// `head` lives in the padding beside the two flags: the buffer sits
    /// inline in every connection slot.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn stays_five_words() {
        assert_eq!(core::mem::size_of::<SocketBuffer>(), 40);
    }

    #[test]
    fn eof_semantics() {
        let mut buf = SocketBuffer::new();
        buf.deliver(b"tail");
        buf.mark_fin();
        assert!(!buf.is_eof(), "data still pending");
        buf.read_all();
        assert!(buf.is_eof());
    }

    #[test]
    fn first_error_sticks_and_data_stays_readable() {
        let mut buf = SocketBuffer::new();
        buf.deliver(b"partial");
        assert_eq!(buf.error(), None);
        buf.set_error(SocketError::TimedOut);
        buf.set_error(SocketError::TimedOut);
        assert_eq!(buf.error(), Some(SocketError::TimedOut));
        assert_eq!(buf.read_all(), b"partial".to_vec());
        assert_eq!(SocketError::TimedOut.to_string(), "connection timed out");
    }
}
