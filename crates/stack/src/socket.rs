//! Per-connection socket receive buffers.

use core::fmt;
use core::ops::Range;

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
/// accepted in order and not yet read, and — while a segment is missing —
/// the bytes that arrived ahead of it.
///
/// Reads advance a head index instead of shifting what is still buffered,
/// so draining a backlog in small reads costs what it copies out. The dead
/// prefix is dropped when the readable bytes run out and compacted away
/// when it outgrows the live bytes (as `pcb::SendBuffer` does), so the
/// backing vector never holds more than ~2× its occupancy.
///
/// Reassembly happens in place: a segment ahead of the in-order end is
/// written at its final offset behind a zero-filled hole, and becomes
/// readable where it lies once the hole is filled, so every byte is copied
/// in once. The stack only offers bytes inside the window it advertised,
/// which bounds what is held behind holes.
#[derive(Debug, Default, Clone)]
pub struct SocketBuffer {
    data: Vec<u8>,
    /// Present from a connection's first hole to its last. Without it
    /// every byte of `data` is in order.
    holes: Option<Box<Holes>>,
    /// Bytes of `data` already read. 32 bits, so that it shares a word with
    /// the two flags below and a connection at rest pays nothing for it;
    /// [`consume`](Self::consume) compacts rather than let it overflow.
    head: u32,
    fin_seen: bool,
    error: Option<SocketError>,
}

/// What [`SocketBuffer`] knows about the bytes it holds out of order.
#[derive(Debug, Clone)]
struct Holes {
    /// Index into `data` of the first missing byte: the in-order end.
    ready: usize,
    /// The filled stretches of `data` past `ready`, as offsets from it:
    /// sorted, disjoint, not touching each other or `ready`, never empty.
    /// `data` ends where the last one does.
    spans: Vec<Range<u32>>,
}

impl SocketBuffer {
    /// A fresh, empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append in-order payload bytes (called by the stack). Returns how
    /// many bytes became readable: the payload, and whatever was held
    /// behind the hole it filled.
    pub(crate) fn deliver(&mut self, payload: &[u8]) -> usize {
        if self.holes.is_some() {
            return self.fill(payload);
        }
        self.data.extend_from_slice(payload);
        payload.len()
    }

    /// [`deliver`](Self::deliver) into a buffer that has holes: write at
    /// the first one and take in every span the in-order end now reaches.
    #[cold]
    fn fill(&mut self, payload: &[u8]) -> usize {
        let ready = self.ready();
        self.write_at(ready, payload);
        let holes = self.holes.as_mut().expect("fill is called with holes");
        let mut run = payload.len() as u32;
        let mut reached = 0;
        while let Some(span) = holes.spans.get(reached).filter(|s| s.start <= run) {
            run = run.max(span.end);
            reached += 1;
        }
        holes.spans.drain(..reached);
        if holes.spans.is_empty() {
            self.holes = None;
        } else {
            holes.ready += run as usize;
            for span in &mut holes.spans {
                *span = span.start - run..span.end - run;
            }
        }
        run as usize
    }

    /// Keep `payload`, which belongs `offset > 0` bytes past the in-order
    /// end (called by the stack, which has trimmed it to the advertised
    /// window). Bytes held already are overwritten.
    pub(crate) fn stage(&mut self, offset: usize, payload: &[u8]) {
        debug_assert!(offset > 0 && !payload.is_empty());
        let ready = self.ready();
        let end = ready + offset + payload.len();
        // Grow to what the segment needs and no further: what doubling
        // would add is a second window nothing can ever fill.
        self.data.reserve_exact(end.saturating_sub(self.data.len()));
        self.write_at(ready + offset, payload);
        let holes = self.holes.get_or_insert_with(|| {
            Box::new(Holes {
                ready,
                spans: Vec::new(),
            })
        });
        // Merge with every span the new one overlaps or touches.
        let (mut lo, mut hi) = (offset as u32, (offset + payload.len()) as u32);
        let first = holes.spans.partition_point(|s| s.end < lo);
        let after = holes.spans.partition_point(|s| s.start <= hi);
        if first < after {
            lo = lo.min(holes.spans[first].start);
            hi = hi.max(holes.spans[after - 1].end);
        }
        holes.spans.splice(first..after, core::iter::once(lo..hi));
    }

    /// Copy `payload` to `data[at..]`, zero-filling up to `at` and growing
    /// past the end as needed.
    fn write_at(&mut self, at: usize, payload: &[u8]) {
        if at > self.data.len() {
            self.data.resize(at, 0);
        }
        let over = payload.len().min(self.data.len() - at);
        self.data[at..at + over].copy_from_slice(&payload[..over]);
        self.data.extend_from_slice(&payload[over..]);
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

    /// Index into `data` one past the last in-order byte.
    fn ready(&self) -> usize {
        match &self.holes {
            None => self.data.len(),
            Some(holes) => holes.ready,
        }
    }

    /// The unread bytes.
    fn unread(&self) -> &[u8] {
        &self.data[self.head as usize..self.ready()]
    }

    /// Bytes available to read.
    pub fn available(&self) -> usize {
        self.unread().len()
    }

    /// Whether any segment is missing before the last byte held.
    pub(crate) fn has_holes(&self) -> bool {
        self.holes.is_some()
    }

    /// Bytes held behind a hole, not yet readable.
    pub(crate) fn staged(&self) -> usize {
        self.holes.as_deref().map_or(0, |holes| {
            holes.spans.iter().map(|s| (s.end - s.start) as usize).sum()
        })
    }

    /// Missing stretches between the in-order end and the last byte held.
    pub(crate) fn hole_count(&self) -> usize {
        self.holes.as_deref().map_or(0, |holes| holes.spans.len())
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
        } else if head > self.data.len() / 2 || head > u32::MAX as usize || head == self.ready() {
            // The dead prefix dominates, or is all that precedes a hole:
            // compact in place.
            self.data.copy_within(head.., 0);
            self.data.truncate(self.data.len() - head);
            self.head = 0;
            if let Some(holes) = self.holes.as_deref_mut() {
                holes.ready -= head;
            }
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
        if self.holes.is_some() {
            return self.read(usize::MAX);
        }
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
        assert_eq!(buf.read(5), b"hello".to_vec());
        assert_eq!(buf.available(), 6);
        assert_eq!(buf.read_all(), b" world".to_vec());
        assert_eq!(buf.available(), 0);
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

    /// `head` lives in the padding beside the two flags and the span list
    /// behind one pointer: the buffer sits inline in every connection slot.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn stays_five_words() {
        assert_eq!(core::mem::size_of::<SocketBuffer>(), 40);
    }

    #[test]
    fn staged_bytes_become_readable_when_the_hole_fills() {
        let mut buf = SocketBuffer::new();
        buf.deliver(b"ab");
        buf.stage(2, b"ef");
        buf.stage(6, b"ij");
        assert_eq!((buf.available(), buf.staged(), buf.hole_count()), (2, 4, 2));
        // Half the first hole: nothing behind it is reached yet.
        assert_eq!(buf.deliver(b"c"), 1);
        assert_eq!((buf.available(), buf.staged(), buf.hole_count()), (3, 4, 2));
        assert_eq!(buf.deliver(b"d"), 3, "the filler and the span behind it");
        assert_eq!(buf.read_all(), b"abcdef".to_vec());
        assert_eq!(buf.deliver(b"gh"), 4);
        assert!(buf.holes.is_none(), "the list lives only while a hole does");
        assert_eq!(buf.read_all(), b"ghij".to_vec());
        assert_eq!((buf.head, buf.data.len()), (0, 0));
    }

    #[test]
    fn spans_merge_when_they_overlap_or_touch() {
        let spans = |buf: &SocketBuffer| -> Vec<(u32, u32)> {
            let holes = buf.holes.as_ref().unwrap();
            holes.spans.iter().map(|s| (s.start, s.end)).collect()
        };
        let mut buf = SocketBuffer::new();
        buf.stage(10, b"kl");
        buf.stage(2, b"cd");
        buf.stage(6, b"gh");
        assert_eq!(spans(&buf), [(2, 4), (6, 8), (10, 12)]);
        buf.stage(4, b"ef");
        assert_eq!(spans(&buf), [(2, 8), (10, 12)], "touching on both sides");
        buf.stage(7, b"hijk");
        assert_eq!(spans(&buf), [(2, 12)], "overlapping on both sides");
        buf.stage(3, b"de");
        assert_eq!((spans(&buf), buf.staged()), (vec![(2, 12)], 10));
        // An in-order segment that runs into the span takes all of it.
        assert_eq!(buf.deliver(b"abc"), 12);
        assert_eq!(buf.read_all(), b"abcdefghijkl".to_vec());
    }

    #[test]
    fn a_hole_survives_reads_and_compaction() {
        let mut buf = SocketBuffer::new();
        buf.deliver(b"0123456789");
        buf.stage(3, b"def");
        assert_eq!(buf.read(4), b"0123".to_vec());
        assert_eq!(buf.head, 4, "a short dead prefix stays");
        // Draining the readable bytes drops the prefix even though the
        // held bytes keep the vector from emptying.
        assert_eq!(buf.read_all(), b"456789".to_vec());
        assert_eq!((buf.head, buf.data.len(), buf.available()), (0, 6, 0));
        assert_eq!(buf.deliver(b"abc"), 6);
        assert_eq!(buf.read(100), b"abcdef".to_vec());
    }

    #[test]
    fn staging_reserves_what_the_segment_needs_and_no_more() {
        let mut buf = SocketBuffer::new();
        for k in (1..6).rev() {
            buf.stage(k * 1460, &[k as u8; 1460]);
        }
        assert_eq!(buf.data.capacity(), 6 * 1460, "one window, not two");
        assert_eq!(buf.deliver(&[0; 1460]), 6 * 1460);
        assert_eq!(buf.data.capacity(), 6 * 1460);
        let read = buf.read_all();
        assert!(read
            .chunks(1460)
            .enumerate()
            .all(|(k, c)| c == [k as u8; 1460]));
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
