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

/// Receive storage between uses: a bounded LIFO of emptied blocks, one per
/// stack. A [`SocketBuffer`] owns a block only while it holds unread
/// bytes, staged bytes or a hole, so the block a connection's next segment
/// lands in is the one the previous connection was just read out of, still
/// in L1 — not a line of its own fetched from memory behind the connection
/// slot — and a connection at rest costs its slot and nothing more. The
/// pool holds at most [`MAX_BLOCKS`](Self::MAX_BLOCKS) blocks, none larger
/// than one receive buffer: a burst of more sockets filling at once
/// allocates (and later frees) the excess, as `idle_halves` and `TxPool`
/// do for theirs.
///
/// Beside the blocks it parks as many [`Holes`] records, each with the
/// capacity of its span list, so a loss episode takes the record the last
/// one gave back and only a connection's first episode allocates.
#[derive(Debug)]
pub(crate) struct BlockPool {
    free: Vec<Vec<u8>>,
    /// Reassembly records between episodes, spans emptied. Boxed because
    /// the box is what a socket holds: parking one moves a pointer.
    #[allow(clippy::vec_box)]
    holes: Vec<Box<Holes>>,
    /// The capacity above which a block is freed rather than parked.
    max_block: usize,
}

impl BlockPool {
    /// Most blocks parked.
    pub(crate) const MAX_BLOCKS: usize = 64;

    /// An empty pool for sockets that buffer up to `max_block` bytes. The
    /// lists themselves are allocated here, with the stack, so that giving
    /// a block or a record back never allocates.
    pub(crate) fn new(max_block: usize) -> Self {
        Self {
            free: Vec::with_capacity(Self::MAX_BLOCKS),
            holes: Vec::with_capacity(Self::MAX_BLOCKS),
            max_block,
        }
    }

    /// An empty block: the one given back last, or a new one that
    /// allocates when it is first written to.
    fn take(&mut self) -> Vec<u8> {
        self.free.pop().unwrap_or_default()
    }

    fn give(&mut self, mut block: Vec<u8>) {
        block.clear();
        if self.free.len() < Self::MAX_BLOCKS && block.capacity() <= self.max_block {
            self.free.push(block);
        }
    }

    /// A reassembly record whose in-order end is `ready` and which has no
    /// spans yet.
    fn take_holes(&mut self, ready: usize) -> Box<Holes> {
        match self.holes.pop() {
            Some(mut holes) => {
                holes.ready = ready;
                holes
            }
            None => Box::new(Holes {
                ready,
                spans: Vec::new(),
            }),
        }
    }

    fn give_holes(&mut self, mut holes: Box<Holes>) {
        holes.spans.clear();
        if self.holes.len() < Self::MAX_BLOCKS {
            self.holes.push(holes);
        }
    }

    /// Blocks parked.
    pub(crate) fn parked(&self) -> usize {
        self.free.len()
    }
}

/// The application-facing side of one connection: bytes the stack has
/// accepted in order and not yet read, and — while a segment is missing —
/// the bytes that arrived ahead of it.
///
/// The backing storage is on loan from the stack's [`BlockPool`]:
/// [`deliver`](Self::deliver) and [`stage`](Self::stage) into a buffer
/// that has none take a block, and [`settle`](Self::settle) gives it back
/// once the application has read everything and no hole is open. Reads go
/// through `&mut SocketBuffer` alone, so the stack settles the buffer it
/// last handed out at its next entry point rather than inside the read.
///
/// Reads advance a head index instead of shifting what is still buffered,
/// so draining a backlog in small reads costs what it copies out. The dead
/// prefix is dropped when the readable bytes run out and compacted away
/// when it outgrows the live bytes, so the backing vector never holds more
/// than ~2× its occupancy.
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
    pub(crate) fn deliver(&mut self, payload: &[u8], pool: &mut BlockPool) -> usize {
        if self.holes.is_some() {
            return self.fill(payload, pool);
        }
        self.borrow_block(payload, pool);
        self.data.extend_from_slice(payload);
        payload.len()
    }

    /// Take a block from `pool` if there is none and `payload` needs one.
    fn borrow_block(&mut self, payload: &[u8], pool: &mut BlockPool) {
        if self.data.capacity() == 0 && !payload.is_empty() {
            self.data = pool.take();
        }
    }

    /// Give the block back to `pool` if nothing is left in it: every byte
    /// delivered has been read and no hole is open.
    pub(crate) fn settle(&mut self, pool: &mut BlockPool) {
        if self.data.is_empty() && self.holes.is_none() && self.data.capacity() > 0 {
            debug_assert_eq!(self.head, 0, "an emptied buffer has no dead prefix");
            pool.give(core::mem::take(&mut self.data));
        }
    }

    /// [`deliver`](Self::deliver) into a buffer that has holes: write at
    /// the first one and take in every span the in-order end now reaches.
    /// The record goes back to `pool` when the last hole closes.
    #[cold]
    fn fill(&mut self, payload: &[u8], pool: &mut BlockPool) -> usize {
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
            pool.give_holes(self.holes.take().expect("checked above"));
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
    pub(crate) fn stage(&mut self, offset: usize, payload: &[u8], pool: &mut BlockPool) {
        debug_assert!(offset > 0 && !payload.is_empty());
        self.borrow_block(payload, pool);
        let ready = self.ready();
        let end = ready + offset + payload.len();
        // Grow to what the segment needs and no further: what doubling
        // would add is a second window nothing can ever fill.
        self.data.reserve_exact(end.saturating_sub(self.data.len()));
        self.write_at(ready + offset, payload);
        let holes = self.holes.get_or_insert_with(|| pool.take_holes(ready));
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
        self.read(usize::MAX)
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
        let mut pool = BlockPool::new(64 * 1024);
        let mut buf = SocketBuffer::new();
        buf.deliver(b"hello ", &mut pool);
        buf.deliver(b"world", &mut pool);
        assert_eq!(buf.available(), 11);
        assert_eq!(buf.read(5), b"hello".to_vec());
        assert_eq!(buf.available(), 6);
        assert_eq!(buf.read_all(), b" world".to_vec());
        assert_eq!(buf.available(), 0);
    }

    #[test]
    fn read_more_than_available() {
        let mut pool = BlockPool::new(64 * 1024);
        let mut buf = SocketBuffer::new();
        buf.deliver(b"abc", &mut pool);
        assert_eq!(buf.read(100), b"abc".to_vec());
        assert!(buf.read(1).is_empty());
    }

    #[test]
    fn read_into_drains_through_a_reused_slice() {
        let mut pool = BlockPool::new(64 * 1024);
        let mut buf = SocketBuffer::new();
        buf.deliver(b"hello world", &mut pool);
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
        let mut pool = BlockPool::new(64 * 1024);
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
            buf.deliver(&segment, &mut pool);
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

    #[test]
    fn staged_bytes_become_readable_when_the_hole_fills() {
        let mut pool = BlockPool::new(64 * 1024);
        let mut buf = SocketBuffer::new();
        buf.deliver(b"ab", &mut pool);
        buf.stage(2, b"ef", &mut pool);
        buf.stage(6, b"ij", &mut pool);
        assert_eq!((buf.available(), buf.staged(), buf.hole_count()), (2, 4, 2));
        // Half the first hole: nothing behind it is reached yet.
        assert_eq!(buf.deliver(b"c", &mut pool), 1);
        assert_eq!((buf.available(), buf.staged(), buf.hole_count()), (3, 4, 2));
        assert_eq!(
            buf.deliver(b"d", &mut pool),
            3,
            "the filler and the span behind it"
        );
        assert_eq!(buf.read_all(), b"abcdef".to_vec());
        assert_eq!(buf.deliver(b"gh", &mut pool), 4);
        assert!(buf.holes.is_none(), "the list lives only while a hole does");
        assert_eq!(buf.read_all(), b"ghij".to_vec());
        assert_eq!((buf.head, buf.data.len()), (0, 0));
    }

    /// The record a closed hole leaves goes to the pool, span list and
    /// all, and the next episode of any socket takes it from there.
    #[test]
    fn a_second_loss_episode_reuses_the_first_ones_record() {
        let mut pool = BlockPool::new(64 * 1024);
        let (mut first, mut second) = (SocketBuffer::new(), SocketBuffer::new());
        first.stage(2, b"cd", &mut pool);
        first.stage(6, b"gh", &mut pool);
        let record: *const Holes = &**first.holes.as_ref().unwrap();
        assert_eq!(first.deliver(b"ab", &mut pool), 4);
        assert!(pool.holes.is_empty(), "one hole is still open");
        assert_eq!(first.deliver(b"ef", &mut pool), 4);
        assert!(first.holes.is_none());
        assert_eq!(pool.holes.len(), 1);
        second.stage(1, b"x", &mut pool);
        let holes = second.holes.as_deref().unwrap();
        assert!(core::ptr::eq(holes, record), "the parked record");
        assert_eq!((holes.ready, holes.spans.len()), (0, 1));
        assert!(holes.spans.capacity() >= 2, "with its span list");
        assert!(pool.holes.is_empty());
    }

    #[test]
    fn spans_merge_when_they_overlap_or_touch() {
        let spans = |buf: &SocketBuffer| -> Vec<(u32, u32)> {
            let holes = buf.holes.as_ref().unwrap();
            holes.spans.iter().map(|s| (s.start, s.end)).collect()
        };
        let mut pool = BlockPool::new(64 * 1024);
        let mut buf = SocketBuffer::new();
        buf.stage(10, b"kl", &mut pool);
        buf.stage(2, b"cd", &mut pool);
        buf.stage(6, b"gh", &mut pool);
        assert_eq!(spans(&buf), [(2, 4), (6, 8), (10, 12)]);
        buf.stage(4, b"ef", &mut pool);
        assert_eq!(spans(&buf), [(2, 8), (10, 12)], "touching on both sides");
        buf.stage(7, b"hijk", &mut pool);
        assert_eq!(spans(&buf), [(2, 12)], "overlapping on both sides");
        buf.stage(3, b"de", &mut pool);
        assert_eq!((spans(&buf), buf.staged()), (vec![(2, 12)], 10));
        // An in-order segment that runs into the span takes all of it.
        assert_eq!(buf.deliver(b"abc", &mut pool), 12);
        assert_eq!(buf.read_all(), b"abcdefghijkl".to_vec());
    }

    #[test]
    fn a_hole_survives_reads_and_compaction() {
        let mut pool = BlockPool::new(64 * 1024);
        let mut buf = SocketBuffer::new();
        buf.deliver(b"0123456789", &mut pool);
        buf.stage(3, b"def", &mut pool);
        assert_eq!(buf.read(4), b"0123".to_vec());
        assert_eq!(buf.head, 4, "a short dead prefix stays");
        // Draining the readable bytes drops the prefix even though the
        // held bytes keep the vector from emptying.
        assert_eq!(buf.read_all(), b"456789".to_vec());
        assert_eq!((buf.head, buf.data.len(), buf.available()), (0, 6, 0));
        assert_eq!(buf.deliver(b"abc", &mut pool), 6);
        assert_eq!(buf.read(100), b"abcdef".to_vec());
    }

    #[test]
    fn staging_reserves_what_the_segment_needs_and_no_more() {
        let mut pool = BlockPool::new(64 * 1024);
        let mut buf = SocketBuffer::new();
        for k in (1..6).rev() {
            buf.stage(k * 1460, &[k as u8; 1460], &mut pool);
        }
        assert_eq!(buf.data.capacity(), 6 * 1460, "one window, not two");
        assert_eq!(buf.deliver(&[0; 1460], &mut pool), 6 * 1460);
        assert_eq!(buf.data.capacity(), 6 * 1460);
        let read = buf.read_all();
        assert!(read
            .chunks(1460)
            .enumerate()
            .all(|(k, c)| c == [k as u8; 1460]));
    }

    /// What one buffer of the pool scripts must hold: every byte offered
    /// and not yet read, by stream offset.
    #[derive(Default)]
    struct ByteMap {
        /// `offered[i]` is the byte at stream offset `read + i`, if any
        /// segment has carried it.
        offered: std::collections::VecDeque<Option<u8>>,
        /// Stream offsets of the next byte to read and of the first byte
        /// missing.
        read: usize,
        ready: usize,
    }

    impl ByteMap {
        /// Offer `len` bytes of stream `id` at `at`; returns how far the
        /// in-order end moved.
        fn offer(&mut self, id: usize, at: usize, len: usize) -> usize {
            let end = at + len - self.read;
            self.offered.resize(self.offered.len().max(end), None);
            for o in at..at + len {
                self.offered[o - self.read] = Some(stream_byte(id, o));
            }
            let before = self.ready;
            while self
                .offered
                .get(self.ready - self.read)
                .is_some_and(Option::is_some)
            {
                self.ready += 1;
            }
            self.ready - before
        }

        /// The next `n` bytes, which are then gone.
        fn take(&mut self, n: usize) -> Vec<u8> {
            self.read += n;
            self.offered.drain(..n).map(Option::unwrap).collect()
        }

        /// What is held past the in-order end, zero where nothing is.
        fn past_ready(&self) -> Vec<u8> {
            let held = self.offered.iter().skip(self.ready - self.read);
            held.map(|byte| byte.unwrap_or(0)).collect()
        }

        fn staged(&self) -> usize {
            self.past_ready().iter().filter(|&&byte| byte != 0).count()
        }
    }

    /// Never zero, so that a byte left behind in a recycled block shows in
    /// a hole that should read zero.
    fn stream_byte(id: usize, offset: usize) -> u8 {
        1 + ((offset * 31 + id * 7) % 255) as u8
    }

    /// Seeded scripts of deliver / stage / read / settle over several
    /// buffers that lend each other's blocks through one pool, against a
    /// byte map per buffer: no byte is lost, reordered or read twice, a
    /// buffer that holds anything keeps its block, one that holds nothing
    /// gives it up, a borrowed block brings nothing of its last user into
    /// a hole, and the pool stays inside its bounds.
    #[test]
    fn pooled_buffers_agree_with_a_byte_map_across_seeds() {
        use tcpdemux_testprop::{sweep_seeds, TestRng};
        const BUFFERS: usize = 5;
        const WINDOW: usize = 6000;
        const MAX_BLOCK: usize = 4096;
        for seed in 1..=u64::from(sweep_seeds(8)) {
            let mut rng = TestRng::from_seed(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut pool = BlockPool::new(MAX_BLOCK);
            let mut bufs: Vec<SocketBuffer> = (0..BUFFERS).map(|_| SocketBuffer::new()).collect();
            let mut maps: Vec<ByteMap> = (0..BUFFERS).map(|_| ByteMap::default()).collect();
            let mut scratch = vec![0u8; 2 * WINDOW];
            let (mut lent, mut reassembled) = (0, 0);
            for step in 0..2000 {
                let id = rng.usize_in(0, BUFFERS);
                let (buf, map) = (&mut bufs[id], &mut maps[id]);
                let tag = format!("seed {seed} step {step} buffer {id}");
                let could_borrow = buf.data.capacity() == 0 && pool.parked() > 0;
                let len = rng.usize_in(1, 1461);
                let payload =
                    |at: usize| -> Vec<u8> { (at..at + len).map(|o| stream_byte(id, o)).collect() };
                match rng.u32_below(10) {
                    0..=2 => {
                        let gained = buf.deliver(&payload(map.ready), &mut pool);
                        assert_eq!(gained, map.offer(id, map.ready, len), "{tag}");
                        reassembled += usize::from(gained > len);
                    }
                    // Ahead of the in-order end, inside a window of it,
                    // near enough that the next delivery may reach it.
                    3..=4 if map.ready - map.read < WINDOW / 2 => {
                        let offset = rng.usize_in(1, 2 * len + 1);
                        buf.stage(offset, &payload(map.ready + offset), &mut pool);
                        map.offer(id, map.ready + offset, len);
                    }
                    5 => {
                        let want = rng.usize_in(0, scratch.len());
                        let n = buf.read_into(&mut scratch[..want]);
                        assert_eq!(n, want.min(map.ready - map.read), "{tag}");
                        assert_eq!(scratch[..n], map.take(n), "{tag}");
                    }
                    6 => {
                        let got = buf.read(rng.usize_in(0, WINDOW));
                        assert_eq!(got, map.take(got.len()), "{tag}");
                    }
                    7 => assert_eq!(buf.read_all(), map.take(map.ready - map.read), "{tag}"),
                    _ => buf.settle(&mut pool),
                }
                lent += usize::from(could_borrow && buf.data.capacity() > 0);

                assert_eq!(buf.available(), map.ready - map.read, "{tag}");
                assert_eq!(buf.staged(), map.staged(), "{tag}");
                assert_eq!(buf.has_holes(), map.staged() > 0, "{tag}");
                // Storage goes with content, after a settle both ways.
                let holds = buf.available() > 0 || buf.staged() > 0 || buf.has_holes();
                assert!(!holds || buf.data.capacity() > 0, "{tag}: storage given up");
                buf.settle(&mut pool);
                assert_eq!(buf.data.capacity() > 0, holds, "{tag}: after settle");
                // What is held and not yet in order is what was offered
                // there, and zero where nothing was.
                assert_eq!(buf.data[buf.ready()..], map.past_ready(), "{tag}");
                assert!(pool.parked() <= BlockPool::MAX_BLOCKS, "{tag}");
                assert!(
                    pool.free
                        .iter()
                        .all(|b| b.is_empty() && (1..=MAX_BLOCK).contains(&b.capacity())),
                    "{tag}: a parked block is empty, real and not oversized"
                );
            }
            assert!(lent > 50, "seed {seed}: {lent} blocks changed hands");
            assert!(reassembled > 10, "seed {seed}: {reassembled} holes closed");
        }
    }

    #[test]
    fn eof_semantics() {
        let mut pool = BlockPool::new(64 * 1024);
        let mut buf = SocketBuffer::new();
        buf.deliver(b"tail", &mut pool);
        buf.mark_fin();
        assert!(!buf.is_eof(), "data still pending");
        buf.read_all();
        assert!(buf.is_eof());
    }

    #[test]
    fn first_error_sticks_and_data_stays_readable() {
        let mut pool = BlockPool::new(64 * 1024);
        let mut buf = SocketBuffer::new();
        buf.deliver(b"partial", &mut pool);
        assert_eq!(buf.error(), None);
        buf.set_error(SocketError::TimedOut);
        buf.set_error(SocketError::TimedOut);
        assert_eq!(buf.error(), Some(SocketError::TimedOut));
        assert_eq!(buf.read_all(), b"partial".to_vec());
        assert_eq!(SocketError::TimedOut.to_string(), "connection timed out");
    }
}
