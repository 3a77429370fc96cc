//! A steady-state transaction allocates nothing on the serving stack.
//!
//! A counting global allocator wraps the system allocator, and only the
//! calls into the server [`Stack`] are counted (the counter is read
//! before and after each one; the client is an ordinary `Stack` that
//! allocates as it likes in between). After warm-up — every connection
//! has transacted, the frame pool, the receive-block pool and the idle
//! sender halves are stocked, the timer slab has its capacity — five
//! phases must each make exactly zero allocator calls: 1 000
//! TPC/A-shaped transactions spread over 64 connections (request in →
//! ACK out, read, `send`, `poll_transmit` → response out, ACK in), one
//! at a time; then 2 000 clock ticks in each of which a varying 1 … 20
//! connections transact together, the shape of the benchmark's
//! `miss_flood`, where a timer wheel with per-slot storage allocated
//! whenever a tick armed more timers than its slot had ever held; then
//! 256 KiB in on one connection whose reader takes 512 B at a time and
//! stays 8 KiB behind, so its socket buffer is never empty and only
//! compaction of the already-read prefix keeps the backing vector from
//! growing (growth is a `realloc`, which is counted); then 50 rounds of
//! the benchmark's `churn` — 64 connections opened, one transaction on
//! each, the peers' FINs in, 64 `close`s, the last ACKs in — where the
//! server has handed out 64 FIN-ACKs and 64 FINs before it sees any of
//! them again, and a frame pool that parks 64 frees half of them only to
//! allocate them next round, and where every new connection's first
//! request lands in a block some closed connection gave back; then, with
//! 2 000 connections standing, 100 blocks shaped like the benchmark's
//! `tpca` (64 requests in, then 64 reads, then 64 `send`s and a poll,
//! then 64 ACKs in), which have 64 receive blocks out at once and must
//! find all 64 parked again — in the pool, not in the sockets — when the
//! block is over. Every frame the server emitted is recycled to it.
//!
//! Two more phases count something other than the one server. The
//! default demultiplexer alone, 2 000 standing keys and 64 slots through
//! which 256 k keys rotate, as `churn` rotates its clients' ports: a
//! table whose chains each grew their own storage reallocated whenever
//! one of them first passed a power of two, which happened rounds into a
//! run, not at warm-up. And one long-lived connection over a link that
//! drops 3 % of frames each way, both ends counted from the end of its
//! first loss episode, across 4 MiB: every later episode reuses the
//! receiver's reassembly record and the sender's ring stays at its cap.
//! The one call not counted there is the sender's `advance_time`, whose
//! RTO frames come back in a vector the caller owns.
//!
//! This is what `transmit_is_allocation_free_after_warmup` in
//! `stack.rs` cannot see: it reads the frame pool's counters, and the
//! two allocations per transaction this test was written against (the
//! reply container and the in-flight queue) were never frame buffers.
//!
//! One `#[test]`, because the counter is process-global; and as in
//! `telemetry_overhead.rs` the measurement retries, because libtest's
//! own threads can allocate inside the window — a handful of calls at a
//! random moment, where an allocation on the path would show at least
//! once per transaction in every attempt.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::VecDeque;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use tcpdemux::demux::{Demux, PacketKind, SequentDemux};
use tcpdemux::hash::Multiplicative;
use tcpdemux::pcb::{ConnectionKey, PcbId};
use tcpdemux::stack::{FaultInjector, FaultOutcome, RxOutcome, Stack, StackConfig, TxScratch};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// Forward everything to the system allocator, counting every call that
// can acquire memory (alloc, alloc_zeroed, realloc).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const SERVER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const PORT: u16 = 1521;
const CONNECTIONS: usize = 64;
const TRANSACTIONS: usize = 1_000;
/// Most connections transacting in one tick of the second phase.
const BLOCK_MAX: usize = 20;
const TICKS: u64 = 2_000;
/// The third phase: segments in, their size, the reader's lag.
const BULK_SEGMENTS: usize = 256;
const BULK_SEGMENT: [u8; 1024] = [0x3c; 1024];
const BACKLOG: usize = 8 * 1024;
/// The fourth and fifth phases: operations in a block, as the benchmark
/// has; rounds of churn; standing connections and blocks over them.
const BLOCK: usize = 64;
const CHURN_ROUNDS: usize = 50;
const POPULATION: usize = 2_000;
const BLOCKS: usize = 100;
/// The lossy phase: the link's one-way delay in ticks and its drop
/// chance each way, what the sender's application offers at a time, and
/// the bytes moved while counted.
const LOSSY_DELAY: u64 = 10;
const LOSSY_DROP: f64 = 0.03;
const LOSSY_CHUNK: usize = 16 * 1024;
const LOSSY_BYTES: usize = 4 << 20;
/// Keys the rotating-keys phase passes through its 64 rotating slots.
const ROTATED: usize = 256 * 1024;
const REQUEST: [u8; 100] = [0x5a; 100];
const RESPONSE: [u8; 200] = [0xa5; 200];

/// The server under test, with the allocator calls its entry points
/// have made.
struct Counted {
    stack: Stack,
    scratch: TxScratch,
    allocations: u64,
}

impl Counted {
    /// Run `f` against the server, counting what it allocates.
    fn call<R>(&mut self, f: impl FnOnce(&mut Stack, &mut TxScratch) -> R) -> R {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let out = f(&mut self.stack, &mut self.scratch);
        self.allocations += ALLOCATIONS.load(Ordering::Relaxed) - before;
        out
    }
}

/// A request in on each connection of `batch`: delivered, acknowledged,
/// read.
fn requests(server: &mut Counted, client: &mut Stack, batch: &[(PcbId, PcbId)]) {
    let mut out = TxScratch::new();
    let mut read = [0u8; REQUEST.len()];
    for &(cp, sp) in batch {
        assert_eq!(client.send(cp, &REQUEST), Ok(REQUEST.len()));
        assert_eq!(client.poll_transmit(&mut out), 1);
        let request = out.frames.pop().unwrap();
        let delivered = server.call(|s, _| s.receive(&request)).unwrap();
        assert!(matches!(delivered.outcome, RxOutcome::Delivered { pcb, .. } if pcb == sp));
        let n = server.call(|s, _| s.socket_mut(sp).unwrap().read_into(&mut read));
        assert_eq!(n, REQUEST.len());
        assert_eq!(delivered.replies.len(), 1);
        for ack in delivered.replies {
            assert!(client.receive(&ack).unwrap().replies.is_empty());
            server.call(|s, _| s.recycle(ack));
        }
    }
}

/// A response out on each connection of `batch` in one transmit poll —
/// so that many retransmission timers are armed at once — then their
/// ACKs in.
fn responses(server: &mut Counted, client: &mut Stack, batch: &[(PcbId, PcbId)]) {
    let sent = server.call(|s, scratch| {
        for &(_, sp) in batch {
            assert_eq!(s.send(sp, &RESPONSE), Ok(RESPONSE.len()));
        }
        s.poll_transmit(scratch)
    });
    assert_eq!(sent, batch.len());
    while let Some(response) = server.scratch.frames.pop() {
        let acked = client.receive(&response).unwrap();
        let RxOutcome::Delivered { pcb: cp, .. } = acked.outcome else {
            panic!("response not delivered: {:?}", acked.outcome);
        };
        client.socket_mut(cp).unwrap().read_into(&mut [0; 200]);
        server.call(|s, _| s.recycle(response));
        assert_eq!(acked.replies.len(), 1);
        let r = server.call(|s, _| s.receive(&acked.replies[0])).unwrap();
        assert!(matches!(r.outcome, RxOutcome::AckProcessed { .. }));
        assert!(r.replies.is_empty());
    }
}

/// One transaction on each connection of `batch`, all together.
fn transact(server: &mut Counted, client: &mut Stack, batch: &[(PcbId, PcbId)]) {
    requests(server, client, batch);
    responses(server, client, batch);
}

/// The benchmark's block: a request in on every connection of `batch`,
/// then every read, then every response out and every ACK in. The ACKs of
/// the requests are held until the reads are done, as the driver's sink
/// holds them.
fn block(server: &mut Counted, client: &mut Stack, batch: &[(PcbId, PcbId)]) {
    let mut out = TxScratch::new();
    let mut acks = Vec::with_capacity(batch.len());
    for &(cp, sp) in batch {
        assert_eq!(client.send(cp, &REQUEST), Ok(REQUEST.len()));
        assert_eq!(client.poll_transmit(&mut out), 1);
        let request = out.frames.pop().unwrap();
        let delivered = server.call(|s, _| s.receive(&request)).unwrap();
        assert!(matches!(delivered.outcome, RxOutcome::Delivered { pcb, .. } if pcb == sp));
        acks.extend(delivered.replies);
    }
    assert_eq!(acks.len(), batch.len());
    let mut read = [0u8; REQUEST.len()];
    for &(_, sp) in batch {
        let n = server.call(|s, _| s.socket_mut(sp).unwrap().read_into(&mut read));
        assert_eq!(n, REQUEST.len());
    }
    for ack in acks {
        assert!(client.receive(&ack).unwrap().replies.is_empty());
        server.call(|s, _| s.recycle(ack));
    }
    responses(server, client, batch);
}

/// One round of the benchmark's `churn`: `BLOCK` connections opened and
/// accepted, one transaction on each, the peers' FINs in, `close` on each,
/// the last ACKs in. The server's FIN-ACKs and FINs are all held before
/// any is recycled, as the driver holds them.
fn churn(server: &mut Counted, client: &mut Stack) {
    let before = server.stack.connection_count();
    let mut synacks = Vec::with_capacity(BLOCK);
    for _ in 0..BLOCK {
        let (cp, syn) = client.connect(SERVER, PORT).unwrap();
        let opened = server.call(|s, _| s.receive(&syn)).unwrap();
        assert!(matches!(opened.outcome, RxOutcome::NewConnection { .. }));
        synacks.extend(opened.replies.into_iter().map(|synack| (cp, synack)));
    }
    let mut conns = Vec::with_capacity(BLOCK);
    for (cp, synack) in synacks {
        let ack = client.receive(&synack).unwrap().replies;
        server.call(|s, _| s.recycle(synack));
        let r = server.call(|s, _| s.receive(&ack[0])).unwrap();
        assert!(matches!(r.outcome, RxOutcome::Established { .. }));
        conns.push((cp, server.call(|s, _| s.accept(PORT)).unwrap()));
    }
    assert_eq!(conns.len(), BLOCK);

    block(server, client, &conns);

    let mut fin_acks = Vec::with_capacity(BLOCK);
    for &(cp, _) in &conns {
        let fin = client.close(cp).unwrap();
        let r = server.call(|s, _| s.receive(&fin)).unwrap();
        assert!(matches!(r.outcome, RxOutcome::PeerClosed { .. }));
        fin_acks.extend(r.replies);
    }
    let mut fins = Vec::with_capacity(BLOCK);
    for &(_, sp) in &conns {
        fins.push(server.call(|s, _| s.close(sp)).unwrap());
    }
    let mut last_acks = Vec::with_capacity(BLOCK);
    for (fin_ack, fin) in fin_acks.into_iter().zip(fins) {
        client.receive(&fin_ack).unwrap();
        last_acks.extend(client.receive(&fin).unwrap().replies);
        server.call(|s, _| {
            s.recycle(fin_ack);
            s.recycle(fin);
        });
    }
    for last_ack in last_acks {
        let r = server.call(|s, _| s.receive(&last_ack)).unwrap();
        assert!(matches!(r.outcome, RxOutcome::Closed));
    }
    assert_eq!(server.stack.connection_count(), before, "all closed");
}

/// `segments` bulk segments in on one connection, read 512 B at a time by
/// a reader that leaves `BACKLOG` bytes unread.
fn backlogged_reads(
    server: &mut Counted,
    client: &mut Stack,
    (cp, sp): (PcbId, PcbId),
    segments: usize,
) {
    let mut out = TxScratch::new();
    let mut read = [0u8; 512];
    for _ in 0..segments {
        assert_eq!(client.send(cp, &BULK_SEGMENT), Ok(BULK_SEGMENT.len()));
        assert_eq!(client.poll_transmit(&mut out), 1);
        let segment = out.frames.pop().unwrap();
        let delivered = server.call(|s, _| s.receive(&segment)).unwrap();
        assert!(matches!(delivered.outcome, RxOutcome::Delivered { pcb, .. } if pcb == sp));
        for ack in delivered.replies {
            assert!(client.receive(&ack).unwrap().replies.is_empty());
            server.call(|s, _| s.recycle(ack));
        }
        while server.stack.socket(sp).unwrap().available() > BACKLOG {
            let n = server.call(|s, _| s.socket_mut(sp).unwrap().read_into(&mut read));
            assert_eq!((n, read), (512, [BULK_SEGMENT[0]; 512]));
        }
    }
}

/// The default demultiplexer alone, driven as `churn` drives it:
/// `POPULATION` standing keys, and rounds in which `BLOCK` fresh keys go
/// in, are looked up and come out again, until `ROTATED` keys have passed
/// through. Returns the allocator calls made after the first round.
fn rotating_keys() -> u64 {
    // Remote hosts 10.1.0.0 … 10.1.0.49, ports upwards from 1024.
    let key = |n: usize| {
        let host = Ipv4Addr::from(0x0a01_0000 + (n % 50) as u32);
        ConnectionKey::new(SERVER, PORT, host, 1024 + (n / 50) as u16)
    };
    let id = |n: usize| PcbId::from_bits(n as u64);
    let mut demux = SequentDemux::new(Multiplicative, 19);
    for n in 0..POPULATION {
        demux.insert(key(n), id(n));
    }
    let mut allocations = 0;
    for round in 0..ROTATED / BLOCK {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let fresh = POPULATION + round * BLOCK..POPULATION + (round + 1) * BLOCK;
        for n in fresh.clone() {
            demux.insert(key(n), id(n));
            assert_eq!(demux.lookup(&key(n), PacketKind::Data).pcb, Some(id(n)));
        }
        for n in fresh {
            assert_eq!(demux.remove(&key(n)), Some(id(n)));
        }
        if round > 0 {
            allocations += ALLOCATIONS.load(Ordering::Relaxed) - before;
        }
    }
    assert_eq!(demux.len(), POPULATION);
    allocations
}

/// One long-lived connection moving bytes from `sender` to `receiver`
/// over a link that delays every frame `LOSSY_DELAY` ticks and drops
/// `LOSSY_DROP` of them each way. Byte `i` of the stream is `i % 251`.
struct LossyPair {
    sender: Counted,
    receiver: Counted,
    cp: PcbId,
    sp: PcbId,
    /// Frames in flight: when they arrive, whether at the receiver, and
    /// the bytes.
    link: VecDeque<(u64, bool, Vec<u8>)>,
    to_receiver: FaultInjector,
    to_sender: FaultInjector,
    now: u64,
    sent: usize,
    read: usize,
}

impl LossyPair {
    fn new() -> Self {
        let mut sender = Stack::with_config(StackConfig::new(CLIENT));
        let mut receiver = Stack::with_config(StackConfig::new(SERVER));
        receiver.listen(PORT).unwrap();
        let (cp, sp) = connect(&mut receiver, &mut sender);
        let counted = |stack| Counted {
            stack,
            scratch: TxScratch::new(),
            allocations: 0,
        };
        Self {
            sender: counted(sender),
            receiver: counted(receiver),
            cp,
            sp,
            link: VecDeque::new(),
            to_receiver: FaultInjector::new(LOSSY_DROP, 0.0, 0x5eed),
            to_sender: FaultInjector::new(LOSSY_DROP, 0.0, 0xacc),
            now: 0,
            sent: 0,
            read: 0,
        }
    }

    /// Put `frame`, which `from` emitted, on the link towards the
    /// receiver or the sender, and give it back to `from`.
    fn put(&mut self, from_sender: bool, frame: Vec<u8>) {
        let (link, from) = if from_sender {
            (&mut self.to_receiver, &mut self.sender)
        } else {
            (&mut self.to_sender, &mut self.receiver)
        };
        if let FaultOutcome::Passed(copy) = link.transmit(&frame) {
            let due = self.now + LOSSY_DELAY;
            self.link.push_back((due, from_sender, copy));
        }
        from.call(|s, _| s.recycle(frame));
    }

    /// Run the transfer until `done` holds. Every call into either stack
    /// is counted except the sender's `advance_time`: an RTO's frames come
    /// back in a vector of its own, which the caller owns.
    fn run(&mut self, done: impl Fn(&Self) -> bool) {
        let source: Vec<u8> = (0..LOSSY_CHUNK + 251).map(|i| (i % 251) as u8).collect();
        let mut read = [0u8; 2048];
        while !done(self) {
            let next = [
                self.link.front().map(|&(due, ..)| due),
                self.sender.stack.next_timer_deadline(),
                self.receiver.stack.next_timer_deadline(),
            ];
            self.now = next.into_iter().flatten().min().unwrap_or(0).max(self.now);
            let now = self.now;

            for frame in self.sender.stack.advance_time(now).retransmits {
                self.put(true, frame);
            }
            let fired = self.receiver.call(|s, _| s.advance_time(now));
            assert!(fired.retransmits.is_empty() && fired.acks.is_empty());
            while self.link.front().is_some_and(|&(due, ..)| due <= now) {
                let (_, at_receiver, frame) = self.link.pop_front().unwrap();
                let to = if at_receiver {
                    &mut self.receiver
                } else {
                    &mut self.sender
                };
                for reply in to.call(|s, _| s.receive(&frame)).unwrap().replies {
                    self.put(!at_receiver, reply);
                }
            }

            let sp = self.sp;
            loop {
                let n = self
                    .receiver
                    .call(|s, _| s.socket_mut(sp).unwrap().read_into(&mut read));
                if n == 0 {
                    break;
                }
                for (i, &byte) in read[..n].iter().enumerate() {
                    assert_eq!(
                        byte,
                        ((self.read + i) % 251) as u8,
                        "byte {}",
                        self.read + i
                    );
                }
                self.read += n;
            }

            let (cp, mut sent) = (self.cp, self.sent);
            self.sender.call(|s, scratch| {
                loop {
                    let chunk = &source[sent % 251..][..LOSSY_CHUNK];
                    let n = s.send(cp, chunk).unwrap();
                    sent += n;
                    if n < chunk.len() {
                        break;
                    }
                }
                s.poll_transmit(scratch)
            });
            self.sent = sent;
            let polled: Vec<Vec<u8>> = self.sender.scratch.frames.drain(..).collect();
            for frame in polled {
                self.put(true, frame);
            }
        }
    }

    /// Segments the receiver has held behind a hole.
    fn held(&self) -> u64 {
        self.receiver.stack.stats().stack.out_of_order_queued
    }

    /// Whether a hole is open at the receiver.
    fn hole_open(&self) -> bool {
        self.receiver.stack.connection_table()[0].rx_holes > 0
    }
}

/// One connection from `client`, established and accepted.
fn connect(server: &mut Stack, client: &mut Stack) -> (PcbId, PcbId) {
    let (cp, syn) = client.connect(SERVER, PORT).unwrap();
    let synack = server.receive(&syn).unwrap().replies;
    let ack = client.receive(&synack[0]).unwrap().replies;
    server.receive(&ack[0]).unwrap();
    (cp, server.accept(PORT).unwrap())
}

/// One measured attempt: fresh stacks, 64 connections, a warm-up pass,
/// then the allocator calls the server made over 1 000 transactions one
/// at a time, over 2 000 ticks of 1 … 20 transactions at a time, over
/// 256 KiB read 512 B at a time from a backlog, over 50 rounds of churn,
/// and over 100 blocks of 64 transactions among 2 000 connections.
fn measure_one_attempt() -> [u64; 7] {
    let mut server = Counted {
        stack: Stack::with_config(StackConfig::new(SERVER)),
        scratch: TxScratch::new(),
        allocations: 0,
    };
    let mut client = Stack::with_config(StackConfig::new(CLIENT));
    server.stack.listen(PORT).unwrap();
    let mut conns: Vec<(PcbId, PcbId)> = (0..CONNECTIONS)
        .map(|_| connect(&mut server.stack, &mut client))
        .collect();

    // Warm up: twice round, so every socket buffer has its capacity, and
    // one block as large as any below, so the sender halves, the transmit
    // scratch and the timer slab have theirs.
    for pair in conns.iter().chain(&conns) {
        transact(&mut server, &mut client, std::slice::from_ref(pair));
    }
    transact(&mut server, &mut client, &conns[..BLOCK_MAX]);

    server.allocations = 0;
    for t in 0..TRANSACTIONS {
        // A stride coprime to 64 visits every connection, out of order.
        let pair = &conns[t * 37 % CONNECTIONS];
        transact(&mut server, &mut client, std::slice::from_ref(pair));
    }
    let one_at_a_time = server.allocations;

    // The shape of the benchmark's `miss_flood`: each tick a different
    // number of connections transact together, so each tick's timers
    // share one wheel slot, and the load differs from slot to slot.
    server.allocations = 0;
    let mut batch = Vec::with_capacity(BLOCK_MAX);
    for tick in 1..=TICKS {
        let size = 1 + (tick as usize * 7919) % BLOCK_MAX;
        batch.clear();
        // Strides coprime to 64: distinct connections within a tick.
        batch.extend((0..size).map(|j| conns[(tick as usize * 37 + j * 5) % CONNECTIONS]));
        transact(&mut server, &mut client, &batch);
        let fired = server.call(|s, _| s.advance_time(tick));
        assert_eq!(fired.retransmits.len() + fired.acks.len(), 0, "lossless");
    }
    let many_at_a_time = server.allocations;

    // Warm up until the backlog stands and the socket buffer has grown to
    // the ~2x of it that compaction lets it reach.
    backlogged_reads(
        &mut server,
        &mut client,
        conns[0],
        4 * BACKLOG / BULK_SEGMENT.len(),
    );
    server.allocations = 0;
    backlogged_reads(&mut server, &mut client, conns[0], BULK_SEGMENTS);
    let drained = server.call(|s, _| {
        let socket = s.socket_mut(conns[0].1).unwrap();
        let mut drained = 0;
        while socket.read_into(&mut [0; 512]) > 0 {
            drained += 1;
        }
        drained
    });
    assert_eq!(drained, BACKLOG / 512);
    let stats = server.stack.stats().stack;
    assert_eq!(stats.retransmits + stats.out_of_order_drops, 0, "lossless");
    let backlogged = server.allocations;

    // Warm up until the frame pool has seen the burst and the
    // demultiplexer's chains have met their longest.
    for _ in 0..CHURN_ROUNDS {
        churn(&mut server, &mut client);
    }
    server.allocations = 0;
    for _ in 0..CHURN_ROUNDS {
        churn(&mut server, &mut client);
    }
    let churned = server.allocations;

    conns.extend((CONNECTIONS..POPULATION).map(|_| connect(&mut server.stack, &mut client)));
    // A stride coprime to 2 000 visits every connection; every block
    // has 64 distinct ones.
    let batch = |b: usize| -> Vec<(PcbId, PcbId)> {
        (0..BLOCK)
            .map(|j| conns[(b * BLOCK + j) * 37 % POPULATION])
            .collect()
    };
    // Warm up once round, so that every block exists.
    for b in 0..POPULATION.div_ceil(BLOCK) {
        block(&mut server, &mut client, &batch(b));
    }
    server.allocations = 0;
    for b in 0..BLOCKS {
        block(&mut server, &mut client, &batch(b + 1));
        // The responses' `send` took back the last block read dry.
        let parked = server.stack.stats().rx_blocks_free;
        assert_eq!(parked, BLOCK, "the blocks are in the pool, all of them");
    }
    let standing = server.allocations;

    // One long-lived connection over a lossy link, warmed up until its
    // first loss episode is over.
    let mut lossy = LossyPair::new();
    lossy.run(|pair| pair.held() > 0 && !pair.hole_open());
    (lossy.sender.allocations, lossy.receiver.allocations) = (0, 0);
    let (held, read) = (lossy.held(), lossy.read);
    lossy.run(|pair| pair.read >= read + LOSSY_BYTES);
    let episodes = lossy.held() - held;
    assert!(
        episodes > 100,
        "only {episodes} segments held behind a hole"
    );

    [
        one_at_a_time,
        many_at_a_time,
        backlogged,
        churned,
        standing,
        rotating_keys(),
        lossy.sender.allocations + lossy.receiver.allocations,
    ]
}

#[test]
fn a_steady_state_transaction_makes_no_allocator_call() {
    const ATTEMPTS: usize = 3;
    let mut counts = Vec::with_capacity(ATTEMPTS);
    for _ in 0..ATTEMPTS {
        let count = measure_one_attempt();
        if count == [0; 7] {
            return;
        }
        counts.push(count);
    }
    panic!(
        "the server allocated in steady state in every attempt ({counts:?} \
         allocator calls over ({TRANSACTIONS} transactions, {TICKS} ticks, \
         {BULK_SEGMENTS} backlogged segments, {CHURN_ROUNDS} rounds of churn, \
         {BLOCKS} blocks among {POPULATION} connections, {ROTATED} keys rotated \
         through a demultiplexer beside {POPULATION}, {LOSSY_BYTES} bytes over a \
         lossy link))"
    );
}
