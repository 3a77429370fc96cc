//! A steady-state transaction allocates nothing on the serving stack.
//!
//! A counting global allocator wraps the system allocator, and only the
//! calls into the server [`Stack`] are counted (the counter is read
//! before and after each one; the client is an ordinary `Stack` that
//! allocates as it likes in between). After warm-up — every connection
//! has transacted, the frame pool and the idle sender halves are
//! stocked, the socket buffers and the timer wheel's slot have their
//! capacity — 1 000 TPC/A-shaped transactions spread over 64
//! connections (request in → ACK out, read, `send`, `poll_transmit` →
//! response out, ACK in), with every frame the server emitted recycled
//! to it, must make exactly zero allocator calls.
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
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use tcpdemux::pcb::PcbId;
use tcpdemux::stack::{RxOutcome, Stack, StackConfig, TxScratch};

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

/// One transaction on connection (`cp`, `sp`).
fn transact(server: &mut Counted, client: &mut Stack, cp: PcbId, sp: PcbId) {
    let mut out = TxScratch::new();
    let mut read = [0u8; REQUEST.len()];

    // Request in: delivered, acknowledged, read.
    assert_eq!(client.send(cp, &REQUEST), Ok(REQUEST.len()));
    assert_eq!(client.poll_transmit(&mut out), 1);
    let delivered = server.call(|s, _| s.receive(&out.frames[0])).unwrap();
    assert!(matches!(delivered.outcome, RxOutcome::Delivered { pcb, .. } if pcb == sp));
    let n = server.call(|s, _| s.socket_mut(sp).unwrap().read_into(&mut read));
    assert_eq!(n, REQUEST.len());
    assert_eq!(delivered.replies.len(), 1);
    for ack in delivered.replies {
        assert!(client.receive(&ack).unwrap().replies.is_empty());
        server.call(|s, _| s.recycle(ack));
    }

    // Response out, its ACK in.
    let sent = server.call(|s, scratch| {
        assert_eq!(s.send(sp, &RESPONSE), Ok(RESPONSE.len()));
        s.poll_transmit(scratch)
    });
    assert_eq!(sent, 1);
    let response = server.scratch.frames.pop().unwrap();
    let acked = client.receive(&response).unwrap();
    assert!(matches!(acked.outcome, RxOutcome::Delivered { .. }));
    client.socket_mut(cp).unwrap().read_into(&mut [0; 200]);
    server.call(|s, _| s.recycle(response));
    assert_eq!(acked.replies.len(), 1);
    let r = server.call(|s, _| s.receive(&acked.replies[0])).unwrap();
    assert!(matches!(r.outcome, RxOutcome::AckProcessed { .. }));
    assert!(r.replies.is_empty());
}

/// One measured attempt: fresh stacks, 64 connections, a warm-up pass,
/// then the allocator calls the server made over 1 000 transactions.
fn measure_one_attempt() -> u64 {
    let mut server = Counted {
        stack: Stack::with_config(StackConfig::new(SERVER)),
        scratch: TxScratch::new(),
        allocations: 0,
    };
    let mut client = Stack::with_config(StackConfig::new(CLIENT));
    server.stack.listen(PORT).unwrap();
    let conns: Vec<(PcbId, PcbId)> = (0..CONNECTIONS)
        .map(|_| {
            let (cp, syn) = client.connect(SERVER, PORT).unwrap();
            let synack = server.stack.receive(&syn).unwrap().replies;
            let ack = client.receive(&synack[0]).unwrap().replies;
            server.stack.receive(&ack[0]).unwrap();
            (cp, server.stack.accept(PORT).unwrap())
        })
        .collect();

    // Warm up: twice round, so every socket buffer has its capacity.
    for &(cp, sp) in conns.iter().chain(&conns) {
        transact(&mut server, &mut client, cp, sp);
    }

    server.allocations = 0;
    for t in 0..TRANSACTIONS {
        // A stride coprime to 64 visits every connection, out of order.
        let (cp, sp) = conns[t * 37 % CONNECTIONS];
        transact(&mut server, &mut client, cp, sp);
    }
    let stats = server.stack.stats().stack;
    assert_eq!(stats.retransmits + stats.out_of_order_drops, 0, "lossless");
    server.allocations
}

#[test]
fn a_steady_state_transaction_makes_no_allocator_call() {
    const ATTEMPTS: usize = 3;
    let mut counts = Vec::with_capacity(ATTEMPTS);
    for _ in 0..ATTEMPTS {
        let count = measure_one_attempt();
        if count == 0 {
            return;
        }
        counts.push(count);
    }
    panic!(
        "the server allocated in steady state in every attempt ({counts:?} \
         allocator calls over {TRANSACTIONS} transactions)"
    );
}
