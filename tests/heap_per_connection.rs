//! What a standing connection costs in heap, as a number.
//!
//! A [`Stack`] is given N established connections, each used once
//! (request in, ACK and response out, ACK in — after which a
//! connection holds whatever it will hold while idle), and the bytes
//! the process has live are read before the stack is built and after
//! the last transaction. The peers are hand-built frames in one reused
//! buffer, so the difference is the stack's: connection slots, socket
//! buffers, the demultiplexer's chains, timers and pools.
//!
//! Each population has a ceiling built from what is sized by slot
//! count, so a field added to the slot, or slack in how the slots grow,
//! fails here and has to be decided rather than drift in:
//!
//! - the arena: a 20-word (160 B) `Conn` and its 8 B generation and
//!   padding, 168 B per slot. The arena grows on a grid of eighths, so
//!   20 000 connections sit in 20 480 slots, 1.024 per connection
//!   (172 B), where doubling gave them 32 768 (1.64 slots, 275 B);
//! - the connection table: a 4 B tag and a 4 B arena index in the one
//!   pair of lanes its chains share, which double: 8 B × 32 768 / 20 000
//!   = 13 B. The table holds no key; it confirms a tag hit against the
//!   key in the slot;
//! - 16 KiB for the pools and the listener.
//!
//! At 20 000 that is 186 B, and the test reads 185 B (289 B when the
//! arena doubled). 16 385 connections, one past a power of two, are
//! doubling's worst case: 18 432 slots, where doubling gave 32 768. The
//! socket's block is lent from the stack's pool and has gone back by
//! the time a connection is idle, and the sender half likewise.
//!
//! One `#[test]`, because the byte count is process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicI64, Ordering};
use tcpdemux::stack::{RxOutcome, RxResult, Stack, StackConfig, TxScratch};
use tcpdemux::wire::{
    build_tcp_frame_into, IpProtocol, Ipv4Packet, Ipv4Repr, TcpFlags, TcpRepr, TcpSegment,
};

struct LiveBytes;

static LIVE: AtomicI64 = AtomicI64::new(0);

// Forward everything to the system allocator, keeping the sum of the
// requested sizes of the blocks currently allocated.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

const SERVER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const PORT: u16 = 1521;

/// Populations read: the paper's 2,000; 16,385, one past a power of
/// two, where doubling would leave the most slots spare; and the
/// benchmark's `tpca_20k`.
const POPULATIONS: [u32; 3] = [2_000, 16_385, 20_000];
const REQUEST: usize = 100;
const RESPONSE: usize = 200;
/// The peers' initial sequence number.
const ISS: u32 = 1_000;

/// Bytes of one arena slot: the 160 B `Conn` and its generation, padded.
const SLOT: usize = 168;
/// Bytes of one lane entry in the connection table: a tag and an index.
const LANE: usize = 8;
/// The chains of the stack's default table.
const CHAINS: usize = 19;
/// What the stack holds whatever its population — the listener, the
/// pools, the timer wheel: the test reads 14.1–14.9 KiB.
const FIXED: usize = 16 * 1024;

/// The arena's capacity at `n` (> 16) connections: the smallest m·2^k
/// ≥ n with m in 8..=16.
fn arena_slots(n: usize) -> usize {
    let step = 1 << (n.ilog2() - 3);
    n.div_ceil(step) * step
}

/// The lanes' capacity at `n` connections: they double while an insert
/// would leave fewer free slots than chains.
fn lane_slots(n: usize) -> usize {
    (n + CHAINS).next_power_of_two()
}

/// Heap bytes per connection `n` connections may cost.
fn ceiling(n: u32) -> i64 {
    let n = n as usize;
    let bytes = SLOT * arena_slots(n) + LANE * lane_slots(n) + FIXED;
    bytes.div_ceil(n) as i64
}

/// The sequence number of a segment the server emitted.
fn seq_of(frame: &[u8]) -> u32 {
    let packet = Ipv4Packet::new_checked(frame).unwrap();
    let ip = Ipv4Repr::parse(&packet).unwrap();
    let segment = TcpSegment::new_checked(packet.payload()).unwrap();
    TcpRepr::parse(&segment, ip.src_addr, ip.dst_addr)
        .unwrap()
        .seq
}

/// Peer `i`'s next segment, built in `frame` and received by `server`.
fn segment(
    server: &mut Stack,
    frame: &mut Vec<u8>,
    i: u32,
    (seq, ack): (u32, u32),
    flags: TcpFlags,
    payload: &[u8],
) -> RxResult {
    // Forty connections per peer host, as in the benchmark's farm.
    let ip = Ipv4Repr::new(
        Ipv4Addr::from(0x0a01_0001 + i / 40),
        SERVER,
        IpProtocol::Tcp,
    );
    let tcp = TcpRepr {
        src_port: 40_000 + (i % 40) as u16,
        dst_port: PORT,
        seq,
        ack,
        flags,
        window: 8760,
        mss: flags.contains(TcpFlags::SYN).then_some(1460),
        window_scale: None,
    };
    build_tcp_frame_into(&ip, &tcp, payload, frame);
    server.receive(frame).unwrap()
}

/// Build `connections` once-used connections on a fresh stack and
/// return the heap it holds per connection, and the stack (so its drop
/// falls outside the reading).
fn heap_per_connection(
    connections: u32,
    frame: &mut Vec<u8>,
    scratch: &mut TxScratch,
) -> (i64, Stack) {
    let mut read = [0u8; REQUEST];
    let before = LIVE.load(Ordering::Relaxed);
    let mut server = Stack::with_config(StackConfig::new(SERVER));
    server.listen(PORT).unwrap();

    for i in 0..connections {
        // SYN, SYN-ACK, ACK, accept.
        let opened = segment(&mut server, frame, i, (ISS, 0), TcpFlags::SYN, b"");
        let RxOutcome::NewConnection { pcb } = opened.outcome else {
            panic!("connection {i}: {:?}", opened.outcome);
        };
        let their_iss = seq_of(&opened.replies[0]);
        let at = (ISS + 1, their_iss + 1);
        let r = segment(&mut server, frame, i, at, TcpFlags::ACK, b"");
        assert!(matches!(r.outcome, RxOutcome::Established { .. }));
        assert_eq!(server.accept(PORT), Some(pcb));

        // Request in, ACK out, the application reads it.
        let psh = TcpFlags::ACK | TcpFlags::PSH;
        let delivered = segment(&mut server, frame, i, at, psh, &[0x5a; REQUEST]);
        assert!(matches!(delivered.outcome, RxOutcome::Delivered { .. }));
        assert_eq!(delivered.replies.len(), 1);
        assert_eq!(
            server.socket_mut(pcb).unwrap().read_into(&mut read),
            REQUEST
        );
        for reply in opened.replies.into_iter().chain(delivered.replies) {
            server.recycle(reply);
        }

        // Response out, ACK in.
        assert_eq!(server.send(pcb, &[0xa5; RESPONSE]), Ok(RESPONSE));
        assert_eq!(server.poll_transmit(scratch), 1);
        let response = scratch.frames.pop().unwrap();
        assert_eq!(seq_of(&response), their_iss + 1);
        server.recycle(response);
        let at = (at.0 + REQUEST as u32, at.1 + RESPONSE as u32);
        let acked = segment(&mut server, frame, i, at, TcpFlags::ACK, b"");
        assert!(matches!(acked.outcome, RxOutcome::AckProcessed { .. }));
        assert!(acked.replies.is_empty());
    }

    let after = LIVE.load(Ordering::Relaxed);
    assert_eq!(server.connection_count(), connections as usize);
    assert_eq!(server.next_timer_deadline(), None, "nothing in flight");
    ((after - before) / i64::from(connections), server)
}

#[test]
fn once_used_connections_stay_under_their_ceilings() {
    // What the peers and the application use is allocated up front, so
    // it is in every reading.
    let mut frame = Vec::with_capacity(2048);
    let mut scratch = TxScratch::new();
    scratch.frames.reserve(8);

    let over: Vec<String> = POPULATIONS
        .into_iter()
        .filter_map(|connections| {
            let (per_connection, server) =
                heap_per_connection(connections, &mut frame, &mut scratch);
            drop(server);
            let ceiling = ceiling(connections);
            (per_connection > ceiling).then(|| {
                format!("{connections} connections: {per_connection} B each, ceiling {ceiling} B")
            })
        })
        .collect();
    assert!(over.is_empty(), "over the ceiling: {over:#?}");
}
