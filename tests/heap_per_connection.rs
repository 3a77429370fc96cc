//! What a standing connection costs in heap, as a number.
//!
//! A [`Stack`] is given 20 000 established connections, each used once
//! (request in, ACK and response out, ACK in — after which a
//! connection holds whatever it will hold while idle), and the bytes
//! the process has live are read before the stack is built and after
//! the last transaction. The peers are hand-built frames in one reused
//! buffer, so the difference is the stack's: connection slots, socket
//! buffers, the demultiplexer's chains, timers and pools.
//!
//! The figure is a ceiling, held just above what the test reads (289 B).
//! 20 000 connections sit in 32 768 slots at this population, so each
//! connection pays for 1.64 slots of everything sized by slot count:
//!
//! - the arena: a 20-word (160 B) `Conn` and its 8 B generation and
//!   padding, 168 B × 1.64 = 275 B;
//! - the connection table: a 4 B tag and a 4 B arena index in the one
//!   pair of lanes its chains share, 8 B × 1.64 = 13 B. The table holds
//!   no key; it confirms a tag hit against the key in the slot.
//!
//! That is 288 B, and the pools and listener round it to 289. The
//! socket's block is lent from the stack's pool and has gone back by the
//! time a connection is idle, and the sender half likewise. A field added
//! to the slot fails here and has to be decided rather than drift in.
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
const CONNECTIONS: u32 = 20_000;
const REQUEST: usize = 100;
const RESPONSE: usize = 200;
/// The peers' initial sequence number.
const ISS: u32 = 1_000;

/// Heap bytes per connection this population may cost.
const CEILING: i64 = 292;

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

#[test]
fn twenty_thousand_once_used_connections_stay_under_the_ceiling() {
    // What the peers and the application use is allocated up front, so
    // it is in both readings.
    let mut frame = Vec::with_capacity(2048);
    let mut scratch = TxScratch::new();
    scratch.frames.reserve(8);
    let mut read = [0u8; REQUEST];

    let before = LIVE.load(Ordering::Relaxed);
    let mut server = Stack::with_config(StackConfig::new(SERVER));
    server.listen(PORT).unwrap();

    for i in 0..CONNECTIONS {
        // SYN, SYN-ACK, ACK, accept.
        let opened = segment(&mut server, &mut frame, i, (ISS, 0), TcpFlags::SYN, b"");
        let RxOutcome::NewConnection { pcb } = opened.outcome else {
            panic!("connection {i}: {:?}", opened.outcome);
        };
        let their_iss = seq_of(&opened.replies[0]);
        let at = (ISS + 1, their_iss + 1);
        let r = segment(&mut server, &mut frame, i, at, TcpFlags::ACK, b"");
        assert!(matches!(r.outcome, RxOutcome::Established { .. }));
        assert_eq!(server.accept(PORT), Some(pcb));

        // Request in, ACK out, the application reads it.
        let psh = TcpFlags::ACK | TcpFlags::PSH;
        let delivered = segment(&mut server, &mut frame, i, at, psh, &[0x5a; REQUEST]);
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
        assert_eq!(server.poll_transmit(&mut scratch), 1);
        let response = scratch.frames.pop().unwrap();
        assert_eq!(seq_of(&response), their_iss + 1);
        server.recycle(response);
        let at = (at.0 + REQUEST as u32, at.1 + RESPONSE as u32);
        let acked = segment(&mut server, &mut frame, i, at, TcpFlags::ACK, b"");
        assert!(matches!(acked.outcome, RxOutcome::AckProcessed { .. }));
        assert!(acked.replies.is_empty());
    }

    let after = LIVE.load(Ordering::Relaxed);
    assert_eq!(server.connection_count(), CONNECTIONS as usize);
    assert_eq!(server.next_timer_deadline(), None, "nothing in flight");
    let per_connection = (after - before) / i64::from(CONNECTIONS);
    assert!(
        per_connection <= CEILING,
        "{per_connection} B of heap per connection, ceiling {CEILING} B"
    );
}
