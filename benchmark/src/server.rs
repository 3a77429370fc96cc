//! The system under test behind one small interface, so the same
//! workload code drives a plain `Stack` and a `ShardedStack`. Only the
//! production entry points are called, with the default `StackConfig`:
//! a later change to a default, or to the table behind it, is measured
//! without editing the benchmark.

use crate::alloc;
use crate::trace::{KeyEvent, SpanKind, Tracer};
use std::collections::VecDeque;
use std::net::Ipv4Addr;
use std::time::Instant;
use tcpdemux_pcb::{ConnectionKey, PcbId};
use tcpdemux_stack::{
    steering_key, RxOutcome, RxResult, ShardId, ShardedStack, Stack, StackConfig, StatsSnapshot,
    TxScratch,
};

/// Operations per block: the unit one busy-time sample is taken over.
pub const BLOCK: usize = 64;
pub const PORT: u16 = 1521;
pub const SERVER_ADDR: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
pub const MSS: usize = 1460;

/// Which direction a timed section of a block serves.
#[derive(Debug, Clone, Copy)]
pub enum Phase {
    /// Inbound payload: wire in to `read_into` out.
    Rx = 0,
    /// Outbound payload: `send` in to wire out and the ACKs that cover it.
    Tx = 1,
    /// Connection set-up and teardown, timers.
    Other = 2,
}

/// Busy time of the stack under test: runs only between `start` and
/// `stop`, which bracket nothing but calls into the stack. The
/// allocation counter is armed for the same intervals.
pub struct Clock {
    pub ns: [u64; 3],
    started: Instant,
    phase: Phase,
}

impl Clock {
    pub fn new() -> Self {
        Self {
            ns: [0; 3],
            started: Instant::now(),
            phase: Phase::Other,
        }
    }

    #[inline]
    pub fn start(&mut self, phase: Phase) {
        self.phase = phase;
        alloc::arm();
        self.started = Instant::now();
    }

    #[inline]
    pub fn stop(&mut self) {
        let elapsed = self.started.elapsed();
        alloc::disarm();
        self.ns[self.phase as usize] += elapsed.as_nanos() as u64;
    }

    pub fn take(&mut self) -> [u64; 3] {
        std::mem::take(&mut self.ns)
    }
}

/// A connection as the server knows it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Handle {
    pub shard: u16,
    pub pcb: PcbId,
}

/// What became of one inbound frame.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    pub shard: u16,
    /// `None` when the stack rejected the frame at the wire level or the
    /// ring refused it; the driver counts either as a failed operation.
    pub outcome: Option<RxOutcome>,
    /// Bytes read out of the socket for a delivery, appended to
    /// [`Sink::bytes`].
    pub read: usize,
}

/// Where `ingest` leaves its results; reused block after block.
pub struct Sink {
    pub arrivals: Vec<Arrival>,
    /// Reply frames with the shard whose pool they came from.
    pub replies: Vec<(u16, Vec<u8>)>,
    /// Payload read out of sockets, in arrival order.
    pub bytes: Vec<u8>,
    pub filled: usize,
}

impl Sink {
    pub fn new() -> Self {
        Self {
            arrivals: Vec::with_capacity(2 * BLOCK),
            replies: Vec::with_capacity(2 * BLOCK),
            bytes: vec![0; 2 * BLOCK * MSS],
            filled: 0,
        }
    }

    pub fn clear(&mut self) {
        self.arrivals.clear();
        self.filled = 0;
    }
}

/// Counts taken at the stack's boundary while measuring.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub frames_in: u64,
    pub pcbs_examined: u64,
    pub replies: u64,
    pub batched_lookups: u64,
    pub relookups: u64,
}

impl Tally {
    fn zip(self, other: Self, f: impl Fn(u64, u64) -> u64) -> Self {
        Self {
            frames_in: f(self.frames_in, other.frames_in),
            pcbs_examined: f(self.pcbs_examined, other.pcbs_examined),
            replies: f(self.replies, other.replies),
            batched_lookups: f(self.batched_lookups, other.batched_lookups),
            relookups: f(self.relookups, other.relookups),
        }
    }

    pub fn plus(self, other: Self) -> Self {
        self.zip(other, |a, b| a + b)
    }

    pub fn since(self, earlier: Self) -> Self {
        self.zip(earlier, |a, b| a - b)
    }
}

pub trait Server {
    /// Hand inbound frames to the stack in order; on each delivery read
    /// the socket at once, as an event-driven application would. A plain
    /// stack borrows the frames and leaves them in `frames`; the sharded
    /// runtime takes them (its rings own what they carry).
    fn ingest(&mut self, frames: &mut Vec<Vec<u8>>, sink: &mut Sink);
    /// `send`; returns bytes accepted.
    fn send(&mut self, to: Handle, payload: &[u8], slot: usize) -> usize;
    /// `poll_transmit` on every shard; emitted frames are appended.
    fn flush(&mut self, out: &mut Vec<(u16, Vec<u8>)>);
    /// Give spent buffers back to the pool they came from.
    fn recycle(&mut self, bufs: &mut Vec<(u16, Vec<u8>)>);
    fn accept(&mut self, slot: usize) -> Option<Handle>;
    /// `close`; the FIN frame, or `None` if the stack refused.
    fn close(&mut self, h: Handle, slot: usize) -> Option<(u16, Vec<u8>)>;
    /// `advance_time`; frames the timers emitted (retransmissions,
    /// delayed ACKs) are appended to `out`. Returns how many connections
    /// the stack aborted.
    fn tick(&mut self, now: u64, out: &mut Vec<(u16, Vec<u8>)>) -> usize;
    fn connection_count(&self) -> usize;
    fn stats(&self) -> StatsSnapshot;
    fn shards(&self) -> usize;
    fn tally(&mut self) -> &mut Tally;
    fn tracer(&mut self) -> &mut Tracer;
}

fn receive_kind(outcome: &RxOutcome) -> SpanKind {
    match outcome {
        RxOutcome::Delivered { .. } => SpanKind::ReceiveData,
        RxOutcome::NewConnection { .. } => SpanKind::ReceiveSyn,
        RxOutcome::PeerClosed { .. } | RxOutcome::TimeWait { .. } => SpanKind::ReceiveFin,
        RxOutcome::ResetSent => SpanKind::ReceiveMiss,
        _ => SpanKind::ReceiveAck,
    }
}

/// Log what a frame did to the connection table.
fn log_key(tracer: &mut Tracer, shard: u16, key: ConnectionKey, outcome: &RxOutcome) {
    tracer.event(shard, KeyEvent::Lookup(key));
    match outcome {
        RxOutcome::NewConnection { .. } => tracer.event(shard, KeyEvent::Insert(key)),
        RxOutcome::Closed | RxOutcome::ResetReceived => {
            tracer.event(shard, KeyEvent::Remove(key));
        }
        _ => {}
    }
}

/// Tally one processed frame, read the socket on a delivery, and file
/// the arrival and replies. `socket_read` reads what the connection has
/// buffered into the slice it is given.
fn file_result(
    result: RxResult,
    shard: u16,
    slot: usize,
    tally: &mut Tally,
    tracer: &mut Tracer,
    sink: &mut Sink,
    socket_read: impl FnOnce(PcbId, &mut [u8]) -> usize,
) {
    tally.frames_in += 1;
    tally.pcbs_examined += u64::from(result.pcbs_examined);
    tally.replies += result.replies.len() as u64;
    let mut read = 0;
    if let RxOutcome::Delivered { pcb, .. } = result.outcome {
        let t = tracer.begin();
        read = socket_read(pcb, &mut sink.bytes[sink.filled..]);
        tracer.end(t, SpanKind::ReadInto, slot, read);
        sink.filled += read;
    }
    sink.arrivals.push(Arrival {
        shard,
        outcome: Some(result.outcome),
        read,
    });
    for reply in result.replies {
        tracer.capture_outbound(&reply);
        sink.replies.push((shard, reply));
    }
}

const FAILED_ARRIVAL: Arrival = Arrival {
    shard: 0,
    outcome: None,
    read: 0,
};

/// One `Stack`, default config.
pub struct Plain {
    pub stack: Stack,
    scratch: TxScratch,
    tally: Tally,
    tracer: Tracer,
}

impl Plain {
    /// The server: listening on [`PORT`] at [`SERVER_ADDR`].
    pub fn new(tracer: Tracer) -> Self {
        let mut server = Self::at(SERVER_ADDR, tracer);
        server
            .stack
            .listen(PORT)
            .expect("fresh stack has no listener");
        server
    }

    /// A stack at `addr` with no listener.
    pub fn at(addr: Ipv4Addr, tracer: Tracer) -> Self {
        Self {
            stack: Stack::with_config(StackConfig::new(addr)),
            scratch: TxScratch::new(),
            tally: Tally::default(),
            tracer,
        }
    }
}

impl Server for Plain {
    fn ingest(&mut self, frames: &mut Vec<Vec<u8>>, sink: &mut Sink) {
        for (slot, frame) in frames.iter().enumerate() {
            let t = self.tracer.begin();
            let Ok(result) = self.stack.receive(frame) else {
                sink.arrivals.push(FAILED_ARRIVAL);
                continue;
            };
            self.tracer
                .end(t, receive_kind(&result.outcome), slot, frame.len());
            if self.tracer.events_on {
                if let Some(key) = steering_key(frame) {
                    log_key(&mut self.tracer, 0, key, &result.outcome);
                }
            }
            self.tracer.capture_inbound(frame);
            let stack = &mut self.stack;
            file_result(
                result,
                0,
                slot,
                &mut self.tally,
                &mut self.tracer,
                sink,
                |pcb, out| stack.socket_mut(pcb).map_or(0, |s| s.read_into(out)),
            );
        }
    }

    fn send(&mut self, to: Handle, payload: &[u8], slot: usize) -> usize {
        let t = self.tracer.begin();
        let accepted = self.stack.send(to.pcb, payload).unwrap_or(0);
        self.tracer.end(t, SpanKind::Send, slot, accepted);
        accepted
    }

    fn flush(&mut self, out: &mut Vec<(u16, Vec<u8>)>) {
        let t = self.tracer.begin();
        let n = self.stack.poll_transmit(&mut self.scratch);
        self.tracer.end(t, SpanKind::PollTransmit, 0, n);
        for frame in self.scratch.frames.drain(..) {
            self.tracer.capture_outbound(&frame);
            out.push((0, frame));
        }
    }

    fn recycle(&mut self, bufs: &mut Vec<(u16, Vec<u8>)>) {
        let n = bufs.len();
        let t = self.tracer.begin();
        for (_, buf) in bufs.drain(..) {
            self.stack.recycle(buf);
        }
        self.tracer.end(t, SpanKind::Recycle, 0, n);
    }

    fn accept(&mut self, slot: usize) -> Option<Handle> {
        let t = self.tracer.begin();
        let pcb = self.stack.accept(PORT);
        self.tracer.end(t, SpanKind::Accept, slot, 0);
        pcb.map(|pcb| Handle { shard: 0, pcb })
    }

    fn close(&mut self, h: Handle, slot: usize) -> Option<(u16, Vec<u8>)> {
        let t = self.tracer.begin();
        let fin = self.stack.close(h.pcb).ok();
        self.tracer.end(t, SpanKind::Close, slot, 0);
        fin.map(|f| (0, f))
    }

    fn tick(&mut self, now: u64, out: &mut Vec<(u16, Vec<u8>)>) -> usize {
        let t = self.tracer.begin();
        let advance = self.stack.advance_time(now);
        self.tracer.end(t, SpanKind::AdvanceTime, 0, 0);
        out.extend(
            advance
                .retransmits
                .into_iter()
                .chain(advance.acks)
                .map(|f| (0, f)),
        );
        advance.aborted.len()
    }

    fn connection_count(&self) -> usize {
        self.stack.connection_count()
    }

    fn stats(&self) -> StatsSnapshot {
        self.stack.stats()
    }

    fn shards(&self) -> usize {
        1
    }

    fn tally(&mut self) -> &mut Tally {
        &mut self.tally
    }

    fn tracer(&mut self) -> &mut Tracer {
        &mut self.tracer
    }
}

/// `ShardedStack` with K shards, all driven from the one driver thread:
/// enqueue a block, drain each shard, serve through `with_shard`. That
/// prices steer + ring + lock + `receive_batch` against [`Plain`] with
/// the scheduler taken out.
pub struct Sharded {
    pub stack: ShardedStack,
    scratch: TxScratch,
    tally: Tally,
    tracer: Tracer,
    /// Keys of frames sitting in each shard's ring, for the event log.
    in_ring: Vec<VecDeque<ConnectionKey>>,
}

impl Sharded {
    pub fn new(shards: usize, tracer: Tracer) -> Self {
        let stack = ShardedStack::with_config(StackConfig::new(SERVER_ADDR), shards);
        stack.listen(PORT).expect("fresh runtime has no listener");
        Self {
            stack,
            scratch: TxScratch::new(),
            tally: Tally::default(),
            tracer,
            in_ring: vec![VecDeque::new(); shards],
        }
    }
}

impl Server for Sharded {
    fn ingest(&mut self, frames: &mut Vec<Vec<u8>>, sink: &mut Sink) {
        for (slot, frame) in frames.drain(..).enumerate() {
            self.tracer.capture_inbound(&frame);
            let key = if self.tracer.events_on {
                steering_key(&frame)
            } else {
                None
            };
            let t = self.tracer.begin();
            let placed = self.stack.enqueue(frame);
            self.tracer.end(t, SpanKind::Enqueue, slot, 1);
            match (placed, key) {
                (Ok(shard), Some(key)) => self.in_ring[shard.index()].push_back(key),
                (Ok(_), None) => {}
                (Err(_), _) => sink.arrivals.push(FAILED_ARRIVAL),
            }
        }
        for k in 0..self.in_ring.len() {
            let shard = ShardId::new(k);
            let t = self.tracer.begin();
            let batch = self.stack.drain(shard, 2 * BLOCK);
            self.tracer.end(t, SpanKind::Drain, 0, batch.results.len());
            self.tally.batched_lookups += batch.batched_lookups as u64;
            self.tally.relookups += batch.relookups as u64;
            for (slot, result) in batch.results.into_iter().enumerate() {
                let key = self.in_ring[k].pop_front();
                let Ok(result) = result else {
                    sink.arrivals.push(FAILED_ARRIVAL);
                    continue;
                };
                if let Some(key) = key {
                    log_key(&mut self.tracer, k as u16, key, &result.outcome);
                }
                let stack = &self.stack;
                file_result(
                    result,
                    k as u16,
                    slot,
                    &mut self.tally,
                    &mut self.tracer,
                    sink,
                    |pcb, out| {
                        stack.with_shard(shard, |s| {
                            s.socket_mut(pcb).map_or(0, |s| s.read_into(out))
                        })
                    },
                );
            }
        }
    }

    fn send(&mut self, to: Handle, payload: &[u8], slot: usize) -> usize {
        let t = self.tracer.begin();
        let accepted = self
            .stack
            .with_shard(ShardId::new(to.shard.into()), |s| s.send(to.pcb, payload))
            .unwrap_or(0);
        self.tracer.end(t, SpanKind::Send, slot, accepted);
        accepted
    }

    fn flush(&mut self, out: &mut Vec<(u16, Vec<u8>)>) {
        for k in 0..self.in_ring.len() {
            let t = self.tracer.begin();
            let n = self.stack.poll_transmit(ShardId::new(k), &mut self.scratch);
            self.tracer.end(t, SpanKind::PollTransmit, 0, n);
            for frame in self.scratch.frames.drain(..) {
                self.tracer.capture_outbound(&frame);
                out.push((k as u16, frame));
            }
        }
    }

    fn recycle(&mut self, bufs: &mut Vec<(u16, Vec<u8>)>) {
        let n = bufs.len();
        let t = self.tracer.begin();
        for k in 0..self.in_ring.len() {
            self.stack.with_shard(ShardId::new(k), |s| {
                for (shard, buf) in bufs.iter_mut() {
                    if usize::from(*shard) == k {
                        s.recycle(std::mem::take(buf));
                    }
                }
            });
        }
        bufs.clear();
        self.tracer.end(t, SpanKind::Recycle, 0, n);
    }

    fn accept(&mut self, slot: usize) -> Option<Handle> {
        let t = self.tracer.begin();
        let accepted = self.stack.accept(PORT);
        self.tracer.end(t, SpanKind::Accept, slot, 0);
        accepted.map(|(shard, pcb)| Handle {
            shard: shard.index() as u16,
            pcb,
        })
    }

    fn close(&mut self, h: Handle, slot: usize) -> Option<(u16, Vec<u8>)> {
        let t = self.tracer.begin();
        let fin = self
            .stack
            .with_shard(ShardId::new(h.shard.into()), |s| s.close(h.pcb))
            .ok();
        self.tracer.end(t, SpanKind::Close, slot, 0);
        fin.map(|f| (h.shard, f))
    }

    fn tick(&mut self, now: u64, out: &mut Vec<(u16, Vec<u8>)>) -> usize {
        let t = self.tracer.begin();
        let advances = self.stack.advance_time(now);
        self.tracer.end(t, SpanKind::AdvanceTime, 0, 0);
        let mut aborted = 0;
        for (shard, advance) in advances {
            aborted += advance.aborted.len();
            let frames = advance.retransmits.into_iter().chain(advance.acks);
            out.extend(frames.map(|f| (shard.index() as u16, f)));
        }
        aborted
    }

    fn connection_count(&self) -> usize {
        self.stack.connection_count()
    }

    fn stats(&self) -> StatsSnapshot {
        self.stack.stats()
    }

    fn shards(&self) -> usize {
        self.in_ring.len()
    }

    fn tally(&mut self) -> &mut Tally {
        &mut self.tally
    }

    fn tracer(&mut self) -> &mut Tracer {
        &mut self.tracer
    }
}
