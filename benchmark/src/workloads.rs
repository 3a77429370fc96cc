//! The wall-clock workloads. Each block is phases: peers emit, the
//! stack is called (timed), peers consume and acknowledge, the stack is
//! called again (timed), and the clock advances one tick (timed). The
//! generator (which connection, which four-tuple misses) runs on the
//! benchmark's own seeded RNG; the stack sees only frames.

use crate::alloc;
use crate::farm::{Farm, CONNS_PER_HOST};
use crate::rng::Rng;
use crate::server::{
    Clock, Handle, Phase, Plain, Server, Sink, Tally, BLOCK, MSS, PORT, SERVER_ADDR,
};
use crate::trace::Tracer;
use std::net::Ipv4Addr;
use tcpdemux_stack::{CounterId, RxOutcome, StatsSnapshot};
use tcpdemux_wire::{build_tcp_frame, IpProtocol, Ipv4Repr, TcpFlags, TcpRepr};

/// TPC/A sizes: the smallest packets, where per-frame cost dominates.
pub const REQUEST: usize = 100;
pub const RESPONSE: usize = 200;

/// What one block did.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockOut {
    /// Operations in the workload's own unit.
    pub ops: u64,
    /// Payload bytes read out of the stack's sockets.
    pub rx_bytes: u64,
    /// Payload bytes the stack sent that the peer read and acknowledged.
    pub tx_bytes: u64,
    /// Payload-carrying segments the stack put on the wire.
    pub segments_sent: u64,
    /// Segments that payload needs when nothing is lost: ⌈bytes/MSS⌉.
    pub segments_needed: u64,
    /// Stack ticks the block took.
    pub ticks: u64,
    /// Net heap bytes the stacks under test came to hold during the
    /// block, for a workload that builds its connections per block
    /// (0 elsewhere: standing connections are weighed at set-up).
    pub heap_bytes: i64,
}

/// The stack-side counters the metrics use, summed over every stack
/// under test.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub frames_in: u64,
    pub demux_hits: u64,
    pub resets_sent: u64,
    pub out_of_order_drops: u64,
    pub rto_retransmits: u64,
    pub fast_retransmits: u64,
    pub timeout_aborts: u64,
    pub lookups: u64,
    pub cache_hits: u64,
    pub pcbs_examined: u64,
    pub worst_case: u64,
    pub pool_allocations: u64,
    pub pool_reuses: u64,
}

impl Counts {
    pub fn of(stats: &StatsSnapshot) -> Self {
        Self {
            frames_in: stats.stack.frames_in,
            demux_hits: stats.stack.demux_hits,
            resets_sent: stats.stack.resets_sent,
            out_of_order_drops: stats.stack.out_of_order_drops,
            rto_retransmits: stats.stack.retransmits,
            fast_retransmits: stats.telemetry.counter(CounterId::FastRetransmits),
            timeout_aborts: stats.stack.timeout_aborts,
            lookups: stats.demux.lookups,
            cache_hits: stats.demux.cache_hits,
            pcbs_examined: stats.demux.pcbs_examined,
            worst_case: u64::from(stats.demux.worst_case),
            pool_allocations: stats.tx_pool.allocations,
            pool_reuses: stats.tx_pool.reuses,
        }
    }

    /// Field by field `f(self, other)`; `worst_case` is a maximum, not a
    /// sum, and is carried over from `self`.
    fn zip(self, other: Self, f: impl Fn(u64, u64) -> u64) -> Self {
        Self {
            frames_in: f(self.frames_in, other.frames_in),
            demux_hits: f(self.demux_hits, other.demux_hits),
            resets_sent: f(self.resets_sent, other.resets_sent),
            out_of_order_drops: f(self.out_of_order_drops, other.out_of_order_drops),
            rto_retransmits: f(self.rto_retransmits, other.rto_retransmits),
            fast_retransmits: f(self.fast_retransmits, other.fast_retransmits),
            timeout_aborts: f(self.timeout_aborts, other.timeout_aborts),
            lookups: f(self.lookups, other.lookups),
            cache_hits: f(self.cache_hits, other.cache_hits),
            pcbs_examined: f(self.pcbs_examined, other.pcbs_examined),
            worst_case: self.worst_case,
            pool_allocations: f(self.pool_allocations, other.pool_allocations),
            pool_reuses: f(self.pool_reuses, other.pool_reuses),
        }
    }

    pub fn plus(self, other: Self) -> Self {
        let mut sum = self.zip(other, |a, b| a + b);
        sum.worst_case = self.worst_case.max(other.worst_case);
        sum
    }

    pub fn since(self, earlier: Self) -> Self {
        self.zip(earlier, |a, b| a - b)
    }
}

pub trait Workload {
    /// Run one block; busy time accumulates in `clock`.
    fn block(&mut self, clock: &mut Clock) -> BlockOut;
    /// Counts at the stack's boundary since construction.
    fn tally(&mut self) -> Tally;
    /// The stacks' own counters since construction.
    fn counts(&self) -> Counts;
    fn tracer(&mut self) -> &mut Tracer;
    /// Operations that went wrong since construction.
    fn failed(&self) -> u64;
    /// End-of-run checks; one line per check that does not hold.
    fn violations(&mut self, measured: Counts) -> Vec<String>;
    /// Connections the stacks under test hold in steady state.
    fn connections(&self) -> usize;
    /// Net heap bytes the stack came to hold for those connections,
    /// weighed at a point of set-up the seed has no part in (so it
    /// repeats exactly); `None` where connections live inside a block.
    fn standing_heap(&self) -> Option<i64>;
    fn shards(&self) -> usize {
        1
    }
}

fn expect_outcomes(sink: &Sink, want: impl Fn(&RxOutcome) -> bool) -> u64 {
    sink.arrivals
        .iter()
        .filter(|a| !a.outcome.as_ref().is_some_and(&want))
        .count() as u64
}

/// A data segment from a four-tuple the server has never heard of,
/// aimed at the listening port: it walks a full chain, matches no
/// listener (no SYN), and provokes an RST.
fn miss_frame(rng: &mut Rng) -> Vec<u8> {
    let r = rng.next();
    let src = Ipv4Addr::new(172, 16 + (r >> 40) as u8 % 16, (r >> 8) as u8, r as u8);
    let ip = Ipv4Repr::new(src, SERVER_ADDR, IpProtocol::Tcp);
    let tcp = TcpRepr {
        src_port: 1024 + ((r >> 16) % 60_000) as u16,
        dst_port: PORT,
        seq: (r >> 32) as u32,
        ack: (r >> 24) as u32,
        flags: TcpFlags::ACK | TcpFlags::PSH,
        window: 8760,
        ..TcpRepr::default()
    };
    build_tcp_frame(&ip, &tcp, &[0x5a; REQUEST])
}

fn is_rst(frame: &[u8]) -> bool {
    let header = usize::from(frame[0] & 0x0f) * 4;
    frame
        .get(header + 13)
        .is_some_and(|flags| flags & 0x04 != 0)
}

/// TPC/A transactions over `n` standing connections: request in, ACK
/// and response out, ACK in — four frames. With `miss_per_mille` > 0 the
/// same loop is the miss flood: that share of a block's slots is a
/// segment from an unknown four-tuple in place of a request.
pub struct Txn<S: Server> {
    server: S,
    farm: Farm,
    rng: Rng,
    n: usize,
    miss_per_mille: u64,
    sink: Sink,
    wire: Vec<Vec<u8>>,
    out: Vec<(u16, Vec<u8>)>,
    responders: Vec<Handle>,
    responses: Vec<u8>,
    /// Block in which each connection was last picked, so a block's
    /// picks are distinct.
    picked_in: Vec<u64>,
    blocks: u64,
    ops: u64,
    now: u64,
    failed: u64,
    misses_sent: u64,
    rsts_seen: u64,
    standing_heap: i64,
}

impl<S: Server> Txn<S> {
    pub fn new(
        mut server: S,
        n: usize,
        miss_per_mille: u64,
        seed: u64,
        warm_blocks: u64,
        clock: &mut Clock,
    ) -> Self {
        let heap_before = alloc::net_bytes();
        let mut farm = Farm::new(n.div_ceil(CONNS_PER_HOST), 0);
        farm.establish(&mut server, clock, n);
        let mut this = Self {
            server,
            farm,
            rng: Rng::new(seed),
            n,
            miss_per_mille,
            sink: Sink::new(),
            wire: Vec::new(),
            out: Vec::new(),
            responders: Vec::new(),
            responses: vec![0; BLOCK * RESPONSE],
            picked_in: vec![0; n],
            blocks: 0,
            ops: 0,
            now: 0,
            failed: 0,
            misses_sent: 0,
            rsts_seen: 0,
            standing_heap: 0,
        };
        // First use of a connection allocates (socket, send buffer,
        // retransmission queue): touch every one before anything is
        // measured, weigh the heap, then warm up on the real mix.
        for first in (0..n).step_by(BLOCK) {
            for c in first..n.min(first + BLOCK) {
                this.farm.emit(c, REQUEST, &mut this.wire);
            }
            this.exchange(clock, 0);
        }
        this.standing_heap = alloc::net_bytes() - heap_before;
        for _ in 0..warm_blocks {
            this.block(clock);
        }
        this
    }

    /// Serve what is on the wire: `misses` flood segments among requests.
    fn exchange(&mut self, clock: &mut Clock, misses: u64) -> BlockOut {
        let live = self.wire.len() as u64 - misses;
        self.server.tracer().begin_block(self.ops);

        clock.start(Phase::Rx);
        self.server.ingest(&mut self.wire, &mut self.sink);
        clock.stop();
        self.wire.clear();
        let rx_bytes = self.farm.check_reads(&self.sink);
        self.responders.clear();
        let mut resets = 0;
        for arrival in &self.sink.arrivals {
            match arrival.outcome {
                Some(RxOutcome::Delivered { pcb, .. }) if arrival.read == REQUEST => {
                    self.responders.push(Handle {
                        shard: arrival.shard,
                        pcb,
                    });
                }
                Some(RxOutcome::ResetSent) => resets += 1,
                _ => self.failed += 1,
            }
        }
        self.failed += live.abs_diff(self.responders.len() as u64) + misses.abs_diff(resets);
        self.rsts_seen += self
            .sink
            .replies
            .iter()
            .filter(|(_, f)| !Farm::is_ours(f) && is_rst(f))
            .count() as u64;
        // The peers take the ACKs; a pure ACK draws no reply.
        self.farm.absorb(&self.sink.replies, &mut self.wire);
        for (i, &handle) in self.responders.iter().enumerate() {
            match self.farm.conn_of(handle) {
                Some(c) => self
                    .farm
                    .response_into(c, &mut self.responses[i * RESPONSE..(i + 1) * RESPONSE]),
                None => self.failed += 1,
            }
        }

        clock.start(Phase::Tx);
        self.server.recycle(&mut self.sink.replies);
        for (slot, (&handle, payload)) in self
            .responders
            .iter()
            .zip(self.responses.chunks(RESPONSE))
            .enumerate()
        {
            if self.server.send(handle, payload, slot) != RESPONSE {
                self.failed += 1;
            }
        }
        self.server.flush(&mut self.out);
        clock.stop();
        let segments_sent = self.out.len() as u64;
        // The peers read and check the responses, and acknowledge them.
        let answered = self.farm.absorb(&self.out, &mut self.wire) as u64;
        self.failed += answered.abs_diff(self.responders.len() as u64);
        let acks = self.wire.len() as u64;

        self.sink.clear();
        clock.start(Phase::Tx);
        self.server.recycle(&mut self.out);
        self.server.ingest(&mut self.wire, &mut self.sink);
        clock.stop();
        self.wire.clear();
        self.failed += expect_outcomes(&self.sink, |o| matches!(o, RxOutcome::AckProcessed { .. }));
        self.failed += self.sink.replies.len() as u64;
        self.sink.clear();

        self.now += 1;
        clock.start(Phase::Other);
        let aborted = self.server.tick(self.now, &mut self.out);
        clock.stop();
        // Nothing is lost here, so a timer that fires is a fault.
        self.failed += aborted as u64 + self.out.len() as u64;
        self.server.tracer().end_block();

        // The flood counts frames disposed of; TPC/A counts transactions.
        let ops = if self.miss_per_mille > 0 {
            live + misses + acks
        } else {
            live
        };
        self.ops += ops;
        BlockOut {
            ops,
            rx_bytes,
            tx_bytes: answered * RESPONSE as u64,
            segments_sent,
            segments_needed: self.responders.len() as u64,
            ticks: 1,
            heap_bytes: 0,
        }
    }
}

impl<S: Server> Workload for Txn<S> {
    fn block(&mut self, clock: &mut Clock) -> BlockOut {
        self.blocks += 1;
        let mut misses = 0;
        for _ in 0..BLOCK {
            if self.rng.chance(self.miss_per_mille) {
                misses += 1;
                self.wire.push(miss_frame(&mut self.rng));
            } else {
                // Uniformly random, no trains; distinct within the block
                // so two requests never coalesce into one segment.
                let c = loop {
                    let c = self.rng.below(self.n as u64) as usize;
                    if self.picked_in[c] != self.blocks {
                        break c;
                    }
                };
                self.picked_in[c] = self.blocks;
                self.farm.emit(c, REQUEST, &mut self.wire);
            }
        }
        self.misses_sent += misses;
        self.exchange(clock, misses)
    }

    fn tally(&mut self) -> Tally {
        *self.server.tally()
    }

    fn counts(&self) -> Counts {
        Counts::of(&self.server.stats())
    }

    fn tracer(&mut self) -> &mut Tracer {
        self.server.tracer()
    }

    fn failed(&self) -> u64 {
        self.failed + self.farm.failed
    }

    fn violations(&mut self, measured: Counts) -> Vec<String> {
        let mut out = Vec::new();
        let total = self.counts();
        if total.resets_sent != self.misses_sent || self.rsts_seen != self.misses_sent {
            out.push(format!(
                "{} flood segments sent, {} RSTs counted by the stack, {} RST frames seen",
                self.misses_sent, total.resets_sent, self.rsts_seen
            ));
        }
        if measured.out_of_order_drops != 0 {
            out.push(format!(
                "{} out-of-order drops",
                measured.out_of_order_drops
            ));
        }
        if !self.farm.streams_balanced() {
            out.push("bytes read differ from bytes sent".into());
        }
        if self.server.connection_count() != self.n {
            out.push(format!(
                "{} connections, expected {}",
                self.server.connection_count(),
                self.n
            ));
        }
        out
    }

    fn connections(&self) -> usize {
        self.n
    }

    fn standing_heap(&self) -> Option<i64> {
        Some(self.standing_heap)
    }

    fn shards(&self) -> usize {
        self.server.shards()
    }
}

const CHURN_HOSTS: usize = BLOCK;

/// Connection churn beside a standing population: each operation opens
/// a connection, serves one transaction on it and closes it — SYN,
/// SYN-ACK, ACK, accept, request, ACK + response, ACK, FIN, ACK + FIN,
/// ACK. One connection per churn host per block.
pub struct Churn {
    server: Plain,
    farm: Farm,
    standing: usize,
    sink: Sink,
    wire: Vec<Vec<u8>>,
    out: Vec<(u16, Vec<u8>)>,
    handles: Vec<Handle>,
    responses: Vec<u8>,
    ops: u64,
    now: u64,
    failed: u64,
    standing_heap: i64,
}

impl Churn {
    pub fn new(standing: usize, warm_blocks: u64, tracer: Tracer, clock: &mut Clock) -> Self {
        let heap_before = alloc::net_bytes();
        let mut server = Plain::new(tracer);
        let mut farm = Farm::new(standing.div_ceil(CONNS_PER_HOST), CHURN_HOSTS);
        farm.establish(&mut server, clock, standing);
        let mut this = Self {
            server,
            farm,
            standing,
            sink: Sink::new(),
            wire: Vec::new(),
            out: Vec::new(),
            handles: Vec::new(),
            responses: vec![0; BLOCK * RESPONSE],
            ops: 0,
            now: 0,
            failed: 0,
            // The standing connections stay idle: established is all
            // they ever are.
            standing_heap: alloc::net_bytes() - heap_before,
        };
        for _ in 0..warm_blocks {
            this.block(clock);
        }
        this
    }

    /// One timed `ingest` of what is on the wire, expecting `want` of
    /// every frame.
    fn ingest(&mut self, clock: &mut Clock, phase: Phase, want: impl Fn(&RxOutcome) -> bool) {
        self.sink.clear();
        clock.start(phase);
        self.server.recycle(&mut self.sink.replies);
        self.server.recycle(&mut self.out);
        self.server.ingest(&mut self.wire, &mut self.sink);
        clock.stop();
        self.wire.clear();
        self.failed += expect_outcomes(&self.sink, want);
        self.failed += (self.sink.arrivals.len() as u64).abs_diff(BLOCK as u64);
    }
}

impl Workload for Churn {
    fn block(&mut self, clock: &mut Clock) -> BlockOut {
        let first = self.farm.conns.len();
        self.server.tracer().begin_block(self.ops);

        // Open: SYN in, SYN-ACK out, ACK in, accept.
        for j in 0..BLOCK {
            let host = self.farm.churn_host(j);
            self.farm.open(host, &mut self.wire);
        }
        self.ingest(clock, Phase::Other, |o| {
            matches!(o, RxOutcome::NewConnection { .. })
        });
        self.farm.absorb(&self.sink.replies, &mut self.wire);
        self.ingest(clock, Phase::Other, |o| {
            matches!(o, RxOutcome::Established { .. })
        });
        self.handles.clear();
        clock.start(Phase::Other);
        for slot in 0..BLOCK {
            if let Some(handle) = self.server.accept(slot) {
                self.handles.push(handle);
            }
        }
        clock.stop();
        if self.handles.len() != BLOCK {
            // Without its handles the block cannot go on; every
            // connection in it counts as failed.
            self.failed += BLOCK as u64;
            self.farm.retire_newest(BLOCK);
            self.server.tracer().end_block();
            return BlockOut::default();
        }
        for (j, &handle) in self.handles.iter().enumerate() {
            self.farm.bind(first + j, handle);
        }

        // One transaction.
        for j in 0..BLOCK {
            self.farm.emit(first + j, REQUEST, &mut self.wire);
        }
        self.ingest(clock, Phase::Rx, |o| {
            matches!(o, RxOutcome::Delivered { .. })
        });
        let rx_bytes = self.farm.check_reads(&self.sink);
        self.farm.absorb(&self.sink.replies, &mut self.wire);
        for j in 0..BLOCK {
            self.farm.response_into(
                first + j,
                &mut self.responses[j * RESPONSE..(j + 1) * RESPONSE],
            );
        }
        clock.start(Phase::Tx);
        self.server.recycle(&mut self.sink.replies);
        for (slot, (&handle, payload)) in self
            .handles
            .iter()
            .zip(self.responses.chunks(RESPONSE))
            .enumerate()
        {
            if self.server.send(handle, payload, slot) != RESPONSE {
                self.failed += 1;
            }
        }
        self.server.flush(&mut self.out);
        clock.stop();
        let segments_sent = self.out.len() as u64;
        let answered = self.farm.absorb(&self.out, &mut self.wire) as u64;
        self.failed += answered.abs_diff(BLOCK as u64);
        self.ingest(clock, Phase::Tx, |o| {
            matches!(o, RxOutcome::AckProcessed { .. })
        });

        // Close: client FIN in, ACK out, server close (FIN out), ACK in.
        for j in 0..BLOCK {
            self.farm.close(first + j, &mut self.wire);
        }
        self.ingest(clock, Phase::Other, |o| {
            matches!(o, RxOutcome::PeerClosed { .. })
        });
        clock.start(Phase::Other);
        for (slot, &handle) in self.handles.iter().enumerate() {
            match self.server.close(handle, slot) {
                Some(fin) => self.out.push(fin),
                None => self.failed += 1,
            }
        }
        clock.stop();
        // The peers see the ACK of their FIN, then the server's FIN.
        self.farm.absorb(&self.sink.replies, &mut self.wire);
        self.farm.absorb(&self.out, &mut self.wire);
        self.ingest(clock, Phase::Other, |o| matches!(o, RxOutcome::Closed));

        self.now += 1;
        clock.start(Phase::Other);
        let aborted = self.server.tick(self.now, &mut self.out);
        clock.stop();
        self.failed += aborted as u64 + self.out.len() as u64;
        self.server.tracer().end_block();

        self.farm.retire_newest(BLOCK);
        if self.server.connection_count() != self.standing {
            self.failed += 1;
        }
        self.ops += BLOCK as u64;
        BlockOut {
            ops: BLOCK as u64,
            rx_bytes,
            tx_bytes: answered * RESPONSE as u64,
            segments_sent,
            segments_needed: BLOCK as u64,
            ticks: 1,
            heap_bytes: 0,
        }
    }

    fn tally(&mut self) -> Tally {
        *self.server.tally()
    }

    fn counts(&self) -> Counts {
        Counts::of(&self.server.stats())
    }

    fn tracer(&mut self) -> &mut Tracer {
        self.server.tracer()
    }

    fn failed(&self) -> u64 {
        self.failed + self.farm.failed
    }

    fn violations(&mut self, measured: Counts) -> Vec<String> {
        let mut out = Vec::new();
        if measured.resets_sent != 0 || measured.out_of_order_drops != 0 {
            out.push(format!(
                "{} RSTs sent, {} out-of-order drops",
                measured.resets_sent, measured.out_of_order_drops
            ));
        }
        if self.server.connection_count() != self.standing {
            out.push(format!(
                "{} connections left, {} standing",
                self.server.connection_count(),
                self.standing
            ));
        }
        out
    }

    fn connections(&self) -> usize {
        self.standing
    }

    fn standing_heap(&self) -> Option<i64> {
        Some(self.standing_heap)
    }
}

const TRAIN: usize = 6 * MSS;
const TRAINS: usize = 4;
const ROUNDS: usize = 2;

/// Bulk transfer, the largest packets: 4 inbound and 4 outbound trains
/// of 6 × 1460 B a round (the default 8760 B window), each direction in
/// its own timed phases. Demux is a one-entry cache hit; checksum,
/// socket copy, send buffer, frame build and the TX pool do the work.
pub struct Bulk {
    server: Plain,
    farm: Farm,
    sink: Sink,
    wire: Vec<Vec<u8>>,
    out: Vec<(u16, Vec<u8>)>,
    handles: Vec<Handle>,
    trains: Vec<u8>,
    ops: u64,
    now: u64,
    failed: u64,
    standing_heap: i64,
}

impl Bulk {
    pub fn new(warm_blocks: u64, tracer: Tracer, clock: &mut Clock) -> Self {
        let heap_before = alloc::net_bytes();
        let mut server = Plain::new(tracer);
        let mut farm = Farm::new(1, 0);
        farm.establish(&mut server, clock, 2 * TRAINS);
        let handles = farm.conns.iter().filter_map(|c| c.handle).collect();
        let mut this = Self {
            server,
            farm,
            sink: Sink::new(),
            wire: Vec::new(),
            out: Vec::new(),
            handles,
            trains: vec![0; TRAINS * TRAIN],
            ops: 0,
            now: 0,
            failed: 0,
            standing_heap: 0,
        };
        if this.handles.len() != 2 * TRAINS {
            this.failed += 1;
            return this;
        }
        // No randomness in this workload: the whole warm-up (windows
        // opened, buffers grown) belongs to the weighed state.
        for _ in 0..warm_blocks {
            this.block(clock);
        }
        this.standing_heap = alloc::net_bytes() - heap_before;
        this
    }

    /// Connections `0..TRAINS` carry trains in, `TRAINS..2·TRAINS` out.
    fn round(&mut self, clock: &mut Clock, totals: &mut BlockOut) {
        for c in 0..TRAINS {
            self.farm.emit(c, TRAIN, &mut self.wire);
        }
        // Until the congestion window has opened, a train takes more
        // than one flight.
        while !self.wire.is_empty() {
            self.sink.clear();
            clock.start(Phase::Rx);
            self.server.ingest(&mut self.wire, &mut self.sink);
            clock.stop();
            totals.ops += self.wire.len() as u64;
            self.wire.clear();
            self.failed +=
                expect_outcomes(&self.sink, |o| matches!(o, RxOutcome::Delivered { .. }));
            totals.rx_bytes += self.farm.check_reads(&self.sink);
            self.farm.absorb(&self.sink.replies, &mut self.wire);
            clock.start(Phase::Rx);
            self.server.recycle(&mut self.sink.replies);
            clock.stop();
            for c in 0..TRAINS {
                self.farm.pump(c, &mut self.wire);
            }
        }

        for (i, train) in self.trains.chunks_mut(TRAIN).enumerate() {
            self.farm.response_into(TRAINS + i, train);
        }
        clock.start(Phase::Tx);
        for (i, train) in self.trains.chunks(TRAIN).enumerate() {
            if self.server.send(self.handles[TRAINS + i], train, i) != TRAIN {
                self.failed += 1;
            }
        }
        self.server.flush(&mut self.out);
        clock.stop();
        while !self.out.is_empty() {
            totals.segments_sent += self.out.len() as u64;
            totals.ops += self.out.len() as u64;
            self.farm.absorb(&self.out, &mut self.wire);
            self.sink.clear();
            clock.start(Phase::Tx);
            self.server.recycle(&mut self.out);
            self.server.ingest(&mut self.wire, &mut self.sink);
            self.server.flush(&mut self.out);
            clock.stop();
            self.wire.clear();
            self.failed +=
                expect_outcomes(&self.sink, |o| matches!(o, RxOutcome::AckProcessed { .. }));
        }
        totals.tx_bytes += (TRAINS * TRAIN) as u64;
        totals.segments_needed += (TRAINS * TRAIN / MSS) as u64;
    }
}

impl Workload for Bulk {
    fn block(&mut self, clock: &mut Clock) -> BlockOut {
        let mut totals = BlockOut {
            ticks: 1,
            ..BlockOut::default()
        };
        self.server.tracer().begin_block(self.ops);
        for _ in 0..ROUNDS {
            self.round(clock, &mut totals);
        }
        self.now += 1;
        clock.start(Phase::Other);
        let aborted = self.server.tick(self.now, &mut self.out);
        clock.stop();
        self.failed += aborted as u64 + self.out.len() as u64;
        self.server.tracer().end_block();
        self.ops += totals.ops;
        totals
    }

    fn tally(&mut self) -> Tally {
        *self.server.tally()
    }

    fn counts(&self) -> Counts {
        Counts::of(&self.server.stats())
    }

    fn tracer(&mut self) -> &mut Tracer {
        self.server.tracer()
    }

    fn failed(&self) -> u64 {
        self.failed + self.farm.failed
    }

    fn violations(&mut self, measured: Counts) -> Vec<String> {
        let mut out = Vec::new();
        if measured.resets_sent != 0 || measured.out_of_order_drops != 0 {
            out.push(format!(
                "{} RSTs sent, {} out-of-order drops",
                measured.resets_sent, measured.out_of_order_drops
            ));
        }
        if !self.farm.streams_balanced() {
            out.push("bytes read differ from bytes sent".into());
        }
        out
    }

    fn connections(&self) -> usize {
        2 * TRAINS
    }

    fn standing_heap(&self) -> Option<i64> {
        Some(self.standing_heap)
    }
}
