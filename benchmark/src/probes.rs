//! Per-layer metrics. The stack rows come from the spans of the traced
//! pass; the rows of the layers beneath it come from replaying the
//! frames and keys that pass captured through each layer's public
//! functions, outside the stack. Layers carry the crate and module names.

use crate::farm::Farm;
use crate::measure::{median, quantile, Pass};
use crate::server::{Clock, Sharded, BLOCK, SERVER_ADDR};
use crate::trace::{KeyEvent, SpanKind, Tracer};
use crate::workloads::REQUEST;
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use tcpdemux_core::{spsc_ring, Demux, PacketKind, SequentDemux};
use tcpdemux_hash::{shard_for, KeyHasher, Multiplicative};
use tcpdemux_pcb::{ConnectionKey, Pcb, PcbArena, SendBuffer, TcpEvent};
use tcpdemux_stack::{steering_key, RxOutcome, ShardId, TimerWheel, TxPool};
use tcpdemux_telemetry::{HistogramId, Recorder};
use tcpdemux_wire::{build_tcp_frame_into, checksum, Ipv4Packet, Ipv4Repr, TcpRepr, TcpSegment};

pub type Metric = (String, &'static str, f64);

/// Each batch probe is repeated and the median batch reported.
const REPS: usize = 21;
/// The slot count `Stack::with_config` gives its wheel.
const WHEEL_SLOTS: usize = 256;

/// Median over `REPS` runs of `batch`, in ns per call, where one run
/// makes `calls` calls. Batches, because a single call is shorter than a
/// clock read.
fn batch_ns(calls: usize, mut batch: impl FnMut()) -> f64 {
    if calls == 0 {
        return 0.0;
    }
    let mut runs: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            batch();
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&mut runs)
}

struct Parsed<'a> {
    ip: Ipv4Repr,
    tcp: TcpRepr,
    transport: &'a [u8],
    payload: &'a [u8],
}

fn parse(frame: &[u8]) -> Option<Parsed<'_>> {
    let packet = Ipv4Packet::new_checked(frame).ok()?;
    let ip = Ipv4Repr::parse(&packet).ok()?;
    let header = usize::from(frame[0] & 0x0f) * 4;
    let transport = &frame[header..header + packet.payload().len()];
    let segment = TcpSegment::new_checked(transport).ok()?;
    let tcp = TcpRepr::parse(&segment, ip.src_addr, ip.dst_addr).ok()?;
    let payload = &transport[transport.len() - segment.payload().len()..];
    Some(Parsed {
        ip,
        tcp,
        transport,
        payload,
    })
}

fn span_rows(tracer: &Tracer, out: &mut Vec<Metric>) -> f64 {
    let mut receive_data_ns = 0.0;
    let per_call = [
        SpanKind::ReceiveData,
        SpanKind::ReceiveAck,
        SpanKind::ReceiveSyn,
        SpanKind::ReceiveFin,
        SpanKind::ReceiveMiss,
        SpanKind::Send,
        SpanKind::ReadInto,
        SpanKind::Accept,
        SpanKind::Close,
        SpanKind::AdvanceTime,
        SpanKind::Enqueue,
    ];
    for kind in per_call {
        let spans = tracer.durations(kind);
        let ns = median(&mut spans.iter().map(|&(d, _)| f64::from(d)).collect::<Vec<_>>());
        if kind == SpanKind::ReceiveData {
            receive_data_ns = ns;
        }
        out.push((format!("{}_ns", kind.name()), "ns", ns));
        out.push((
            format!("{}_calls", kind.name()),
            "count",
            spans.len() as f64,
        ));
    }
    // Calls that handle a batch are priced per item of the batch.
    let per_item = [
        (
            SpanKind::PollTransmit,
            "stack.poll_transmit_ns_per_frame",
            1.0,
        ),
        (SpanKind::Recycle, "stack.recycle_ns", 1.0),
        (
            SpanKind::ReadInto,
            "stack.socket.read_into_ns_per_kib",
            1024.0,
        ),
        (SpanKind::Drain, "stack.runtime.drain_ns_per_frame", 1.0),
    ];
    for (kind, name, scale) in per_item {
        let mut each: Vec<f64> = tracer
            .durations(kind)
            .iter()
            .filter(|&&(_, aux)| aux > 0)
            .map(|&(d, aux)| f64::from(d) * scale / f64::from(aux))
            .collect();
        out.push((name.to_string(), "ns", median(&mut each)));
    }
    for kind in [SpanKind::PollTransmit, SpanKind::Recycle, SpanKind::Drain] {
        let calls = tracer.durations(kind).len();
        out.push((format!("{}_calls", kind.name()), "count", calls as f64));
    }
    receive_data_ns
}

/// The `wire`, `pcb`, `hash` and `telemetry` rows: the captured frames
/// through each layer's own functions.
fn frame_rows(tracer: &Tracer, out: &mut Vec<Metric>) -> f64 {
    let inbound: Vec<Parsed> = tracer.inbound.iter().filter_map(|f| parse(f)).collect();
    let outbound: Vec<Parsed> = tracer.outbound.iter().filter_map(|f| parse(f)).collect();
    let frames = &tracer.inbound;
    let n = inbound.len();

    let ipv4_parse = batch_ns(frames.len(), || {
        for frame in frames {
            let packet = Ipv4Packet::new_checked(&frame[..]);
            black_box(packet.and_then(|p| Ipv4Repr::parse(&p)).ok());
        }
    });
    let tcp_parse = batch_ns(n, || {
        for p in &inbound {
            let segment = TcpSegment::new_checked(p.transport);
            black_box(
                segment
                    .and_then(|s| TcpRepr::parse(&s, p.ip.src_addr, p.ip.dst_addr))
                    .ok(),
            );
        }
    });
    let mut scratch = Vec::new();
    let tcp_emit = batch_ns(outbound.len(), || {
        for p in &outbound {
            build_tcp_frame_into(&p.ip, &p.tcp, p.payload, &mut scratch);
            black_box(&scratch);
        }
    });
    let kib = inbound.iter().map(|p| p.transport.len()).sum::<usize>() as f64 / 1024.0;
    let checksum_per_kib = batch_ns(n, || {
        for p in &inbound {
            black_box(checksum::verify_transport(
                p.ip.src_addr,
                p.ip.dst_addr,
                6,
                p.transport,
            ));
        }
    }) * n as f64
        / kib.max(f64::MIN_POSITIVE);
    let key_from_frame = batch_ns(n, || {
        for p in &inbound {
            black_box(ConnectionKey::from_incoming_tcp(&p.ip, &p.tcp));
        }
    });
    let keys: Vec<ConnectionKey> = inbound
        .iter()
        .map(|p| ConnectionKey::from_incoming_tcp(&p.ip, &p.tcp))
        .collect();
    let key_hash = batch_ns(n, || {
        for key in &keys {
            black_box(Multiplicative.hash(key));
        }
    });
    let steer = batch_ns(frames.len(), || {
        for frame in frames {
            black_box(steering_key(frame).map(|key| shard_for(&key, 2)));
        }
    });
    // What an ACK costs the recorder: the lookup record and one
    // histogram sample.
    let recorder = Recorder::new();
    let record = batch_ns(n, || {
        for _ in 0..n {
            recorder.demux_lookup(black_box(50), true, false);
            recorder.observe(HistogramId::CwndBytes, black_box(8760));
        }
    });
    let mut sizes: Vec<f64> = outbound.iter().map(|p| p.payload.len() as f64).collect();
    let chunk = vec![0u8; (median(&mut sizes) as usize).max(1)];
    let mut sendbuf = SendBuffer::new(256 * 1024);
    let sendbuf_ns = batch_ns(1024, || {
        for _ in 0..1024 {
            black_box(sendbuf.push(&chunk));
            sendbuf.consume(chunk.len());
        }
    });

    out.push(("wire.ipv4_parse_ns".into(), "ns", ipv4_parse));
    out.push(("wire.tcp_parse_ns".into(), "ns", tcp_parse));
    out.push(("wire.tcp_emit_ns".into(), "ns", tcp_emit));
    out.push((
        "wire.checksum_ns_per_kib".into(),
        "ns",
        if n > 0 { checksum_per_kib } else { 0.0 },
    ));
    out.push(("pcb.key_from_frame_ns".into(), "ns", key_from_frame));
    out.push(("pcb.sendbuf_push_consume_ns".into(), "ns", sendbuf_ns));
    out.push(("hash.key_hash_ns".into(), "ns", key_hash));
    out.push(("hash.steer_ns".into(), "ns", steer));
    out.push(("telemetry.record_ns".into(), "ns", record));
    ipv4_parse + tcp_parse + key_from_frame + record
}

fn fresh_key(i: usize) -> ConnectionKey {
    let host = Ipv4Addr::new(10, 3, (i >> 8) as u8, i as u8);
    ConnectionKey::new(SERVER_ADDR, 1521, host, 40_000)
}

/// The structure rows that need no captured traffic, at the workload's
/// population: arena, state machine, timer wheel, TX pool, SPSC ring.
fn structure_rows(population: usize, out: &mut Vec<Metric>) {
    let mut arena = PcbArena::new();
    for i in 0..population {
        arena.insert(Pcb::new(fresh_key(i)));
    }
    let mut ids = Vec::with_capacity(BLOCK);
    let arena_ns = batch_ns(BLOCK, || {
        ids.extend((0..BLOCK).map(|i| arena.insert(Pcb::new(fresh_key(population + i)))));
        for id in ids.drain(..) {
            black_box(arena.remove(id));
        }
    });
    // Active open, established, passive close: five transitions.
    let events = [
        TcpEvent::AppConnect,
        TcpEvent::RecvSynAck,
        TcpEvent::RecvFin,
        TcpEvent::AppClose,
        TcpEvent::RecvAck,
    ];
    let state_ns = batch_ns(BLOCK * events.len(), || {
        for i in 0..BLOCK {
            let mut pcb = Pcb::new(fresh_key(i));
            for event in events {
                black_box(pcb.on_event(event).ok());
            }
        }
    });
    // A block's worth of retransmission timers is armed at a time.
    let armed = population.min(BLOCK);
    let mut wheel: TimerWheel<u64> = TimerWheel::new(WHEEL_SLOTS);
    let mut timers = Vec::with_capacity(armed);
    let schedule_cancel_ns = batch_ns(armed, || {
        timers.extend((0..armed).map(|i| wheel.schedule(200, i as u64)));
        for id in timers.drain(..) {
            black_box(wheel.cancel(id));
        }
    });
    for i in 0..armed {
        wheel.schedule(1 << 40, i as u64);
    }
    let mut tick = 0;
    let advance_ns = batch_ns(WHEEL_SLOTS, || {
        for _ in 0..WHEEL_SLOTS {
            tick += 1;
            black_box(wheel.advance_to(tick));
        }
    });
    let mut pool = TxPool::default();
    let mut taken = Vec::with_capacity(BLOCK);
    for _ in 0..BLOCK {
        pool.recycle(Vec::with_capacity(64));
    }
    let pool_ns = batch_ns(BLOCK, || {
        taken.extend((0..BLOCK).map(|_| pool.take()));
        for buf in taken.drain(..) {
            pool.recycle(buf);
        }
    });
    let (mut producer, mut consumer) = spsc_ring::<Vec<u8>>(1024);
    let mut popped = Vec::with_capacity(BLOCK);
    let ring_ns = batch_ns(BLOCK, || {
        for _ in 0..BLOCK {
            black_box(producer.push(Vec::new()).is_ok());
        }
        consumer.pop_batch(&mut popped, BLOCK);
        popped.clear();
    });
    out.push(("pcb.arena_insert_remove_ns".into(), "ns", arena_ns));
    out.push(("pcb.state_event_ns".into(), "ns", state_ns));
    out.push((
        "stack.timer.schedule_cancel_ns".into(),
        "ns",
        schedule_cancel_ns,
    ));
    out.push(("stack.timer.advance_ns".into(), "ns", advance_ns));
    out.push(("stack.txpool.take_recycle_ns".into(), "ns", pool_ns));
    out.push(("core.spsc.push_pop_ns".into(), "ns", ring_ns));
}

/// The `core` rows: one mirror `SequentDemux::new(Multiplicative, 19)` —
/// the `StackConfig::new` default — per shard, given the same inserts,
/// removes and lookups in the same order as the stack's own table, from
/// the first SYN. If the stack's default table changes, the totals stop
/// matching and `core.probe_mismatch` says the rows are stale.
fn core_rows(tracer: &Tracer, shards: usize, stack_examined: u64, out: &mut Vec<Metric>) -> f64 {
    let mut mirrors: Vec<SequentDemux<Multiplicative>> = (0..shards)
        .map(|_| SequentDemux::new(Multiplicative, 19))
        .collect();
    let mut arena = PcbArena::new();
    let mut apply =
        |mirrors: &mut Vec<SequentDemux<Multiplicative>>, shard: u16, event: &KeyEvent| {
            let mirror = &mut mirrors[usize::from(shard)];
            match event {
                KeyEvent::Lookup(key) => {
                    black_box(mirror.lookup(key, PacketKind::Data));
                }
                KeyEvent::Insert(key) => mirror.insert(*key, arena.insert(Pcb::new(*key))),
                KeyEvent::Remove(key) => {
                    if let Some(id) = mirror.remove(key) {
                        arena.remove(id);
                    }
                }
            }
        };
    let (setup, measured) = tracer.events.split_at(tracer.measured_from);
    for (shard, event) in setup {
        apply(&mut mirrors, *shard, event);
    }
    let totals = |mirrors: &[SequentDemux<Multiplicative>]| {
        mirrors.iter().fold((0, 0, 0, 0), |acc, m| {
            let s = m.stats();
            (
                acc.0 + s.lookups,
                acc.1 + s.cache_hits,
                acc.2 + s.pcbs_examined,
                acc.3.max(s.worst_case),
            )
        })
    };
    let before = totals(&mirrors);

    // Time runs of consecutive lookups on one shard; inserts and removes
    // in between are applied untimed (they have their own rows).
    let mut run_ns = Vec::new();
    let mut at = 0;
    while at < measured.len() {
        let shard = measured[at].0;
        let run = measured[at..]
            .iter()
            .take(4096)
            .take_while(|(s, e)| *s == shard && matches!(e, KeyEvent::Lookup(_)))
            .count();
        if run >= 16 {
            let t = Instant::now();
            for (shard, event) in &measured[at..at + run] {
                apply(&mut mirrors, *shard, event);
            }
            run_ns.push(t.elapsed().as_nanos() as f64 / run as f64);
            at += run;
        } else {
            for (shard, event) in &measured[at..at + run.max(1)] {
                apply(&mut mirrors, *shard, event);
            }
            at += run.max(1);
        }
    }
    let after = totals(&mirrors);
    let lookups = (after.0 - before.0).max(1) as f64;
    let lookup_ns = median(&mut run_ns);
    out.push(("core.lookup_ns".into(), "ns", lookup_ns));
    out.push((
        "core.examined_per_lookup".into(),
        "count",
        (after.2 - before.2) as f64 / lookups,
    ));
    out.push((
        "core.cache_hit_ratio".into(),
        "ratio",
        (after.1 - before.1) as f64 / lookups,
    ));
    out.push((
        "core.worst_case_examined".into(),
        "count",
        f64::from(after.3),
    ));
    let mismatch = !tracer.events.is_empty() && after.2 != stack_examined;
    if mismatch {
        eprintln!(
            "core.probe_mismatch: the mirror sequent(19) examined {} PCBs, the stack {}; \
             the default table has changed and the core.* rows are stale",
            after.2, stack_examined
        );
    }
    out.push((
        "core.probe_mismatch".into(),
        "count",
        f64::from(u8::from(mismatch)),
    ));

    // Misses, inserts and removes at the population the pass ended with.
    let mirror = &mut mirrors[0];
    let absent: Vec<ConnectionKey> = (0..4096)
        .map(|i| {
            let host = Ipv4Addr::new(172, 16, (i >> 8) as u8, i as u8);
            ConnectionKey::new(SERVER_ADDR, 1521, host, 2000 + i as u16)
        })
        .collect();
    let miss_ns = batch_ns(absent.len(), || {
        for key in &absent {
            black_box(mirror.lookup(key, PacketKind::Data));
        }
    });
    let ids: Vec<_> = (0..BLOCK)
        .map(|i| arena.insert(Pcb::new(fresh_key(i))))
        .collect();
    let mut insert_runs = Vec::new();
    let mut remove_runs = Vec::new();
    for _ in 0..REPS {
        let t = Instant::now();
        for (i, id) in ids.iter().enumerate() {
            mirror.insert(fresh_key(i), *id);
        }
        insert_runs.push(t.elapsed().as_nanos() as f64 / BLOCK as f64);
        let t = Instant::now();
        for i in 0..BLOCK {
            black_box(mirror.remove(&fresh_key(i)));
        }
        remove_runs.push(t.elapsed().as_nanos() as f64 / BLOCK as f64);
    }
    out.push(("core.miss_lookup_ns".into(), "ns", miss_ns));
    out.push(("core.insert_ns".into(), "ns", median(&mut insert_runs)));
    out.push(("core.remove_ns".into(), "ns", median(&mut remove_runs)));
    lookup_ns
}

/// K = 1 with one ingress and one worker thread (this host has two
/// cores): what a frame costs from `enqueue` to processed when the
/// scheduler is part of the path. Informational; nothing is gated on it.
fn threaded_ns_per_frame(blocks: usize) -> f64 {
    const CONNS: usize = 2_000;
    let mut clock = Clock::new();
    let mut server = Sharded::new(1, Tracer::default());
    let mut farm = Farm::new(CONNS / crate::farm::CONNS_PER_HOST, 0);
    farm.establish(&mut server, &mut clock, CONNS);
    let stack = &server.stack;
    let processed = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let replies: Mutex<Vec<(u16, Vec<u8>)>> = Mutex::new(Vec::new());
    let mut samples = Vec::with_capacity(blocks);
    std::thread::scope(|scope| {
        // Release/Acquire on `processed`: the ingress thread sees the
        // replies pushed before the count that covers them.
        scope.spawn(|| {
            let shard = ShardId::new(0);
            let mut buf = vec![0u8; 2 * REQUEST];
            while !stop.load(Ordering::Acquire) {
                let batch = stack.drain(shard, BLOCK);
                if batch.results.is_empty() {
                    std::thread::yield_now();
                    continue;
                }
                let n = batch.results.len();
                let mut out = replies.lock().expect("ingress thread does not panic");
                for result in batch.results.into_iter().flatten() {
                    if let RxOutcome::Delivered { pcb, .. } = result.outcome {
                        stack.with_shard(shard, |s| {
                            s.socket_mut(pcb).map(|socket| socket.read_into(&mut buf))
                        });
                    }
                    out.extend(result.replies.into_iter().map(|f| (0, f)));
                }
                drop(out);
                processed.fetch_add(n, Ordering::Release);
            }
        });
        let mut wire = Vec::new();
        for block in 0..blocks {
            for j in 0..BLOCK {
                farm.emit((block * BLOCK + j) % CONNS, REQUEST, &mut wire);
            }
            let t = Instant::now();
            for frame in wire.drain(..) {
                // 64 frames never fill the 1024-slot ring.
                let _ = stack.enqueue(frame);
            }
            while processed.load(Ordering::Acquire) < (block + 1) * BLOCK {
                std::thread::yield_now();
            }
            samples.push(t.elapsed().as_nanos() as f64 / BLOCK as f64);
            let acks = std::mem::take(&mut *replies.lock().expect("worker does not panic"));
            farm.absorb(&acks, &mut wire);
            wire.clear();
        }
        stop.store(true, Ordering::Release);
    });
    median(&mut samples)
}

/// Every per-layer metric for one workload, from its untraced and traced
/// passes.
pub fn per_layer(name: &str, untraced: &Pass, traced: &mut Pass, smoke: bool) -> Vec<Metric> {
    let mut out = Vec::new();
    let shards = traced.workload().shards();
    let population = traced.workload().connections();
    let stack_examined = traced.workload().counts().pcbs_examined;
    let tracer = std::mem::take(traced.workload().tracer());

    let receive_data_ns = span_rows(&tracer, &mut out);
    let fixed_ns = frame_rows(&tracer, &mut out);
    structure_rows(population, &mut out);
    let lookup_ns = core_rows(&tracer, shards, stack_examined, &mut out);
    // What is left of a data frame once the probed layers are taken
    // out: state machine, delivery, reply build, and whatever in-program
    // tracing has yet to name.
    let residual = if receive_data_ns > 0.0 {
        receive_data_ns - fixed_ns - lookup_ns
    } else {
        0.0
    };
    out.push(("stack.residual_ns".into(), "ns", residual));
    let threaded = if name == "sharded_tpca" {
        threaded_ns_per_frame(if smoke { 50 } else { 2_000 })
    } else {
        0.0
    };
    out.push(("stack.runtime.threaded_ns_per_frame".into(), "ns", threaded));

    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let c = traced.counts;
    let t = traced.tally;
    out.push((
        "stack.allocs_per_frame".into(),
        "count",
        ratio(traced.alloc_calls, t.frames_in),
    ));
    out.push((
        "stack.replies_per_frame".into(),
        "count",
        ratio(t.replies, t.frames_in),
    ));
    out.push((
        "stack.demux_hit_ratio".into(),
        "ratio",
        ratio(c.demux_hits, c.frames_in),
    ));
    out.push(("stack.resets_sent".into(), "count", c.resets_sent as f64));
    out.push((
        "stack.out_of_order_drops".into(),
        "count",
        c.out_of_order_drops as f64,
    ));
    out.push((
        "stack.retransmits".into(),
        "count",
        (c.rto_retransmits + c.fast_retransmits) as f64,
    ));
    out.push((
        "stack.fast_retransmits".into(),
        "count",
        c.fast_retransmits as f64,
    ));
    out.push((
        "stack.rto_retransmits".into(),
        "count",
        c.rto_retransmits as f64,
    ));
    out.push((
        "stack.txpool.hit_ratio".into(),
        "ratio",
        ratio(c.pool_reuses, c.pool_reuses + c.pool_allocations),
    ));
    out.push((
        "stack.runtime.batched_lookup_ratio".into(),
        "ratio",
        ratio(t.batched_lookups, t.batched_lookups + t.relookups),
    ));

    // The noise floor of every wall-clock metric, from the untraced pass.
    let mut block_ns: Vec<f64> = untraced
        .samples
        .iter()
        .map(|s| s.busy_ns() as f64)
        .collect();
    out.push((
        "driver.block_ns_p10".into(),
        "ns",
        quantile(&mut block_ns, 0.10),
    ));
    out.push((
        "driver.block_ns_p99".into(),
        "ns",
        quantile(&mut block_ns, 0.99),
    ));
    out.push(("driver.blocks".into(), "count", block_ns.len() as f64));
    let per_op = |p: &Pass| p.busy_ns() as f64 / p.ops().max(1) as f64;
    out.push((
        "trace.overhead_pct".into(),
        "%",
        (per_op(traced) - per_op(untraced)) / per_op(untraced) * 100.0,
    ));
    *traced.workload().tracer() = tracer;
    out
}
