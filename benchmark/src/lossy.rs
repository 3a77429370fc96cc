//! `lossy_bulk`: the one workload where loss recovery does the work.
//! 1 MiB one way between two fresh stacks over a link the benchmark
//! owns: fixed one-way delay, independent drops in each direction drawn
//! from the benchmark's RNG, no redelivery by the driver. One transfer
//! is one block. Time on the link is virtual (stack ticks), so ticks per
//! transfer and segments per transfer depend only on the seed; the busy
//! time of the two stacks is measured as everywhere else.

use crate::alloc;
use crate::farm::pattern_fill;
use crate::rng::{splitmix, Rng};
use crate::server::{Clock, Handle, Phase, Plain, Server, Sink, Tally, MSS, PORT, SERVER_ADDR};
use crate::trace::Tracer;
use crate::workloads::{BlockOut, Counts, Workload};
use std::collections::VecDeque;
use std::net::Ipv4Addr;

const SENDER_ADDR: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 1);
pub const TRANSFER: usize = 1 << 20;
const DELAY_TICKS: u64 = 10;
/// Chance a frame is lost, each direction, per mille.
const DROP_PER_MILLE: u64 = 30;
/// A transfer that has not finished by then has stalled.
const MAX_TICKS: u64 = 50_000_000;
const CHUNK: usize = 16 * 1024;

struct InFlight {
    due: u64,
    to_receiver: bool,
    frame: Vec<u8>,
}

pub struct Lossy {
    seeds: u64,
    source: Vec<u8>,
    tracer: Tracer,
    tally: Tally,
    counts: Counts,
    transfers: u64,
    failed: u64,
}

impl Lossy {
    pub fn new(seed: u64, warm_blocks: u64, tracer: Tracer, clock: &mut Clock) -> Self {
        let mut source = vec![0; TRANSFER];
        pattern_fill(0, 0, &mut source);
        let mut this = Self {
            seeds: seed,
            source,
            tracer,
            tally: Tally::default(),
            counts: Counts::default(),
            transfers: 0,
            failed: 0,
        };
        for _ in 0..warm_blocks {
            this.block(clock);
        }
        this
    }
}

/// Put `frames` on the link, dropping each with the configured chance;
/// dropped buffers go straight back to `spent` for their stack's pool.
/// Returns how many of them carried payload.
fn transmit(
    frames: &mut Vec<(u16, Vec<u8>)>,
    to_receiver: bool,
    now: u64,
    rng: &mut Rng,
    link: &mut VecDeque<InFlight>,
    spent: &mut Vec<(u16, Vec<u8>)>,
) -> u64 {
    let mut data = 0;
    for (shard, frame) in frames.drain(..) {
        // 20 B IPv4 + 20 B TCP (+ 4 B MSS option on a SYN).
        data += u64::from(frame.len() > 44);
        if rng.chance(DROP_PER_MILLE) {
            spent.push((shard, frame));
        } else {
            link.push_back(InFlight {
                due: now + DELAY_TICKS,
                to_receiver,
                frame,
            });
        }
    }
    data
}

impl Workload for Lossy {
    fn block(&mut self, clock: &mut Clock) -> BlockOut {
        let mut rng = Rng::new(splitmix(&mut self.seeds));
        let mut a = Plain::at(SENDER_ADDR, self.tracer.child());
        let mut b = Plain::new(self.tracer.child());
        let first_op = self.transfers * TRANSFER.div_ceil(MSS) as u64;
        a.tracer().begin_block(first_op);
        b.tracer().begin_block(first_op);
        let heap_before = alloc::net_bytes();

        let mut link: VecDeque<InFlight> = VecDeque::new();
        let (mut to_a, mut to_b) = (Vec::new(), Vec::new());
        let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
        let (mut spent_a, mut spent_b) = (Vec::new(), Vec::new());
        let (mut sink_a, mut sink_b) = (Sink::new(), Sink::new());
        let (mut sent, mut read, mut now) = (0usize, 0usize, 0u64);
        let mut segments_sent = 0;
        let mut intact = true;
        let mut aborted = 0;
        let mut accepted = false;

        clock.start(Phase::Tx);
        let (apcb, syn) = a
            .stack
            .connect(SERVER_ADDR, PORT)
            .expect("fresh stack has a free port");
        clock.stop();
        let sender = Handle {
            shard: 0,
            pcb: apcb,
        };
        out_a.push((0, syn));

        loop {
            segments_sent += transmit(&mut out_a, true, now, &mut rng, &mut link, &mut spent_a);
            transmit(&mut out_b, false, now, &mut rng, &mut link, &mut spent_b);
            if read == TRANSFER || aborted > 0 || now > MAX_TICKS {
                break;
            }

            // Jump to the next thing that happens: an arrival or a timer.
            let next = [
                link.front().map(|f| f.due),
                a.stack.next_timer_deadline(),
                b.stack.next_timer_deadline(),
            ]
            .into_iter()
            .flatten()
            .min();
            let Some(next) = next else { break };
            now = now.max(next);
            while link.front().is_some_and(|f| f.due <= now) {
                let arrived = link.pop_front().expect("front was checked");
                if arrived.to_receiver {
                    to_b.push(arrived.frame);
                } else {
                    to_a.push(arrived.frame);
                }
            }

            // The receiver: timers, arrivals, and the application reading.
            sink_b.clear();
            clock.start(Phase::Rx);
            b.recycle(&mut spent_b);
            aborted += b.tick(now, &mut out_b);
            b.ingest(&mut to_b, &mut sink_b);
            if !accepted {
                accepted = b.accept(0).is_some();
            }
            clock.stop();
            spent_a.extend(to_b.drain(..).map(|f| (0, f)));
            out_b.append(&mut sink_b.replies);
            intact &= sink_b.bytes[..sink_b.filled]
                == self.source[read..TRANSFER.min(read + sink_b.filled)];
            read += sink_b.filled;

            // The sender: timers, ACKs, topping up the send buffer, and
            // whatever the window now permits.
            sink_a.clear();
            clock.start(Phase::Tx);
            a.recycle(&mut spent_a);
            aborted += a.tick(now, &mut out_a);
            a.ingest(&mut to_a, &mut sink_a);
            if a.stack.is_established(apcb) {
                while sent < TRANSFER {
                    let chunk = &self.source[sent..TRANSFER.min(sent + CHUNK)];
                    let accepted = a.send(sender, chunk, 0);
                    sent += accepted;
                    if accepted < chunk.len() {
                        break;
                    }
                }
                a.flush(&mut out_a);
            }
            clock.stop();
            spent_b.extend(to_a.drain(..).map(|f| (0, f)));
            out_a.append(&mut sink_a.replies);
        }

        let heap_bytes = alloc::net_bytes() - heap_before;
        a.tracer().end_block();
        b.tracer().end_block();
        if read != TRANSFER || !intact || aborted > 0 {
            self.failed += 1;
        }
        self.transfers += 1;
        for stack in [&mut a, &mut b] {
            self.tally = self.tally.plus(*stack.tally());
            self.counts = self.counts.plus(Counts::of(&stack.stats()));
            self.tracer.absorb(std::mem::take(stack.tracer()));
        }
        BlockOut {
            ops: TRANSFER.div_ceil(MSS) as u64,
            rx_bytes: read as u64,
            tx_bytes: read as u64,
            segments_sent,
            segments_needed: TRANSFER.div_ceil(MSS) as u64,
            ticks: now.max(1),
            heap_bytes,
        }
    }

    fn tally(&mut self) -> Tally {
        self.tally
    }

    fn counts(&self) -> Counts {
        self.counts
    }

    fn tracer(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    fn failed(&self) -> u64 {
        self.failed
    }

    fn violations(&mut self, measured: Counts) -> Vec<String> {
        if measured.timeout_aborts > 0 {
            vec![format!("{} connections timed out", measured.timeout_aborts)]
        } else {
            Vec::new()
        }
    }

    fn connections(&self) -> usize {
        2
    }

    fn standing_heap(&self) -> Option<i64> {
        None
    }
}
