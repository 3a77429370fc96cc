//! One-way bulk transfer over a lossy link, driven entirely by the
//! windowed send path: the application enqueues with [`Stack::send`],
//! the wire only ever sees what [`Stack::poll_transmit`] emits under
//! `min(peer rwnd, cwnd)`, and every loss is recovered by the stack's
//! own machinery — fast retransmit on duplicate ACKs, RTO expiry inside
//! [`Stack::advance_time`] for lost tails, zero-window probes if the
//! receiver stalls. The driver never redelivers a frame.
//!
//! This is the end-to-end proof for the congestion-controlled transmit
//! engine, the send-side twin of [`crate::lossy`]: same discrete-event
//! loop (deliver everything in flight, then jump the clock to the
//! earliest timer deadline), but the traffic is a long packet train —
//! the §3.1 regime — instead of request/response ping-pong, so the
//! congestion window, not the application, paces the wire.

use std::collections::VecDeque;
use std::net::Ipv4Addr;
use tcpdemux_core::SequentDemux;
use tcpdemux_hash::Multiplicative;
use tcpdemux_stack::{FaultInjector, Stack, StackConfig, TxScratch, WindowConfig};
use tcpdemux_telemetry::Snapshot;

/// The server port the train flows toward.
pub const PORT: u16 = 9000;

/// Parameters of one bulk-transfer run.
#[derive(Clone)]
pub struct BulkTransferConfig {
    /// Total payload bytes the sender must deliver (default 1 MiB).
    pub bytes: usize,
    /// Probability each frame is dropped, per direction.
    pub drop_chance: f64,
    /// Probability each surviving frame has one bit flipped.
    pub corrupt_chance: f64,
    /// Probability each surviving frame is delivered twice.
    pub duplicate_chance: f64,
    /// Probability each surviving frame is held back and overtaken.
    pub reorder_chance: f64,
    /// The most frames that overtake a held one (0: no reordering).
    pub max_displacement: u32,
    /// RNG seed for both fault injectors (direction-mixed).
    pub seed: u64,
    /// Give-up horizon: the run fails if the clock passes this tick.
    pub max_ticks: u64,
    /// Per-connection retransmission budget.
    pub max_retries: u8,
    /// Window/congestion knobs applied to both stacks.
    pub window: WindowConfig,
}

impl Default for BulkTransferConfig {
    fn default() -> Self {
        Self {
            bytes: 1 << 20,
            drop_chance: 0.0,
            corrupt_chance: 0.0,
            duplicate_chance: 0.0,
            reorder_chance: 0.0,
            max_displacement: 0,
            seed: 0xB01D_FACE,
            max_ticks: 500_000_000,
            max_retries: 16,
            window: WindowConfig::default(),
        }
    }
}

impl std::fmt::Debug for BulkTransferConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BulkTransferConfig")
            .field("bytes", &self.bytes)
            .field("drop_chance", &self.drop_chance)
            .field("corrupt_chance", &self.corrupt_chance)
            .field("duplicate_chance", &self.duplicate_chance)
            .field("reorder_chance", &self.reorder_chance)
            .field("max_displacement", &self.max_displacement)
            .field("seed", &self.seed)
            .finish_non_exhaustive()
    }
}

/// What a bulk-transfer run did.
#[derive(Debug, Clone, Default)]
pub struct BulkTransferReport {
    /// Payload bytes delivered and byte-verified at the receiver.
    pub delivered: usize,
    /// Whether every delivered byte matched the sender's stream.
    pub verified: bool,
    /// Tick at which the run ended.
    pub ticks: u64,
    /// Data frames the sender's `poll_transmit` emitted.
    pub frames_sent: u64,
    /// RTO-driven retransmissions (sender side).
    pub retransmits: u64,
    /// Dup-ACK-driven fast retransmissions (sender side).
    pub fast_retransmits: u64,
    /// Zero-window probes the sender emitted.
    pub zero_window_probes: u64,
    /// Frames the links dropped.
    pub drops: u64,
    /// Frames the links corrupted (all must die at a checksum).
    pub corrupted: u64,
    /// Corrupted frames rejected by wire validation on receive.
    pub checksum_rejections: u64,
    /// Frames the links delivered twice.
    pub duplicated: u64,
    /// Frames the links held back to be overtaken.
    pub reordered: u64,
    /// The most bytes the receiver ever held behind a hole.
    pub max_rx_staged: usize,
    /// Whether either stack aborted its connection.
    pub aborted: bool,
    /// Sender cwnd (bytes) sampled after every ACK the sender processed
    /// — the AIMD sawtooth, in order.
    pub cwnd_trace: Vec<u32>,
}

impl BulkTransferReport {
    /// Delivered payload bytes per tick — the goodput metric the A9
    /// experiment sweeps against drop rate. Clean zero-latency runs
    /// finish at tick 0; they divide by one tick instead.
    pub fn goodput(&self) -> f64 {
        self.delivered as f64 / self.ticks.max(1) as f64
    }

    /// Largest cwnd the sender ever reached (bytes).
    pub fn cwnd_peak(&self) -> u32 {
        self.cwnd_trace.iter().copied().max().unwrap_or(0)
    }

    /// Number of multiplicative decreases visible in the trace (samples
    /// where cwnd fell to at most half the previous sample) — the
    /// "teeth" of the sawtooth.
    pub fn cwnd_collapses(&self) -> usize {
        self.cwnd_trace
            .windows(2)
            .filter(|w| w[1] <= w[0] / 2)
            .count()
    }
}

/// A [`run_bulk_transfer_with_telemetry`] result: the report plus both
/// stacks' telemetry snapshots.
#[derive(Debug, Clone)]
pub struct BulkTransferTelemetry {
    /// What the run did, as in [`run_bulk_transfer`].
    pub report: BulkTransferReport,
    /// The sending stack's telemetry at the end of the run.
    pub sender: Snapshot,
    /// The receiving stack's telemetry at the end of the run.
    pub receiver: Snapshot,
}

fn sequent() -> Box<SequentDemux<Multiplicative>> {
    Box::new(SequentDemux::new(Multiplicative, 19))
}

/// The sender's payload byte at stream offset `i` (cheap, deterministic,
/// position-dependent so misordered delivery cannot verify).
fn payload_byte(i: usize) -> u8 {
    (i as u32).wrapping_mul(2_654_435_761).rotate_left(7) as u8
}

/// Run one bulk transfer; see the module docs for the driver contract.
pub fn run_bulk_transfer(cfg: &BulkTransferConfig) -> BulkTransferReport {
    run_stacks(cfg).0
}

/// [`run_bulk_transfer`], additionally returning both stacks' telemetry
/// snapshots (the `CwndBytes` histogram, fast-retransmit and
/// zero-window-probe counters, the event trace).
pub fn run_bulk_transfer_with_telemetry(cfg: &BulkTransferConfig) -> BulkTransferTelemetry {
    let (report, sender, receiver) = run_stacks(cfg);
    BulkTransferTelemetry {
        report,
        sender: sender.stats().telemetry,
        receiver: receiver.stats().telemetry,
    }
}

fn run_stacks(cfg: &BulkTransferConfig) -> (BulkTransferReport, Stack, Stack) {
    let server_addr = Ipv4Addr::new(10, 3, 0, 1);
    let client_addr = Ipv4Addr::new(10, 3, 0, 2);
    let mut receiver = Stack::with_config(
        StackConfig::new(server_addr)
            .with_max_retries(cfg.max_retries)
            .with_window(cfg.window.clone())
            .with_demux(|| sequent()),
    );
    let mut sender = Stack::with_config(
        StackConfig::new(client_addr)
            .with_max_retries(cfg.max_retries)
            .with_window(cfg.window.clone())
            .with_demux(|| sequent()),
    );
    receiver.listen(PORT).expect("fresh stack");

    let link = |seed| {
        FaultInjector::new(cfg.drop_chance, cfg.corrupt_chance, seed)
            .with_duplication(cfg.duplicate_chance)
            .with_reordering(cfg.reorder_chance, cfg.max_displacement)
    };
    let mut c2s = link(cfg.seed | 1);
    let mut s2c = link(cfg.seed.rotate_left(21) | 1);
    let mut to_receiver: VecDeque<Vec<u8>> = VecDeque::new();
    let mut to_sender: VecDeque<Vec<u8>> = VecDeque::new();
    let mut report = BulkTransferReport::default();
    let mut scratch = TxScratch::new();
    let mut read_buf = vec![0u8; 16 * 1024];

    let (cp, syn) = sender.connect(server_addr, PORT).expect("connect");
    c2s.transmit_onto(&syn, &mut to_receiver);

    let mut sp = None;
    let mut enqueued = 0usize; // stream bytes accepted by the send buffer
    let mut verified = 0usize; // stream bytes read and checked at the far end
    let mut corrupt_delivered = false;
    let mut now: u64 = 0;

    loop {
        // Deliver everything in flight at this tick (zero-latency wire);
        // a frame a link holds back goes once nothing is left to pass it.
        loop {
            if to_receiver.is_empty() && to_sender.is_empty() {
                c2s.flush(&mut to_receiver);
                s2c.flush(&mut to_sender);
                if to_receiver.is_empty() && to_sender.is_empty() {
                    break;
                }
            }
            while let Some(frame) = to_receiver.pop_front() {
                match receiver.receive(&frame) {
                    Ok(result) => {
                        for reply in result.replies {
                            s2c.transmit_onto(&reply, &mut to_sender);
                        }
                    }
                    Err(_) => report.checksum_rejections += 1,
                }
                let staged = receiver
                    .connection_table()
                    .iter()
                    .map(|c| c.rx_staged)
                    .sum();
                report.max_rx_staged = report.max_rx_staged.max(staged);
            }
            if sp.is_none() {
                sp = receiver.accept(PORT);
            }
            // Receiver application: drain the socket through a reused
            // slice and byte-verify the stream position by position.
            if let Some(sp) = sp {
                loop {
                    let n = match receiver.socket_mut(sp) {
                        Some(socket) => socket.read_into(&mut read_buf),
                        None => 0,
                    };
                    if n == 0 {
                        break;
                    }
                    for &byte in &read_buf[..n] {
                        if byte != payload_byte(verified) {
                            corrupt_delivered = true;
                        }
                        verified += 1;
                    }
                }
            }
            while let Some(frame) = to_sender.pop_front() {
                match sender.receive(&frame) {
                    Ok(result) => {
                        for reply in result.replies {
                            c2s.transmit_onto(&reply, &mut to_receiver);
                        }
                        if let Some(cong) = sender.congestion(cp) {
                            report
                                .cwnd_trace
                                .push(u32::try_from(cong.cwnd).unwrap_or(u32::MAX));
                        }
                    }
                    Err(_) => report.checksum_rejections += 1,
                }
            }
            // Sender application: top up the send buffer, then put on
            // the wire whatever the window permits right now.
            if sender.is_established(cp) {
                while enqueued < cfg.bytes {
                    let end = cfg.bytes.min(enqueued + read_buf.len());
                    let chunk: Vec<u8> = (enqueued..end).map(payload_byte).collect();
                    let accepted = sender.send(cp, &chunk).unwrap_or(0);
                    enqueued += accepted;
                    if accepted < chunk.len() {
                        break; // buffer full; ACKs will free space
                    }
                }
                let emitted = sender.poll_transmit(&mut scratch);
                report.frames_sent += emitted as u64;
                for frame in scratch.frames.drain(..) {
                    c2s.transmit_onto(&frame, &mut to_receiver);
                }
            }
        }

        if verified >= cfg.bytes || report.aborted {
            break;
        }

        // Quiet wire: jump to the earliest timer deadline (RTO, persist
        // probe, or a delayed ACK the receiver still owes).
        let deadline = match (sender.next_timer_deadline(), receiver.next_timer_deadline()) {
            (Some(c), Some(s)) => c.min(s),
            (Some(c), None) => c,
            (None, Some(s)) => s,
            (None, None) => break,
        };
        now = deadline.max(now);
        if now > cfg.max_ticks {
            break;
        }
        for (stack, link, queue) in [
            (&mut sender, &mut c2s, &mut to_receiver),
            (&mut receiver, &mut s2c, &mut to_sender),
        ] {
            let advance = stack.advance_time(now);
            report.aborted |= !advance.aborted.is_empty();
            report.zero_window_probes += advance.zero_window_probes;
            for frame in advance.retransmits.into_iter().chain(advance.acks) {
                link.transmit_onto(&frame, queue);
            }
        }
    }

    report.ticks = now;
    report.drops = c2s.dropped() + s2c.dropped();
    report.corrupted = c2s.corrupted() + s2c.corrupted();
    report.duplicated = c2s.duplicated() + s2c.duplicated();
    report.reordered = c2s.reordered() + s2c.reordered();
    report.delivered = verified;
    report.verified = !corrupt_delivered && verified >= cfg.bytes;
    report.retransmits = sender.stats().stack.retransmits;
    report.fast_retransmits = sender
        .stats()
        .telemetry
        .counter(tcpdemux_telemetry::CounterId::FastRetransmits);
    (report, sender, receiver)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_link_moves_a_megabyte_without_retransmission() {
        let report = run_bulk_transfer(&BulkTransferConfig::default());
        assert_eq!(report.delivered, 1 << 20, "{report:?}");
        assert!(report.verified, "byte verification failed");
        assert_eq!(report.retransmits + report.fast_retransmits, 0);
        assert!(!report.aborted);
        // Slow start must have opened the window well past its start.
        assert!(
            report.cwnd_peak() > 4 * 1460,
            "cwnd never grew: peak {}",
            report.cwnd_peak()
        );
        // The window, not the app, paces the wire: far fewer frames than
        // bytes/MSS would need if every segment were a full MSS is a
        // sanity bound, not the point — the point is completion with
        // zero retransmission and zero clock movement.
        assert_eq!(report.ticks, 0, "zero-latency clean link never idles");
    }

    #[test]
    fn megabyte_survives_25pct_drop_with_no_driver_redelivery() {
        let report = run_bulk_transfer(&BulkTransferConfig {
            drop_chance: 0.25,
            seed: 11,
            ..BulkTransferConfig::default()
        });
        assert_eq!(report.delivered, 1 << 20, "{report:?}");
        assert!(report.verified, "byte verification failed");
        assert!(!report.aborted, "{report:?}");
        assert!(report.drops > 0, "the link did drop frames");
        assert!(
            report.fast_retransmits > 0,
            "dup-ACK recovery must have fired: {report:?}"
        );
        assert!(
            report.retransmits > 0,
            "some losses need the RTO: {report:?}"
        );
    }

    #[test]
    fn lossy_run_shows_the_aimd_sawtooth() {
        let out = run_bulk_transfer_with_telemetry(&BulkTransferConfig {
            drop_chance: 0.10,
            seed: 3,
            ..BulkTransferConfig::default()
        });
        let report = &out.report;
        assert_eq!(report.delivered, 1 << 20, "{report:?}");
        // The sawtooth: the window grew, collapsed on loss, and grew
        // again — visible both in the sampled trace and in the
        // CwndBytes histogram the stack records.
        assert!(report.cwnd_peak() > 4 * 1460);
        assert!(
            report.cwnd_collapses() > 0,
            "no multiplicative decrease in {} samples",
            report.cwnd_trace.len()
        );
        let hist = out
            .sender
            .histogram(tcpdemux_telemetry::HistogramId::CwndBytes);
        assert!(!hist.is_empty(), "stack must observe cwnd over time");
    }

    /// The recovery machinery must hold under many fault-stream seeds,
    /// not one lucky one. `TCPDEMUX_SEEDS` widens the sweep in CI
    /// (scripts/verify.sh runs it at 8) across the A9 drop rates.
    #[test]
    fn bulk_transfer_recovers_across_seeds() {
        for seed in 1..=u64::from(tcpdemux_testprop::sweep_seeds(2)) {
            for drop in [0.0, 0.10, 0.25] {
                let report = run_bulk_transfer(&BulkTransferConfig {
                    bytes: 256 << 10,
                    drop_chance: drop,
                    seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    ..BulkTransferConfig::default()
                });
                assert_eq!(
                    report.delivered,
                    256 << 10,
                    "seed {seed} drop {drop}: {report:?}"
                );
                assert!(report.verified, "seed {seed} drop {drop}: {report:?}");
                assert!(!report.aborted, "seed {seed} drop {drop}: {report:?}");
            }
        }
    }

    #[test]
    fn goodput_degrades_gracefully_with_drop_rate() {
        let mut last = f64::INFINITY;
        for drop in [0.0, 0.10, 0.25] {
            let report = run_bulk_transfer(&BulkTransferConfig {
                bytes: 256 << 10,
                drop_chance: drop,
                seed: 5,
                ..BulkTransferConfig::default()
            });
            assert_eq!(report.delivered, 256 << 10, "drop {drop}: {report:?}");
            let goodput = report.goodput();
            assert!(
                goodput <= last,
                "goodput must not improve with loss: {goodput} after {last}"
            );
            last = goodput;
        }
    }
}
