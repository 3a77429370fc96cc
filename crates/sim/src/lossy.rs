//! A lossy-link scenario: two real [`Stack`]s exchanging request/response
//! traffic over [`FaultInjector`] links, recovering from drops and
//! corruption purely through the stacks' own timer-driven retransmission.
//!
//! This is the end-to-end proof for the loss-recovery machinery: no
//! test-side redelivery, no oracle — every lost or mangled frame must be
//! recovered by an RTO expiry inside [`Stack::advance_time`], and the
//! driver only plays the role of the wire and of two tiny applications
//! (a client issuing fixed-size requests, a server answering each one).
//!
//! The driver is a discrete-event loop: deliver whatever is in flight at
//! the current tick (in-memory links have zero latency), and when both
//! directions go quiet, jump the clock straight to the earliest
//! retransmission deadline ([`Stack::next_timer_deadline`]) — the idiom
//! the timing-wheel literature calls "event-driven time advance".

use std::collections::VecDeque;
use std::net::Ipv4Addr;
use tcpdemux_core::SequentDemux;
use tcpdemux_hash::Multiplicative;
use tcpdemux_stack::{FaultInjector, FaultOutcome, Stack, StackConfig, TxScratch};
use tcpdemux_telemetry::Snapshot;

/// Fixed request/response size: big enough to be real payload, small
/// enough that one exchange is one segment each way.
pub const MESSAGE_LEN: usize = 32;

/// The server port (the paper's TPC/A examples use the Oracle listener).
pub const PORT: u16 = 1521;

/// Parameters of one lossy-link run.
#[derive(Debug, Clone, Copy)]
pub struct LossyLinkConfig {
    /// Probability each frame is dropped, per direction.
    pub drop_chance: f64,
    /// Probability each surviving frame has one bit flipped.
    pub corrupt_chance: f64,
    /// Request/response exchanges the client must complete.
    pub exchanges: u32,
    /// RNG seed for both fault injectors (direction-mixed).
    pub seed: u64,
    /// Give-up horizon: the run fails if the clock passes this tick.
    pub max_ticks: u64,
    /// Per-connection retransmission budget (see
    /// [`StackConfig::max_retries`]).
    pub max_retries: u8,
}

impl Default for LossyLinkConfig {
    fn default() -> Self {
        Self {
            drop_chance: 0.2,
            corrupt_chance: 0.05,
            exchanges: 100,
            seed: 0xC0FF_EE00,
            max_ticks: 10_000_000,
            max_retries: 12,
        }
    }
}

/// What a lossy-link run did.
#[derive(Debug, Clone, Copy, Default)]
pub struct LossyLinkReport {
    /// Exchanges the client completed (each `MESSAGE_LEN` bytes each way).
    pub completed: u32,
    /// Tick at which the run ended.
    pub ticks: u64,
    /// Segments the client retransmitted.
    pub client_retransmits: u64,
    /// Segments the server retransmitted.
    pub server_retransmits: u64,
    /// Frames the links dropped.
    pub drops: u64,
    /// Frames the links corrupted (all must die at a checksum).
    pub corrupted: u64,
    /// Corrupted frames rejected by wire validation on receive.
    pub checksum_rejections: u64,
    /// Whether either stack aborted its connection (retry budget spent).
    pub aborted: bool,
}

impl LossyLinkReport {
    /// Application payload bytes per tick actually delivered end to end
    /// (both directions), the experiment's goodput metric.
    pub fn goodput(&self) -> f64 {
        if self.ticks == 0 {
            return 0.0;
        }
        (self.completed as f64 * 2.0 * MESSAGE_LEN as f64) / self.ticks as f64
    }
}

fn sequent() -> Box<SequentDemux<Multiplicative>> {
    Box::new(SequentDemux::new(Multiplicative, 19))
}

/// Push one frame through a fault injector onto a delivery queue.
fn transmit(
    link: &mut FaultInjector,
    frame: Vec<u8>,
    queue: &mut VecDeque<Vec<u8>>,
    report: &mut LossyLinkReport,
) {
    match link.transmit(&frame) {
        FaultOutcome::Passed(f) => queue.push_back(f),
        FaultOutcome::Corrupted(f) => {
            report.corrupted += 1;
            queue.push_back(f);
        }
        FaultOutcome::Dropped => report.drops += 1,
    }
}

/// A [`run_lossy_link_with_telemetry`] result: the scenario report plus
/// each stack's full telemetry snapshot (counters, histograms, event
/// trace), captured at the end of the run.
#[derive(Debug, Clone)]
pub struct LossyLinkTelemetry {
    /// What the run did, as in [`run_lossy_link`].
    pub report: LossyLinkReport,
    /// The client stack's telemetry at the end of the run.
    pub client: Snapshot,
    /// The server stack's telemetry at the end of the run.
    pub server: Snapshot,
}

impl LossyLinkTelemetry {
    /// The run as deterministic JSON lines: a `run` header, then each
    /// side's full snapshot under a `side` header. Same config + same
    /// seed produce byte-identical output (see the telemetry crate's
    /// determinism notes), which is what the golden-file check in
    /// `verify.sh` diffs against.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"type\":\"run\",\"scenario\":\"lossy_link\",\"completed\":{},\"ticks\":{},\"client_retransmits\":{},\"server_retransmits\":{},\"drops\":{},\"corrupted\":{},\"checksum_rejections\":{},\"aborted\":{}}}\n",
            self.report.completed,
            self.report.ticks,
            self.report.client_retransmits,
            self.report.server_retransmits,
            self.report.drops,
            self.report.corrupted,
            self.report.checksum_rejections,
            self.report.aborted,
        ));
        for (name, snapshot) in [("client", &self.client), ("server", &self.server)] {
            out.push_str(&format!("{{\"type\":\"side\",\"name\":\"{name}\"}}\n"));
            out.push_str(&snapshot.to_json_lines());
        }
        out
    }
}

/// Run request/response exchanges between two stacks over lossy links
/// until `cfg.exchanges` complete, a connection aborts, or the clock
/// passes `cfg.max_ticks`.
pub fn run_lossy_link(cfg: &LossyLinkConfig) -> LossyLinkReport {
    run_stacks(cfg).0
}

/// [`run_lossy_link`], additionally returning both stacks' telemetry
/// snapshots — the full structured record of what loss recovery did.
pub fn run_lossy_link_with_telemetry(cfg: &LossyLinkConfig) -> LossyLinkTelemetry {
    let (report, client, server) = run_stacks(cfg);
    LossyLinkTelemetry {
        report,
        client: client.stats().telemetry,
        server: server.stats().telemetry,
    }
}

/// The driver loop; returns the report and both stacks for inspection.
fn run_stacks(cfg: &LossyLinkConfig) -> (LossyLinkReport, Stack, Stack) {
    let server_addr = Ipv4Addr::new(10, 0, 0, 1);
    let client_addr = Ipv4Addr::new(10, 0, 5, 5);
    let mut server = Stack::with_config(
        StackConfig::new(server_addr)
            .with_max_retries(cfg.max_retries)
            .with_demux(|| sequent()),
    );
    let mut client = Stack::with_config(
        StackConfig::new(client_addr)
            .with_max_retries(cfg.max_retries)
            .with_demux(|| sequent()),
    );
    server.listen(PORT).expect("fresh stack");

    // Independent deterministic fault streams per direction.
    let mut c2s = FaultInjector::new(cfg.drop_chance, cfg.corrupt_chance, cfg.seed | 1);
    let mut s2c = FaultInjector::new(
        cfg.drop_chance,
        cfg.corrupt_chance,
        cfg.seed.rotate_left(17) | 1,
    );
    let mut to_server: VecDeque<Vec<u8>> = VecDeque::new();
    let mut to_client: VecDeque<Vec<u8>> = VecDeque::new();
    let mut report = LossyLinkReport::default();
    let mut scratch = TxScratch::new();

    let (cp, syn) = client.connect(server_addr, PORT).expect("connect");
    transmit(&mut c2s, syn, &mut to_server, &mut report);

    let mut sp = None;
    let mut requests_sent: u32 = 0;
    let mut response_bytes: u64 = 0;
    let mut now: u64 = 0;

    loop {
        // Deliver everything in flight at this tick; zero-latency links
        // mean replies (and app sends they trigger) go out immediately.
        while !to_server.is_empty() || !to_client.is_empty() {
            while let Some(frame) = to_server.pop_front() {
                match server.receive(&frame) {
                    Ok(result) => {
                        for reply in result.replies {
                            transmit(&mut s2c, reply, &mut to_client, &mut report);
                        }
                    }
                    Err(_) => report.checksum_rejections += 1,
                }
            }
            if sp.is_none() {
                sp = server.accept(PORT);
            }
            // Server application: answer every complete request.
            if let Some(sp) = sp {
                while server
                    .socket(sp)
                    .is_some_and(|s| s.available() >= MESSAGE_LEN)
                {
                    let request = server
                        .socket_mut(sp)
                        .expect("live socket")
                        .read(MESSAGE_LEN);
                    let mut response = request;
                    for byte in response.iter_mut() {
                        *byte = byte.wrapping_add(1);
                    }
                    if server.send(sp, &response).is_ok() {
                        server.poll_transmit(&mut scratch);
                        for frame in scratch.frames.drain(..) {
                            transmit(&mut s2c, frame, &mut to_client, &mut report);
                        }
                    }
                }
            }
            while let Some(frame) = to_client.pop_front() {
                match client.receive(&frame) {
                    Ok(result) => {
                        for reply in result.replies {
                            transmit(&mut c2s, reply, &mut to_server, &mut report);
                        }
                    }
                    Err(_) => report.checksum_rejections += 1,
                }
            }
            // Client application: issue the next request once connected
            // and once the previous response has fully arrived.
            response_bytes += client
                .socket_mut(cp)
                .map(|s| s.read_all().len() as u64)
                .unwrap_or(0);
            report.completed = (response_bytes / MESSAGE_LEN as u64) as u32;
            let want_next = client.is_established(cp)
                && requests_sent < cfg.exchanges
                && requests_sent == report.completed;
            if want_next {
                let body = vec![b'a' + (requests_sent % 26) as u8; MESSAGE_LEN];
                if client.send(cp, &body).is_ok() {
                    requests_sent += 1;
                    client.poll_transmit(&mut scratch);
                    for frame in scratch.frames.drain(..) {
                        transmit(&mut c2s, frame, &mut to_server, &mut report);
                    }
                }
            }
        }

        if report.completed >= cfg.exchanges || report.aborted {
            break;
        }

        // Quiet wire: jump to the earliest retransmission deadline.
        let deadline = match (client.next_timer_deadline(), server.next_timer_deadline()) {
            (Some(c), Some(s)) => c.min(s),
            (Some(c), None) => c,
            (None, Some(s)) => s,
            // Nothing in flight and nothing armed: the run cannot make
            // progress (only reachable if both sides gave up).
            (None, None) => break,
        };
        now = deadline.max(now);
        if now > cfg.max_ticks {
            break;
        }
        for (stack, link, queue) in [
            (&mut client, &mut c2s, &mut to_server),
            (&mut server, &mut s2c, &mut to_client),
        ] {
            let advance = stack.advance_time(now);
            report.aborted |= !advance.aborted.is_empty();
            for frame in advance.retransmits {
                transmit(link, frame, queue, &mut report);
            }
        }
    }

    report.ticks = now;
    report.client_retransmits = client.stats().stack.retransmits;
    report.server_retransmits = server.stats().stack.retransmits;
    (report, client, server)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_link_completes_without_retransmission() {
        let report = run_lossy_link(&LossyLinkConfig {
            drop_chance: 0.0,
            corrupt_chance: 0.0,
            exchanges: 25,
            ..LossyLinkConfig::default()
        });
        assert_eq!(report.completed, 25);
        assert_eq!(report.client_retransmits + report.server_retransmits, 0);
        assert_eq!(report.drops, 0);
        assert!(!report.aborted);
        assert_eq!(report.ticks, 0, "zero-latency links never idle");
    }

    #[test]
    fn lossy_link_converges_through_retransmission() {
        let report = run_lossy_link(&LossyLinkConfig {
            drop_chance: 0.25,
            corrupt_chance: 0.05,
            exchanges: 40,
            seed: 7,
            ..LossyLinkConfig::default()
        });
        assert_eq!(report.completed, 40, "{report:?}");
        assert!(!report.aborted, "{report:?}");
        assert!(report.drops > 0, "the link did drop frames: {report:?}");
        assert!(
            report.client_retransmits + report.server_retransmits > 0,
            "recovery must have used retransmission: {report:?}"
        );
        assert_eq!(
            report.corrupted, report.checksum_rejections,
            "every corrupted frame died at a checksum: {report:?}"
        );
    }

    #[test]
    fn telemetry_snapshot_agrees_with_report() {
        use tcpdemux_telemetry::{CounterId, HistogramId};

        let out = run_lossy_link_with_telemetry(&LossyLinkConfig {
            drop_chance: 0.25,
            corrupt_chance: 0.05,
            exchanges: 40,
            seed: 7,
            ..LossyLinkConfig::default()
        });
        assert_eq!(out.report.completed, 40, "{:?}", out.report);
        assert_eq!(
            out.client.counter(CounterId::Retransmits),
            out.report.client_retransmits
        );
        assert_eq!(
            out.server.counter(CounterId::Retransmits),
            out.report.server_retransmits
        );
        // Loss recovery exercised the backoff path, so both the examined
        // and the RTO histograms carry data.
        assert!(!out.client.histogram(HistogramId::Examined).is_empty());
        assert!(!out.client.histogram(HistogramId::RtoTicks).is_empty());
        // Both sides opened exactly one connection.
        assert_eq!(out.client.counter(CounterId::ConnOpened), 1);
        assert_eq!(out.server.counter(CounterId::ConnOpened), 1);
    }

    #[test]
    fn hopeless_link_aborts_instead_of_spinning_forever() {
        let report = run_lossy_link(&LossyLinkConfig {
            drop_chance: 1.0,
            corrupt_chance: 0.0,
            exchanges: 1,
            max_retries: 3,
            ..LossyLinkConfig::default()
        });
        assert_eq!(report.completed, 0);
        assert!(report.aborted, "{report:?}");
    }
}
