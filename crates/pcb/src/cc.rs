//! Congestion control: NewReno (RFC 5681 / 6582).
//!
//! Per-connection state ([`CongestionState`]) lives in the PCB next to
//! the sequence spaces it is consulted with, and the algorithm is its
//! methods. The stack reports ACK-clock events (advancing ACK, duplicate
//! ACK, RTO expiry) and acts on the returned [`CcAction`]; nothing here
//! touches frames.

use crate::seq::SeqNum;

/// Per-connection congestion-control variables (RFC 5681 / 6582).
///
/// `Copy` and flat on purpose: this is hot-path state consulted on
/// every ACK, stored inline in the [`Pcb`](crate::Pcb).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CongestionState {
    /// Congestion window in bytes.
    pub cwnd: usize,
    /// Slow-start threshold in bytes; above it growth is additive.
    pub ssthresh: usize,
    /// Consecutive duplicate ACKs observed at the current SND.UNA.
    pub dup_acks: u32,
    /// Whether fast recovery is in progress.
    pub in_recovery: bool,
    /// The `recover` mark: SND.NXT when fast retransmit fired. ACKs
    /// below it are partial; at or above it, recovery completes.
    pub recover: SeqNum,
}

impl CongestionState {
    /// Fresh state for a new connection: `cwnd` starts at
    /// `initial_cwnd` and `ssthresh` effectively unbounded, so the
    /// connection opens in slow start (RFC 5681 §3.1).
    pub fn new(initial_cwnd: usize) -> Self {
        Self {
            cwnd: initial_cwnd,
            ssthresh: usize::MAX / 2,
            dup_acks: 0,
            in_recovery: false,
            recover: SeqNum(0),
        }
    }
}

impl Default for CongestionState {
    fn default() -> Self {
        // 4 × the RFC 1122 default MSS; the stack re-seeds from its
        // configured `WindowConfig` when it opens a connection.
        Self::new(4 * 536)
    }
}

/// What the stack must do after reporting an event to the algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcAction {
    /// Nothing beyond normal transmission (the window may have moved).
    None,
    /// Re-emit the oldest unacknowledged segment now (fast retransmit,
    /// or NewReno's per-partial-ACK head re-emission).
    RetransmitHead,
}

impl CongestionState {
    /// A cumulative ACK advanced SND.UNA by `acked` bytes to `ack`.
    ///
    /// A *partial* ACK during fast recovery — one that advances SND.UNA
    /// without reaching the `recover` mark — keeps recovery open and
    /// asks for the new head at once (RFC 6582), repairing multiple
    /// losses in one window without waiting for an RTO.
    pub fn on_ack(&mut self, acked: usize, ack: SeqNum, mss: usize) -> CcAction {
        self.dup_acks = 0;
        if self.in_recovery {
            if self.recover.le(ack) {
                // Full ACK: recovery repaired the whole window.
                self.cwnd = self.ssthresh;
                self.in_recovery = false;
                return CcAction::None;
            }
            // Partial ACK: deflate by the data the ACK covered, add
            // back one MSS, and retransmit the next hole's head.
            self.cwnd = self.cwnd.saturating_sub(acked).max(mss) + mss;
            return CcAction::RetransmitHead;
        }
        self.grow(acked, mss);
        CcAction::None
    }

    /// A duplicate ACK arrived (same SND.UNA, no payload, no window
    /// update) with `inflight` bytes outstanding and SND.NXT at
    /// `snd_nxt`: count to three, then halve and enter fast recovery,
    /// re-emitting the presumed-lost head; further duplicates inflate
    /// `cwnd` by one MSS each (they signal a departed segment).
    pub fn on_dup_ack(&mut self, inflight: usize, snd_nxt: SeqNum, mss: usize) -> CcAction {
        if self.in_recovery {
            self.cwnd += mss;
            return CcAction::None;
        }
        self.dup_acks += 1;
        if self.dup_acks < 3 {
            return CcAction::None;
        }
        self.ssthresh = (inflight / 2).max(2 * mss);
        self.cwnd = self.ssthresh + 3 * mss;
        self.in_recovery = true;
        self.recover = snd_nxt;
        CcAction::RetransmitHead
    }

    /// The retransmission timer expired with `inflight` bytes
    /// outstanding: collapse to one MSS and restart slow start toward
    /// half the data that was in flight (RFC 5681 §3.1 eq. 4). The
    /// receiver kept what arrived behind the lost head, so the ACK the
    /// re-emitted head provokes covers it and nothing else is resent.
    pub fn on_rto(&mut self, inflight: usize, mss: usize) {
        self.ssthresh = (inflight / 2).max(2 * mss);
        self.cwnd = mss;
        self.in_recovery = false;
        self.dup_acks = 0;
    }

    /// Slow start below `ssthresh` (exponential per RTT), additive
    /// increase above it (~one MSS per cwnd of acknowledged data) —
    /// RFC 5681 §3.1.
    fn grow(&mut self, acked: usize, mss: usize) {
        if self.cwnd < self.ssthresh {
            self.cwnd += acked.min(mss);
        } else {
            self.cwnd += (mss * mss / self.cwnd.max(1)).max(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: usize = 1000;

    fn fresh() -> CongestionState {
        CongestionState::new(2 * MSS)
    }

    #[test]
    fn slow_start_grows_exponentially_per_window() {
        let mut st = fresh();
        // Acknowledge one full window: cwnd roughly doubles.
        st.on_ack(MSS, SeqNum(1000), MSS);
        st.on_ack(MSS, SeqNum(2000), MSS);
        assert_eq!(st.cwnd, 4 * MSS);
    }

    #[test]
    fn congestion_avoidance_is_additive() {
        let mut st = fresh();
        st.cwnd = 10 * MSS;
        st.ssthresh = st.cwnd; // already at threshold: AIMD from here
        let before = st.cwnd;
        // One full window of ACKs grows cwnd by ~one MSS total (a bit
        // less, since cwnd inches up while the window drains).
        let mut acked = 0;
        let mut seq = 0u32;
        while acked < before {
            seq += MSS as u32;
            st.on_ack(MSS, SeqNum(seq), MSS);
            acked += MSS;
        }
        assert!(
            st.cwnd > before + MSS / 2 && st.cwnd <= before + MSS,
            "additive growth off: {} -> {}",
            before,
            st.cwnd
        );
    }

    #[test]
    fn third_dup_ack_halves_and_requests_head_retransmit() {
        let mut st = fresh();
        st.cwnd = 10 * MSS;
        st.ssthresh = st.cwnd;
        let inflight = 10 * MSS;
        assert_eq!(st.on_dup_ack(inflight, SeqNum(10_000), MSS), CcAction::None);
        assert_eq!(st.on_dup_ack(inflight, SeqNum(10_000), MSS), CcAction::None);
        assert_eq!(
            st.on_dup_ack(inflight, SeqNum(10_000), MSS),
            CcAction::RetransmitHead
        );
        assert!(st.in_recovery);
        assert_eq!(st.ssthresh, 5 * MSS);
        assert_eq!(st.cwnd, 5 * MSS + 3 * MSS, "halved plus three inflations");
        assert_eq!(st.recover, SeqNum(10_000));
        // A fourth duplicate inflates rather than recounting.
        st.on_dup_ack(inflight, SeqNum(10_000), MSS);
        assert_eq!(st.cwnd, 9 * MSS);
    }

    #[test]
    fn newreno_partial_ack_retransmits_and_stays_in_recovery() {
        let mut st = fresh();
        st.cwnd = 10 * MSS;
        st.ssthresh = st.cwnd;
        for _ in 0..3 {
            st.on_dup_ack(10 * MSS, SeqNum(10_000), MSS);
        }
        assert!(st.in_recovery);
        // Partial ACK: stay in recovery, re-emit the new head.
        assert_eq!(st.on_ack(MSS, SeqNum(3_000), MSS), CcAction::RetransmitHead);
        assert!(st.in_recovery);
        // Full ACK at the recover mark: done.
        assert_eq!(st.on_ack(7 * MSS, SeqNum(10_000), MSS), CcAction::None);
        assert!(!st.in_recovery);
        assert_eq!(st.cwnd, st.ssthresh);
    }

    #[test]
    fn rto_collapses_to_one_mss_and_the_next_ack_is_plain_slow_start() {
        let mut st = fresh();
        st.cwnd = 8 * MSS;
        st.in_recovery = true;
        st.dup_acks = 2;
        st.on_rto(8 * MSS, MSS);
        assert_eq!(st.cwnd, MSS);
        assert_eq!(st.ssthresh, 4 * MSS);
        assert!(!st.in_recovery);
        assert_eq!(st.dup_acks, 0);
        // The head's ACK: the window regrows and nothing is re-emitted,
        // however far short of the data outstanding at expiry it falls.
        assert_eq!(st.on_ack(MSS, SeqNum(1_000), MSS), CcAction::None);
        assert_eq!(st.cwnd, 2 * MSS);
        assert_eq!(st.on_ack(5 * MSS, SeqNum(6_000), MSS), CcAction::None);
        assert_eq!(st.cwnd, 3 * MSS, "one MSS per ACK, whatever it covers");
    }

    #[test]
    fn ssthresh_floor_is_two_mss() {
        let mut st = fresh();
        st.on_rto(MSS, MSS);
        assert_eq!(st.ssthresh, 2 * MSS);
    }
}
