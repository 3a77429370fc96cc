//! The protocol control block itself.

use crate::key::ConnectionKey;
use crate::seq::SeqNum;
use crate::state::{InvalidTransition, TcpEvent, TcpState};
use core::fmt;

/// Send-side sequence bookkeeping (RFC 793 "send sequence space").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SendSequenceSpace {
    /// SND.UNA — oldest unacknowledged sequence number.
    pub una: SeqNum,
    /// SND.NXT — next sequence number to send.
    pub nxt: SeqNum,
    /// SND.WND — send window granted by the peer.
    pub wnd: u16,
    /// ISS — initial send sequence number.
    pub iss: SeqNum,
}

/// Receive-side sequence bookkeeping (RFC 793 "receive sequence space").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecvSequenceSpace {
    /// RCV.NXT — next sequence number expected.
    pub nxt: SeqNum,
    /// RCV.WND — window we advertise.
    pub wnd: u16,
    /// IRS — initial receive sequence number.
    pub irs: SeqNum,
}

/// A protocol control block: one endpoint of one TCP (or UDP) connection.
///
/// The paper's argument is that PCBs are too many to all sit in cache, so
/// every connection pays for each byte here in memory traffic: what is
/// left is what the state machine, the window checks, the retransmission
/// timer and congestion control read — a cache line and a half.
#[derive(Debug, Clone)]
pub struct Pcb {
    key: ConnectionKey,
    state: TcpState,
    /// Send sequence space.
    pub snd: SendSequenceSpace,
    /// Receive sequence space.
    pub rcv: RecvSequenceSpace,
    /// Effective maximum segment size for this connection: what the
    /// handshake settled ([`Pcb::negotiated_mss`]), never below
    /// [`Pcb::MIN_MSS`].
    pub mss: u16,
    /// Smoothed round-trip-time state (Jacobson–Karels), updated by the
    /// transport on each acknowledged segment.
    pub rtt: crate::RttEstimator,
    /// Consecutive retransmission-timer expiries without an intervening
    /// ACK; exponent for [`RttEstimator::backed_off`](crate::RttEstimator::backed_off).
    /// Reset to zero whenever the peer acknowledges new data.
    pub rto_attempts: u32,
    /// Congestion-control variables (cwnd, ssthresh, dup-ACK count),
    /// updated by the stack on each ACK-clock event.
    pub cong: crate::CongestionState,
}

impl Pcb {
    /// Default MSS when the peer offers none (RFC 1122: 536).
    pub const DEFAULT_MSS: u16 = 536;

    /// Smallest MSS a connection sends with, whatever either side offers:
    /// an offer of 0 would frame empty segments and leave congestion
    /// control no unit to count in, and one of a few bytes would spend a
    /// frame on every few bytes. 88 is the floor Linux keeps.
    pub const MIN_MSS: u16 = 88;

    /// The MSS to send with, from the peer's offer (`None` when its SYN
    /// carried no MSS option: [`DEFAULT_MSS`](Self::DEFAULT_MSS)) and
    /// ours: the smaller of the two, and never below
    /// [`MIN_MSS`](Self::MIN_MSS).
    pub fn negotiated_mss(offer: Option<u16>, ours: u16) -> u16 {
        offer
            .unwrap_or(Self::DEFAULT_MSS)
            .min(ours)
            .max(Self::MIN_MSS)
    }

    /// Create a closed PCB for a connection key.
    pub fn new(key: ConnectionKey) -> Self {
        Self {
            key,
            state: TcpState::Closed,
            snd: SendSequenceSpace::default(),
            rcv: RecvSequenceSpace::default(),
            mss: Self::DEFAULT_MSS,
            rtt: crate::RttEstimator::new(),
            rto_attempts: 0,
            cong: crate::CongestionState::default(),
        }
    }

    /// Create a PCB already in a given state (used by the simulator, which
    /// fast-forwards past connection establishment).
    pub fn new_in_state(key: ConnectionKey, state: TcpState) -> Self {
        Self {
            state,
            ..Self::new(key)
        }
    }

    /// The connection key.
    pub fn key(&self) -> ConnectionKey {
        self.key
    }

    /// Current connection state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// Drive the state machine.
    pub fn on_event(&mut self, event: TcpEvent) -> Result<TcpState, InvalidTransition> {
        let next = self.state.on_event(event)?;
        self.state = next;
        Ok(next)
    }

    /// Initialize the send space for an active or passive open.
    pub fn init_send(&mut self, iss: SeqNum, window: u16) {
        self.snd = SendSequenceSpace {
            una: iss,
            nxt: iss + 1, // the SYN occupies one sequence number
            wnd: window,
            iss,
        };
    }

    /// Initialize the receive space upon seeing the peer's SYN.
    pub fn init_recv(&mut self, irs: SeqNum, window: u16) {
        self.rcv = RecvSequenceSpace {
            nxt: irs + 1,
            wnd: window,
            irs,
        };
    }

    /// The retransmission timeout currently in force, in microseconds:
    /// the estimator's RTO backed off exponentially by the consecutive
    /// expiries recorded in [`rto_attempts`](Self::rto_attempts).
    pub fn current_rto(&self) -> u64 {
        self.rtt.backed_off(self.rto_attempts)
    }

    /// Whether an arriving segment with this sequence number and length is
    /// acceptable per the RFC 793 four-case acceptability test: whether
    /// any of it lies inside the receive window. (By the letter of the
    /// RFC a segment is acceptable if its first or its last byte does,
    /// which turns away one that covers the whole window from before
    /// RCV.NXT to past the right edge; here that one is acceptable too.)
    pub fn segment_acceptable(&self, seq: SeqNum, seg_len: u32) -> bool {
        let rcv_nxt = self.rcv.nxt;
        let rcv_wnd = u32::from(self.rcv.wnd);
        match (seg_len, rcv_wnd) {
            (0, 0) => seq == rcv_nxt,
            (0, _) => seq.in_window(rcv_nxt, rcv_wnd),
            (_, 0) => false,
            // Two stretches overlap when either starts inside the other.
            (_, _) => seq.in_window(rcv_nxt, rcv_wnd) || rcv_nxt.in_window(seq, seg_len),
        }
    }
}

impl fmt::Display for Pcb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.key, self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn key() -> ConnectionKey {
        ConnectionKey::new(
            Ipv4Addr::new(10, 0, 0, 1),
            80,
            Ipv4Addr::new(10, 0, 0, 2),
            5555,
        )
    }

    #[test]
    fn new_pcb_is_closed() {
        let pcb = Pcb::new(key());
        assert_eq!(pcb.state(), TcpState::Closed);
        assert_eq!(pcb.key(), key());
        assert_eq!(pcb.mss, Pcb::DEFAULT_MSS);
    }

    #[test]
    fn negotiated_mss_takes_the_smaller_offer_above_a_floor() {
        assert_eq!(Pcb::negotiated_mss(Some(536), 1460), 536);
        assert_eq!(Pcb::negotiated_mss(Some(9000), 1460), 1460);
        assert_eq!(Pcb::negotiated_mss(None, 1460), Pcb::DEFAULT_MSS);
        assert_eq!(Pcb::negotiated_mss(Some(0), 1460), Pcb::MIN_MSS);
        assert_eq!(Pcb::negotiated_mss(Some(1460), 0), Pcb::MIN_MSS);
    }

    #[test]
    fn new_in_state_skips_handshake() {
        let pcb = Pcb::new_in_state(key(), TcpState::Established);
        assert_eq!(pcb.state(), TcpState::Established);
    }

    #[test]
    fn event_updates_state() {
        let mut pcb = Pcb::new(key());
        pcb.on_event(TcpEvent::AppConnect).unwrap();
        assert_eq!(pcb.state(), TcpState::SynSent);
        pcb.on_event(TcpEvent::RecvSynAck).unwrap();
        assert_eq!(pcb.state(), TcpState::Established);
    }

    #[test]
    fn invalid_event_leaves_state_unchanged() {
        let mut pcb = Pcb::new(key());
        assert!(pcb.on_event(TcpEvent::RecvFin).is_err());
        assert_eq!(pcb.state(), TcpState::Closed);
    }

    #[test]
    fn init_send_recv_spaces() {
        let mut pcb = Pcb::new(key());
        pcb.init_send(SeqNum(1000), 8192);
        assert_eq!(pcb.snd.iss, SeqNum(1000));
        assert_eq!(pcb.snd.una, SeqNum(1000));
        assert_eq!(pcb.snd.nxt, SeqNum(1001));
        pcb.init_recv(SeqNum(5000), 4096);
        assert_eq!(pcb.rcv.irs, SeqNum(5000));
        assert_eq!(pcb.rcv.nxt, SeqNum(5001));
    }

    #[test]
    fn acceptability_four_cases() {
        let mut pcb = Pcb::new(key());
        pcb.init_recv(SeqNum(999), 100); // rcv.nxt = 1000, wnd = 100

        // Case: empty segment, open window.
        assert!(pcb.segment_acceptable(SeqNum(1000), 0));
        assert!(pcb.segment_acceptable(SeqNum(1099), 0));
        assert!(!pcb.segment_acceptable(SeqNum(1100), 0));
        assert!(!pcb.segment_acceptable(SeqNum(999), 0));

        // Case: data segment, open window — acceptable if any byte is in
        // the window, including partial overlap from the left.
        assert!(pcb.segment_acceptable(SeqNum(1000), 50));
        assert!(pcb.segment_acceptable(SeqNum(950), 51)); // last byte = 1000
        assert!(!pcb.segment_acceptable(SeqNum(949), 50)); // ends at 998
        assert!(pcb.segment_acceptable(SeqNum(950), 200)); // covers the window
        assert!(!pcb.segment_acceptable(SeqNum(1100), 50)); // past the edge

        // Case: zero window.
        pcb.rcv.wnd = 0;
        assert!(pcb.segment_acceptable(SeqNum(1000), 0)); // pure ACK probe
        assert!(!pcb.segment_acceptable(SeqNum(1001), 0));
        assert!(!pcb.segment_acceptable(SeqNum(1000), 1)); // data refused
    }

    #[test]
    fn current_rto_backs_off_with_attempts() {
        let mut pcb = Pcb::new(key());
        pcb.rtt.record(100_000);
        let base = pcb.rtt.rto();
        assert_eq!(pcb.current_rto(), base);
        pcb.rto_attempts = 2;
        assert_eq!(pcb.current_rto(), base * 4);
        pcb.rto_attempts = 0;
        assert_eq!(pcb.current_rto(), base, "an ACK resets the backoff");
    }

    #[test]
    fn display_shows_key_and_state() {
        let pcb = Pcb::new_in_state(key(), TcpState::Established);
        let s = pcb.to_string();
        assert!(s.contains("10.0.0.1:80"), "{s}");
        assert!(s.contains("ESTABLISHED"), "{s}");
    }
}
