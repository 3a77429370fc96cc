//! Congestion control: NewReno (RFC 5681 / 6582) with Limited Transmit
//! (RFC 3042) and appropriate byte counting (RFC 3465).
//!
//! Per-connection state ([`CongestionState`]) lives in the PCB next to
//! the sequence spaces it is consulted with, and the algorithm is its
//! methods. The stack reports ACK-clock events (advancing ACK, duplicate
//! ACK, RTO expiry) and acts on the returned [`CcAction`]; nothing here
//! touches frames.
//!
//! Two rules keep a window of a few segments — the kind the paper's
//! TPC/A model assumes — out of the retransmission timer and free of
//! short segments:
//!
//! - **Limited Transmit (RFC 3042).** The first and the second duplicate
//!   ACK each let one new segment out beyond cwnd
//!   ([`send_window`](CongestionState::send_window)), so a window of
//!   three or four segments with one lost still collects the three
//!   duplicates fast retransmit needs. When the third arrives, ssthresh
//!   is half a FlightSize that leaves those segments out (RFC 5681 §3.2).
//! - **Whole segments.** cwnd grows by byte counting (RFC 3465): in slow
//!   start one MSS per MSS acknowledged, at most one per ACK (L = 1 MSS);
//!   in congestion avoidance one MSS once a full cwnd of bytes has been
//!   acknowledged. ssthresh, the initial window and the partial-ACK
//!   deflation are rounded down to whole segments, which sends less than
//!   RFC 5681 eq. 4 allows, never more. A window that is a whole number
//!   of segments never frames its remainder as a short one.
//!
//! The unit is the connection's negotiated MSS.

use crate::seq::SeqNum;

/// Per-connection congestion-control variables (RFC 5681 / 6582 /
/// 3042 / 3465).
///
/// `Copy` and flat on purpose: this is hot-path state consulted on
/// every ACK, stored inline in the [`Pcb`](crate::Pcb).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CongestionState {
    /// Congestion window in bytes: a whole number of segments.
    pub cwnd: usize,
    /// Slow-start threshold in bytes, a whole number of segments; above
    /// it growth is additive.
    pub ssthresh: usize,
    /// Consecutive duplicate ACKs observed at the current SND.UNA.
    pub dup_acks: u32,
    /// Bytes acknowledged toward cwnd's next one-MSS step (RFC 3465's
    /// `bytes_acked`): below one MSS in slow start, below cwnd in
    /// congestion avoidance.
    pub bytes_acked: u32,
    /// Whether fast recovery is in progress.
    pub in_recovery: bool,
    /// In recovery, the `recover` mark: SND.NXT when fast retransmit
    /// fired. ACKs below it are partial; at or above it, recovery
    /// completes. Outside recovery, SND.NXT at the first duplicate ACK
    /// of the current run, so the third can tell what was sent since.
    pub recover: SeqNum,
}

/// `bytes` rounded down to whole segments of `mss`, and at least `floor`
/// segments.
fn whole(bytes: usize, mss: usize, floor: usize) -> usize {
    (bytes / mss).max(floor) * mss
}

impl CongestionState {
    /// Fresh state for a new connection whose MSS is `mss`: `cwnd`
    /// starts at `initial_cwnd` rounded down to whole segments (at least
    /// one) and `ssthresh` effectively unbounded, so the connection opens
    /// in slow start (RFC 5681 §3.1).
    pub fn new(initial_cwnd: usize, mss: usize) -> Self {
        Self {
            cwnd: whole(initial_cwnd, mss, 1),
            ssthresh: whole(usize::MAX / 2, mss, 1),
            dup_acks: 0,
            bytes_acked: 0,
            in_recovery: false,
            recover: SeqNum(0),
        }
    }

    /// The connection's MSS is now `mss` (the peer's offer, where it is
    /// below ours): round cwnd and ssthresh down to whole segments of it.
    pub fn set_mss(&mut self, mss: usize) {
        self.cwnd = whole(self.cwnd, mss, 1);
        self.ssthresh = whole(self.ssthresh, mss, 2);
    }

    /// How many bytes may be in flight now: cwnd, plus one MSS for each
    /// of the first two duplicate ACKs outside recovery (Limited
    /// Transmit, RFC 3042). The sender takes the minimum of this and the
    /// peer's window.
    pub fn send_window(&self, mss: usize) -> usize {
        if self.in_recovery {
            self.cwnd
        } else {
            self.cwnd + self.dup_acks.min(2) as usize * mss
        }
    }
}

impl Default for CongestionState {
    fn default() -> Self {
        // 4 × the RFC 1122 default MSS; the stack re-seeds from its
        // configured `WindowConfig` when it opens a connection.
        Self::new(4 * 536, 536)
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
            self.cwnd = whole(self.cwnd.saturating_sub(acked), mss, 1) + mss;
            return CcAction::RetransmitHead;
        }
        self.grow(acked, mss);
        CcAction::None
    }

    /// A duplicate ACK arrived (same SND.UNA, no payload, no window
    /// update) with `inflight` bytes outstanding and SND.NXT at
    /// `snd_nxt`. The first two open [`send_window`](Self::send_window)
    /// by one MSS each; the third halves and enters fast recovery,
    /// re-emitting the presumed-lost head; further duplicates inflate
    /// `cwnd` by one MSS each (they signal a departed segment).
    ///
    /// The FlightSize the third halves leaves out exactly what Limited
    /// Transmit sent: SND.UNA has not moved since the first duplicate,
    /// so the flight then is `inflight` less what was sent since, and
    /// of that only the part past both cwnd and the flight at the first
    /// duplicate went out on the duplicates' allowance. The flight may
    /// exceed cwnd before any duplicate — after an RTO, whose SND.NXT is
    /// not rewound, or after a full ACK that ends recovery with data
    /// sent past `recover` — and that part counts.
    pub fn on_dup_ack(&mut self, inflight: usize, snd_nxt: SeqNum, mss: usize) -> CcAction {
        if self.in_recovery {
            self.cwnd += mss;
            return CcAction::None;
        }
        self.dup_acks += 1;
        if self.dup_acks == 1 {
            self.recover = snd_nxt;
        }
        if self.dup_acks < 3 {
            return CcAction::None;
        }
        let at_first = inflight.saturating_sub((snd_nxt - self.recover) as usize);
        let flight = inflight.min(self.cwnd.max(at_first));
        self.ssthresh = whole(flight / 2, mss, 2);
        self.cwnd = self.ssthresh + 3 * mss;
        self.bytes_acked = 0;
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
        self.ssthresh = whole(inflight / 2, mss, 2);
        self.cwnd = mss;
        self.bytes_acked = 0;
        self.in_recovery = false;
        self.dup_acks = 0;
    }

    /// Byte counting (RFC 3465): slow start below `ssthresh` adds one
    /// MSS per MSS acknowledged, at most one per ACK; congestion
    /// avoidance adds one MSS once a full cwnd has been acknowledged.
    fn grow(&mut self, acked: usize, mss: usize) {
        let counted = self.bytes_acked as usize + acked;
        let left = if self.cwnd < self.ssthresh {
            // What one ACK covered beyond its one MSS is dropped.
            if counted >= mss {
                self.cwnd += mss;
            }
            counted % mss
        } else if counted >= self.cwnd {
            let left = counted - self.cwnd;
            self.cwnd += mss;
            left
        } else {
            counted
        };
        self.bytes_acked = u32::try_from(left).unwrap_or(u32::MAX);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcpdemux_testprop::{check_cases, sweep_seeds};

    const MSS: usize = 1000;

    fn fresh() -> CongestionState {
        CongestionState::new(2 * MSS, MSS)
    }

    #[test]
    fn slow_start_grows_exponentially_per_window() {
        let mut st = fresh();
        // Acknowledge one full window: cwnd doubles.
        st.on_ack(MSS, SeqNum(1000), MSS);
        st.on_ack(MSS, SeqNum(2000), MSS);
        assert_eq!(st.cwnd, 4 * MSS);
    }

    #[test]
    fn slow_start_counts_short_acks_up_to_a_whole_segment() {
        let mut st = fresh();
        st.on_ack(400, SeqNum(400), MSS);
        st.on_ack(400, SeqNum(800), MSS);
        assert_eq!(st.cwnd, 2 * MSS, "800 B acknowledged: no step yet");
        st.on_ack(400, SeqNum(1200), MSS);
        assert_eq!(st.cwnd, 3 * MSS);
        assert_eq!(st.bytes_acked, 200);
    }

    #[test]
    fn a_congestion_avoidance_round_adds_exactly_one_mss() {
        let mut st = fresh();
        st.cwnd = 10 * MSS;
        st.ssthresh = st.cwnd; // already at threshold: AIMD from here
        let mut seq = 0u32;
        for _ in 0..9 {
            seq += MSS as u32;
            st.on_ack(MSS, SeqNum(seq), MSS);
        }
        assert_eq!(st.cwnd, 10 * MSS, "nine tenths of a window: no step");
        seq += MSS as u32;
        st.on_ack(MSS, SeqNum(seq), MSS);
        assert_eq!(st.cwnd, 11 * MSS, "a full window: one MSS");
        assert_eq!(st.bytes_acked, 0);
        // The next round needs a full eleven segments.
        for _ in 0..10 {
            seq += MSS as u32;
            st.on_ack(MSS, SeqNum(seq), MSS);
        }
        assert_eq!(st.cwnd, 11 * MSS);
        st.on_ack(MSS, SeqNum(seq + MSS as u32), MSS);
        assert_eq!(st.cwnd, 12 * MSS);
    }

    #[test]
    fn the_initial_window_and_a_smaller_mss_round_down() {
        let st = CongestionState::new(5840, 536);
        assert_eq!(st.cwnd, 10 * 536);
        assert_eq!(st.ssthresh % 536, 0);
        assert_eq!(CongestionState::new(100, 536).cwnd, 536, "at least one");
        let mut st = CongestionState::new(4 * 1460, 1460);
        st.ssthresh = 3 * 1460;
        st.set_mss(536);
        assert_eq!((st.cwnd, st.ssthresh), (10 * 536, 8 * 536));
    }

    #[test]
    fn each_of_the_first_two_dup_acks_opens_one_mss_beyond_cwnd() {
        let mut st = fresh();
        st.cwnd = 3 * MSS;
        st.ssthresh = st.cwnd;
        assert_eq!(st.send_window(MSS), 3 * MSS);
        assert_eq!(st.on_dup_ack(3 * MSS, SeqNum(3_000), MSS), CcAction::None);
        assert_eq!(st.send_window(MSS), 4 * MSS);
        assert_eq!(st.on_dup_ack(4 * MSS, SeqNum(4_000), MSS), CcAction::None);
        assert_eq!(st.send_window(MSS), 5 * MSS);
        assert_eq!(st.cwnd, 3 * MSS, "cwnd itself does not move");
        // An advancing ACK closes what the duplicates opened.
        st.on_ack(MSS, SeqNum(1_000), MSS);
        assert_eq!(st.send_window(MSS), 3 * MSS);
    }

    #[test]
    fn ssthresh_leaves_out_the_limited_transmit_segments() {
        let mut st = fresh();
        st.cwnd = 6 * MSS;
        st.ssthresh = st.cwnd;
        // Six in flight; each of the first two duplicates let one more out.
        st.on_dup_ack(6 * MSS, SeqNum(6_000), MSS);
        st.on_dup_ack(7 * MSS, SeqNum(7_000), MSS);
        assert_eq!(
            st.on_dup_ack(8 * MSS, SeqNum(8_000), MSS),
            CcAction::RetransmitHead
        );
        assert_eq!(st.ssthresh, 3 * MSS, "half of six, not of eight");
        assert_eq!(st.cwnd, 6 * MSS);
        assert_eq!(
            st.send_window(MSS),
            st.cwnd,
            "no limited transmit in recovery"
        );

        // Five in flight under a cwnd of six: of the two sent on the
        // duplicates, the first fit in cwnd and only the second is left
        // out.
        let mut st = fresh();
        st.cwnd = 6 * MSS;
        st.ssthresh = st.cwnd;
        st.on_dup_ack(5 * MSS, SeqNum(5_000), MSS);
        st.on_dup_ack(6 * MSS, SeqNum(6_000), MSS);
        st.on_dup_ack(7 * MSS, SeqNum(7_000), MSS);
        assert_eq!(st.ssthresh, 3 * MSS, "seven less the one past cwnd");
    }

    #[test]
    fn a_third_dup_ack_after_a_full_ack_halves_the_whole_flight() {
        let mut st = fresh();
        st.cwnd = 10 * MSS;
        st.ssthresh = st.cwnd;
        for _ in 0..3 {
            st.on_dup_ack(10 * MSS, SeqNum(10_000), MSS);
        }
        // Four more duplicates inflate cwnd to 12 segments, and seven
        // go out past the recover mark.
        for _ in 0..4 {
            st.on_dup_ack(10 * MSS, SeqNum(10_000), MSS);
        }
        assert_eq!(st.on_ack(10 * MSS, SeqNum(10_000), MSS), CcAction::None);
        assert!(!st.in_recovery);
        assert_eq!(st.cwnd, 5 * MSS);
        // Seven in flight against a cwnd of five: the duplicates open
        // nothing, and none of the seven went out on them.
        for _ in 0..2 {
            st.on_dup_ack(7 * MSS, SeqNum(17_000), MSS);
            assert!(st.send_window(MSS) <= 7 * MSS);
        }
        st.on_dup_ack(7 * MSS, SeqNum(17_000), MSS);
        assert!(st.in_recovery);
        assert_eq!(st.ssthresh, 3 * MSS, "half of seven, not of cwnd's five");
    }

    #[test]
    fn a_third_dup_ack_after_an_rto_halves_the_whole_flight() {
        let mut st = fresh();
        st.cwnd = 8 * MSS;
        st.ssthresh = st.cwnd;
        st.on_rto(8 * MSS, MSS);
        // The head's ACK leaves seven outstanding behind a cwnd of two;
        // the next segment is lost. Two duplicates later, flight has
        // not reached cwnd + one MSS, so Limited Transmit sent nothing.
        st.on_ack(MSS, SeqNum(1_000), MSS);
        assert_eq!(st.cwnd, 2 * MSS);
        st.on_dup_ack(7 * MSS, SeqNum(8_000), MSS);
        st.on_dup_ack(7 * MSS, SeqNum(8_000), MSS);
        st.on_dup_ack(7 * MSS, SeqNum(8_000), MSS);
        assert_eq!(st.ssthresh, 3 * MSS, "half of seven, rounded down");
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
        // Partial ACK: stay in recovery, re-emit the new head; the
        // deflated window is whole segments.
        assert_eq!(
            st.on_ack(1_500, SeqNum(1_500), MSS),
            CcAction::RetransmitHead
        );
        assert!(st.in_recovery);
        assert_eq!(st.cwnd, 7 * MSS, "8 000 - 1 500 rounds to 6 000, + one MSS");
        // Full ACK at the recover mark: done.
        assert_eq!(st.on_ack(8_500, SeqNum(10_000), MSS), CcAction::None);
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

    /// Seeded property over random sequences of advancing, duplicate and
    /// partial ACKs, RTOs and sends that fill the window: cwnd and
    /// ssthresh stay whole multiples of the MSS; every ssthresh the
    /// algorithm sets is at most max(FlightSize / 2, 2·MSS), and on
    /// entering recovery it is exactly that rounded down, FlightSize
    /// leaving out the bytes the model counts as sent past both cwnd and
    /// the flight at the first duplicate; and no segment sent outside
    /// recovery takes the flight past cwnd + 2·MSS.
    /// `TCPDEMUX_SEEDS` widens it (scripts/verify.sh runs 16).
    #[test]
    fn prop_cwnd_is_whole_segments_and_limited_transmit_stays_within_two() {
        check_cases("cc_whole_segments", sweep_seeds(8) * 8, |rng| {
            let mss = *rng.choose(&[536, 1000, 1460]);
            let mut st = CongestionState::new(rng.usize_in(1, 8 * 1460), mss);
            // Sequence offsets from a random ISS, so they wrap.
            let iss = rng.u32();
            let (mut una, mut nxt) = (0u32, 0u32);
            let rwnd = rng.usize_in(4, 48) * mss;
            // Duplicates in the current run, and the bytes sent during
            // it that neither cwnd nor the flight before it covered.
            let (mut dups, mut limited) = (0u32, 0usize);
            for step in 0..rng.usize_in(100, 400) {
                let flight = (nxt - una) as usize;
                let tag = format!("step {step}: flight {flight} {st:?}");
                match rng.u8_in(0, 5) {
                    // Fill the window, one segment at a time.
                    0 | 1 => {
                        while (nxt - una) as usize + mss <= st.send_window(mss).min(rwnd) {
                            let before = (nxt - una) as usize;
                            nxt += mss as u32;
                            let flight = (nxt - una) as usize;
                            if !st.in_recovery {
                                assert!(flight <= st.cwnd + 2 * mss, "{tag}: sent to {flight}");
                                if dups > 0 {
                                    limited += flight.saturating_sub(st.cwnd.max(before));
                                }
                            }
                        }
                    }
                    // An advancing ACK of whole segments or of any byte
                    // count; in recovery, one short of the mark is partial.
                    2 => {
                        if flight > 0 {
                            let acked = if flight >= mss && rng.bool() {
                                rng.usize_in(1, flight / mss + 1) * mss
                            } else {
                                rng.usize_in(1, flight + 1)
                            };
                            una += acked as u32;
                            st.on_ack(acked, SeqNum(iss.wrapping_add(una)), mss);
                            (dups, limited) = (0, 0);
                        }
                    }
                    3 => {
                        if flight > 0 {
                            let was = st.in_recovery;
                            let snd_nxt = SeqNum(iss.wrapping_add(nxt));
                            st.on_dup_ack(flight, snd_nxt, mss);
                            dups += u32::from(!was);
                            if st.in_recovery && !was {
                                assert_eq!(dups, 3, "{tag}");
                                let half = (flight - limited) / 2;
                                assert!(st.ssthresh <= half.max(2 * mss), "{tag}");
                                assert_eq!(st.ssthresh, (half / mss).max(2) * mss, "{tag}");
                                (dups, limited) = (0, 0);
                            }
                        }
                    }
                    _ => {
                        if flight > 0 && rng.u8_in(0, 4) == 0 {
                            st.on_rto(flight, mss);
                            assert!(st.ssthresh <= (flight / 2).max(2 * mss), "{tag}");
                            (dups, limited) = (0, 0);
                        }
                    }
                }
                assert_eq!(st.cwnd % mss, 0, "{tag}");
                assert_eq!(st.ssthresh % mss, 0, "{tag}");
                assert!(st.cwnd >= mss, "{tag}");
            }
        });
    }
}
