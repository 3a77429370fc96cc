//! Receive-path accounting.

use crate::txpool::TxPoolStats;
use core::fmt;
use tcpdemux_core::LookupStats;
use tcpdemux_telemetry::Snapshot;

/// Counters for everything that can happen to an arriving frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StackStats {
    /// Frames handed to [`Stack::receive`](crate::Stack::receive).
    pub frames_in: u64,
    /// Frames rejected by IPv4 validation (length/version/checksum).
    pub ip_errors: u64,
    /// Frames rejected because the destination address is not ours.
    pub not_for_us: u64,
    /// Frames carrying a protocol the stack does not handle.
    pub bad_protocol: u64,
    /// Segments rejected by TCP validation (length/checksum/options).
    pub tcp_errors: u64,
    /// Segments that matched an established connection.
    pub demux_hits: u64,
    /// Segments that matched only a listener (new connections).
    pub listener_hits: u64,
    /// Segments that matched nothing and provoked an RST.
    pub resets_sent: u64,
    /// Data, FIN and RST segments discarded for where they sat in
    /// sequence space: outside the receive window, a full duplicate, or a
    /// FIN ahead of a hole (re-ACKed, except for an RST).
    pub out_of_order_drops: u64,
    /// Data segments that arrived ahead of a missing one and were held in
    /// the socket for reassembly (re-ACKed).
    pub out_of_order_queued: u64,
    /// Payload bytes delivered to sockets.
    pub bytes_delivered: u64,
    /// Frames the stack emitted (replies and sends).
    pub frames_out: u64,
    /// Total PCBs examined by demultiplexing (the paper's cost metric).
    pub pcbs_examined: u64,
    /// ICMP messages received and parsed.
    pub icmp_in: u64,
    /// ICMP echo replies sent (pings answered).
    pub icmp_echo_replies: u64,
    /// SYNs dropped because the listener's backlog was full.
    pub syn_drops: u64,
    /// Segments retransmitted after an RTO expiry.
    pub retransmits: u64,
    /// Clean RTT samples absorbed by estimators (Karn-filtered).
    pub rtt_samples: u64,
    /// Connections aborted after exhausting the retransmission budget.
    pub timeout_aborts: u64,
}

impl StackStats {
    /// Frames that failed validation for any reason.
    pub fn total_rejected(&self) -> u64 {
        self.ip_errors + self.not_for_us + self.bad_protocol + self.tcp_errors
    }

    /// Fold another stack's counters into this one (all fields are
    /// monotonic counts, so addition is the whole story).
    pub fn merge(&mut self, other: &StackStats) {
        let Self {
            frames_in,
            ip_errors,
            not_for_us,
            bad_protocol,
            tcp_errors,
            demux_hits,
            listener_hits,
            resets_sent,
            out_of_order_drops,
            out_of_order_queued,
            bytes_delivered,
            frames_out,
            pcbs_examined,
            icmp_in,
            icmp_echo_replies,
            syn_drops,
            retransmits,
            rtt_samples,
            timeout_aborts,
        } = other;
        self.frames_in += frames_in;
        self.ip_errors += ip_errors;
        self.not_for_us += not_for_us;
        self.bad_protocol += bad_protocol;
        self.tcp_errors += tcp_errors;
        self.demux_hits += demux_hits;
        self.listener_hits += listener_hits;
        self.resets_sent += resets_sent;
        self.out_of_order_drops += out_of_order_drops;
        self.out_of_order_queued += out_of_order_queued;
        self.bytes_delivered += bytes_delivered;
        self.frames_out += frames_out;
        self.pcbs_examined += pcbs_examined;
        self.icmp_in += icmp_in;
        self.icmp_echo_replies += icmp_echo_replies;
        self.syn_drops += syn_drops;
        self.retransmits += retransmits;
        self.rtt_samples += rtt_samples;
        self.timeout_aborts += timeout_aborts;
    }
}

impl fmt::Display for StackStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "in={} rejected={} hits={} new={} rst={} delivered={}B rtx={}",
            self.frames_in,
            self.total_rejected(),
            self.demux_hits,
            self.listener_hits,
            self.resets_sent,
            self.bytes_delivered,
            self.retransmits,
        )
    }
}

/// Everything observable about a [`Stack`](crate::Stack) at one instant,
/// returned owned by [`Stack::stats`](crate::Stack::stats).
///
/// This is the one introspection surface: the receive-path counters, the
/// demultiplexer's own lookup statistics, the transmit-pool counters, and
/// the full telemetry snapshot (event trace, histograms, and the
/// enumerated counter set) — replacing the former trio of borrow-returning
/// accessors. Being owned, it can be captured before an operation and
/// compared after, cloned into reports, or shipped across threads.
#[derive(Debug, Clone)]
pub struct StatsSnapshot {
    /// Receive-path counters.
    pub stack: StackStats,
    /// The demultiplexer's accumulated lookup statistics.
    pub demux: LookupStats,
    /// Transmit-buffer pool counters.
    pub tx_pool: TxPoolStats,
    /// Receive blocks no socket is using, parked for the next one that
    /// fills (at most 64 per stack).
    pub rx_blocks_free: usize,
    /// Structured telemetry: counters, histograms, event trace.
    pub telemetry: Snapshot,
}

impl StatsSnapshot {
    /// Merge per-shard snapshots into one aggregate with the same shape a
    /// single [`Stack`](crate::Stack) reports — how
    /// [`ShardedStack::stats`](crate::ShardedStack::stats) presents K
    /// shards through the one introspection surface.
    ///
    /// Counters add; the demux `worst_case` is the max across shards; the
    /// telemetry merge adds counters and histogram buckets while keeping
    /// the *first* snapshot's event trace (per-shard traces interleave
    /// arbitrarily, so concatenating them would fabricate an ordering —
    /// fetch per-shard snapshots for traces). An empty slice merges to an
    /// all-zero snapshot.
    pub fn merge(parts: &[StatsSnapshot]) -> StatsSnapshot {
        let mut iter = parts.iter();
        let Some(first) = iter.next() else {
            return StatsSnapshot {
                stack: StackStats::default(),
                demux: LookupStats::new(),
                tx_pool: TxPoolStats::default(),
                rx_blocks_free: 0,
                telemetry: Snapshot::empty(),
            };
        };
        let mut merged = first.clone();
        for part in iter {
            merged.stack.merge(&part.stack);
            merged.demux.merge(&part.demux);
            merged.tx_pool.allocations += part.tx_pool.allocations;
            merged.tx_pool.reuses += part.tx_pool.reuses;
            merged.tx_pool.free += part.tx_pool.free;
            merged.rx_blocks_free += part.rx_blocks_free;
            merged.telemetry.merge_aggregates(&part.telemetry);
        }
        merged
    }
}

impl fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "stack: {}", self.stack)?;
        writeln!(f, "demux: {}", self.demux)?;
        writeln!(
            f,
            "tx_pool: allocations={} reuses={} free={}",
            self.tx_pool.allocations, self.tx_pool.reuses, self.tx_pool.free
        )?;
        writeln!(f, "rx_blocks: free={}", self.rx_blocks_free)?;
        write!(f, "{}", self.telemetry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        let stats = StackStats {
            ip_errors: 2,
            not_for_us: 3,
            bad_protocol: 1,
            tcp_errors: 4,
            ..StackStats::default()
        };
        assert_eq!(stats.total_rejected(), 10);
    }

    #[test]
    fn display_contains_key_fields() {
        let s = StackStats {
            frames_in: 7,
            ..StackStats::default()
        }
        .to_string();
        assert!(s.contains("in=7"), "{s}");
    }
}
