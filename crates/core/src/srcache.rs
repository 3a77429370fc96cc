//! §3.3 — Partridge & Pink's last-sent/last-received cache.
//!
//! BSD's one list, held as one uncached chain, is augmented with *two*
//! one-entry caches in place of its one: one holding the
//! PCB of the last packet received, one holding the PCB of the last packet
//! sent. The receive path probes the receive-side cache first for data
//! packets and the send-side cache first for acknowledgements (footnote 5
//! of the paper): a request/response protocol sends the response just
//! before the transport-level acknowledgement for it arrives, so the
//! send-side cache is the likely hit for ACKs.
//!
//! On a full miss the cost is both cache probes plus the list scan —
//! the paper's `(N+5)/2` average miss penalty.

use crate::list::key_tag;
use crate::sequent::{Chains, Entry};
use crate::stats::LookupStats;
use crate::{Demux, LookupResult, PacketKind};
use tcpdemux_pcb::{ConnectionKey, PcbId};

/// The last-sent/last-received PCB lookup structure.
#[derive(Debug)]
pub struct SendRecvDemux {
    /// One chain, walked without a cache of its own: its index is 0.
    list: Chains<Entry>,
    recv_cache: Option<(ConnectionKey, PcbId)>,
    send_cache: Option<(ConnectionKey, PcbId)>,
    stats: LookupStats,
}

impl Default for SendRecvDemux {
    fn default() -> Self {
        Self::new()
    }
}

impl SendRecvDemux {
    /// An empty structure.
    pub fn new() -> Self {
        let mut list = Chains::new(1);
        list.disable_cache();
        Self {
            list,
            recv_cache: None,
            send_cache: None,
            stats: LookupStats::new(),
        }
    }

    /// The receive-side cache entry (exposed for cache-behaviour tests).
    pub fn recv_cached(&self) -> Option<(ConnectionKey, PcbId)> {
        self.recv_cache
    }

    /// The send-side cache entry.
    pub fn send_cached(&self) -> Option<(ConnectionKey, PcbId)> {
        self.send_cache
    }

    /// Probe one cache slot; returns the hit, counting one examined PCB if
    /// the slot is occupied.
    fn probe(
        slot: &Option<(ConnectionKey, PcbId)>,
        key: &ConnectionKey,
        examined: &mut u32,
    ) -> Option<PcbId> {
        let (ck, id) = (*slot)?;
        *examined += 1;
        (ck == *key).then_some(id)
    }

    /// Walk the list for `key`: its handle, and the PCBs examined.
    fn find(&self, key: &ConnectionKey) -> (Option<PcbId>, u32) {
        let (entry, examined) = self.list.find(0, key_tag(key), |e| e.0 == *key);
        (entry.map(|e| e.1), examined)
    }
}

impl Demux for SendRecvDemux {
    fn insert(&mut self, key: ConnectionKey, id: PcbId) {
        let tag = key_tag(&key);
        if !self.list.replace(0, tag, |e| e.0 == key, (key, id)) {
            self.list.push_front(0, tag, (key, id));
        } else {
            for (ck, cid) in [&mut self.recv_cache, &mut self.send_cache]
                .into_iter()
                .flatten()
            {
                if *ck == key {
                    *cid = id;
                }
            }
        }
    }

    fn remove(&mut self, key: &ConnectionKey) -> Option<PcbId> {
        for cache in [&mut self.recv_cache, &mut self.send_cache] {
            if cache.map(|(ck, _)| ck == *key).unwrap_or(false) {
                *cache = None;
            }
        }
        let entry = self.list.remove(0, key_tag(key), |e| e.0 == *key)?;
        Some(entry.1)
    }

    fn lookup(&mut self, key: &ConnectionKey, kind: PacketKind) -> LookupResult {
        let mut examined = 0u32;

        // Probe order depends on the packet kind (paper footnote 5).
        let (first, second) = match kind {
            PacketKind::Data => (&self.recv_cache, &self.send_cache),
            PacketKind::Ack => (&self.send_cache, &self.recv_cache),
        };
        if let Some(id) = Self::probe(first, key, &mut examined) {
            self.recv_cache = Some((*key, id));
            self.stats.record(examined, true, true);
            return LookupResult {
                pcb: Some(id),
                examined,
                cache_hit: true,
            };
        }
        if let Some(id) = Self::probe(second, key, &mut examined) {
            self.recv_cache = Some((*key, id));
            self.stats.record(examined, true, true);
            return LookupResult {
                pcb: Some(id),
                examined,
                cache_hit: true,
            };
        }

        let (found, scanned) = self.find(key);
        examined += scanned;
        match found {
            Some(id) => {
                self.recv_cache = Some((*key, id));
                self.stats.record(examined, true, false);
                LookupResult {
                    pcb: Some(id),
                    examined,
                    cache_hit: false,
                }
            }
            None => {
                self.stats.record(examined, false, false);
                LookupResult::miss(examined)
            }
        }
    }

    fn note_send(&mut self, key: &ConnectionKey) {
        // The send path knows its PCB already (it initiated the send); it
        // records it in the send-side cache. The id is looked up from the
        // list without cost accounting — the send path holds the PCB.
        let (found, _) = self.find(key);
        if let Some(id) = found {
            self.send_cache = Some((*key, id));
        }
    }

    fn len(&self) -> usize {
        self.list.len
    }

    fn name(&self) -> String {
        "send-recv".to_string()
    }

    fn stats(&self) -> &LookupStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = LookupStats::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{key, populate};
    use tcpdemux_pcb::PcbArena;

    #[test]
    fn recv_cache_hits_on_repeat() {
        let mut arena = PcbArena::new();
        let mut demux = SendRecvDemux::new();
        let ids = populate(&mut demux, &mut arena, 10);
        let r = demux.lookup(&key(3), PacketKind::Data);
        assert_eq!(r.pcb, Some(ids[3]));
        let r = demux.lookup(&key(3), PacketKind::Data);
        assert_eq!(r.examined, 1);
        assert!(r.cache_hit);
    }

    #[test]
    fn send_cache_hits_ack_after_send() {
        // The request/response pattern: receive a query on key A (recv
        // cache <- A), send the response on key A (send cache <- A), an
        // unrelated data packet on key B arrives (recv cache <- B), then
        // A's transport-level ACK arrives — it must hit the *send* cache
        // with exactly one probe.
        let mut arena = PcbArena::new();
        let mut demux = SendRecvDemux::new();
        let ids = populate(&mut demux, &mut arena, 10);

        demux.lookup(&key(0), PacketKind::Data);
        demux.note_send(&key(0));
        demux.lookup(&key(5), PacketKind::Data); // evicts recv cache
        assert_eq!(demux.recv_cached().unwrap().0, key(5));
        assert_eq!(demux.send_cached().unwrap().0, key(0));

        let r = demux.lookup(&key(0), PacketKind::Ack);
        assert_eq!(r.pcb, Some(ids[0]));
        assert_eq!(r.examined, 1, "ACK must probe the send cache first");
        assert!(r.cache_hit);
    }

    #[test]
    fn data_probes_recv_cache_first() {
        let mut arena = PcbArena::new();
        let mut demux = SendRecvDemux::new();
        populate(&mut demux, &mut arena, 10);
        demux.lookup(&key(0), PacketKind::Data); // recv <- 0
        demux.note_send(&key(1)); // send <- 1

        // Data for key(1): probes recv (miss, 1) then send (hit, 1) = 2.
        let r = demux.lookup(&key(1), PacketKind::Data);
        assert_eq!(r.examined, 2);
        assert!(r.cache_hit);
    }

    #[test]
    fn full_miss_costs_both_caches_plus_scan() {
        let mut arena = PcbArena::new();
        let mut demux = SendRecvDemux::new();
        populate(&mut demux, &mut arena, 10);
        demux.lookup(&key(9), PacketKind::Data); // recv cache <- 9 (head, 1)
        demux.note_send(&key(8)); // send cache <- 8

        // key(0) is at the tail: 2 cache probes + 10 scanned.
        let r = demux.lookup(&key(0), PacketKind::Data);
        assert_eq!(r.examined, 12);
        assert!(!r.cache_hit);
    }

    #[test]
    fn miss_with_no_caches_filled_costs_scan_only() {
        let mut arena = PcbArena::new();
        let mut demux = SendRecvDemux::new();
        populate(&mut demux, &mut arena, 10);
        // No lookups yet: both caches empty, probing them is free.
        let r = demux.lookup(&key(0), PacketKind::Data);
        assert_eq!(r.examined, 10);
    }

    #[test]
    fn remove_clears_both_caches() {
        let mut arena = PcbArena::new();
        let mut demux = SendRecvDemux::new();
        populate(&mut demux, &mut arena, 5);
        demux.lookup(&key(2), PacketKind::Data);
        demux.note_send(&key(2));
        demux.remove(&key(2));
        assert!(demux.recv_cached().is_none());
        assert!(demux.send_cached().is_none());
        assert_eq!(demux.lookup(&key(2), PacketKind::Data).pcb, None);
    }

    #[test]
    fn flush_scenario_from_the_paper() {
        // Figure 9: Stephen's PCB is flushed from both caches by Craig's
        // intervening transaction (data in, response out), forcing
        // Stephen's next transaction into a full miss.
        let mut arena = PcbArena::new();
        let mut demux = SendRecvDemux::new();
        let ids = populate(&mut demux, &mut arena, 2);
        let stephen = key(0);
        let craig = key(1);

        // Stephen transacts: recv and send caches hold Stephen.
        demux.lookup(&stephen, PacketKind::Data);
        demux.note_send(&stephen);
        demux.lookup(&stephen, PacketKind::Ack); // his ACK: 1 probe
        assert_eq!(demux.stats().cache_hits, 1);

        // Craig transacts: query in, response out, ACK in.
        demux.lookup(&craig, PacketKind::Data);
        demux.note_send(&craig);
        demux.lookup(&craig, PacketKind::Ack);

        // Both caches now hold Craig; Stephen's next query is a full miss.
        let r = demux.lookup(&stephen, PacketKind::Data);
        assert_eq!(r.pcb, Some(ids[0]));
        assert!(!r.cache_hit);
        assert!(r.examined >= 3, "examined {}", r.examined);
    }

    #[test]
    fn note_send_for_unknown_key_is_harmless() {
        let mut arena = PcbArena::new();
        let mut demux = SendRecvDemux::new();
        populate(&mut demux, &mut arena, 3);
        demux.note_send(&key(1000));
        assert!(demux.send_cached().is_none());
    }
}
