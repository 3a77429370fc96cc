//! The sharded multi-core stack runtime.
//!
//! A [`ShardedStack`] owns K independent [`Stack`] shards — each with its
//! own PCB arena, demultiplexer, timer wheel, transmit pool, and
//! telemetry store — and steers every ingress frame to the shard
//! owning its flow with the symmetric connection-key hash
//! ([`tcpdemux_hash::symmetric_hash`]). Because the hash is symmetric,
//! the SYN a listener sees and the SYN-ACK that answers it land on the
//! same shard, and a shard's PCBs are touched by exactly one worker at a
//! time: inside a shard, demultiplexing is the single-threaded problem
//! the paper analyzes, at K-fold aggregate rate.
//!
//! ```text
//!             ingress thread                    worker k (one per shard)
//!  frame ──▶ steering_key ──▶ symmetric hash ┐
//!                                            ├─▶ SPSC ring k ──▶ drain()
//!                                            ┘      │
//!                                                   └─▶ Stack::receive
//! ```
//!
//! * **Rings.** Each shard is fed by a bounded in-tree SPSC ring
//!   ([`tcpdemux_core::spsc`]); a full ring rejects the frame back to the
//!   ingress side (drop-tail with accounting, like a NIC RX ring).
//! * **Listeners.** [`listen`](ShardedStack::listen) installs the
//!   listener on *every* shard (SO_REUSEPORT-style) and records the port
//!   in the shared [`SteerTable`], so an arriving SYN needs no table
//!   consultation — the hash alone picks its owner, and the accept queue
//!   it lands in is polled round-robin by
//!   [`accept`](ShardedStack::accept).
//! * **Active opens.** The four-tuple decides the owning shard, so
//!   [`connect_from_shard`](ShardedStack::connect_from_shard) allocates
//!   the ephemeral port *globally* from the table, computes the owner
//!   from the complete key, and only then places the connection —
//!   taking the owning shard's lock from the calling shard's thread when
//!   they differ. The local/cross split is counted
//!   ([`placements`](ShardedStack::placements)): cross-shard placement is
//!   a measured quantity.
//! * **Introspection.** [`stats`](ShardedStack::stats) merges per-shard
//!   [`StatsSnapshot`]s into the same owned type a single stack returns;
//!   [`connection_table`](ShardedStack::connection_table) /
//!   [`listener_table`](ShardedStack::listener_table) concatenate rows
//!   tagged with their owning [`ShardId`] — one introspection surface
//!   for one stack or K.
//!
//! Interior mutability (`Mutex` per shard stack and per ring half) keeps
//! the whole runtime `&self`-driven so an ingress thread and K workers
//! can share it via `std::thread::scope`. In the intended deployment —
//! one worker per shard — every lock is uncontended except the brief
//! cross-shard placement path; the stress test pins the resulting
//! invariant that no PCB is ever touched from two shards.

use crate::shard::{steering_key, PlacementStats, ShardId, SteerTable};
use crate::stack::{
    BatchRxResult, ConnectionInfo, ListenConfig, ListenerInfo, Stack, StackConfig, StackError,
    TimeAdvance, TxScratch,
};
use crate::stats::StatsSnapshot;
use std::net::Ipv4Addr;
use std::sync::Mutex;
use tcpdemux_core::spsc::{spsc_ring, RingStats, SpscConsumer, SpscProducer};
use tcpdemux_pcb::{ConnectionKey, PcbId};

/// One shard: its stack and the two halves of its ingress ring, each
/// behind its own lock so ingress and drain never contend with each
/// other.
struct ShardSlot {
    stack: Mutex<Stack>,
    producer: Mutex<SpscProducer<Vec<u8>>>,
    consumer: Mutex<DrainSide>,
}

/// The consuming half of a shard's ring and the scratch
/// [`ShardedStack::drain`] pops a batch into, kept between drains for
/// its capacity.
struct DrainSide {
    ring: SpscConsumer<Vec<u8>>,
    batch: Vec<Vec<u8>>,
}

/// A frame refused because its shard's ingress ring was full; the frame
/// comes back so the caller can retry or count the drop.
#[derive(Debug)]
pub struct RingFull {
    /// The shard whose ring was full.
    pub shard: ShardId,
    /// The rejected frame, returned to the caller.
    pub frame: Vec<u8>,
}

/// K flow-affine [`Stack`] shards behind one runtime. See the module
/// docs for the architecture.
pub struct ShardedStack {
    slots: Vec<ShardSlot>,
    table: SteerTable,
    local_addr: Ipv4Addr,
}

impl ShardedStack {
    /// Build `shards` shards from one config — the same construction
    /// path as a single [`Stack::with_config`], plus the shard count.
    ///
    /// Each shard gets its own demultiplexer (from the config's factory)
    /// and owns its telemetry like the rest of its state: read one
    /// shard's through [`with_shard`](Self::with_shard) and
    /// [`Stack::stats`], or all of them merged through
    /// [`stats`](Self::stats).
    pub fn with_config(config: StackConfig, shards: usize) -> Self {
        assert!(shards > 0, "shard count must be nonzero");
        let table = SteerTable::new(shards, config.ephemeral_base);
        let slots = (0..shards)
            .map(|k| {
                let shard_config = config.clone().with_shard(ShardId::new(k));
                let (producer, consumer) = spsc_ring(config.ring_capacity);
                ShardSlot {
                    stack: Mutex::new(Stack::with_config(shard_config)),
                    producer: Mutex::new(producer),
                    consumer: Mutex::new(DrainSide {
                        ring: consumer,
                        batch: Vec::new(),
                    }),
                }
            })
            .collect();
        Self {
            slots,
            table,
            local_addr: config.local_addr,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.slots.len()
    }

    /// This host's address (shared by every shard).
    pub fn local_addr(&self) -> Ipv4Addr {
        self.local_addr
    }

    /// The shard owning `key` (either orientation — the hash is
    /// symmetric).
    pub fn steer(&self, key: &ConnectionKey) -> ShardId {
        self.table.steer(key)
    }

    /// Steer a raw ingress frame to its owning shard's ring. Frames too
    /// malformed to carry a four-tuple go to shard 0, whose stack counts
    /// the parse error exactly as a single stack would. Returns the
    /// accepting shard, or the frame back if that shard's ring is full.
    pub fn enqueue(&self, frame: Vec<u8>) -> Result<ShardId, RingFull> {
        let shard = steering_key(&frame)
            .map(|key| self.table.steer(&key))
            .unwrap_or_default();
        let mut producer = self.slots[shard.index()]
            .producer
            .lock()
            .expect("shard producer lock");
        producer
            .push(frame)
            .map(|()| shard)
            .map_err(|frame| RingFull { shard, frame })
    }

    /// Drain up to `max` frames from one shard's ring into its stack:
    /// one [`Stack::receive`] per frame, in ring order. The shard's worker
    /// calls this in a loop; any thread may call it for any shard, but
    /// only one at a time per shard makes progress (the consumer lock,
    /// held until the popped batch has been processed, serializes).
    pub fn drain(&self, shard: ShardId, max: usize) -> BatchRxResult {
        let slot = &self.slots[shard.index()];
        let mut consumer = slot.consumer.lock().expect("shard consumer lock");
        let DrainSide { ring, batch } = &mut *consumer;
        ring.pop_batch(batch, max);
        if batch.is_empty() {
            return BatchRxResult::default();
        }
        let mut stack = slot.stack.lock().expect("shard stack lock");
        let lookups_before = stack.demux_lookups();
        let mut out = BatchRxResult {
            results: Vec::with_capacity(batch.len()),
            ..BatchRxResult::default()
        };
        for frame in batch.drain(..) {
            out.results.push(stack.receive(&frame));
            // The frame is spent; recycle its buffer into the shard's
            // transmit pool so steady state allocates nothing new.
            stack.recycle(frame);
        }
        out.batched_lookups = (stack.demux_lookups() - lookups_before) as usize;
        out
    }

    /// Install a listener on *every* shard (SO_REUSEPORT-style) and
    /// record the port in the steering table. SYNs then steer purely by
    /// hash; whichever shard a client's flow maps to accepts it locally.
    pub fn listen(&self, config: impl Into<ListenConfig>) -> Result<(), StackError> {
        let listen: ListenConfig = config.into();
        for slot in &self.slots {
            slot.stack
                .lock()
                .expect("shard stack lock")
                .listen(listen)?;
        }
        self.table.note_listen(listen.port);
        Ok(())
    }

    /// Dequeue one established-but-unaccepted connection on `port`,
    /// polling shards round-robin from the shared accept cursor so no
    /// shard's queue starves. Returns the owning shard with the handle —
    /// subsequent socket operations must go through that shard
    /// ([`with_shard`](Self::with_shard)).
    pub fn accept(&self, port: u16) -> Option<(ShardId, PcbId)> {
        let start = self.table.next_accept_shard();
        let n = self.slots.len();
        for i in 0..n {
            let k = (start + i) % n;
            let id = self.slots[k]
                .stack
                .lock()
                .expect("shard stack lock")
                .accept(port);
            if let Some(id) = id {
                return Some((ShardId::new(k), id));
            }
        }
        None
    }

    /// Active open originating on shard `from` (the shard whose worker
    /// or application thread initiates it). The ephemeral port is drawn
    /// from the *global* allocator, the owning shard is computed from
    /// the complete four-tuple, and the connection is created there —
    /// on the caller's thread, taking the owner's lock if it is a
    /// different shard. The local/cross outcome is counted
    /// ([`placements`](Self::placements)). Returns the owning shard, the
    /// handle, and the SYN frame to transmit.
    pub fn connect_from_shard(
        &self,
        from: ShardId,
        remote_addr: Ipv4Addr,
        remote_port: u16,
    ) -> Result<(ShardId, PcbId, Vec<u8>), StackError> {
        assert!(from.index() < self.slots.len(), "no such shard {from}");
        // The in-use probe walks every shard's connection table with the
        // same predicate the single-stack allocator uses: a flow's owner
        // is decided by the four-tuple *after* the port is chosen, so a
        // port is only safe to mint if no shard holds it.
        let local_port = self.table.alloc_ephemeral(|port| {
            self.slots.iter().any(|slot| {
                slot.stack
                    .lock()
                    .expect("shard stack lock")
                    .ephemeral_port_in_use(port)
            })
        })?;
        let key = ConnectionKey::new(self.local_addr, local_port, remote_addr, remote_port);
        let owner = self.table.steer(&key);
        self.table.note_placement(from, owner);
        let (id, syn) = self.slots[owner.index()]
            .stack
            .lock()
            .expect("shard stack lock")
            .connect_from(local_port, remote_addr, remote_port)?;
        Ok((owner, id, syn))
    }

    /// [`connect_from_shard`](Self::connect_from_shard) from shard 0 —
    /// convenient when the caller has no shard affinity to preserve.
    pub fn connect(
        &self,
        remote_addr: Ipv4Addr,
        remote_port: u16,
    ) -> Result<(ShardId, PcbId, Vec<u8>), StackError> {
        self.connect_from_shard(ShardId::default(), remote_addr, remote_port)
    }

    /// Run `f` against one shard's stack under its lock — the escape
    /// hatch for application logic (socket reads, sends, closes) that a
    /// handle returned by [`accept`](Self::accept) or
    /// [`connect`](Self::connect) points into.
    pub fn with_shard<R>(&self, shard: ShardId, f: impl FnOnce(&mut Stack) -> R) -> R {
        let mut stack = self.slots[shard.index()]
            .stack
            .lock()
            .expect("shard stack lock");
        f(&mut stack)
    }

    /// Drain one shard's pending transmissions under its window (see
    /// [`Stack::poll_transmit`]); returns the number of frames produced
    /// into `scratch`.
    pub fn poll_transmit(&self, shard: ShardId, scratch: &mut TxScratch) -> usize {
        self.with_shard(shard, |stack| stack.poll_transmit(scratch))
    }

    /// Advance every shard's clock to `tick`; per-shard results keep
    /// retransmit frames attributed to the shard that must re-emit them.
    pub fn advance_time(&self, tick: u64) -> Vec<(ShardId, TimeAdvance)> {
        self.slots
            .iter()
            .enumerate()
            .map(|(k, slot)| {
                let advance = slot
                    .stack
                    .lock()
                    .expect("shard stack lock")
                    .advance_time(tick);
                (ShardId::new(k), advance)
            })
            .collect()
    }

    /// The earliest timer deadline across all shards.
    pub fn next_timer_deadline(&self) -> Option<u64> {
        self.slots
            .iter()
            .filter_map(|slot| {
                slot.stack
                    .lock()
                    .expect("shard stack lock")
                    .next_timer_deadline()
            })
            .min()
    }

    /// Merged statistics across all shards — the same owned
    /// [`StatsSnapshot`] a single stack returns (counters add, telemetry
    /// aggregates merge; see [`StatsSnapshot::merge`]).
    pub fn stats(&self) -> StatsSnapshot {
        let parts: Vec<StatsSnapshot> = self
            .slots
            .iter()
            .map(|slot| slot.stack.lock().expect("shard stack lock").stats())
            .collect();
        StatsSnapshot::merge(&parts)
    }

    /// One shard's own statistics.
    pub fn shard_stats(&self, shard: ShardId) -> StatsSnapshot {
        self.slots[shard.index()]
            .stack
            .lock()
            .expect("shard stack lock")
            .stats()
    }

    /// Every shard's connections, tagged with their owning shard, in
    /// shard order — same row type as [`Stack::connection_table`].
    pub fn connection_table(&self) -> Vec<ConnectionInfo> {
        self.slots
            .iter()
            .flat_map(|slot| {
                slot.stack
                    .lock()
                    .expect("shard stack lock")
                    .connection_table()
            })
            .collect()
    }

    /// Every shard's listener rows (one per listener per shard — every
    /// listener is installed everywhere), in shard order.
    pub fn listener_table(&self) -> Vec<ListenerInfo> {
        self.slots
            .iter()
            .flat_map(|slot| {
                slot.stack
                    .lock()
                    .expect("shard stack lock")
                    .listener_table()
            })
            .collect()
    }

    /// Total live connections across shards.
    pub fn connection_count(&self) -> usize {
        self.slots
            .iter()
            .map(|slot| {
                slot.stack
                    .lock()
                    .expect("shard stack lock")
                    .connection_count()
            })
            .sum()
    }

    /// Per-shard ingress-ring counters, in shard order.
    pub fn ring_stats(&self) -> Vec<RingStats> {
        self.slots
            .iter()
            .map(|s| s.producer.lock().expect("shard producer lock").stats())
            .collect()
    }

    /// Local/cross placement counts for active opens.
    pub fn placements(&self) -> PlacementStats {
        self.table.placements()
    }

    /// Whether `port` has a listener installed (on every shard).
    pub fn is_listening(&self, port: u16) -> bool {
        self.table.is_listening(port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::RxOutcome;
    use std::net::Ipv4Addr;

    const SERVER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn client_stack(addr: Ipv4Addr) -> Stack {
        Stack::with_config(StackConfig::new(addr))
    }

    /// Push a frame and drain every shard until quiet, collecting all
    /// reply frames. Single-threaded shuttle for tests.
    fn pump(runtime: &ShardedStack, frame: Vec<u8>) -> Vec<Vec<u8>> {
        runtime.enqueue(frame).expect("ring accepts");
        let mut replies = Vec::new();
        loop {
            let mut progressed = false;
            for k in 0..runtime.shards() {
                let result = runtime.drain(ShardId::new(k), 64);
                for r in result.results {
                    let r = r.expect("valid frame");
                    progressed = true;
                    replies.extend(r.replies);
                }
            }
            if !progressed {
                break;
            }
        }
        replies
    }

    /// A K=1 server listening on port 80.
    fn one_shard_server() -> ShardedStack {
        let runtime = ShardedStack::with_config(StackConfig::new(SERVER), 1);
        runtime.listen(80).unwrap();
        runtime
    }

    /// Open a connection from `client` to `twin`'s port 80 and return the
    /// client's handle, SYN and handshake ACK. An identically built
    /// server answers the SYN with the same SYN-ACK, so both frames
    /// replay into it back to back.
    fn recorded_handshake(twin: &ShardedStack, client: &mut Stack) -> (PcbId, Vec<u8>, Vec<u8>) {
        let (cp, syn) = client.connect(SERVER, 80).unwrap();
        let synack = pump(twin, syn.clone());
        let ack = client.receive(&synack[0]).unwrap().replies[0].clone();
        pump(twin, ack.clone());
        (cp, syn, ack)
    }

    fn send_now(stack: &mut Stack, pcb: PcbId, payload: &[u8]) -> Vec<u8> {
        stack.send(pcb, payload).unwrap();
        let mut scratch = TxScratch::new();
        assert_eq!(stack.poll_transmit(&mut scratch), 1);
        scratch.frames.remove(0)
    }

    #[test]
    fn mid_batch_syn_is_visible_to_the_handshake_ack() {
        // SYN and its completing ACK in ONE drain: the ACK must find the
        // connection the SYN just inserted, not draw an RST.
        let (server, twin) = (one_shard_server(), one_shard_server());
        let (_cp, syn, ack) = recorded_handshake(&twin, &mut client_stack(CLIENT));

        server.enqueue(syn).unwrap();
        server.enqueue(ack).unwrap();
        let batch = server.drain(ShardId::default(), 64);
        assert!(matches!(
            batch.results[0].as_ref().unwrap().outcome,
            RxOutcome::NewConnection { .. }
        ));
        assert!(matches!(
            batch.results[1].as_ref().unwrap().outcome,
            RxOutcome::Established { .. }
        ));
        assert_eq!(server.stats().stack.resets_sent, 0);
    }

    #[test]
    fn drain_looks_each_keyed_frame_up_exactly_once() {
        // Table changes in the middle of a drain (a SYN inserting, a FIN
        // closing) must not cost the frames behind them a second lookup.
        const OTHER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);
        let (server, twin) = (one_shard_server(), one_shard_server());

        // Flow B is established on both servers before the drain.
        let mut b = client_stack(OTHER);
        let (bp, b_syn, b_ack) = recorded_handshake(&twin, &mut b);
        pump(&server, b_syn);
        pump(&server, b_ack);
        // Flow A's whole life is recorded against the twin.
        let mut a = client_stack(CLIENT);
        let (ap, a_syn, a_ack) = recorded_handshake(&twin, &mut a);
        let a_data = send_now(&mut a, ap, b"query");
        let a_fin = a.close(ap).unwrap();
        let b_data = send_now(&mut b, bp, b"row");

        let before = server.stats().demux;
        let keyed = [a_syn, a_ack, a_data, b_data, a_fin];
        for frame in keyed.iter().cloned().chain([vec![0u8; 8]]) {
            server.enqueue(frame).unwrap();
        }
        let batch = server.drain(ShardId::default(), 64);
        assert_eq!(batch.results.len(), keyed.len() + 1);
        assert!(batch.results[keyed.len()].is_err(), "garbage has no key");
        let outcomes: Vec<_> = batch.results[..keyed.len()]
            .iter()
            .map(|r| r.as_ref().unwrap().outcome)
            .collect();
        assert!(
            matches!(
                outcomes[..],
                [
                    RxOutcome::NewConnection { .. },
                    RxOutcome::Established { .. },
                    RxOutcome::Delivered { bytes: 5, .. },
                    RxOutcome::Delivered { bytes: 3, .. },
                    RxOutcome::PeerClosed { .. },
                ]
            ),
            "{outcomes:?}"
        );

        let after = server.stats().demux;
        assert_eq!(after.lookups - before.lookups, keyed.len() as u64);
        assert_eq!(batch.batched_lookups, keyed.len());
        assert_eq!(batch.relookups, 0);
        let examined: u64 = batch
            .results
            .iter()
            .flatten()
            .map(|r| u64::from(r.pcbs_examined))
            .sum();
        assert_eq!(after.pcbs_examined - before.pcbs_examined, examined);
    }

    #[test]
    fn handshake_lands_on_hash_owned_shard() {
        let runtime = ShardedStack::with_config(StackConfig::new(SERVER), 4);
        runtime.listen(1521).unwrap();
        assert!(runtime.is_listening(1521));
        assert_eq!(runtime.listener_table().len(), 4);

        let mut client = client_stack(CLIENT);
        let (cp, syn) = client.connect(SERVER, 1521).unwrap();
        let expected_shard = runtime.steer(&ConnectionKey::new(
            SERVER,
            1521,
            CLIENT,
            client.connection_table()[0].key.local_port,
        ));

        let synacks = pump(&runtime, syn);
        assert_eq!(synacks.len(), 1);
        let acks = client.receive(&synacks[0]).unwrap().replies;
        assert!(pump(&runtime, acks.into_iter().next().unwrap()).is_empty());
        assert!(client.is_established(cp));

        let (shard, sp) = runtime.accept(1521).expect("accepted");
        assert_eq!(shard, expected_shard);
        assert!(runtime.with_shard(shard, |s| s.is_established(sp)));

        let rows = runtime.connection_table();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].shard, shard);
        assert_eq!(runtime.steer(&rows[0].key), shard);
        assert!(rows[0].to_string().contains(&shard.to_string()));
    }

    #[test]
    fn connect_places_on_owning_shard_and_counts() {
        let runtime = ShardedStack::with_config(StackConfig::new(CLIENT), 4);
        let mut placed = std::collections::HashSet::new();
        for i in 0..16 {
            let (owner, id, _syn) = runtime
                .connect_from_shard(ShardId::default(), SERVER, 4000 + i)
                .unwrap();
            let key = runtime.with_shard(owner, |s| {
                assert!(s.state(id).is_some(), "pcb lives on owning shard");
                s.connection_table()
                    .iter()
                    .find(|row| row.key.remote_port == 4000 + i)
                    .unwrap()
                    .key
            });
            assert_eq!(runtime.steer(&key), owner);
            placed.insert(owner);
        }
        let p = runtime.placements();
        assert_eq!(p.local + p.cross, 16);
        assert!(p.cross > 0, "16 flows from one shard must cross somewhere");
        assert!(placed.len() > 1, "flows spread across shards");
        assert_eq!(runtime.connection_count(), 16);
    }

    #[test]
    fn ring_full_returns_frame() {
        let runtime = ShardedStack::with_config(StackConfig::new(SERVER).with_ring_capacity(2), 1);
        assert!(runtime.enqueue(vec![0u8; 32]).is_ok());
        assert!(runtime.enqueue(vec![1u8; 32]).is_ok());
        let err = runtime.enqueue(vec![2u8; 32]).unwrap_err();
        assert_eq!(err.shard, ShardId::default());
        assert_eq!(err.frame, vec![2u8; 32]);
        assert_eq!(runtime.ring_stats()[0].rejected, 1);
    }

    #[test]
    fn garbage_frames_go_to_shard_zero_and_count_errors() {
        let runtime = ShardedStack::with_config(StackConfig::new(SERVER), 4);
        let shard = runtime.enqueue(vec![0u8; 8]).unwrap();
        assert_eq!(shard, ShardId::default());
        let result = runtime.drain(shard, 16);
        assert_eq!(result.results.len(), 1);
        assert!(result.results[0].is_err());
        assert_eq!(runtime.stats().stack.ip_errors, 1);
        assert_eq!(runtime.shard_stats(ShardId::default()).stack.ip_errors, 1);
    }

    #[test]
    fn merged_stats_match_shard_sums() {
        let runtime = ShardedStack::with_config(StackConfig::new(SERVER), 2);
        runtime.listen(80).unwrap();
        let mut client = client_stack(CLIENT);
        for _ in 0..4 {
            let (_cp, syn) = client.connect(SERVER, 80).unwrap();
            pump(&runtime, syn);
        }
        let merged = runtime.stats();
        let by_hand: u64 = (0..2)
            .map(|k| runtime.shard_stats(ShardId::new(k)).stack.frames_in)
            .sum();
        assert_eq!(merged.stack.frames_in, by_hand);
        assert_eq!(merged.stack.frames_in, 4);
    }
}
