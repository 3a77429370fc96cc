//! Deterministic multi-shard scenario driver.
//!
//! Runs a complete request/response workload against a
//! [`ShardedStack`] server — handshakes, data transfer, teardown — with
//! one client [`Stack`] per connection, shuttling every frame through the
//! sharded runtime's ingress rings ([`ShardedStack::enqueue`] /
//! [`ShardedStack::drain`]). Everything is single-threaded and the event
//! order is a pure function of the config, so two runs with the same
//! seed produce byte-identical results.
//!
//! The point of the driver is the *shard-count invariance* experiment:
//! steering and per-shard state must be invisible to applications, so
//! running the same seed at K=1 and K=4 must yield identical
//! per-connection byte streams on both sides (pinned by
//! `tests/shard_properties.rs`).

use std::collections::{BTreeMap, VecDeque};
use std::net::Ipv4Addr;
use tcpdemux_pcb::{ConnectionKey, PcbId};
use tcpdemux_stack::{
    PlacementStats, RingStats, RxOutcome, ShardId, ShardedStack, Stack, StackConfig, StatsSnapshot,
    TxScratch,
};

use crate::rng::SimRng;

/// The server's address in every scenario.
pub const SHARD_SIM_SERVER: Ipv4Addr = Ipv4Addr::new(10, 42, 0, 1);
/// The listening port in every scenario.
pub const SHARD_SIM_PORT: u16 = 1521;

/// Which traffic mix a scenario run generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardWorkload {
    /// TPC/A-shaped: small request, small response, one exchange per
    /// connection per round (the paper's §2 workload, sans think times —
    /// the driver is about correctness and steering, not queueing).
    Tpca,
    /// Bulk-transfer-shaped: tiny request, multi-segment response
    /// (packet trains, §3.1).
    Bulk,
}

/// Scenario parameters. Equal configs produce byte-identical runs.
#[derive(Debug, Clone, Copy)]
pub struct ShardScenarioConfig {
    /// Number of shards for the server runtime.
    pub shards: usize,
    /// Concurrent client connections.
    pub connections: usize,
    /// Request/response rounds per connection.
    pub rounds: usize,
    /// RNG seed for payload sizes and contents.
    pub seed: u64,
    /// Traffic mix.
    pub workload: ShardWorkload,
    /// Capacity of each shard's ingress ring.
    pub ring_capacity: usize,
}

impl ShardScenarioConfig {
    /// A TPC/A-mix scenario at the given shard count and seed.
    pub fn tpca(shards: usize, seed: u64) -> Self {
        Self {
            shards,
            connections: 32,
            rounds: 4,
            seed,
            workload: ShardWorkload::Tpca,
            ring_capacity: 256,
        }
    }

    /// A bulk-mix scenario at the given shard count and seed.
    pub fn bulk(shards: usize, seed: u64) -> Self {
        Self {
            shards,
            connections: 8,
            rounds: 4,
            seed,
            workload: ShardWorkload::Bulk,
            ring_capacity: 256,
        }
    }
}

/// The application-visible byte streams of one connection.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConnStreams {
    /// Bytes the server application read from its socket.
    pub server_rx: Vec<u8>,
    /// Bytes the client application read from its socket.
    pub client_rx: Vec<u8>,
}

/// Everything a scenario run produced.
#[derive(Debug)]
pub struct ShardScenarioReport {
    /// Per-connection byte streams, keyed by the *server-perspective*
    /// four-tuple. This is the shard-count-invariant quantity.
    pub per_connection: BTreeMap<ConnectionKey, ConnStreams>,
    /// Merged stats across all shards (one introspection surface).
    pub stats: StatsSnapshot,
    /// Steering placements (local vs cross-shard `connect` hints).
    pub placements: PlacementStats,
    /// Per-shard ingress-ring counters.
    pub rings: Vec<RingStats>,
    /// Frames pushed into the server's ingress rings.
    pub frames_to_server: u64,
    /// Frames delivered to client stacks.
    pub frames_to_clients: u64,
}

struct ClientSlot {
    stack: Stack,
    pcb: PcbId,
    addr: Ipv4Addr,
    inbox: VecDeque<Vec<u8>>,
    server_key: ConnectionKey,
    server_loc: Option<(ShardId, PcbId)>,
}

/// Run one scenario to completion. See the module docs for the shape.
pub fn run_shard_scenario(cfg: &ShardScenarioConfig) -> ShardScenarioReport {
    assert!(cfg.shards > 0 && cfg.connections > 0);
    let server = ShardedStack::with_config(
        StackConfig::new(SHARD_SIM_SERVER).with_ring_capacity(cfg.ring_capacity),
        cfg.shards,
    );
    server.listen(SHARD_SIM_PORT).expect("fresh port");

    let mut to_server: VecDeque<Vec<u8>> = VecDeque::new();
    let mut frames_to_server = 0u64;
    let mut frames_to_clients = 0u64;

    // Handshake every client through the rings.
    let mut clients: Vec<ClientSlot> = (0..cfg.connections)
        .map(|i| {
            let addr = Ipv4Addr::new(10, 42, 1 + (i >> 8) as u8, (i & 0xff) as u8);
            let mut stack = Stack::with_config(StackConfig::new(addr));
            let (pcb, syn) = stack
                .connect(SHARD_SIM_SERVER, SHARD_SIM_PORT)
                .expect("connect");
            to_server.push_back(syn);
            let client_key = stack.connection_key(pcb).expect("live pcb");
            // The server sees the mirrored four-tuple.
            let server_key = ConnectionKey::new(
                SHARD_SIM_SERVER,
                SHARD_SIM_PORT,
                client_key.local_addr,
                client_key.local_port,
            );
            ClientSlot {
                stack,
                pcb,
                addr,
                inbox: VecDeque::new(),
                server_key,
                server_loc: None,
            }
        })
        .collect();
    pump(
        &server,
        &mut clients,
        &mut to_server,
        &mut frames_to_server,
        &mut frames_to_clients,
    );
    for client in &clients {
        assert!(
            client.stack.is_established(client.pcb),
            "handshake failed for {}",
            client.addr
        );
    }

    // Locate each accepted connection: the accept queue tells us the
    // owning shard, the PCB's key tells us which client it belongs to.
    let mut accepted: BTreeMap<ConnectionKey, (ShardId, PcbId)> = BTreeMap::new();
    while let Some((shard, pcb)) = server.accept(SHARD_SIM_PORT) {
        let key = server
            .with_shard(shard, |stack| stack.connection_key(pcb))
            .expect("accepted pcb has a key");
        accepted.insert(key, (shard, pcb));
    }
    assert_eq!(
        accepted.len(),
        cfg.connections,
        "every SYN must be accepted"
    );
    for client in &mut clients {
        client.server_loc = Some(accepted[&client.server_key]);
    }

    // Request/response rounds. All requests of a round are enqueued
    // before any draining happens, so frames from different connections
    // genuinely share the rings.
    let mut streams: BTreeMap<ConnectionKey, ConnStreams> = clients
        .iter()
        .map(|c| (c.server_key, ConnStreams::default()))
        .collect();
    let mut rng = SimRng::new(cfg.seed);
    let mut scratch = TxScratch::new();
    for _round in 0..cfg.rounds {
        let mut responses: Vec<(usize, Vec<u8>)> = Vec::new();
        for (i, client) in clients.iter_mut().enumerate() {
            let (request, response) = exchange_payloads(cfg.workload, &mut rng);
            let accepted = client.stack.send(client.pcb, &request).expect("send");
            assert_eq!(accepted, request.len(), "request fits the send buffer");
            client.stack.poll_transmit(&mut scratch);
            to_server.extend(scratch.frames.drain(..));
            responses.push((i, response));
        }
        pump(
            &server,
            &mut clients,
            &mut to_server,
            &mut frames_to_server,
            &mut frames_to_clients,
        );
        for (i, response) in responses {
            let client = &mut clients[i];
            let (shard, pcb) = client.server_loc.expect("accepted");
            // The server application echoes its read and sends the
            // response in MSS-safe chunks.
            let read = server.with_shard(shard, |stack| {
                stack.socket_mut(pcb).expect("server socket").read_all()
            });
            streams
                .get_mut(&client.server_key)
                .expect("known connection")
                .server_rx
                .extend_from_slice(&read);
            for chunk in response.chunks(512) {
                let accepted =
                    server.with_shard(shard, |stack| stack.send(pcb, chunk).expect("send"));
                assert_eq!(accepted, chunk.len(), "chunk fits the send buffer");
            }
            server.poll_transmit(shard, &mut scratch);
            client.inbox.extend(scratch.frames.drain(..));
        }
        pump(
            &server,
            &mut clients,
            &mut to_server,
            &mut frames_to_server,
            &mut frames_to_clients,
        );
        for client in &mut clients {
            let delivered = client
                .stack
                .socket_mut(client.pcb)
                .expect("client socket")
                .read_all();
            streams
                .get_mut(&client.server_key)
                .expect("known connection")
                .client_rx
                .extend_from_slice(&delivered);
        }
    }

    // Graceful teardown from the client side exercises FIN handling on
    // whichever shard owns each connection.
    for client in &mut clients {
        let fin = client.stack.close(client.pcb).expect("close");
        to_server.push_back(fin);
    }
    pump(
        &server,
        &mut clients,
        &mut to_server,
        &mut frames_to_server,
        &mut frames_to_clients,
    );

    ShardScenarioReport {
        per_connection: streams,
        stats: server.stats(),
        placements: server.placements(),
        rings: server.ring_stats(),
        frames_to_server,
        frames_to_clients,
    }
}

/// One round's request and expected-response payloads, drawn from the
/// scenario RNG. Both are functions of the seed alone — never of the
/// shard count — which is what makes the invariance experiment valid.
fn exchange_payloads(workload: ShardWorkload, rng: &mut SimRng) -> (Vec<u8>, Vec<u8>) {
    let (req_len, resp_len) = match workload {
        ShardWorkload::Tpca => (64 + rng.below(64) as usize, 128 + rng.below(128) as usize),
        ShardWorkload::Bulk => (16, 2048 + rng.below(2048) as usize),
    };
    let mut request = Vec::with_capacity(req_len);
    for _ in 0..req_len {
        request.push(rng.below(256) as u8);
    }
    let mut response = Vec::with_capacity(resp_len);
    for _ in 0..resp_len {
        response.push(rng.below(256) as u8);
    }
    (request, response)
}

/// Shuttle frames until the network is quiet: push everything bound for
/// the server into its rings, drain every shard in order, route replies
/// to clients by destination address, feed client inboxes, and collect
/// the ACKs they generate — repeating until no frame moved.
fn pump(
    server: &ShardedStack,
    clients: &mut [ClientSlot],
    to_server: &mut VecDeque<Vec<u8>>,
    frames_to_server: &mut u64,
    frames_to_clients: &mut u64,
) {
    loop {
        let mut moved = false;
        while let Some(frame) = to_server.pop_front() {
            moved = true;
            *frames_to_server += 1;
            let mut frame = frame;
            loop {
                match server.enqueue(frame) {
                    Ok(_) => break,
                    Err(full) => {
                        // Ring back-pressure: drain the hot shard and
                        // retry. Replies produced here are routed below.
                        route_batch(server.drain(full.shard, usize::MAX), clients);
                        frame = full.frame;
                    }
                }
            }
        }
        for shard in 0..server.shards() {
            let batch = server.drain(ShardId::new(shard), usize::MAX);
            if !batch.results.is_empty() {
                moved = true;
            }
            route_batch(batch, clients);
        }
        for client in clients.iter_mut() {
            while let Some(frame) = client.inbox.pop_front() {
                moved = true;
                *frames_to_clients += 1;
                let result = client.stack.receive(&frame).expect("client rx");
                assert!(
                    !matches!(result.outcome, RxOutcome::ResetSent),
                    "client {} reset a server frame",
                    client.addr
                );
                to_server.extend(result.replies);
            }
        }
        if !moved {
            return;
        }
    }
}

/// Route every reply frame in a drained batch to the client that owns
/// its destination address (IPv4 bytes 16..20 — these are raw IP frames).
fn route_batch(batch: tcpdemux_stack::BatchRxResult, clients: &mut [ClientSlot]) {
    for result in batch.results {
        let rx = result.expect("server rx");
        for reply in rx.replies {
            let dst = Ipv4Addr::new(reply[16], reply[17], reply[18], reply[19]);
            let client = clients
                .iter_mut()
                .find(|c| c.addr == dst)
                .unwrap_or_else(|| panic!("reply to unknown client {dst}"));
            client.inbox.push_back(reply);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tpca_scenario_round_trips_every_connection() {
        let report = run_shard_scenario(&ShardScenarioConfig {
            connections: 8,
            rounds: 2,
            ..ShardScenarioConfig::tpca(4, 7)
        });
        assert_eq!(report.per_connection.len(), 8);
        for (key, streams) in &report.per_connection {
            assert!(!streams.server_rx.is_empty(), "{key:?} sent nothing");
            assert!(!streams.client_rx.is_empty(), "{key:?} got nothing");
        }
        assert!(report.frames_to_server > 0 && report.frames_to_clients > 0);
    }

    #[test]
    fn same_seed_same_shards_is_byte_identical() {
        let cfg = ShardScenarioConfig::tpca(2, 11);
        let a = run_shard_scenario(&cfg);
        let b = run_shard_scenario(&cfg);
        assert_eq!(a.per_connection, b.per_connection);
        assert_eq!(a.frames_to_server, b.frames_to_server);
    }

    #[test]
    fn bulk_scenario_streams_multi_segment_responses() {
        let report = run_shard_scenario(&ShardScenarioConfig::bulk(2, 3));
        for streams in report.per_connection.values() {
            assert!(streams.client_rx.len() > 1024, "bulk response too small");
        }
    }
}
