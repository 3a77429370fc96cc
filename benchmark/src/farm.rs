//! The peers: real `Stack`s playing the client hosts, so sequence
//! numbers, windows and ACKs on the wire are genuine. Nothing here is
//! timed. Payload is a position-addressed pattern per connection and
//! direction, so every byte read on either side can be checked against
//! where it sits in its stream.

use crate::server::{Clock, Handle, Phase, Server, Sink, PORT, SERVER_ADDR};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use tcpdemux_pcb::PcbId;
use tcpdemux_stack::{RxOutcome, Stack, StackConfig, TxScratch};

pub const CONNS_PER_HOST: usize = 40;
/// Client hosts are 10.1.x.y with y in 1..=250.
const HOSTS_PER_SUBNET: usize = 250;
/// Stream id bit of the server-to-client direction.
const S2C: u32 = 1 << 31;

fn mix(id: u32, word: u64) -> u64 {
    let z = (u64::from(id) << 40) ^ word;
    let z = (z ^ (z >> 31)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z ^ (z >> 29)
}

/// Bytes `[off, off + out.len())` of stream `id`.
pub fn pattern_fill(id: u32, off: u64, out: &mut [u8]) {
    let mut word = off / 8;
    let mut skip = (off % 8) as usize;
    let mut at = 0;
    while at < out.len() {
        let bytes = mix(id, word).to_le_bytes();
        let n = (8 - skip).min(out.len() - at);
        out[at..at + n].copy_from_slice(&bytes[skip..skip + n]);
        at += n;
        skip = 0;
        word += 1;
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Conn {
    pub host: u32,
    pub cpcb: PcbId,
    /// The server's side, once accepted.
    pub handle: Option<Handle>,
    /// Stream id; unique over the run.
    id: u32,
    pub c2s_sent: u64,
    pub c2s_read: u64,
    pub s2c_sent: u64,
    pub s2c_read: u64,
}

pub struct Farm {
    hosts: Vec<Stack>,
    pub conns: Vec<Conn>,
    /// Hosts `[..standing_hosts]` are 10.1.x.y; the rest are the churn
    /// hosts 10.2.0.y.
    standing_hosts: usize,
    by_client: HashMap<(u32, PcbId), u32>,
    by_server: HashMap<Handle, u32>,
    scratch: TxScratch,
    payload: Vec<u8>,
    expect: Vec<u8>,
    next_id: u32,
    /// Anything a peer saw that a correct server would not have caused.
    pub failed: u64,
}

impl Farm {
    pub fn new(standing_hosts: usize, churn_hosts: usize) -> Self {
        assert!(churn_hosts <= HOSTS_PER_SUBNET);
        let standing = (0..standing_hosts).map(|h| {
            Ipv4Addr::new(
                10,
                1,
                (h / HOSTS_PER_SUBNET) as u8,
                (h % HOSTS_PER_SUBNET) as u8 + 1,
            )
        });
        let churn = (0..churn_hosts).map(|h| Ipv4Addr::new(10, 2, 0, h as u8 + 1));
        Self {
            hosts: standing
                .chain(churn)
                .map(|addr| Stack::with_config(StackConfig::new(addr)))
                .collect(),
            conns: Vec::new(),
            standing_hosts,
            by_client: HashMap::new(),
            by_server: HashMap::new(),
            scratch: TxScratch::new(),
            payload: vec![0; 16 * 1024],
            expect: vec![0; 16 * 1024],
            next_id: 0,
            failed: 0,
        }
    }

    /// Index of churn host `j`.
    pub fn churn_host(&self, j: usize) -> usize {
        self.standing_hosts + j
    }

    /// Which host a frame from the server is addressed to.
    fn host_of(&self, frame: &[u8]) -> Option<usize> {
        let dst = frame.get(16..20)?;
        let host = match dst[1] {
            1 => usize::from(dst[2]) * HOSTS_PER_SUBNET + usize::from(dst[3]).checked_sub(1)?,
            2 => self.standing_hosts + usize::from(dst[3]).checked_sub(1)?,
            _ => return None,
        };
        (host < self.hosts.len()).then_some(host)
    }

    /// Active open from `host`: the SYN goes on `wire`.
    pub fn open(&mut self, host: usize, wire: &mut Vec<Vec<u8>>) -> usize {
        let (cpcb, syn) = self.hosts[host]
            .connect(SERVER_ADDR, PORT)
            .expect("client has a free port");
        wire.push(syn);
        let c = self.conns.len();
        self.by_client.insert((host as u32, cpcb), c as u32);
        self.conns.push(Conn {
            host: host as u32,
            cpcb,
            handle: None,
            id: self.next_id,
            c2s_sent: 0,
            c2s_read: 0,
            s2c_sent: 0,
            s2c_read: 0,
        });
        self.next_id += 1;
        c
    }

    /// The server accepted connection `c` as `handle`.
    pub fn bind(&mut self, c: usize, handle: Handle) {
        self.conns[c].handle = Some(handle);
        self.by_server.insert(handle, c as u32);
    }

    /// Forget the newest `n` connections (closed on both sides).
    pub fn retire_newest(&mut self, n: usize) {
        for conn in self.conns.drain(self.conns.len() - n..) {
            self.by_client.remove(&(conn.host, conn.cpcb));
            if let Some(handle) = conn.handle {
                self.by_server.remove(&handle);
            }
        }
    }

    /// Establish `n` standing connections, 40 per host, one at a time:
    /// SYN, SYN-ACK, ACK, accept.
    pub fn establish<S: Server>(&mut self, server: &mut S, clock: &mut Clock, n: usize) {
        let mut sink = Sink::new();
        let mut wire = Vec::new();
        for i in 0..n {
            let c = self.open(i / CONNS_PER_HOST, &mut wire);
            clock.start(Phase::Other);
            server.ingest(&mut wire, &mut sink);
            clock.stop();
            wire.clear();
            self.absorb(&sink.replies, &mut wire);
            clock.start(Phase::Other);
            server.recycle(&mut sink.replies);
            server.ingest(&mut wire, &mut sink);
            let handle = server.accept(0);
            clock.stop();
            wire.clear();
            let handshake = [
                matches!(
                    sink.arrivals.first().and_then(|a| a.outcome),
                    Some(RxOutcome::NewConnection { .. })
                ),
                matches!(
                    sink.arrivals.get(1).and_then(|a| a.outcome),
                    Some(RxOutcome::Established { .. })
                ),
            ];
            match handle {
                Some(handle) if handshake == [true, true] => self.bind(c, handle),
                _ => self.failed += 1,
            }
            sink.clear();
        }
    }

    /// Client `c` writes the next `len` bytes of its stream; whatever its
    /// window lets out goes on `wire`.
    pub fn emit(&mut self, c: usize, len: usize, wire: &mut Vec<Vec<u8>>) {
        let conn = &mut self.conns[c];
        pattern_fill(conn.id, conn.c2s_sent, &mut self.payload[..len]);
        let host = &mut self.hosts[conn.host as usize];
        if host.send(conn.cpcb, &self.payload[..len]) != Ok(len) {
            self.failed += 1;
        }
        conn.c2s_sent += len as u64;
        host.poll_transmit(&mut self.scratch);
        wire.append(&mut self.scratch.frames);
    }

    /// Anything more client `c`'s window has opened for.
    pub fn pump(&mut self, c: usize, wire: &mut Vec<Vec<u8>>) {
        let conn = &self.conns[c];
        self.hosts[conn.host as usize].poll_transmit(&mut self.scratch);
        wire.append(&mut self.scratch.frames);
    }

    /// The next `out.len()` bytes the server owes connection `c`.
    pub fn response_into(&mut self, c: usize, out: &mut [u8]) {
        let conn = &mut self.conns[c];
        pattern_fill(conn.id | S2C, conn.s2c_sent, out);
        conn.s2c_sent += out.len() as u64;
    }

    /// The connection the server knows as `handle`.
    pub fn conn_of(&self, handle: Handle) -> Option<usize> {
        self.by_server.get(&handle).map(|&c| c as usize)
    }

    /// Client `c` closes; the FIN goes on `wire`.
    pub fn close(&mut self, c: usize, wire: &mut Vec<Vec<u8>>) {
        let conn = &self.conns[c];
        match self.hosts[conn.host as usize].close(conn.cpcb) {
            Ok(fin) => wire.push(fin),
            Err(_) => self.failed += 1,
        }
    }

    /// Whether a frame from the server is addressed to a client host
    /// (10.x) rather than to a flood source.
    pub fn is_ours(frame: &[u8]) -> bool {
        frame.get(16) == Some(&10)
    }

    /// Deliver the server's frames to the hosts they are addressed to
    /// (frames for flood sources are the caller's to count). Payload is
    /// read and checked byte for byte; the hosts' replies go on `wire`.
    /// Returns how many frames carried payload.
    pub fn absorb(&mut self, frames: &[(u16, Vec<u8>)], wire: &mut Vec<Vec<u8>>) -> usize {
        let mut data_frames = 0;
        for (_, frame) in frames {
            if !Self::is_ours(frame) {
                continue;
            }
            let Some(host) = self.host_of(frame) else {
                self.failed += 1;
                continue;
            };
            let Ok(result) = self.hosts[host].receive(frame) else {
                self.failed += 1;
                continue;
            };
            match result.outcome {
                RxOutcome::Delivered { pcb, .. } => {
                    data_frames += 1;
                    let Some(&c) = self.by_client.get(&(host as u32, pcb)) else {
                        self.failed += 1;
                        continue;
                    };
                    let conn = &mut self.conns[c as usize];
                    let socket = self.hosts[host].socket_mut(pcb).expect("delivered to it");
                    let n = socket.read_into(&mut self.payload);
                    pattern_fill(conn.id | S2C, conn.s2c_read, &mut self.expect[..n]);
                    if self.payload[..n] != self.expect[..n] {
                        self.failed += 1;
                    }
                    conn.s2c_read += n as u64;
                }
                RxOutcome::AckProcessed { .. }
                | RxOutcome::Established { .. }
                | RxOutcome::PeerClosed { .. }
                | RxOutcome::TimeWait { .. }
                | RxOutcome::Closed => {}
                _ => self.failed += 1,
            }
            wire.extend(result.replies);
        }
        data_frames
    }

    /// Check what the server read out of its sockets during one `ingest`
    /// against the clients' streams. Returns the bytes checked.
    pub fn check_reads(&mut self, sink: &Sink) -> u64 {
        let mut at = 0;
        for arrival in &sink.arrivals {
            let Some(RxOutcome::Delivered { pcb, .. }) = arrival.outcome else {
                continue;
            };
            let handle = Handle {
                shard: arrival.shard,
                pcb,
            };
            let Some(&c) = self.by_server.get(&handle) else {
                self.failed += 1;
                continue;
            };
            let conn = &mut self.conns[c as usize];
            let n = arrival.read;
            pattern_fill(conn.id, conn.c2s_read, &mut self.expect[..n]);
            if sink.bytes[at..at + n] != self.expect[..n] {
                self.failed += 1;
            }
            conn.c2s_read += n as u64;
            at += n;
        }
        at as u64
    }

    /// Every byte sent was read at the other end, in both directions.
    pub fn streams_balanced(&self) -> bool {
        self.conns
            .iter()
            .all(|c| c.c2s_sent == c.c2s_read && c.s2c_sent == c.s2c_read)
    }
}
