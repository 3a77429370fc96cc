//! Spans around every call into the stack under test, kept in memory
//! and written out when the run ends, plus the key-event log the `core`
//! probes replay.

use std::io::Write;
use std::time::Instant;
use tcpdemux_pcb::ConnectionKey;

/// What a span timed. `Receive*` is one `Stack::receive`, split by what
/// the frame turned out to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    Block,
    ReceiveData,
    ReceiveAck,
    ReceiveSyn,
    ReceiveFin,
    ReceiveMiss,
    ReadInto,
    Send,
    PollTransmit,
    Recycle,
    Accept,
    Close,
    AdvanceTime,
    Enqueue,
    Drain,
}

impl SpanKind {
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Block => "block",
            SpanKind::ReceiveData => "stack.receive_data",
            SpanKind::ReceiveAck => "stack.receive_ack",
            SpanKind::ReceiveSyn => "stack.receive_syn",
            SpanKind::ReceiveFin => "stack.receive_fin",
            SpanKind::ReceiveMiss => "stack.receive_miss",
            SpanKind::ReadInto => "stack.socket.read_into",
            SpanKind::Send => "stack.send",
            SpanKind::PollTransmit => "stack.poll_transmit",
            SpanKind::Recycle => "stack.recycle",
            SpanKind::Accept => "stack.accept",
            SpanKind::Close => "stack.close",
            SpanKind::AdvanceTime => "stack.advance_time",
            SpanKind::Enqueue => "stack.runtime.enqueue",
            SpanKind::Drain => "stack.runtime.drain",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: SpanKind,
    pub start_ns: u64,
    pub dur_ns: u32,
    /// Index of the enclosing block span; a block span is its own root.
    pub parent: u32,
    /// The operation the call served (block-level calls carry the
    /// block's first operation).
    pub op: u32,
    /// Frames or bytes the call handled, where that is meaningful.
    pub aux: u32,
}

/// A change to, or a question asked of, the stack's connection table,
/// in the order the stack saw it.
#[derive(Debug, Clone, Copy)]
pub enum KeyEvent {
    Lookup(ConnectionKey),
    Insert(ConnectionKey),
    Remove(ConnectionKey),
}

/// Inbound and outbound frames kept for the layer probes.
pub const CAPTURE_FRAMES: usize = 4096;
/// Spans written to the trace file; the rest stay in the aggregates.
const SPANS_WRITTEN: usize = 50_000;

#[derive(Default)]
pub struct Tracer {
    /// Log key events (from the first SYN, so a mirror table can follow
    /// the stack's exactly).
    pub events_on: bool,
    /// Record spans and capture frames (the measured part of a traced
    /// pass).
    pub spans_on: bool,
    epoch: Option<Instant>,
    pub spans: Vec<Span>,
    /// `(shard, event)`.
    pub events: Vec<(u16, KeyEvent)>,
    /// `events[..measured_from]` happened during set-up.
    pub measured_from: usize,
    pub inbound: Vec<Vec<u8>>,
    pub outbound: Vec<Vec<u8>>,
    block: u32,
    block_start: u64,
    first_op: u32,
}

impl Tracer {
    pub fn traced() -> Self {
        Self {
            events_on: true,
            epoch: Some(Instant::now()),
            ..Self::default()
        }
    }

    /// A tracer for one of several stacks under test: same clock, same
    /// span switch, no key events. Its spans come back through
    /// [`absorb`](Self::absorb).
    pub fn child(&self) -> Self {
        Self {
            spans_on: self.spans_on,
            epoch: self.epoch,
            ..Self::default()
        }
    }

    /// Take over a child's spans (re-parented) and captured frames.
    pub fn absorb(&mut self, child: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(child.spans.into_iter().map(|s| Span {
            parent: s.parent + base,
            ..s
        }));
        for frame in child.inbound {
            self.capture_inbound(&frame);
        }
        for frame in child.outbound {
            self.capture_outbound(&frame);
        }
    }

    /// Set-up is over: start recording spans.
    pub fn start_measuring(&mut self) {
        self.spans_on = self.events_on;
        self.measured_from = self.events.len();
    }

    fn now(&self) -> u64 {
        self.epoch.map_or(0, |e| e.elapsed().as_nanos() as u64)
    }

    pub fn begin_block(&mut self, first_op: u64) {
        if self.spans_on {
            self.block = self.spans.len() as u32;
            self.first_op = first_op as u32;
            self.block_start = self.now();
            self.spans.push(Span {
                kind: SpanKind::Block,
                start_ns: self.block_start,
                dur_ns: 0,
                parent: self.block,
                op: self.first_op,
                aux: 0,
            });
        }
    }

    pub fn end_block(&mut self) {
        if self.spans_on {
            let dur = self.now() - self.block_start;
            self.spans[self.block as usize].dur_ns = dur as u32;
        }
    }

    /// Start of a span: 0 when spans are off.
    #[inline]
    pub fn begin(&self) -> u64 {
        if self.spans_on {
            self.now()
        } else {
            0
        }
    }

    /// End of a span begun at `start`; `slot` is the operation's position
    /// in its block.
    #[inline]
    pub fn end(&mut self, start: u64, kind: SpanKind, slot: usize, aux: usize) {
        if self.spans_on {
            let dur = self.now() - start;
            self.spans.push(Span {
                kind,
                start_ns: start,
                dur_ns: dur as u32,
                parent: self.block,
                op: self.first_op + slot as u32,
                aux: aux as u32,
            });
        }
    }

    pub fn event(&mut self, shard: u16, event: KeyEvent) {
        if self.events_on {
            self.events.push((shard, event));
        }
    }

    pub fn capture_inbound(&mut self, frame: &[u8]) {
        if self.spans_on && self.inbound.len() < CAPTURE_FRAMES {
            self.inbound.push(frame.to_vec());
        }
    }

    pub fn capture_outbound(&mut self, frame: &[u8]) {
        if self.spans_on && self.outbound.len() < CAPTURE_FRAMES {
            self.outbound.push(frame.to_vec());
        }
    }

    /// Durations of every span of one kind, with each span's `aux`.
    pub fn durations(&self, kind: SpanKind) -> Vec<(u32, u32)> {
        self.spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| (s.dur_ns, s.aux))
            .collect()
    }

    /// One JSON object per line: `id`, `name`, `start_ns`, `end_ns`,
    /// `parent`, `op`, `aux`. Whole blocks only, so every parent is in
    /// the file.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut end = self.spans.len().min(SPANS_WRITTEN);
        while end < self.spans.len() && self.spans[end].kind != SpanKind::Block {
            end += 1;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans[..end].iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{},\"aux\":{}}}",
                s.kind.name(),
                s.start_ns,
                s.start_ns + u64::from(s.dur_ns),
                s.parent,
                s.op,
                s.aux
            )?;
        }
        out.flush()
    }
}
