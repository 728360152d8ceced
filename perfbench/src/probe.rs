//! Measurement from outside the program: a monotonic clock, a counting
//! allocator, an in-memory span log, and decorators around the
//! `SegmentTransport` handed to each `TcpHost` and the `NetStack`/`Conn`
//! handed to each server. The decorators are installed only in the traced
//! run; the untraced run hands the program the bare objects.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use bytes::Bytes;
use eveth_core::event::Event;
use eveth_core::net::{Conn, Endpoint, HostId, Listener, NetError, NetStack};
use eveth_core::reactor::Fd;
use eveth_core::ThreadM;
use eveth_tcp::{LoopbackNet, Segment, SegmentTransport};

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

static COUNTING: AtomicBool = AtomicBool::new(false);

/// Allocation counts, striped over cache lines so that threads allocating
/// at once rarely share a counter.
#[repr(align(64))]
struct Stripe(AtomicU64);

const STRIPES: usize = 16;
static ALLOCS: [Stripe; STRIPES] = [const { Stripe(AtomicU64::new(0)) }; STRIPES];

fn count_alloc() {
    thread_local!(static ANCHOR: u8 = const { 0 });
    // A thread-local's address tells threads apart without allocating.
    let addr = ANCHOR.try_with(|a| a as *const u8 as usize).unwrap_or(0);
    let idx = (addr >> 6).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (usize::BITS - 4);
    ALLOCS[idx % STRIPES].0.fetch_add(1, Relaxed);
}

/// The system allocator, counting `alloc`/`realloc` calls while
/// [`set_counting`] is on.
pub struct CountingAlloc;

// SAFETY: every operation is delegated unchanged to `System`; the only
// addition is a relaxed counter update that never allocates, so `System`'s
// guarantees carry over.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            count_alloc();
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            count_alloc();
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Turns allocation counting on or off.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Relaxed);
}

/// Allocations counted so far.
pub fn allocs() -> u64 {
    ALLOCS.iter().map(|s| s.0.load(Relaxed)).sum()
}

/// One recorded call across a layer boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Boundary name, e.g. `tcp.conn.sendv`.
    pub name: &'static str,
    /// Start, [`now_ns`] clock.
    pub start: u64,
    /// End, [`now_ns`] clock.
    pub end: u64,
    /// Host the call ran on.
    pub host: u32,
    /// Batch id: client id and batch number on the client side,
    /// connection id and call number on the server side (high and low
    /// 32 bits).
    pub batch: u64,
}

/// Spans kept before further ones are only counted.
const SPAN_CAP: usize = 200_000;

/// Spans kept in memory during the run and written out at its end.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU64,
}

impl SpanLog {
    /// Records one span (counted as dropped once the log is full).
    pub fn record(&self, span: Span) {
        let mut spans = self.spans.lock().expect("span log poisoned");
        if spans.len() < SPAN_CAP {
            spans.push(span);
        } else {
            self.dropped.fetch_add(1, Relaxed);
        }
    }

    /// Writes the spans as JSON to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span log poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"clock\": \"ns since process start\", \"dropped\": {}, \"spans\": [",
            self.dropped.load(Relaxed)
        )?;
        for (i, s) in spans.iter().enumerate() {
            let sep = if i + 1 == spans.len() { "" } else { "," };
            writeln!(
                out,
                "[\"{}\", {}, {}, {}, {}]{sep}",
                s.name, s.start, s.end, s.host, s.batch
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Counters the decorators keep, shared by every decorated object of one
/// deployment.
#[derive(Debug, Default)]
pub struct Probe {
    /// Span log.
    pub spans: Arc<SpanLog>,
    /// Segments offered to the transport.
    pub segments: AtomicU64,
    /// Segments with no payload and no SYN/FIN/RST.
    pub pure_acks: AtomicU64,
    /// Payload bytes carried.
    pub payload_bytes: AtomicU64,
    /// Data segments starting below the highest sequence already sent on
    /// their flow.
    pub retransmitted: AtomicU64,
    /// Nanoseconds spent in the transport's `send` (delivery included).
    pub inject_ns: AtomicU64,
    /// `Conn::recv` calls on server-side connections.
    pub recv_calls: AtomicU64,
    /// Bytes those calls returned.
    pub recv_bytes: AtomicU64,
    /// `Conn::sendv` calls on server-side connections.
    pub sendv_calls: AtomicU64,
    /// Nanoseconds from the start to the end of those calls.
    pub sendv_ns: AtomicU64,
    flows: Mutex<HashMap<(u32, u16, u32, u16), u32>>,
    next_conn: AtomicU32,
}

impl Probe {
    /// A fresh probe.
    pub fn new() -> Arc<Probe> {
        Arc::new(Probe::default())
    }
}

/// The transport decorator: counts segments and times delivery.
pub struct TracedTransport {
    /// The loopback the segments really travel over.
    pub inner: Arc<LoopbackNet>,
    /// Where the counts go.
    pub probe: Arc<Probe>,
}

impl SegmentTransport for TracedTransport {
    fn send(&self, src: HostId, dst: HostId, seg: Segment) {
        let p = &self.probe;
        let len = seg.payload.len() as u32;
        p.segments.fetch_add(1, Relaxed);
        p.payload_bytes.fetch_add(u64::from(len), Relaxed);
        if len == 0 && !(seg.flags.syn || seg.flags.fin || seg.flags.rst) {
            p.pure_acks.fetch_add(1, Relaxed);
        }
        if len > 0 {
            let flow = (src.0, seg.src_port, dst.0, seg.dst_port);
            let end = seg.seq.wrapping_add(len);
            let mut flows = p.flows.lock().expect("flow table poisoned");
            match flows.get_mut(&flow) {
                Some(high) if (seg.seq.wrapping_sub(*high) as i32) < 0 => {
                    p.retransmitted.fetch_add(1, Relaxed);
                    if (end.wrapping_sub(*high) as i32) > 0 {
                        *high = end;
                    }
                }
                Some(high) => *high = end,
                None => {
                    flows.insert(flow, end);
                }
            }
        }
        let seq = u64::from(seg.seq);
        let t0 = now_ns();
        self.inner.send(src, dst, seg);
        let t1 = now_ns();
        p.inject_ns.fetch_add(t1 - t0, Relaxed);
        p.spans.record(Span { name: "tcp.inject", start: t0, end: t1, host: src.0, batch: seq });
    }
}

/// The `NetStack` decorator: every connection it hands out (accepted or
/// dialed) is a [`TracedConn`].
pub struct TracedStack {
    inner: Arc<dyn NetStack>,
    probe: Arc<Probe>,
}

impl TracedStack {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn NetStack>, probe: Arc<Probe>) -> Arc<Self> {
        Arc::new(TracedStack { inner, probe })
    }
}

fn traced(conn: Arc<dyn Conn>, probe: &Arc<Probe>, host: u32) -> Arc<dyn Conn> {
    Arc::new(TracedConn {
        inner: conn,
        probe: Arc::clone(probe),
        host,
        id: u64::from(probe.next_conn.fetch_add(1, Relaxed)),
        calls: AtomicU64::new(0),
    })
}

impl NetStack for TracedStack {
    fn listen(&self, port: u16) -> ThreadM<Result<Arc<dyn Listener>, NetError>> {
        let probe = Arc::clone(&self.probe);
        let host = self.inner.host().0;
        self.inner.listen(port).map(move |r| {
            r.map(|inner| Arc::new(TracedListener { inner, probe, host }) as Arc<dyn Listener>)
        })
    }

    fn connect(&self, remote: Endpoint) -> ThreadM<Result<Arc<dyn Conn>, NetError>> {
        let probe = Arc::clone(&self.probe);
        let host = self.inner.host().0;
        self.inner.connect(remote).map(move |r| r.map(|c| traced(c, &probe, host)))
    }

    fn host(&self) -> HostId {
        self.inner.host()
    }
}

struct TracedListener {
    inner: Arc<dyn Listener>,
    probe: Arc<Probe>,
    host: u32,
}

impl Listener for TracedListener {
    fn accept_evt(&self) -> Event<Result<Arc<dyn Conn>, NetError>> {
        let probe = Arc::clone(&self.probe);
        let host = self.host;
        self.inner.accept_evt().wrap(move |r| r.map(|c| traced(c, &probe, host)))
    }

    fn local(&self) -> Endpoint {
        self.inner.local()
    }

    fn shutdown(&self) {
        self.inner.shutdown()
    }
}

/// The `Conn` decorator: counts and times `recv` and `sendv`, records a
/// span for every call, and delegates everything else unchanged
/// (readiness included, so the server keeps its event-composed waits).
struct TracedConn {
    inner: Arc<dyn Conn>,
    probe: Arc<Probe>,
    host: u32,
    id: u64,
    calls: AtomicU64,
}

/// What a decorated call needs after `&self` is gone.
struct Tag {
    probe: Arc<Probe>,
    host: u32,
    batch: u64,
}

impl Tag {
    fn span(&self, name: &'static str, start: u64, end: u64) {
        self.probe.spans.record(Span { name, start, end, host: self.host, batch: self.batch });
    }
}

impl TracedConn {
    fn tag(&self) -> Tag {
        let call = self.calls.fetch_add(1, Relaxed);
        Tag {
            probe: Arc::clone(&self.probe),
            host: self.host,
            batch: (self.id << 32) | (call & 0xFFFF_FFFF),
        }
    }
}

impl Conn for TracedConn {
    fn recv(&self, max: usize) -> ThreadM<Result<Bytes, NetError>> {
        let inner = Arc::clone(&self.inner);
        let tag = self.tag();
        ThreadM::from_fn(now_ns).bind(move |t0| {
            inner.recv(max).map(move |r| {
                let t1 = now_ns();
                tag.probe.recv_calls.fetch_add(1, Relaxed);
                if let Ok(b) = &r {
                    tag.probe.recv_bytes.fetch_add(b.len() as u64, Relaxed);
                }
                tag.span("tcp.conn.recv", t0, t1);
                r
            })
        })
    }

    fn readiness_fd(&self) -> Option<Fd> {
        self.inner.readiness_fd()
    }

    fn send(&self, data: Bytes) -> ThreadM<Result<usize, NetError>> {
        let inner = Arc::clone(&self.inner);
        let tag = self.tag();
        ThreadM::from_fn(now_ns).bind(move |t0| {
            inner.send(data).map(move |r| {
                tag.span("tcp.conn.send", t0, now_ns());
                r
            })
        })
    }

    fn sendv(&self, bufs: Vec<Bytes>) -> ThreadM<Result<usize, NetError>> {
        let inner = Arc::clone(&self.inner);
        let tag = self.tag();
        ThreadM::from_fn(now_ns).bind(move |t0| {
            inner.sendv(bufs).map(move |r| {
                let t1 = now_ns();
                tag.probe.sendv_calls.fetch_add(1, Relaxed);
                tag.probe.sendv_ns.fetch_add(t1 - t0, Relaxed);
                tag.span("tcp.conn.sendv", t0, t1);
                r
            })
        })
    }

    fn send_evt(&self) -> Option<Event<()>> {
        self.inner.send_evt()
    }

    fn close(&self) -> ThreadM<()> {
        self.inner.close()
    }

    fn peer(&self) -> Endpoint {
        self.inner.peer()
    }

    fn local(&self) -> Endpoint {
        self.inner.local()
    }
}
