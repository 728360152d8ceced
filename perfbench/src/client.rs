//! The closed-loop client: each connection ships one batch, reads and
//! checks every reply, records each command's latency, and only then ships
//! the next batch.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use bytes::Bytes;
use eveth_core::event::Signal;
use eveth_core::net::{send_all, Conn};
use eveth_core::syscall::sys_nbio;
use eveth_core::{loop_m, Loop, ThreadM};

use crate::probe::{now_ns, Span, SpanLog};
use crate::workload::{self, Cmd, Generator, VALUE_BYTES};

/// Receive granularity of the client.
const RECV_CHUNK: usize = 64 * 1024;
/// A reply line longer than this means the stream is garbage.
const MAX_LINE: usize = 1024;

/// Log-linear latency histogram: exact below 128 ns, then 128 buckets per
/// power of two (under 0.8% relative bucket width).
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    n: u64,
}

const SUB: u32 = 7;

impl Default for Histogram {
    fn default() -> Self {
        Histogram { counts: vec![0; 64 << SUB], n: 0 }
    }
}

impl Histogram {
    /// Records one latency in nanoseconds.
    pub fn record(&mut self, ns: u64) {
        let msb = 63 - ns.max(1).leading_zeros();
        let shift = msb.saturating_sub(SUB);
        let idx = ((shift as usize) << SUB) + (ns >> shift) as usize;
        self.counts[idx] += 1;
        self.n += 1;
    }

    /// The `q` quantile in nanoseconds, interpolated inside its bucket.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let target = q * (self.n - 1) as f64;
        let mut below = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (below + c) as f64 > target {
                let (low, width) = if idx < (2 << SUB) {
                    (idx as f64, 1.0)
                } else {
                    let shift = (idx >> SUB) - 1;
                    let low = (((idx & ((1 << SUB) - 1)) | (1 << SUB)) << shift) as f64;
                    (low, (1u64 << shift) as f64)
                };
                return low + width * (target - below as f64 + 0.5) / c as f64;
            }
            below += c;
        }
        unreachable!("quantile target beyond the recorded samples")
    }
}

/// What the clients recorded since the last [`Sink::take`].
#[derive(Debug, Default)]
pub struct Window {
    /// Per-command latency.
    pub hist: Histogram,
    /// Commands answered correctly.
    pub ok: u64,
    /// Commands sent.
    pub attempted: u64,
    /// Commands that failed.
    pub failed: u64,
}

/// Where the clients report, and how the main thread steers them.
#[derive(Debug, Default)]
pub struct Sink {
    window: Mutex<Window>,
    /// Asks the clients to stop after their current batch.
    pub stop: AtomicBool,
    /// Clients that have stopped.
    pub done: AtomicU64,
    /// Commands sent by every client in every phase, preload included.
    pub sent_total: AtomicU64,
    preloaded: Mutex<usize>,
    preloaded_cv: Condvar,
    /// The first few failure descriptions.
    pub errors: Mutex<Vec<String>>,
    /// Released once every client has preloaded and the timed phase
    /// starts.
    pub go: Signal,
    /// Span log of the traced run.
    pub spans: Option<Arc<SpanLog>>,
}

impl Sink {
    /// A sink; `spans` is set in the traced run.
    pub fn new(spans: Option<Arc<SpanLog>>) -> Arc<Sink> {
        Arc::new(Sink { spans, ..Sink::default() })
    }

    /// Takes what was recorded since the last call.
    pub fn take(&self) -> Window {
        std::mem::take(&mut *self.window.lock().expect("sink poisoned"))
    }

    /// Waits until `n` clients have preloaded; false on timeout.
    pub fn wait_preloaded(&self, n: usize, timeout: Duration) -> bool {
        let guard = self.preloaded.lock().expect("sink poisoned");
        let (guard, _) = self
            .preloaded_cv
            .wait_timeout_while(guard, timeout, |done| *done < n)
            .expect("sink poisoned");
        *guard >= n
    }

    fn mark_preloaded(&self) {
        *self.preloaded.lock().expect("sink poisoned") += 1;
        self.preloaded_cv.notify_all();
    }

    fn note_error(&self, what: String) {
        let mut errors = self.errors.lock().expect("sink poisoned");
        if errors.len() < 8 {
            errors.push(what);
        }
    }

    fn record(&self, b: &Batch) {
        self.sent_total.fetch_add(b.cmds.len() as u64, SeqCst);
        let mut w = self.window.lock().expect("sink poisoned");
        for &lat in &b.lats {
            w.hist.record(lat);
        }
        w.ok += b.lats.len() as u64;
        w.attempted += b.cmds.len() as u64;
        w.failed += (b.cmds.len() - b.lats.len()) as u64;
    }
}

/// One batch in flight: its commands, send time, and the progress of
/// checking its replies.
struct Batch {
    cmds: Vec<Cmd>,
    t0: u64,
    /// Latencies of the commands answered correctly so far.
    lats: Vec<u64>,
    /// Index of the command whose reply is being read.
    next: usize,
    /// A `VALUE` block already seen for the current `get`.
    seen_value: bool,
    /// The current command's reply is wrong.
    wrong: Option<String>,
    /// The stream can no longer be trusted.
    fatal: Option<String>,
}

impl Batch {
    fn new(cmds: Vec<Cmd>, t0: u64) -> Batch {
        Batch {
            lats: Vec::with_capacity(cmds.len()),
            cmds,
            t0,
            next: 0,
            seen_value: false,
            wrong: None,
            fatal: None,
        }
    }

    fn complete(&self) -> bool {
        self.next == self.cmds.len() || self.fatal.is_some()
    }

    /// Consumes every complete reply in `buf`, checking each against the
    /// command it answers. Returns how many bytes were consumed.
    fn parse(&mut self, buf: &[u8], sink: &Sink) -> usize {
        let mut pos = 0;
        while !self.complete() {
            let rest = &buf[pos..];
            let Some(eol) = rest.windows(2).position(|w| w == b"\r\n") else {
                if rest.len() > MAX_LINE {
                    self.fatal = Some("unterminated reply line".into());
                }
                break;
            };
            let line = &rest[..eol];
            let cmd = self.cmds[self.next];
            if let Some(header) = line.strip_prefix(b"VALUE ") {
                let need = eol + 2 + VALUE_BYTES + 2;
                if rest.len() < need {
                    break;
                }
                let data = &rest[eol + 2..eol + 2 + VALUE_BYTES];
                let expect = format!("{} 0 {}", workload::key(cmd.rank), VALUE_BYTES);
                if cmd.is_set || self.seen_value {
                    self.wrong = Some("unexpected VALUE".into());
                } else if header != expect.as_bytes() {
                    self.wrong = Some(format!(
                        "VALUE header {:?}, expected {expect:?}",
                        String::from_utf8_lossy(header)
                    ));
                } else if data.iter().any(|&b| b != workload::value_byte(cmd.rank))
                    || &rest[need - 2..need] != b"\r\n"
                {
                    self.wrong = Some(format!("wrong value for {}", workload::key(cmd.rank)));
                }
                self.seen_value = true;
                pos += need;
                continue;
            }
            let expected: &[u8] = if cmd.is_set { b"STORED" } else { b"END" };
            if line != expected {
                self.wrong = Some(format!(
                    "reply {:?} to a {}",
                    String::from_utf8_lossy(line),
                    if cmd.is_set { "set" } else { "get" }
                ));
            } else if !cmd.is_set && !self.seen_value {
                self.wrong = Some(format!("miss on preloaded {}", workload::key(cmd.rank)));
            }
            match self.wrong.take() {
                None => self.lats.push(now_ns() - self.t0),
                Some(what) => sink.note_error(what),
            }
            self.seen_value = false;
            self.next += 1;
            pos += eol + 2;
        }
        if self.next == self.cmds.len() && pos < buf.len() {
            self.fatal = Some("reply bytes beyond the batch's commands".into());
        }
        pos
    }
}

/// Ships `cmds`, reads until every one is answered (or the stream fails)
/// and returns the checked batch. `pending` carries bytes received but not
/// yet consumed.
fn exchange(
    conn: &Arc<dyn Conn>,
    sink: &Arc<Sink>,
    pending: Vec<u8>,
    cmds: Vec<Cmd>,
) -> ThreadM<(Vec<u8>, Batch)> {
    let mut wire = Vec::with_capacity(cmds.len() * (VALUE_BYTES + 32));
    workload::encode(&cmds, &mut wire);
    let conn = Arc::clone(conn);
    let sink = Arc::clone(sink);
    ThreadM::from_fn(now_ns).bind(move |t0| {
        let batch = Batch::new(cmds, t0);
        send_all(&conn, Bytes::from(wire)).bind(move |sent| {
            if let Err(e) = sent {
                let mut batch = batch;
                batch.fatal = Some(format!("send failed: {e}"));
                return ThreadM::pure((pending, batch));
            }
            loop_m((pending, batch), move |(mut pending, mut batch)| {
                let sink = Arc::clone(&sink);
                conn.recv(RECV_CHUNK).map(move |r| {
                    match r {
                        Err(e) => batch.fatal = Some(format!("recv failed: {e}")),
                        Ok(b) if b.is_empty() => batch.fatal = Some("server closed".into()),
                        Ok(b) => {
                            pending.extend_from_slice(&b);
                            let used = batch.parse(&pending, &sink);
                            pending.drain(..used);
                        }
                    }
                    if batch.complete() {
                        Loop::Break((pending, batch))
                    } else {
                        Loop::Continue((pending, batch))
                    }
                })
            })
        })
    })
}

/// Reports a finished batch; returns false when the connection is unusable.
fn finish(sink: &Sink, client: usize, number: u64, batch: &Batch) -> bool {
    if let Some(spans) = &sink.spans {
        spans.record(Span {
            name: "client.batch",
            start: batch.t0,
            end: now_ns(),
            host: 1,
            batch: ((client as u64) << 32) | (number & 0xFFFF_FFFF),
        });
    }
    sink.record(batch);
    match &batch.fatal {
        Some(what) => {
            sink.note_error(format!("client {client}: {what}"));
            false
        }
        None => true,
    }
}

/// One client connection: preload its share of the key space, wait for
/// [`Sink::go`], then run closed-loop batches until [`Sink::stop`].
pub fn client(conn: Arc<dyn Conn>, sink: Arc<Sink>, id: usize, gen: Generator) -> ThreadM<()> {
    let script = workload::preload_batches(id);
    let preload = {
        let (conn, sink) = (Arc::clone(&conn), Arc::clone(&sink));
        loop_m((Vec::new(), 0usize), move |(pending, i)| {
            if i == script.len() {
                return ThreadM::pure(Loop::Break(true));
            }
            let sink2 = Arc::clone(&sink);
            exchange(&conn, &sink, pending, script[i].clone()).map(move |(pending, batch)| {
                if finish(&sink2, id, i as u64, &batch) {
                    Loop::Continue((pending, i + 1))
                } else {
                    Loop::Break(false)
                }
            })
        })
    };
    let run = {
        let sink = Arc::clone(&sink);
        loop_m((Vec::new(), gen, 0u64), move |(pending, mut gen, n)| {
            if sink.stop.load(SeqCst) {
                return ThreadM::pure(Loop::Break(()));
            }
            let sink2 = Arc::clone(&sink);
            let cmds = gen.next_batch();
            exchange(&conn, &sink, pending, cmds).map(move |(pending, batch)| {
                if finish(&sink2, id, n, &batch) {
                    Loop::Continue((pending, gen, n + 1))
                } else {
                    Loop::Break(())
                }
            })
        })
    };
    let (s1, s2, s3) = (Arc::clone(&sink), Arc::clone(&sink), Arc::clone(&sink));
    preload.bind(move |ok| {
        sys_nbio(move || s1.mark_preloaded()).bind(move |_| {
            let body = if ok { s2.go.wait().then(run) } else { ThreadM::pure(()) };
            body.bind(move |_| {
                sys_nbio(move || {
                    s3.done.fetch_add(1, SeqCst);
                })
            })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_track_exact_ones() {
        let mut h = Histogram::default();
        for v in 1..=100_000u64 {
            h.record(v * 10);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((p50 / 500_000.0 - 1.0).abs() < 0.01, "p50 {p50}");
        assert!((p99 / 990_000.0 - 1.0).abs() < 0.01, "p99 {p99}");
    }

    #[test]
    fn checker_accepts_a_correct_reply_and_flags_a_miss() {
        let sink = Sink::new(None);
        let cmds = vec![
            Cmd { rank: 3, is_set: false },
            Cmd { rank: 4, is_set: true },
            Cmd { rank: 5, is_set: false },
        ];
        let mut wire = format!("VALUE {} 0 {}\r\n", workload::key(3), VALUE_BYTES).into_bytes();
        wire.extend(workload::payload(3));
        wire.extend_from_slice(b"\r\nEND\r\nSTORED\r\nEND\r\n");
        let mut batch = Batch::new(cmds, now_ns());
        let used = batch.parse(&wire[..10], &sink);
        assert_eq!(used, 0, "a partial VALUE block waits for more bytes");
        assert_eq!(batch.parse(&wire, &sink), wire.len());
        assert!(batch.complete() && batch.fatal.is_none());
        assert_eq!(batch.lats.len(), 2, "the get of key 5 missed");
        assert_eq!(sink.errors.lock().unwrap().len(), 1);
    }
}
