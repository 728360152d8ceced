//! Isolated drivers: each times calls into one layer's public functions on
//! the workload's own generated inputs, outside any server. Every figure is
//! the median of [`REPEATS`] passes.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use eveth_cluster::ring::HashRing;
use eveth_core::local::run_local;
use eveth_core::net::{Endpoint, HostId};
use eveth_core::runtime::Runtime;
use eveth_core::sync::Chan;
use eveth_core::{loop_m, Loop, ThreadM};
use eveth_kv::protocol::{CommandParser, Reply, ReplyQueue};
use eveth_kv::{Entry, ShardedStore, StoreConfig};
use eveth_tcp::{Segment, Tcb, TcpConfig};

use crate::median;
use crate::probe::allocs;
use crate::workload::{self, Cmd, Generator, Topology, Workload, KEYS, SHARDS, WORKERS};

const REPEATS: usize = 5;
/// Generated commands each driver works through per pass.
const CMDS: usize = 20_000;

/// Runs `pass` [`REPEATS`] times; returns the median ns per unit and the
/// allocations per unit of the last pass. `pass` returns its unit count.
fn timed(mut pass: impl FnMut() -> u64) -> (f64, f64) {
    let mut per = Vec::with_capacity(REPEATS);
    let mut allocs_per = 0.0;
    for _ in 0..REPEATS {
        let a0 = allocs();
        let t0 = Instant::now();
        let units = pass().max(1);
        let ns = t0.elapsed().as_nanos() as f64;
        allocs_per = (allocs() - a0) as f64 / units as f64;
        per.push(ns / units as f64);
    }
    (median(per), allocs_per)
}

/// The batches both clients would send, in order.
fn batches(w: &Workload, seed: u64) -> Vec<Vec<Cmd>> {
    let mut gens: Vec<Generator> =
        (0..workload::CLIENTS).map(|c| Generator::new(w, seed, c)).collect();
    let mut out = Vec::new();
    let mut n = 0;
    while n < CMDS {
        for g in &mut gens {
            let b = g.next_batch();
            n += b.len();
            out.push(b);
        }
    }
    out
}

/// Named per-layer figures with their units.
pub type Figures = Vec<(&'static str, f64, &'static str)>;

/// `core.thread`: a chain of binds interpreted by `run_local`.
pub fn bind_chain() -> Figures {
    const DEPTH: u64 = 1_000;
    const CHAINS: u64 = 20;
    let (ns, allocs) = timed(|| {
        for _ in 0..CHAINS {
            let mut m = ThreadM::pure(0u64);
            for _ in 0..DEPTH {
                m = m.bind(|x| ThreadM::pure(black_box(x + 1)));
            }
            let out = run_local(m).expect("bind chain");
            assert_eq!(out, DEPTH);
        }
        DEPTH * CHAINS
    });
    vec![("core.thread.bind_ns", ns, "ns"), ("core.thread.allocs_per_bind", allocs, "count")]
}

/// `core.runtime`: a `Chan` ping-pong between two threads on a runtime
/// with the workload's worker count.
pub fn handoff() -> Figures {
    const ROUND_TRIPS: u64 = 5_000;
    let rt = Runtime::builder().workers(WORKERS).build();
    let (ns, _) = timed(|| {
        let (ping, pong) = (Chan::<u64>::new(), Chan::<u64>::new());
        let (p2, q2) = (ping.clone(), pong.clone());
        rt.spawn(loop_m(0u64, move |i| {
            let q = q2.clone();
            p2.read().bind(move |v| q.write(v + 1).map(move |_| i + 1)).map(|i| {
                if i == ROUND_TRIPS {
                    Loop::Break(())
                } else {
                    Loop::Continue(i)
                }
            })
        }));
        rt.block_on(loop_m(0u64, move |i| {
            let pong = pong.clone();
            ping.write(i).bind(move |_| pong.read()).map(move |v| {
                if v == ROUND_TRIPS {
                    Loop::Break(())
                } else {
                    Loop::Continue(v)
                }
            })
        }));
        2 * ROUND_TRIPS
    });
    rt.shutdown();
    vec![("core.runtime.handoff_ns", ns, "ns")]
}

fn deliver(to: &mut Tcb, segs: Vec<Segment>, now: u64, count: &mut u64) -> Vec<Segment> {
    let mut replies = Vec::new();
    for s in segs {
        *count += 1;
        replies.extend(to.on_segment(s, now).0);
    }
    replies
}

/// Moves `data` from `from` to `to` through segments, acknowledgements
/// included, and drains it at the receiver.
fn transfer(from: &mut Tcb, to: &mut Tcb, data: &[u8], now: &mut u64, count: &mut u64) {
    let mut left = data;
    while !left.is_empty() {
        let n = from.app_write(left).expect("tcb write");
        left = &left[n..];
        let mut out = from.output(*now);
        while !out.is_empty() {
            *now += 1_000;
            let acks = deliver(to, out, *now, count);
            out = deliver(from, acks, *now, count);
            out.extend(from.output(*now));
        }
        while let Ok((Some(b), _)) = to.app_read(usize::MAX) {
            if b.is_empty() {
                break;
            }
            black_box(b);
        }
    }
}

/// `tcp.tcb`: two control blocks exchanging the workload's request and
/// reply byte streams, batch by batch.
pub fn tcb(w: &Workload, seed: u64) -> Figures {
    let traffic: Vec<(Vec<u8>, usize)> = batches(w, seed)
        .into_iter()
        .map(|b| {
            let mut req = Vec::new();
            workload::encode(&b, &mut req);
            (req, workload::reply_len(&b))
        })
        .collect();
    let reply_bytes = vec![b'r'; traffic.iter().map(|t| t.1).max().unwrap_or(1)];
    let (ns, allocs) = timed(|| {
        let cfg = TcpConfig::default();
        let (ea, eb) = (Endpoint::new(HostId(1), 40_000), Endpoint::new(HostId(2), 80));
        let mut now = 1_000u64;
        let mut a = Tcb::new_active(cfg.clone(), ea, eb, 1, now);
        let mut b = Tcb::new_passive(cfg, eb, ea, 7, &a.syn_segment(), now);
        let mut count = 0u64;
        let acks = deliver(&mut a, vec![b.syn_ack_segment()], now, &mut count);
        deliver(&mut b, acks, now, &mut count);
        for (req, reply_len) in &traffic {
            transfer(&mut a, &mut b, req, &mut now, &mut count);
            transfer(&mut b, &mut a, &reply_bytes[..*reply_len], &mut now, &mut count);
        }
        count
    });
    vec![("tcp.tcb.segment_ns", ns, "ns"), ("tcp.tcb.allocs_per_segment", allocs, "count")]
}

/// `kv.protocol`: the server's parser over the generated request stream
/// (one chunk per batch, as a closed-loop client delivers it), and the
/// gather encoder over the replies a correct server sends.
pub fn protocol(w: &Workload, seed: u64) -> Figures {
    let batches = batches(w, seed);
    let chunks: Vec<Bytes> = batches
        .iter()
        .map(|b| {
            let mut req = Vec::new();
            workload::encode(b, &mut req);
            Bytes::from(req)
        })
        .collect();
    let cmds: u64 = batches.iter().map(|b| b.len() as u64).sum();
    let a0 = allocs();
    let (parse_ns, _) = timed(|| {
        let mut parser = CommandParser::new();
        let mut n = 0u64;
        for chunk in &chunks {
            let mut next = parser.feed_bytes(chunk.clone()).expect("parse");
            while let Some(cmd) = next {
                black_box(cmd);
                n += 1;
                next = parser.try_next().expect("parse");
            }
        }
        assert_eq!(n, cmds, "every generated command parses");
        n
    });
    let parse_allocs = allocs() - a0;
    let values: Vec<Bytes> = (0..KEYS).map(|r| Bytes::from(workload::payload(r))).collect();
    let keys: Vec<Bytes> = (0..KEYS).map(|r| Bytes::from(workload::key(r))).collect();
    let a0 = allocs();
    let (encode_ns, _) = timed(|| {
        let mut q = ReplyQueue::new();
        for b in &batches {
            for c in b {
                if c.is_set {
                    Reply::Stored.encode_gather(&mut q);
                } else {
                    Reply::Value {
                        key: keys[c.rank].clone(),
                        flags: 0,
                        data: values[c.rank].clone(),
                    }
                    .encode_gather(&mut q);
                    Reply::End.encode_gather(&mut q);
                }
            }
            black_box(q.finish());
        }
        cmds
    });
    let encode_allocs = allocs() - a0;
    vec![
        ("kv.protocol.parse_ns_per_cmd", parse_ns, "ns"),
        ("kv.protocol.encode_ns_per_reply", encode_ns, "ns"),
        (
            "kv.protocol.allocs_per_cmd",
            (parse_allocs + encode_allocs) as f64 / (REPEATS as u64 * cmds) as f64,
            "count",
        ),
    ]
}

/// `kv.store`: a fresh, preloaded store with the workload's backend,
/// driven by its key sequence — gets and sets timed apart.
pub fn store(w: &Workload, seed: u64) -> Figures {
    let backend = match w.topology {
        Topology::Kv(b) => b,
        Topology::Replicated => eveth_kv::Backend::Mutex,
    };
    let store =
        ShardedStore::new(StoreConfig { shards: SHARDS, backend, ..StoreConfig::default() });
    let entry = |rank: usize| Entry {
        value: Bytes::from(workload::payload(rank)),
        flags: 0,
        expires_at: None,
        version: 0,
    };
    let preload: Vec<(Bytes, Entry)> =
        (0..KEYS).map(|r| (Bytes::from(workload::key(r)), entry(r))).collect();
    drive(&store, preload, |s, (k, e)| s.set(k, e).map(|_| ()));
    let cmds: Vec<Cmd> = batches(w, seed).into_iter().flatten().collect();
    let gets: Vec<Bytes> =
        cmds.iter().filter(|c| !c.is_set).map(|c| Bytes::from(workload::key(c.rank))).collect();
    let sets: Vec<(Bytes, Entry)> = cmds
        .iter()
        .filter(|c| c.is_set)
        .map(|c| (Bytes::from(workload::key(c.rank)), entry(c.rank)))
        .collect();
    let (get_ns, _) = timed(|| {
        drive(&store, gets.clone(), |s, k| {
            s.get(k, 0).map(|e| assert!(e.is_some(), "preloaded key"))
        })
    });
    let (set_ns, set_allocs) = timed(|| drive(&store, sets.clone(), |s, (k, e)| s.set(k, e)));
    vec![
        ("kv.store.get_ns", get_ns, "ns"),
        ("kv.store.set_ns", set_ns, "ns"),
        ("kv.store.allocs_per_set", set_allocs, "count"),
    ]
}

/// Runs `op` over `items` in one monadic loop under `run_local`; returns
/// the item count.
fn drive<T: Send + 'static>(
    store: &Arc<ShardedStore>,
    items: Vec<T>,
    op: fn(&Arc<ShardedStore>, T) -> ThreadM<()>,
) -> u64 {
    let n = items.len() as u64;
    let store = Arc::clone(store);
    let it = Arc::new(std::sync::Mutex::new(items.into_iter()));
    run_local(loop_m((), move |()| {
        let next = it.lock().expect("driver items").next();
        match next {
            Some(item) => op(&store, item).map(|_| Loop::Continue(())),
            None => ThreadM::pure(Loop::Break(())),
        }
    }))
    .expect("store driver");
    n
}

/// `cluster.ring`: replica lookup for the workload's keys on a ring of
/// the cluster's two backends.
pub fn ring(w: &Workload, seed: u64) -> Figures {
    let ring = HashRing::new((3..5).map(|h| Endpoint::new(HostId(h), 11211)).collect(), 64);
    let keys: Vec<Vec<u8>> = batches(w, seed)
        .into_iter()
        .flatten()
        .map(|c| workload::key(c.rank).into_bytes())
        .collect();
    let (ns, _) = timed(|| {
        for k in &keys {
            black_box(ring.replicas(k, 2));
        }
        keys.len() as u64
    });
    vec![("cluster.ring.replicas_ns", ns, "ns")]
}
