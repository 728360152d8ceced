//! Bringing a workload's servers up on the wall-clock `Runtime`, every
//! host an application-level `TcpHost` over one in-process `LoopbackNet`,
//! and taking them down again.

use std::sync::atomic::Ordering::{Relaxed, SeqCst};
use std::sync::Arc;
use std::time::{Duration, Instant};

use eveth_cluster::router::{Router, RouterConfig};
use eveth_core::net::{Endpoint, HostId, NetStack};
use eveth_core::runtime::{Runtime, StatsSnapshot};
use eveth_kv::{Backend, KvConfig, KvServer, StoreConfig};
use eveth_tcp::{LoopbackNet, SegmentTransport, TcpConfig, TcpHost};

use crate::client::{self, Sink};
use crate::probe::{allocs, Probe, TracedStack, TracedTransport};
use crate::workload::{Generator, Topology, Workload, CLIENTS, SHARDS, WORKERS};

const KV_PORT: u16 = 11211;
const ROUTER_PORT: u16 = 11311;
const FRONT_HOST: HostId = HostId(2);

/// Program counters read at the edges of the timed window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub rt: StatsSnapshot,
    pub lock_wait_ns: u64,
    pub lock_contentions: u64,
    pub stm_commits: u64,
    pub stm_conflicts: u64,
    pub stm_retry_waits: u64,
    pub router_batches: u64,
    pub router_replicated_writes: u64,
    pub router_read_retries: u64,
    pub router_backend_errors: u64,
    /// Commands the front server (the KV server or the router) parsed.
    pub front_commands: u64,
    pub session_errors: u64,
    pub bytes_copied: u64,
    pub buffers_allocated: u64,
    pub allocs: u64,
    /// The decorators' counts (zero without a probe); see [`Probe`].
    pub segments: u64,
    pub pure_acks: u64,
    pub payload_bytes: u64,
    pub retransmitted: u64,
    pub inject_ns: u64,
    pub recv_calls: u64,
    pub recv_bytes: u64,
    pub sendv_calls: u64,
    pub sendv_ns: u64,
}

/// A running workload: runtime, hosts, servers and connected, preloaded
/// clients waiting for [`Deployment::go`].
pub struct Deployment {
    rt: Runtime,
    hosts: Vec<Arc<TcpHost>>,
    kv: Vec<Arc<KvServer>>,
    router: Option<Arc<Router>>,
    probe: Option<Arc<Probe>>,
    /// Where the clients report.
    pub sink: Arc<Sink>,
    /// Seconds from building the runtime to the end of the preload.
    pub setup_s: f64,
}

impl Deployment {
    /// Brings `w` up; with a probe, the transport and every server stack
    /// are decorated.
    pub fn start(w: &Workload, seed: u64, probe: Option<&Arc<Probe>>) -> Result<Self, String> {
        let t0 = Instant::now();
        let rt = Runtime::builder().workers(WORKERS).build();
        let net = LoopbackNet::new();
        let transport: Arc<dyn SegmentTransport> = match probe {
            Some(p) => Arc::new(TracedTransport { inner: Arc::clone(&net), probe: Arc::clone(p) }),
            None => Arc::clone(&net) as Arc<dyn SegmentTransport>,
        };
        let server_hosts = match w.topology {
            Topology::Kv(_) => 1,
            Topology::Replicated => 3,
        };
        let hosts: Vec<Arc<TcpHost>> = (1..=1 + server_hosts)
            .map(|id| {
                let h = TcpHost::start(
                    rt.ctx(),
                    HostId(id),
                    Arc::clone(&transport),
                    TcpConfig::default(),
                );
                net.register(&h);
                h
            })
            .collect();
        let stack = |i: usize| -> Arc<dyn NetStack> {
            let bare = Arc::clone(&hosts[i]) as Arc<dyn NetStack>;
            match probe {
                Some(p) => TracedStack::new(bare, Arc::clone(p)),
                None => bare,
            }
        };
        let kv_config = |backend| KvConfig {
            port: KV_PORT,
            store: StoreConfig { shards: SHARDS, backend, ..StoreConfig::default() },
            ..KvConfig::default()
        };
        let (kv, router, front_port) = match w.topology {
            Topology::Kv(backend) => {
                (vec![KvServer::new(stack(1), kv_config(backend))], None, KV_PORT)
            }
            Topology::Replicated => {
                let kv: Vec<_> =
                    (2..4).map(|i| KvServer::new(stack(i), kv_config(Backend::Mutex))).collect();
                let router = Router::new(
                    stack(1),
                    RouterConfig {
                        port: ROUTER_PORT,
                        backends: (3..5).map(|h| Endpoint::new(HostId(h), KV_PORT)).collect(),
                        replication: 2,
                        hot_prefix: None,
                        ..RouterConfig::default()
                    },
                );
                (kv, Some(router), ROUTER_PORT)
            }
        };
        for s in &kv {
            rt.spawn(s.run());
        }
        if let Some(r) = &router {
            rt.spawn(r.run());
        }
        let sink = Sink::new(probe.map(|p| Arc::clone(&p.spans)));
        let dep = Deployment { rt, hosts, kv, router, probe: probe.cloned(), sink, setup_s: 0.0 };
        let front = Endpoint::new(FRONT_HOST, front_port);
        for id in 0..CLIENTS {
            let conn = dep.connect(front)?;
            let gen = Generator::new(w, seed, id);
            dep.rt.spawn(client::client(conn, Arc::clone(&dep.sink), id, gen));
        }
        if !dep.sink.wait_preloaded(CLIENTS, Duration::from_secs(30)) {
            return Err("preload did not finish within 30 s".into());
        }
        Ok(Deployment { setup_s: t0.elapsed().as_secs_f64(), ..dep })
    }

    /// Dials the front server, retrying while its listener comes up.
    fn connect(&self, front: Endpoint) -> Result<Arc<dyn eveth_core::net::Conn>, String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.rt.block_on(self.hosts[0].connect(front)) {
                Ok(c) => return Ok(c),
                Err(e) if Instant::now() > deadline => return Err(format!("connect: {e}")),
                Err(_) => std::thread::sleep(Duration::from_micros(200)),
            }
        }
    }

    /// Starts the closed-loop load.
    pub fn go(&self) {
        self.sink.go.fire();
    }

    /// Reads the program's public counters.
    pub fn counters(&self) -> Counters {
        let mut c = Counters {
            rt: self.rt.stats(),
            bytes_copied: bytes::bytes_copied_total(),
            buffers_allocated: bytes::buffers_allocated_total(),
            allocs: allocs(),
            ..Counters::default()
        };
        if let Some(p) = &self.probe {
            c.segments = p.segments.load(Relaxed);
            c.pure_acks = p.pure_acks.load(Relaxed);
            c.payload_bytes = p.payload_bytes.load(Relaxed);
            c.retransmitted = p.retransmitted.load(Relaxed);
            c.inject_ns = p.inject_ns.load(Relaxed);
            c.recv_calls = p.recv_calls.load(Relaxed);
            c.recv_bytes = p.recv_bytes.load(Relaxed);
            c.sendv_calls = p.sendv_calls.load(Relaxed);
            c.sendv_ns = p.sendv_ns.load(Relaxed);
        }
        for s in &self.kv {
            let store = s.store();
            c.lock_wait_ns += store.lock_wait_ns();
            c.lock_contentions += store.lock_contentions();
            let stm = store.stm_stats();
            c.stm_commits += stm.commits.load(Relaxed);
            c.stm_conflicts += stm.conflicts.load(Relaxed);
            c.stm_retry_waits += stm.retry_waits.load(Relaxed);
            c.session_errors += s.server().stats().session_errors.get();
        }
        match &self.router {
            Some(r) => {
                let s = r.stats();
                c.router_batches = s.batches.get();
                c.router_replicated_writes = s.replicated_writes.get();
                c.router_read_retries = s.read_retries.get();
                c.router_backend_errors = s.backend_errors.get();
                c.front_commands = s.commands.get();
                c.session_errors += r.server().stats().session_errors.get();
            }
            None => c.front_commands = self.kv[0].stats().commands.get(),
        }
        c
    }

    /// Connections each server accepted.
    pub fn accepted(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.kv.iter().map(|s| s.server().stats().accepted.get()).collect();
        if let Some(r) = &self.router {
            out.push(r.server().stats().accepted.get());
        }
        out
    }

    /// Stops the load and waits up to `timeout` for every client to finish
    /// its batch in flight; false if one did not.
    pub fn stop_clients(&self, timeout: Duration) -> bool {
        self.sink.stop.store(true, SeqCst);
        self.sink.go.fire();
        let deadline = Instant::now() + timeout;
        while self.sink.done.load(SeqCst) < CLIENTS as u64 {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    /// Shuts the servers, the hosts and the runtime down, joining every
    /// runtime thread.
    pub fn shutdown(self) {
        self.sink.stop.store(true, SeqCst);
        if let Some(r) = &self.router {
            r.shutdown();
        }
        for s in &self.kv {
            s.shutdown();
        }
        for h in &self.hosts {
            h.shutdown();
        }
        self.rt.shutdown();
    }
}
