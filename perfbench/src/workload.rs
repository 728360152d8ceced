//! Workload definitions and the seeded request generator.
//!
//! Everything the load depends on lives here — key choice, the get/set mix,
//! the value payload and the wire encoding — so a change to the program's
//! own load generator cannot move the benchmark's numbers.

use eveth_kv::Backend;

/// Keys in the preloaded key space.
pub const KEYS: usize = 1024;
/// Zipf exponent of the key popularity.
pub const ZIPF_S: f64 = 0.99;
/// Payload bytes of every stored value.
pub const VALUE_BYTES: usize = 100;
/// Shards per KV server.
pub const SHARDS: usize = 8;
/// Closed-loop client connections.
pub const CLIENTS: usize = 2;
/// Runtime worker threads.
pub const WORKERS: usize = 2;
/// Commands per preload batch.
pub const PRELOAD_DEPTH: usize = 16;

/// What serves the load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One `KvServer` with the given store backend.
    Kv(Backend),
    /// A `Router` replicating every key (R=2) over two mutex-backend
    /// `KvServer`s.
    Replicated,
}

/// One traffic mix.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Servers behind the clients.
    pub topology: Topology,
    /// Commands per batch (1 = strict request/response).
    pub depth: usize,
    /// Sets per 100 commands; the rest are gets.
    pub set_percent: u64,
}

/// The four workloads; why each exists is recorded in `BENCHMARK.json`.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "kv-pipelined",
        topology: Topology::Kv(Backend::Mutex),
        depth: 16,
        set_percent: 10,
    },
    Workload { name: "kv-rr", topology: Topology::Kv(Backend::Mutex), depth: 1, set_percent: 10 },
    Workload {
        name: "kv-stm-writes",
        topology: Topology::Kv(Backend::Stm),
        depth: 16,
        set_percent: 50,
    },
    Workload {
        name: "cluster-replicated",
        topology: Topology::Replicated,
        depth: 16,
        set_percent: 10,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// One generated command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cmd {
    /// Key rank (0 is the most popular key).
    pub rank: usize,
    /// `set` when true, `get` otherwise.
    pub is_set: bool,
}

/// The key for a rank.
pub fn key(rank: usize) -> String {
    format!("key:{rank:05}")
}

/// The byte every value of `rank` is made of.
pub fn value_byte(rank: usize) -> u8 {
    b'a' + (rank % 26) as u8
}

/// The deterministic payload stored under `rank`'s key.
pub fn payload(rank: usize) -> Vec<u8> {
    vec![value_byte(rank); VALUE_BYTES]
}

/// Appends the memcached wire form of `cmds` to `out`.
pub fn encode(cmds: &[Cmd], out: &mut Vec<u8>) {
    use std::io::Write as _;
    for c in cmds {
        if c.is_set {
            let _ = write!(out, "set {} 0 0 {}\r\n", key(c.rank), VALUE_BYTES);
            out.extend(std::iter::repeat_n(value_byte(c.rank), VALUE_BYTES));
            out.extend_from_slice(b"\r\n");
        } else {
            let _ = write!(out, "get {}\r\n", key(c.rank));
        }
    }
}

/// Bytes of the reply a correct server sends to `cmds` once every key is
/// stored.
pub fn reply_len(cmds: &[Cmd]) -> usize {
    cmds.iter()
        .map(|c| {
            if c.is_set {
                b"STORED\r\n".len()
            } else {
                let header = format!("VALUE {} 0 {}\r\n", key(c.rank), VALUE_BYTES);
                header.len() + VALUE_BYTES + 2 + b"END\r\n".len()
            }
        })
        .sum()
}

/// The preload script: every key set once, split over the clients and
/// cut into batches of [`PRELOAD_DEPTH`].
pub fn preload_batches(client: usize) -> Vec<Vec<Cmd>> {
    let per = KEYS.div_ceil(CLIENTS);
    let ranks = (client * per)..((client + 1) * per).min(KEYS);
    ranks
        .map(|rank| Cmd { rank, is_set: true })
        .collect::<Vec<_>>()
        .chunks(PRELOAD_DEPTH)
        .map(<[Cmd]>::to_vec)
        .collect()
}

/// A seeded stream of batches for one client.
#[derive(Debug, Clone)]
pub struct Generator {
    rng: u64,
    cdf: Vec<f64>,
    depth: usize,
    set_percent: u64,
}

impl Generator {
    /// The stream of client `client` under `seed`.
    pub fn new(w: &Workload, seed: u64, client: usize) -> Self {
        let mut weights: Vec<f64> = (1..=KEYS).map(|k| 1.0 / (k as f64).powf(ZIPF_S)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for wgt in &mut weights {
            acc += *wgt / total;
            *wgt = acc;
        }
        weights[KEYS - 1] = 1.0;
        let mut rng = seed ^ (client as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        splitmix(&mut rng);
        Generator { rng, cdf: weights, depth: w.depth, set_percent: w.set_percent }
    }

    /// The next batch.
    pub fn next_batch(&mut self) -> Vec<Cmd> {
        (0..self.depth)
            .map(|_| {
                let u = (splitmix(&mut self.rng) >> 11) as f64 / (1u64 << 53) as f64;
                let rank = self.cdf.partition_point(|&c| c < u).min(KEYS - 1);
                let is_set = splitmix(&mut self.rng) % 100 < self.set_percent;
                Cmd { rank, is_set }
            })
            .collect()
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
