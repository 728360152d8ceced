//! Wall-clock service benchmark.
//!
//! Drives the KV server or the cluster router on the real `Runtime` over
//! the application-level TCP stack, from a closed-loop, seeded client in
//! the same process, and prints one JSON result line last:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--rustc <version>] [--trace-out <file>]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of an undecorated run.
//! `--trace 1` runs the same workload twice, each for half the seconds —
//! undecorated, then with the benchmark's decorators, span log and counting
//! allocator — and reports per-layer figures, including isolated drivers of
//! single layers.

mod client;
mod deploy;
mod drivers;
mod probe;
mod sys;
mod workload;

use std::time::{Duration, Instant};

use client::Window;
use deploy::{Counters, Deployment};
use probe::Probe;
use workload::{Topology, Workload, CLIENTS, WORKERS};

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

/// Untimed load before the window: after the machine idles, the first
/// seconds of a two-worker run read faster than the rest.
const WARMUP: Duration = Duration::from_secs(1);
/// The window is cut into sub-windows of this length; each end-to-end
/// figure is the median over them.
const SUB_WINDOW: Duration = Duration::from_secs(1);
/// Complete set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 7;
/// How long stopped clients get to finish the batch in flight.
const DRAIN: Duration = Duration::from_secs(20);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    rustc: String,
    trace_out: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut rustc, mut trace_out) = ("unknown".to_string(), None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(workload::find(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--rustc" => rustc = value,
            "--trace-out" => trace_out = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        rustc,
        trace_out,
    })
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One sub-window of the timed window.
struct Sub {
    ops: u64,
    secs: f64,
    p50_ns: f64,
    p99_ns: f64,
    cpu_us: f64,
}

/// Everything one timed window produced.
struct Measured {
    subs: Vec<Sub>,
    before: Counters,
    after: Counters,
    /// Window wall time, seconds.
    wall_s: f64,
    user_us: f64,
    sys_us: f64,
    maxrss_kb: u64,
    ops: u64,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    accepted: Vec<u64>,
}

impl Measured {
    fn ops_per_s(&self) -> f64 {
        median(self.subs.iter().map(|s| s.ops as f64 / s.secs).collect())
    }

    /// Growth of a counter over the window.
    fn delta(&self, f: impl Fn(&Counters) -> u64) -> f64 {
        (f(&self.after) - f(&self.before)) as f64
    }

    fn per_op(&self, f: impl Fn(&Counters) -> u64) -> f64 {
        self.delta(f) / self.ops.max(1) as f64
    }
}

/// Starts the load on a preloaded deployment, measures `seconds` of it
/// after the warm-up, stops the clients and checks the run.
fn measure(dep: &Deployment, seconds: u64, on_start: impl Fn()) -> Measured {
    let mut attempted = 0;
    let mut failed = 0;
    let mut tally = |w: &Window| {
        attempted += w.attempted;
        failed += w.failed;
    };
    tally(&dep.sink.take()); // the preload
    dep.go();
    std::thread::sleep(WARMUP);
    tally(&dep.sink.take());
    on_start();
    let before = dep.counters();
    let u0 = sys::usage();
    let start = Instant::now();
    let mut last = (start, u0);
    let mut subs = Vec::new();
    for i in 1..=seconds as u32 {
        let due = start + SUB_WINDOW * i;
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let w = dep.sink.take();
        let (now, u) = (Instant::now(), sys::usage());
        tally(&w);
        subs.push(Sub {
            ops: w.ok,
            secs: now.duration_since(last.0).as_secs_f64(),
            p50_ns: w.hist.quantile(0.5),
            p99_ns: w.hist.quantile(0.99),
            cpu_us: ((u.user_us + u.sys_us) - (last.1.user_us + last.1.sys_us)) as f64,
        });
        last = (now, u);
    }
    let after = dep.counters();
    let wall_s = last.0.duration_since(start).as_secs_f64();
    let u1 = last.1;
    let stopped = dep.stop_clients(DRAIN);
    tally(&dep.sink.take());
    let mut failures = dep.sink.errors.lock().expect("sink poisoned").clone();
    if !stopped {
        failures.push(format!("a client did not finish its batch within {DRAIN:?}"));
    }
    let end = dep.counters();
    let sent = dep.sink.sent_total.load(std::sync::atomic::Ordering::SeqCst);
    if stopped && end.front_commands != sent {
        failures.push(format!(
            "front server parsed {} commands, clients sent {sent}",
            end.front_commands
        ));
    }
    if end.session_errors != 0 {
        failures.push(format!("{} server sessions failed", end.session_errors));
    }
    if end.router_backend_errors != 0 {
        failures.push(format!("{} router backend errors", end.router_backend_errors));
    }
    if subs.iter().any(|s| s.ops == 0) {
        failures.push("a sub-window answered no command".into());
    }
    Measured {
        ops: subs.iter().map(|s| s.ops).sum(),
        subs,
        before,
        after,
        wall_s,
        user_us: (u1.user_us - u0.user_us) as f64,
        sys_us: (u1.sys_us - u0.sys_us) as f64,
        maxrss_kb: sys::usage().maxrss_kb,
        attempted,
        failed,
        failures,
        accepted: dep.accepted(),
    }
}

fn describe(w: &Workload) -> String {
    let service = match w.topology {
        Topology::Kv(b) => format!("KvServer {b:?} backend, {} shards", workload::SHARDS),
        Topology::Replicated => {
            format!("Router R=2 over 2 Mutex KvServers, {} shards each", workload::SHARDS)
        }
    };
    format!(
        "{service}; depth {}; {}% sets; {} keys zipf {}; {} B values; {CLIENTS} closed-loop connections",
        w.depth,
        w.set_percent,
        workload::KEYS,
        workload::ZIPF_S,
        workload::VALUE_BYTES
    )
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_string(name),
                json_string(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn report_failures(m: &Measured) {
    println!(
        "checks: attempted={} failed={}; accepted per server={:?}",
        m.attempted, m.failed, m.accepted
    );
    for f in &m.failures {
        eprintln!("check failed: {f}");
    }
}

fn untraced(args: &Args) -> Result<bool, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut dep = None;
    for i in 0..SETUPS {
        let d = Deployment::start(&args.workload, args.seed, None)?;
        setups.push(d.setup_s);
        if i + 1 < SETUPS {
            d.shutdown();
        } else {
            dep = Some(d);
        }
    }
    let dep = dep.expect("at least one set-up");
    let m = measure(&dep, args.seconds, || {});
    dep.shutdown();
    let setup_s = median(setups);
    let ops_per_s = m.ops_per_s();
    let p50 = median(m.subs.iter().map(|s| s.p50_ns / 1e3).collect());
    let p99 = median(m.subs.iter().map(|s| s.p99_ns / 1e3).collect());
    let cpu = median(m.subs.iter().map(|s| s.cpu_us / s.ops.max(1) as f64).collect());
    let rss = m.maxrss_kb as f64 / 1024.0;
    println!(
        "window: {:.3} s, {} commands answered in {} sub-windows of {:?}; each figure is the median over sub-windows",
        m.wall_s,
        m.ops,
        m.subs.len(),
        SUB_WINDOW
    );
    let per_sub: Vec<String> =
        m.subs.iter().map(|s| format!("{:.0}", s.ops as f64 / s.secs)).collect();
    println!("ops_per_s by sub-window: [{}]", per_sub.join(", "));
    println!("ops_per_s: {ops_per_s:.1} 1/s (samples {})", m.ops);
    println!("p50_us: {p50:.2} us (samples {})", m.ops);
    println!("p99_us: {p99:.2} us (samples {})", m.ops);
    println!("cpu_us_per_op: {cpu:.3} us (user+sys, whole process)");
    println!(
        "error_rate: {} ratio (failed {} of {} attempted)",
        m.failed as f64 / m.attempted.max(1) as f64,
        m.failed,
        m.attempted
    );
    println!("max_rss_mb: {rss:.2} MB");
    println!("setup_s: {setup_s:.6} s (median of {SETUPS} set-ups)");
    report_failures(&m);
    let correct = m.failed == 0 && m.failures.is_empty();
    print_result(
        correct,
        m.attempted,
        m.failed,
        &[
            ("ops_per_s", ops_per_s, "1/s"),
            ("p50_us", p50, "us"),
            ("p99_us", p99, "us"),
            ("cpu_us_per_op", cpu, "us"),
            ("max_rss_mb", rss, "MB"),
            ("setup_s", setup_s, "s"),
        ],
    );
    Ok(correct)
}

fn traced(args: &Args) -> Result<bool, String> {
    let w = &args.workload;
    // The run's seconds are split between the two windows, so a traced run
    // takes about as long as an untraced one.
    let seconds = args.seconds.div_ceil(2);
    // Program counters come from the undecorated window, with the counting
    // allocator on; the decorated window gives the decorators' figures.
    let plain = Deployment::start(w, args.seed, None)?;
    let base = measure(&plain, seconds, || probe::set_counting(true));
    probe::set_counting(false);
    plain.shutdown();

    let probe = Probe::new();
    let dep = Deployment::start(w, args.seed, Some(&probe))?;
    let m = measure(&dep, seconds, || {});
    dep.shutdown();
    if let Some(path) = &args.trace_out {
        probe.spans.write(path).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("spans: {}", path.display());
    }

    probe::set_counting(true);
    let mut layers = drivers::bind_chain();
    layers.extend(drivers::handoff());
    layers.extend(drivers::tcb(w, args.seed));
    layers.extend(drivers::protocol(w, args.seed));
    layers.extend(drivers::store(w, args.seed));
    let replicated = w.topology == Topology::Replicated;
    layers.extend(if replicated {
        drivers::ring(w, args.seed)
    } else {
        vec![("cluster.ring.replicas_ns", 0.0, "ns")]
    });
    probe::set_counting(false);

    let b = &base;
    let accepted = b.accepted.iter().sum::<u64>() as f64 / b.accepted.len() as f64;
    let cpu_us = b.user_us + b.sys_us;
    let mut metrics: Vec<(&str, f64, &str)> = vec![
        ("core.runtime.steps_per_op", b.per_op(|c| c.rt.steps), "count"),
        ("core.runtime.wakes_per_op", b.per_op(|c| c.rt.wakes), "count"),
        ("core.runtime.parks_per_op", b.per_op(|c| c.rt.parks), "count"),
        ("core.runtime.ctx_switches_per_op", b.per_op(|c| c.rt.ctx_switches), "count"),
        (
            "core.runtime.epoll_registrations_per_op",
            b.per_op(|c| c.rt.epoll_registrations),
            "count",
        ),
        ("core.runtime.sleeps_per_op", b.per_op(|c| c.rt.sleeps), "count"),
        ("core.service.accepted", accepted, "count"),
        ("core.service.session_errors", b.after.session_errors as f64, "count"),
        ("tcp.segments_per_op", m.per_op(|c| c.segments), "count"),
        ("tcp.pure_acks_per_op", m.per_op(|c| c.pure_acks), "count"),
        (
            "tcp.payload_bytes_per_segment",
            m.delta(|c| c.payload_bytes) / m.delta(|c| c.segments).max(1.0),
            "B",
        ),
        ("tcp.retransmitted_segments", m.delta(|c| c.retransmitted), "count"),
        ("tcp.inject_ns", m.delta(|c| c.inject_ns) / m.delta(|c| c.segments).max(1.0), "ns"),
        ("tcp.conn.recv_calls_per_op", m.per_op(|c| c.recv_calls), "count"),
        ("tcp.conn.sendv_calls_per_op", m.per_op(|c| c.sendv_calls), "count"),
        (
            "tcp.conn.recv_bytes_per_call",
            m.delta(|c| c.recv_bytes) / m.delta(|c| c.recv_calls).max(1.0),
            "B",
        ),
        (
            "tcp.conn.sendv_us",
            m.delta(|c| c.sendv_ns) / m.delta(|c| c.sendv_calls).max(1.0) / 1e3,
            "us",
        ),
        ("kv.store.lock_wait_ns_per_op", b.per_op(|c| c.lock_wait_ns), "ns"),
        ("kv.store.lock_contentions_per_op", b.per_op(|c| c.lock_contentions), "count"),
        ("stm.commits_per_op", b.per_op(|c| c.stm_commits), "count"),
        ("stm.conflicts_per_op", b.per_op(|c| c.stm_conflicts), "count"),
        ("stm.retry_waits", b.delta(|c| c.stm_retry_waits), "count"),
        ("cluster.router.batches_per_op", b.per_op(|c| c.router_batches), "count"),
        (
            "cluster.router.replicated_writes_per_op",
            b.per_op(|c| c.router_replicated_writes),
            "count",
        ),
        ("cluster.router.read_retries_per_op", b.per_op(|c| c.router_read_retries), "count"),
        ("cluster.router.backend_errors", b.after.router_backend_errors as f64, "count"),
        ("bytes.allocs_per_op", b.per_op(|c| c.allocs), "count"),
        ("bytes.copied_per_op", b.per_op(|c| c.bytes_copied), "B"),
        ("bytes.buffers_allocated_per_op", b.per_op(|c| c.buffers_allocated), "count"),
        ("host.cpu_utilization", cpu_us / (b.wall_s * 1e6 * sys::nproc() as f64), "ratio"),
        ("host.sys_frac", b.sys_us / cpu_us.max(1.0), "ratio"),
        ("trace.overhead", m.ops_per_s() / b.ops_per_s(), "ratio"),
    ];
    metrics.extend(layers);
    println!(
        "untraced window: {:.1} ops/s; traced window: {:.1} ops/s, {} commands",
        base.ops_per_s(),
        m.ops_per_s(),
        m.ops
    );
    for (name, value, unit) in &metrics {
        println!("{name}: {value} {unit}");
    }
    report_failures(&base);
    report_failures(&m);
    let correct =
        base.failed == 0 && base.failures.is_empty() && m.failed == 0 && m.failures.is_empty();
    print_result(correct, base.attempted + m.attempted, base.failed + m.failed, &metrics);
    Ok(correct)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "meta: {{\"workload\": {}, \"params\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"rustc\": {}, \"nproc\": {}, \"kernel\": {}, \"runtime_workers\": {WORKERS}, \"transport\": \"in-process LoopbackNet, no real link (zero-latency, loopback-class)\"}}",
        json_string(args.workload.name),
        json_string(&describe(&args.workload)),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_string(&args.rustc),
        sys::nproc(),
        json_string(&sys::kernel()),
    );
    let outcome = if args.trace { traced(&args) } else { untraced(&args) };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
