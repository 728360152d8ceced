//! Process resource usage and run metadata.

use std::mem::MaybeUninit;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of Linux on 64-bit targets.
#[repr(C)]
struct RUsage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// CPU time and peak resident memory of the whole process.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User CPU, microseconds.
    pub user_us: u64,
    /// System CPU, microseconds.
    pub sys_us: u64,
    /// Peak resident set, KiB.
    pub maxrss_kb: u64,
}

/// Reads `getrusage(RUSAGE_SELF)`.
pub fn usage() -> Usage {
    let mut r = MaybeUninit::<RUsage>::zeroed();
    // SAFETY: `r` is a writable, properly aligned `struct rusage` (the
    // layout above matches the 64-bit Linux ABI); getrusage only writes
    // into it, and a zeroed value is a valid `RUsage` should it fail.
    let r = unsafe {
        getrusage(RUSAGE_SELF, r.as_mut_ptr());
        r.assume_init()
    };
    let us = |t: &Timeval| (t.sec as u64) * 1_000_000 + t.usec as u64;
    Usage { user_us: us(&r.utime), sys_us: us(&r.stime), maxrss_kb: r.maxrss as u64 }
}

/// The host's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The running kernel's release string.
pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}
