//! Process CPU time from `getrusage(2)` and peak resident set size from
//! `/proc/self/status`.
//!
//! The standard library exposes neither, and the build is offline (no
//! `libc` crate), so the one call is declared here. The struct layout is
//! Linux's `struct rusage` on 64-bit targets: two `timeval`s followed by
//! fourteen `long`s.

use std::os::raw::{c_int, c_long};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    rest: [c_long; 14],
}

const RUSAGE_SELF: c_int = 0;

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

fn rusage_self() -> Rusage {
    let mut r = Rusage::default();
    // SAFETY: `r` is a live, writable `struct rusage` with the kernel's
    // layout for this target (see the module doc); `getrusage` only writes
    // into it and `RUSAGE_SELF` is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid buffer"
    );
    r
}

fn seconds(t: &Timeval) -> f64 {
    t.tv_sec as f64 + t.tv_usec as f64 * 1e-6
}

/// User and system CPU seconds consumed so far by every thread of this
/// process, including threads that have already exited.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuTime {
    /// User-mode seconds.
    pub user: f64,
    /// Kernel-mode seconds.
    pub system: f64,
}

impl CpuTime {
    /// The process's CPU time now.
    pub fn now() -> CpuTime {
        let r = rusage_self();
        CpuTime {
            user: seconds(&r.ru_utime),
            system: seconds(&r.ru_stime),
        }
    }

    /// CPU time spent since `earlier`.
    pub fn since(&self, earlier: &CpuTime) -> CpuTime {
        CpuTime {
            user: self.user - earlier.user,
            system: self.system - earlier.system,
        }
    }

    /// User plus system seconds.
    pub fn total(&self) -> f64 {
        self.user + self.system
    }
}

/// Peak resident set size of this process so far, in MiB, or 0 when the
/// kernel does not report it.
///
/// This is `VmHWM`, the high-water mark of this process's own address
/// space. `getrusage`'s `ru_maxrss` is not used: `execve` folds the
/// pre-exec high-water mark into it, so under `cargo run` it reports
/// cargo's footprint whenever that is larger.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(0.0)
}
