//! Thread placement.
//!
//! Each half of a workload runs two busy threads on a two-core host: the
//! algorithm half its calling thread and one pool worker, the service half
//! the generator and the batcher.  Left to the scheduler, the two are
//! sometimes woken onto one core, and a run's times jump between two
//! levels.  The benchmark pins its own calling thread to the first allowed
//! core, and the one thread it needs beside it to the second.  The program
//! spawns that thread itself (the pool worker at the first pooled step, the
//! batcher in `Server::spawn`), so [`beside`] runs the spawning call while
//! the calling thread is pinned to the second core: a new thread inherits
//! its parent's placement.  Pinning is best effort; a refused call leaves
//! the thread where the scheduler puts it.

use std::sync::OnceLock;

/// Bytes of the kernel CPU mask passed to the affinity calls: room for
/// 1024 CPUs, the size of glibc's `cpu_set_t`.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The first two CPUs this process may run on, if it may run on two.
fn cores() -> Option<(usize, usize)> {
    static CORES: OnceLock<Option<(usize, usize)>> = OnceLock::new();
    *CORES.get_or_init(|| {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, MASK_WORDS * 8, mask.as_mut_ptr()) };
        if rc != 0 {
            return None;
        }
        let mut allowed = (0..MASK_WORDS * 64).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1);
        Some((allowed.next()?, allowed.next()?))
    })
}

/// Pins the calling thread to `cpu`; returns whether the kernel agreed.
fn pin_to(cpu: usize) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed; pid
    // 0 names the calling thread.
    unsafe { sched_setaffinity(0, MASK_WORDS * 8, mask.as_ptr()) == 0 }
}

/// Pins the calling thread to the first core.
pub fn main_thread() {
    if let Some((first, _)) = cores() {
        pin_to(first);
    }
}

/// Runs `spawn` pinned to the second core, so a thread it starts lives
/// there, then returns the calling thread to the first core.
pub fn beside<T>(spawn: impl FnOnce() -> T) -> T {
    let Some((first, second)) = cores() else {
        return spawn();
    };
    pin_to(second);
    let out = spawn();
    pin_to(first);
    out
}
