//! Process-level settings.
//!
//! **One CPU**, set before any thread starts, so every thread the benchmark
//! spawns (server workers, acceptor) inherits it.
//!
//! A closed-loop round trip wakes the server worker, then the client. On a
//! virtual machine a wake-up that crosses to an idle vCPU costs tens of
//! microseconds, and the scheduler's placement differs between runs: on a
//! 2-vCPU host identical `read_hot` runs landed at either ~20k or ~27k
//! requests/s. On one CPU every wake-up is a plain context switch and runs
//! agree within a few percent.
//!
//! **One malloc arena**, also set before any thread starts. With glibc's
//! per-thread arenas, the server worker that served a session allocated
//! from whichever arena it was handed, and the store's validate latency
//! (thousands of small cached-verdict objects per call) differed between
//! sessions of the same run by up to 1.8x (450 vs 800 us at 10k tasks).
//! With one arena sessions agree within about a fifth.
//!
//! **Freed memory handed back** after each dropped store (see
//! [`release_freed_memory`]), so `peak_rss_mb` measures the live working
//! set rather than what the allocator kept from earlier set-ups.

/// The CPU the process now runs on, or `None` when pinning failed (the run
/// then goes on unpinned).
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    // `cpu_set_t`: 1024 bits
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; WORDS];
    // SAFETY: `allowed` is a writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..WORDS * 64).find(|&c| (allowed[c / 64] >> (c % 64)) & 1 == 1)?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed, and pid
    // 0 names the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } != 0 {
        return None;
    }
    Some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// Hands memory that dropped stores freed back to the operating system.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn release_freed_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` takes a plain integer and only returns free
    // pages of the allocator's own arenas to the kernel.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn release_freed_memory() {}

/// Limits glibc malloc to one arena; `false` where that is not possible.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn one_malloc_arena() -> bool {
    const M_ARENA_MAX: i32 = -8;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` takes two plain integers; M_ARENA_MAX is a valid
    // parameter, and no other thread exists yet to allocate concurrently.
    unsafe { mallopt(M_ARENA_MAX, 1) == 1 }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn one_malloc_arena() -> bool {
    false
}
