//! Thread placement on a shared machine.
//!
//! The machine this benchmark was tuned on is a 2-core VM whose cores slow
//! down one at a time, in spells of a few seconds, while another tenant
//! shares the physical core. A single-threaded run left to the scheduler
//! can spend all of its passes on the slow core; rotating the passes over
//! the cores lets every run see both. Pinning is a no-op on one core and
//! off Linux.

/// The cores this process may use.
pub fn count() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Pins the calling thread (and the threads it spawns from now on) to core
/// `turn mod count`, when there are at least two cores.
pub fn pin_to(turn: usize) {
    let cores = count();
    if cores >= 2 {
        set_affinity(&[turn % cores]);
    }
}

/// Moves the calling thread to the next core in turn.
pub fn rotate(turn: &mut usize) {
    *turn += 1;
    pin_to(*turn);
}

/// Releases the calling thread to every core.
pub fn unpin() {
    let cores = count();
    if cores >= 2 {
        set_affinity(&(0..cores).collect::<Vec<_>>());
    }
}

/// Releases the calling thread to every core when dropped.
pub struct Unpin;

impl Drop for Unpin {
    fn drop(&mut self) {
        unpin();
    }
}

/// Restricts the calling thread to the given cores. Returns whether the
/// kernel accepted the mask.
#[cfg(target_os = "linux")]
fn set_affinity(cpus: &[usize]) -> bool {
    unsafe extern "C" {
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // A cpu_set_t: 1024 bits.
    let mut mask = [0u64; 16];
    for &cpu in cpus.iter().filter(|&&cpu| cpu < 1024) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live, initialized buffer of exactly the size
    // passed, and pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn set_affinity(_cpus: &[usize]) -> bool {
    false
}
