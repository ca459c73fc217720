//! Host facts: process CPU time, hypervisor steal time, peak heap use
//! from a counting wrapper around the system allocator, and the host's
//! current speed from a fixed calibration kernel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux clock id of the calling process's CPU time, every thread
/// included (exited ones too).
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Linux clock id of the calling thread's CPU time.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Reads a CPU-time clock, to the nanosecond. Time the hypervisor stole
/// from the virtual CPUs is not counted.
///
/// # Panics
///
/// Panics if the C library refuses the clock, which Linux always
/// provides.
fn cpu_clock(clock: i32) -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call's
    // duration, and the clock id is one of the constants Linux defines.
    let status = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(status, 0, "CPU-time clock {clock} is readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// User plus system CPU seconds of this process, every thread included.
pub fn cpu_seconds() -> f64 {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// User plus system CPU seconds of the calling thread.
pub fn thread_cpu_seconds() -> f64 {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Clock ticks per second of `/proc/stat` times (`USER_HZ`, 100 on Linux).
const TICKS_PER_S: f64 = 100.0;

/// Seconds the hypervisor has stolen from this machine's virtual CPUs,
/// summed over CPUs since boot, at 10 ms resolution: 0 on bare metal or
/// where `/proc/stat` is unavailable.
pub fn steal_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    // `cpu  user nice system idle iowait irq softirq steal ...`
    stat.lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(8)?.parse::<u64>().ok())
        .map_or(0.0, |ticks| ticks as f64 / TICKS_PER_S)
}

/// Whether [`CountingAlloc`] is counting (only inside [`peak_heap_bytes`]).
static COUNTING: AtomicBool = AtomicBool::new(false);
/// Bytes allocated and not yet freed since counting started.
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
/// The largest value `LIVE_BYTES` reached.
static PEAK_BYTES: AtomicIsize = AtomicIsize::new(0);

/// The system allocator, counting live heap bytes while
/// [`peak_heap_bytes`] runs. Outside that window each call costs one
/// relaxed load of a flag, so nothing timed pays for the counting.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingAlloc;

fn count(delta: isize) {
    if COUNTING.load(Ordering::Relaxed) {
        let live = LIVE_BYTES.fetch_add(delta, Ordering::Relaxed) + delta;
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    }
}

fn grew(bytes: usize) {
    count(isize::try_from(bytes).unwrap_or(isize::MAX));
}

fn shrank(bytes: usize) {
    count(-isize::try_from(bytes).unwrap_or(isize::MAX));
}

/// Runs `f` with [`CountingAlloc`] counting and returns `f`'s result with
/// the most heap bytes that were allocated during the call and not yet
/// freed at one time (blocks live before the call do not count). Run on
/// one thread, a deterministic program gives the same peak every time.
/// Reads 0 unless `CountingAlloc` is the global allocator; calls must not
/// overlap.
pub fn peak_heap_bytes<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LIVE_BYTES.store(0, Ordering::SeqCst);
    PEAK_BYTES.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    (out, usize::try_from(PEAK_BYTES.load(Ordering::SeqCst)).unwrap_or(0))
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the wrapper only updates
// counters after a successful call and never touches the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` carry over unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` carry over unchanged.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`, `layout` and `new_size` meet `realloc`'s contract
        // as the caller guarantees, and `ptr` came from `System`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        new
    }
}

/// Table steps of one calibration kernel burst.
const KERNEL_STEPS: u64 = 300_000;

/// Heap blocks one calibration kernel burst allocates.
const KERNEL_ALLOCS: usize = 30_000;

/// Blocks a burst keeps live at once.
const KERNEL_LIVE: usize = 64;

/// CPU seconds one kernel burst takes on the reference host: the scale
/// every host time is reported at. It is a round figure near what a
/// 2-vCPU Xeon virtual machine takes; only ratios to it matter when two
/// runs are compared.
pub const KERNEL_REF_S: f64 = 0.006;

/// The calibration kernel, in two halves of about equal time, both like
/// the simulator's and the searches' inner loops: pseudo-random reads and
/// writes over a 256 KiB table (branchy, cache-resident) with a
/// floating-point recurrence, then allocator churn (blocks of varying
/// size allocated, written and freed with a few dozen live). The churn
/// matters: over a 25-minute record of all four workloads on a noisy
/// host, a kernel with it followed every workload's speed more closely
/// than table, pointer-chasing, arithmetic or branch kernels alone.
#[derive(Debug, Clone)]
pub struct Kernel {
    table: Vec<u32>,
}

impl Default for Kernel {
    fn default() -> Self {
        Self { table: vec![0; 1 << 16] }
    }
}

impl Kernel {
    /// One calibration sample: a burst of fixed work on the calling
    /// thread. Returns the burst's CPU seconds, which the hypervisor's
    /// steal does not inflate but contention for the cores and caches
    /// does, and a checksum of the work, so it cannot be elided.
    pub fn burst(&mut self) -> (f64, u64) {
        let start = thread_cpu_seconds();
        self.table.fill(0);
        let table = black_box(&mut self.table);
        let mut x = 1u64;
        let mut acc = 0u64;
        let mut f = 1.0f64;
        for i in 0..KERNEL_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut table[(x as usize) & 0xffff];
            if *slot & 1 == 0 {
                *slot = slot.wrapping_add(x as u32);
            } else {
                acc = acc.wrapping_add(u64::from(*slot));
            }
            if i % 8 == 0 {
                f = f * 1.000_000_1 + f64::from(*slot) * 1e-12;
            }
        }
        let mut live: Vec<Vec<u64>> = Vec::with_capacity(KERNEL_LIVE + 1);
        for i in 0..KERNEL_ALLOCS {
            let mut block = vec![i as u64; 1 + (i * 7919) % 200];
            block[0] ^= acc;
            acc = acc.wrapping_add(block[block.len() - 1]);
            live.push(black_box(block));
            if live.len() > KERNEL_LIVE {
                live.swap_remove((i * 31) % KERNEL_LIVE);
            }
        }
        drop(live);
        (thread_cpu_seconds() - start, acc ^ f.to_bits())
    }
}

/// The machine's available parallelism (at least 1).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_clocks_are_readable_and_monotone() {
        let (process, thread) = (cpu_seconds(), thread_cpu_seconds());
        let busy: u64 = (0..2_000_000u64).map(black_box).sum();
        assert!(busy > 0);
        assert!(cpu_seconds() > process && thread_cpu_seconds() > thread);
        assert!(steal_seconds() >= 0.0);
        assert!(nproc() >= 1);
    }

    #[test]
    fn kernel_does_fixed_work() {
        let mut kernel = Kernel::default();
        let (secs, a) = kernel.burst();
        assert!(secs > 0.0);
        assert_eq!(kernel.burst().1, a, "same work, same checksum");
        assert_eq!(Kernel::default().burst().1, a);
    }

    #[test]
    fn counting_allocator_reports_the_peak_of_one_call() {
        let a = CountingAlloc;
        let small = Layout::from_size_align(1 << 20, 8).expect("valid layout");
        let large = Layout::from_size_align(2 << 20, 8).expect("valid layout");
        // SAFETY: non-zero-size layouts; every block is freed with the
        // layout it was allocated (or reallocated) with.
        let ((), peak) = peak_heap_bytes(|| unsafe {
            let p = a.alloc(small);
            assert!(!p.is_null());
            let q = a.realloc(p, small, 2 << 20);
            assert!(!q.is_null());
            a.dealloc(q, large);
            let r = a.alloc_zeroed(small);
            assert!(!r.is_null());
            a.dealloc(r, small);
        });
        // The test binary's allocator is the system one, so the wrapper
        // called directly is all that counts.
        assert_eq!(peak, 2 << 20);
        // A second call starts from zero.
        // SAFETY: as above.
        let ((), again) = peak_heap_bytes(|| unsafe {
            let p = a.alloc(small);
            assert!(!p.is_null());
            a.dealloc(p, small);
        });
        assert_eq!(again, 1 << 20);
    }
}
