//! Small numeric helpers shared by the workloads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Quantile `q` in `[0, 1]` of `values`, interpolating linearly between
/// the two nearest ranks (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (pos - lo as f64) * (sorted[hi] - sorted[lo])
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The p99 of `values`, or their median when there are fewer than 40:
/// so few samples have no tail to report.
pub fn tail(values: &[f64]) -> f64 {
    quantile(values, if values.len() < 40 { 0.5 } else { 0.99 })
}

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live heap bytes and their peak.
///
/// Peak live heap stands in for peak resident set: on `train_digits`
/// the resident set varies by a third from run to run with how the
/// allocator spreads the worker threads' short-lived buffers over its
/// arenas, while the bytes the program holds at once do not.
pub struct CountingAlloc;

fn grew(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are
// statistics that publish no other data, hence `Relaxed`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        new
    }
}

/// Peak live heap of this process so far, in MB.
pub fn peak_heap_mb() -> f64 {
    PEAK_BYTES.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// Runs `setup` `times` times and returns the last result with the
/// median wall time in seconds.
pub fn repeated_setup<T>(times: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        let t = std::time::Instant::now();
        last = Some(setup());
        secs.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one setup"), median(&secs))
}

/// Calls `round` with 0, 1, 2, … until `seconds` are used: at least
/// `min_rounds` times, and never starting a round that the previous
/// round's length says would end past the deadline. Returns the count.
pub fn rounds(seconds: f64, min_rounds: u64, mut round: impl FnMut(u64)) -> u64 {
    let start = std::time::Instant::now();
    let mut last_s = 0.0;
    let mut done = 0;
    while done < min_rounds.max(1) || start.elapsed().as_secs_f64() + last_s <= seconds {
        let t = std::time::Instant::now();
        round(done);
        last_s = t.elapsed().as_secs_f64();
        done += 1;
    }
    done
}
