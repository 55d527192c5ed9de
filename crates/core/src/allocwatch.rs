//! A counting global allocator for pinning allocation-free hot paths.
//!
//! The paper's core complaint is that IDSs evaluated offline fall over at
//! deployment rates; one of the quietest ways to fall over is allocator
//! traffic on the per-packet path. [`CountingAllocator`] wraps the system
//! allocator and counts every allocation (and the bytes requested), so a
//! test or bench binary can install it as its `#[global_allocator]` and
//! assert that a scoring loop performs *zero* heap allocations after
//! warmup — the invariant the `hot_path_allocs` integration test pins for
//! Kitsune and HELAD, and the repository benchmark reports as
//! `stream.allocs_per_packet`.
//!
//! # Examples
//!
//! ```ignore
//! use idsbench_core::allocwatch::{allocation_snapshot, CountingAllocator};
//!
//! #[global_allocator]
//! static ALLOC: CountingAllocator = CountingAllocator;
//!
//! let before = allocation_snapshot();
//! hot_loop();
//! let after = allocation_snapshot();
//! assert_eq!(after.allocations - before.allocations, 0);
//! ```
//!
//! (The example is `ignore`d because a doctest must not install a second
//! global allocator into the shared test binary.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

/// A drop-in `#[global_allocator]` that counts allocations while
/// delegating every call to [`System`].
///
/// Counting uses relaxed atomics: the counters are monotone totals read
/// between phases of a single-threaded measurement loop, not a
/// synchronization mechanism.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAllocator;

// SAFETY: delegates verbatim to `System`, which upholds the `GlobalAlloc`
// contract; the counter updates have no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow is fresh allocator traffic on the hot path; count it like
        // an allocation of the new size.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Monotone totals since process start, captured by
/// [`allocation_snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocationSnapshot {
    /// Number of `alloc`/`realloc` calls.
    pub allocations: u64,
    /// Total bytes those calls requested.
    pub bytes: u64,
}

impl AllocationSnapshot {
    /// Allocations between `earlier` and `self`.
    pub fn allocations_since(&self, earlier: &AllocationSnapshot) -> u64 {
        self.allocations - earlier.allocations
    }

    /// Bytes requested between `earlier` and `self`.
    pub fn bytes_since(&self, earlier: &AllocationSnapshot) -> u64 {
        self.bytes - earlier.bytes
    }
}

/// Reads the counters. Meaningful only when [`CountingAllocator`] is
/// installed as the process's `#[global_allocator]`; otherwise both totals
/// stay zero.
pub fn allocation_snapshot() -> AllocationSnapshot {
    AllocationSnapshot {
        allocations: ALLOCATIONS.load(Ordering::Relaxed),
        bytes: ALLOCATED_BYTES.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The unit-test binary does not install the counting allocator, so the
    // only observable behaviour here is snapshot arithmetic.
    #[test]
    fn snapshot_deltas() {
        let earlier = AllocationSnapshot { allocations: 3, bytes: 100 };
        let later = AllocationSnapshot { allocations: 10, bytes: 350 };
        assert_eq!(later.allocations_since(&earlier), 7);
        assert_eq!(later.bytes_since(&earlier), 250);
    }
}
