//! Counting global allocator: allocation and heap numbers taken from
//! outside the stack.
//!
//! The driver arms the counter only around calls into the stack under
//! test. An allocation made while armed is *tagged* in a small header in
//! front of the block, so its bytes stay attributed to the stack until
//! they are freed, wherever that happens (a reply buffer the driver
//! drops counts as freed; a client buffer the sharded runtime recycles
//! into its pool and later drops does not count against the stack).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

/// The allocator the benchmark binary installs.
pub struct Counting;

// Statistics only: none of these publishes other data, so Relaxed.
static ARMED: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static NET_BYTES: AtomicI64 = AtomicI64::new(0);

/// Start attributing allocations to the stack under test.
pub fn arm() {
    ARMED.store(true, Relaxed);
}

/// Stop attributing allocations.
pub fn disarm() {
    ARMED.store(false, Relaxed);
}

/// Allocator calls (alloc + realloc) made while armed, since start.
pub fn calls() -> u64 {
    CALLS.load(Relaxed)
}

/// Bytes allocated while armed and not yet freed.
pub fn net_bytes() -> i64 {
    NET_BYTES.load(Relaxed)
}

/// Bytes in front of every block: one tag word, padded so the caller's
/// alignment still holds.
fn header(layout: &Layout) -> usize {
    layout.align().max(16)
}

fn outer(layout: &Layout, size: usize) -> Option<Layout> {
    let hdr = header(layout);
    Layout::from_size_align(size.checked_add(hdr)?, hdr).ok()
}

fn note_alloc(size: usize) -> u64 {
    let armed = ARMED.load(Relaxed);
    if armed {
        CALLS.fetch_add(1, Relaxed);
        NET_BYTES.fetch_add(size as i64, Relaxed);
    }
    u64::from(armed)
}

// SAFETY: every block is obtained from `System` with the layout
// `outer(layout, size)` — the caller's size plus a header of
// `header(layout)` bytes, aligned to the header size, which is at least
// the caller's alignment and at least 16 — and the pointer handed out is
// `base + header`, so it is aligned for the caller and the 8-byte tag at
// `base` never overlaps caller bytes. `dealloc` and `realloc` receive the
// same `layout` the block was allocated with (the `GlobalAlloc`
// contract), so they recompute the same header size and outer layout.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let Some(outer_layout) = outer(&layout, layout.size()) else {
            return std::ptr::null_mut();
        };
        // SAFETY: `outer_layout` has nonzero size (it includes the header).
        let base = unsafe { System.alloc(outer_layout) };
        if base.is_null() {
            return base;
        }
        // SAFETY: `base` is valid for `outer_layout.size()` ≥ 16 bytes and
        // 16-aligned, so the tag word and the offset pointer are in bounds.
        unsafe {
            base.cast::<u64>().write(note_alloc(layout.size()));
            base.add(header(&layout))
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let hdr = header(&layout);
        // SAFETY: `ptr` came from `alloc`/`realloc` above with this
        // `layout`, so `ptr - hdr` is the block's base and holds the tag.
        unsafe {
            let base = ptr.sub(hdr);
            if base.cast::<u64>().read() != 0 {
                NET_BYTES.fetch_sub(layout.size() as i64, Relaxed);
            }
            let outer_layout = Layout::from_size_align_unchecked(layout.size() + hdr, hdr);
            System.dealloc(base, outer_layout);
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let hdr = header(&layout);
        if outer(&layout, new_size).is_none() {
            return std::ptr::null_mut();
        }
        // SAFETY: as in `dealloc`, `ptr - hdr` is the base of a block
        // allocated with the outer layout; the new outer size was checked
        // above not to overflow.
        unsafe {
            let base = ptr.sub(hdr);
            let was_tagged = base.cast::<u64>().read() != 0;
            let old_outer = Layout::from_size_align_unchecked(layout.size() + hdr, hdr);
            let new_base = System.realloc(base, old_outer, new_size + hdr);
            if new_base.is_null() {
                return new_base;
            }
            if was_tagged {
                NET_BYTES.fetch_sub(layout.size() as i64, Relaxed);
            }
            new_base.cast::<u64>().write(note_alloc(new_size));
            new_base.add(hdr)
        }
    }
}
