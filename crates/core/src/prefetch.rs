//! A portable software-prefetch shim.
//!
//! The paper's figure of merit — PCBs examined — is a proxy for memory
//! traffic, and a chain walk knows its next node one step before it
//! needs it. [`crate::concurrent::EpochDemux`] prefetches that node so
//! its cache miss overlaps the current node's key comparison instead of
//! following it.
//!
//! On x86_64 this lowers to a single `prefetcht0` instruction. On every
//! other architecture it is a documented no-op: there is no stable
//! portable prefetch intrinsic, and a hint that does nothing is always
//! correct. The `unsafe` block below is the only one in the workspace —
//! see DESIGN.md §9 for why it is sound (`prefetcht0` is an advisory
//! hint that cannot fault, and the argument is a live reference anyway).

/// Hint the CPU to pull the cache line holding `target` into L1.
///
/// Purely advisory: correctness never depends on it, and on
/// architectures without a stable prefetch intrinsic it compiles to
/// nothing.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub fn prefetch_read<T>(target: &T) {
    use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
    // SAFETY: `prefetcht0` is an architectural hint — it cannot fault,
    // does not read or write the referenced memory as far as the
    // abstract machine is concerned, and `target` is a live reference
    // besides. This is the sole `unsafe` block in the workspace; the
    // crate root enforces `deny(unsafe_code)` everywhere else.
    #[allow(unsafe_code)]
    unsafe {
        _mm_prefetch::<{ _MM_HINT_T0 }>((target as *const T).cast::<i8>());
    }
}

/// No-op fallback for architectures without a stable prefetch intrinsic.
#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
pub fn prefetch_read<T>(_target: &T) {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_is_a_pure_hint() {
        // Nothing observable may change: the value is untouched and the
        // call cannot fault, whatever the target architecture.
        let value = [7u64; 16];
        prefetch_read(&value);
        prefetch_read(&value[15]);
        assert_eq!(value, [7u64; 16]);
    }
}
