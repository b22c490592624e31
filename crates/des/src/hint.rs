//! Cache hints.
//!
//! A discrete-event simulator holds a sorted list of its own future memory
//! accesses: the event queue. [`prefetch_read`] is how the run loop tells
//! the CPU about them ([`EventQueue::prefetch_upcoming`] and the network
//! layer's receive-line hint both bottom out here). A hint never changes
//! what a program computes — only how long a later load waits.
//!
//! [`EventQueue::prefetch_upcoming`]: crate::EventQueue::prefetch_upcoming

/// Ask the CPU to start loading every cache line `value` occupies, for a
/// read in the near future (`prefetcht0` on x86-64, `prfm pldl1keep` on
/// AArch64). Returns at once; does nothing on other architectures.
///
/// Lines are taken as 64 B, which is right on every x86-64 and mainstream
/// AArch64 part; a wrong guess costs a redundant or a missed hint, never
/// correctness.
#[inline(always)]
#[allow(unsafe_code)]
pub fn prefetch_read<T: ?Sized>(value: &T) {
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    {
        const LINE: usize = 64;
        let base = std::ptr::from_ref(value).cast::<u8>();
        // Bytes of the first line that precede the value: stepping from the
        // line's start, not the value's, reaches a last line the value only
        // pokes into.
        let lead = base.addr() % LINE;
        for off in (0..lead + std::mem::size_of_val(value)).step_by(LINE) {
            let p = base.wrapping_add(off.saturating_sub(lead));
            // SAFETY: a prefetch has no architectural effect — it cannot
            // fault, writes no register or memory, and is defined for any
            // address (SSE is x86-64 baseline; `prfm` is base A64). `p`
            // lies inside the live `&T` besides, so even a load from it
            // would be sound. The asm options state the same: no stack, no
            // flags, no writes.
            unsafe {
                #[cfg(target_arch = "x86_64")]
                std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(p.cast());
                #[cfg(target_arch = "aarch64")]
                std::arch::asm!(
                    "prfm pldl1keep, [{p}]",
                    p = in(reg) p,
                    options(nostack, preserves_flags, readonly)
                );
            }
        }
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = value;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sized values, slices longer than a line and straddling one,
    /// zero-sized values and unsized `str` all pass through unchanged.
    #[test]
    fn hint_leaves_its_argument_alone() {
        let word = 7u64;
        prefetch_read(&word);
        assert_eq!(word, 7);
        let big = [3u8; 300];
        prefetch_read(&big);
        for start in 0..70 {
            prefetch_read(&big[start..start + 66]);
        }
        assert!(big.iter().all(|&b| b == 3));
        prefetch_read(&());
        prefetch_read::<[u32]>(&[]);
        prefetch_read("unsized");
    }
}
