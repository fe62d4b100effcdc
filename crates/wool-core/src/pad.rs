//! Cache-line padding, replacing the `crossbeam_utils::CachePadded`
//! the workspace used before going dependency-free.
//!
//! 128-byte alignment covers both the common 64-byte line size and the
//! 128-byte prefetch granularity of recent x86 (adjacent-line prefetch)
//! and Apple/ARM big cores — the same choice crossbeam makes.

/// Pads and aligns a value to 128 bytes so that writes to it never
/// false-share a cache line with a neighbouring field.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value`.
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    #[inline(always)]
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    #[inline(always)]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_and_padded() {
        assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 128);
        assert_eq!(std::mem::size_of::<CachePadded<u8>>(), 128);
        // Larger-than-line payloads round up to the alignment.
        assert_eq!(std::mem::size_of::<CachePadded<[u8; 130]>>(), 256);
    }

    #[test]
    fn deref_roundtrip() {
        let mut p = CachePadded::new(7u32);
        *p += 1;
        assert_eq!(*p, 8);
    }
}
