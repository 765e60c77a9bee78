//! Heap-weight estimates for the expansion cache's byte accounting.
//!
//! An [`ExpansionCache`](crate::ExpansionCache) is bounded in bytes, so
//! everything resident in it — the expansion, and the artifact a back
//! end attaches — has to say what it weighs.  The estimate is what the
//! containers have *reserved* (capacity, not length), rounded the way the
//! allocator rounds; it is deterministic and never asks the allocator.
//! `tests/expansion_cache_rss.rs` holds the process's measured `VmRSS`
//! growth against the bound the estimates enforce.

/// What one allocation of `bytes` takes from the heap, modelled on the
/// system allocator: an 8-byte header, 16-byte size classes, 32 bytes at
/// least (nothing is allocated for zero).
pub fn alloc_bytes(bytes: usize) -> usize {
    match bytes {
        0 => 0,
        bytes => (bytes + 8).next_multiple_of(16).max(32),
    }
}

/// A `T` behind an `Arc`: the value plus the two reference counts.
pub fn arc_bytes<T>() -> usize {
    alloc_bytes(std::mem::size_of::<T>() + 16)
}

/// The buffer behind a `String`.
pub fn str_bytes(s: &String) -> usize {
    alloc_bytes(s.capacity())
}

/// The buffer behind a `Vec` (not what its elements own).
pub fn vec_bytes<T>(v: &Vec<T>) -> usize {
    alloc_bytes(v.capacity() * std::mem::size_of::<T>())
}

/// A list of strings: the list's buffer and every string's.
pub fn strings_bytes(v: &Vec<String>) -> usize {
    vec_bytes(v) + v.iter().map(str_bytes).sum::<usize>()
}
