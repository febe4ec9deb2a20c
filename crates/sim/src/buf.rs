//! Pooled byte buffers for per-message scratch space.
//!
//! The hot RPC path used to allocate a fresh `Vec<u8>` per frame (codec
//! encode, network payload staging). At millions of simulated ops that is
//! an allocation per event; the pool recycles buffers through a
//! thread-local free list instead. Buffers keep their capacity when
//! returned, so steady-state traffic hits the allocator only during
//! warm-up.
//!
//! The pool is per-thread: a `Sim` never leaves the thread it was built
//! on, so sweeps that run independent simulations on several OS threads
//! share nothing and the pool needs no lock. It is bounded: at most
//! [`MAX_POOLED`] buffers are retained and oversized buffers are dropped
//! rather than hoarded.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};

/// Maximum number of buffers retained per thread.
const MAX_POOLED: usize = 64;
/// Buffers with more capacity than this are dropped on return rather than
/// pooled (they would pin large allocations for rare jumbo frames).
const MAX_RETAINED_CAPACITY: usize = 256 * 1024;

thread_local! {
    static POOL: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

/// Take a cleared buffer from the thread-local pool (or allocate one).
pub fn take() -> PooledBuf {
    let vec = POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default();
    debug_assert!(vec.is_empty());
    PooledBuf { vec: Some(vec) }
}

/// Take a cleared buffer with at least `cap` bytes of capacity.
pub fn take_with_capacity(cap: usize) -> PooledBuf {
    let mut buf = take();
    let have = buf.capacity();
    if have < cap {
        buf.reserve(cap - have);
    }
    buf
}

/// Number of buffers currently parked in this thread's pool.
pub fn pooled() -> usize {
    POOL.with(|p| p.borrow().len())
}

/// A `Vec<u8>` on loan from the thread-local pool; returns itself (cleared,
/// capacity kept) on drop. Derefs to `Vec<u8>`, so `extend_from_slice`,
/// `push`, and friends work directly.
pub struct PooledBuf {
    vec: Option<Vec<u8>>,
}

impl PooledBuf {
    /// Detach the underlying `Vec`, e.g. to hand the bytes to an owner
    /// that outlives the loan. The allocation leaves the pool for good.
    pub fn into_vec(mut self) -> Vec<u8> {
        self.vec.take().unwrap()
    }
}

impl Deref for PooledBuf {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        self.vec.as_ref().unwrap()
    }
}

impl DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        self.vec.as_mut().unwrap()
    }
}

impl AsRef<[u8]> for PooledBuf {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::fmt::Debug for PooledBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PooledBuf")
            .field("len", &self.len())
            .field("capacity", &self.capacity())
            .finish()
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        let Some(mut vec) = self.vec.take() else {
            return; // detached via into_vec
        };
        if vec.capacity() == 0 || vec.capacity() > MAX_RETAINED_CAPACITY {
            return;
        }
        vec.clear();
        POOL.with(|p| {
            let mut pool = p.borrow_mut();
            if pool.len() < MAX_POOLED {
                pool.push(vec);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_recycle_capacity() {
        let mut b = take();
        b.extend_from_slice(&[0u8; 4096]);
        let cap = b.capacity();
        drop(b);
        let b2 = take();
        assert!(b2.capacity() >= cap, "capacity should be recycled");
        assert!(b2.is_empty(), "recycled buffer must come back cleared");
    }

    #[test]
    fn into_vec_detaches_from_pool() {
        let before = pooled();
        let mut b = take();
        b.extend_from_slice(b"hello");
        let v = b.into_vec();
        assert_eq!(v, b"hello");
        assert!(pooled() <= before + 1); // the detached buffer was not returned
    }

    #[test]
    fn take_with_capacity_reserves() {
        let b = take_with_capacity(10_000);
        assert!(b.capacity() >= 10_000);
    }

    #[test]
    fn jumbo_buffers_are_not_hoarded() {
        let mut b = take();
        b.reserve(MAX_RETAINED_CAPACITY + 1);
        let before = pooled();
        drop(b);
        assert_eq!(pooled(), before, "oversized buffer must not be pooled");
    }
}
