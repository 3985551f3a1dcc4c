//! Reusable workspace buffers for the convolution/GEMM pipeline.
//!
//! The hot paths (im2col, conv forward/backward, matmul transposes) need
//! large intermediate `Vec<f32>` buffers. Allocating them fresh on every
//! call dominates small-batch workloads, so a [`Scratch`] keeps returned
//! buffers alive for the next call. Every [`Backend`] method that needs a
//! workspace takes one: the `blurnet-nn` batch engine hands one to each
//! worker, and a training loop keeps one across steps. The few kernels
//! whose trait method takes no scratch (`matmul_transpose_a`, the
//! separable blur) draw from a thread-local pool instead.

use std::cell::RefCell;
use std::sync::Arc;

use crate::backend::{default_backend, Backend};

/// A pool of reusable `f32` buffers, bound to a compute [`Backend`].
///
/// `take` hands out a zeroed buffer of the requested length (reusing the
/// best-fitting pooled allocation), `put` returns it. Buffers are plain
/// `Vec<f32>`, so leaking one (forgetting `put`) is safe — it just allocates
/// again next time.
///
/// The backend handle is how layers discover which kernels to dispatch
/// to: [`Scratch::new`] binds the process-wide
/// [`default_backend`], [`Scratch::with_backend`] binds an explicit one
/// (e.g. a forced-scalar [`crate::CpuBackend`] in cross-dispatch tests).
#[derive(Debug)]
pub struct Scratch {
    pub(crate) pool: Vec<Vec<f32>>,
    backend: Arc<dyn Backend>,
}

/// How many returned buffers the pool keeps before dropping the smallest.
const MAX_POOLED: usize = 8;

impl Scratch {
    /// Creates an empty pool bound to the process-wide [`default_backend`].
    pub fn new() -> Self {
        Scratch {
            pool: Vec::new(),
            backend: default_backend(),
        }
    }

    /// Creates an empty pool bound to an explicit backend.
    pub fn with_backend(backend: Arc<dyn Backend>) -> Self {
        Scratch {
            pool: Vec::new(),
            backend,
        }
    }

    /// The backend this pool is bound to, as an owned handle (cloning the
    /// `Arc` keeps the pool borrowable mutably while kernels run).
    pub fn backend(&self) -> Arc<dyn Backend> {
        Arc::clone(&self.backend)
    }

    /// Pops the pooled allocation with the smallest sufficient capacity for
    /// `len`, falling back to the largest pooled buffer (it grows in place)
    /// rather than leaving it behind and allocating a second copy.
    fn pop_best(&mut self, len: usize) -> Option<Vec<f32>> {
        let mut best: Option<usize> = None;
        for (i, buf) in self.pool.iter().enumerate() {
            if buf.capacity() >= len {
                match best {
                    Some(b) if self.pool[b].capacity() <= buf.capacity() => {}
                    _ => best = Some(i),
                }
            }
        }
        if best.is_none() && !self.pool.is_empty() {
            let mut largest = 0;
            for (i, buf) in self.pool.iter().enumerate() {
                if buf.capacity() > self.pool[largest].capacity() {
                    largest = i;
                }
            }
            best = Some(largest);
        }
        best.map(|i| self.pool.swap_remove(i))
    }

    /// Returns a zero-filled buffer of exactly `len` elements, reusing the
    /// pooled allocation with the smallest sufficient capacity when one
    /// exists.
    pub(crate) fn take(&mut self, len: usize) -> Vec<f32> {
        match self.pop_best(len) {
            Some(mut buf) => {
                buf.clear();
                buf.resize(len, 0.0);
                buf
            }
            None => vec![0.0; len],
        }
    }

    /// Returns a buffer of exactly `len` elements whose contents are
    /// unspecified (stale data from a previous use, or zeros).
    ///
    /// For workspaces the caller fully overwrites before reading — GEMM
    /// outputs, transpose targets — this skips the `memset` that [`take`]
    /// pays on every call. Steady-state reuse at a stable size touches no
    /// memory at all; only growth beyond the pooled length zero-fills the
    /// new tail.
    ///
    /// [`take`]: Scratch::take
    pub(crate) fn take_dirty(&mut self, len: usize) -> Vec<f32> {
        match self.pop_best(len) {
            Some(mut buf) => {
                if buf.len() >= len {
                    buf.truncate(len);
                } else {
                    buf.resize(len, 0.0);
                }
                buf
            }
            None => vec![0.0; len],
        }
    }

    /// Returns a buffer to the pool for reuse.
    pub(crate) fn put(&mut self, buf: Vec<f32>) {
        if buf.capacity() == 0 {
            return;
        }
        if self.pool.len() >= MAX_POOLED {
            // Evict the smallest allocation to bound held memory.
            let mut smallest = 0;
            for (i, b) in self.pool.iter().enumerate() {
                if b.capacity() < self.pool[smallest].capacity() {
                    smallest = i;
                }
            }
            if self.pool[smallest].capacity() >= buf.capacity() {
                return;
            }
            self.pool.swap_remove(smallest);
        }
        self.pool.push(buf);
    }

    /// Runs `f` with this thread's shared scratch pool, for kernels whose
    /// backend method takes no scratch, so repeated calls reuse buffers
    /// without any caller-side plumbing.
    pub(crate) fn with_thread_local<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
        thread_local! {
            static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::new());
        }
        SCRATCH.with(|s| f(&mut s.borrow_mut()))
    }
}

impl Default for Scratch {
    fn default() -> Self {
        Scratch::new()
    }
}

impl Clone for Scratch {
    /// Cloning must not duplicate cached workspace memory; clones keep the
    /// backend binding but start with an empty pool.
    fn clone(&self) -> Self {
        Scratch::with_backend(Arc::clone(&self.backend))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_zeroed_buffers_and_reuses_capacity() {
        let mut s = Scratch::new();
        let mut a = s.take(1024);
        assert_eq!(a.len(), 1024);
        assert!(a.iter().all(|&v| v == 0.0));
        a.iter_mut().for_each(|v| *v = 7.0);
        let ptr = a.as_ptr();
        s.put(a);
        let b = s.take(512);
        // Same allocation handed back, re-zeroed.
        assert_eq!(b.as_ptr(), ptr);
        assert_eq!(b.len(), 512);
        assert!(b.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn pool_is_bounded() {
        let mut s = Scratch::new();
        for i in 0..32 {
            s.put(vec![0.0; 64 + i]);
        }
        assert!(s.pool.len() <= MAX_POOLED);
    }

    #[test]
    fn clone_starts_empty() {
        let mut s = Scratch::new();
        s.put(vec![0.0; 128]);
        assert_eq!(s.clone().pool.len(), 0);
    }

    #[test]
    fn thread_local_pool_persists_across_calls() {
        let ptr = Scratch::with_thread_local(|s| {
            let buf = s.take(256);
            let p = buf.as_ptr();
            s.put(buf);
            p
        });
        let ptr2 = Scratch::with_thread_local(|s| {
            let buf = s.take(256);
            let p = buf.as_ptr();
            s.put(buf);
            p
        });
        assert_eq!(ptr, ptr2);
    }
}
