//! A thread-local scratch-buffer arena for training-loop temporaries.
//!
//! Every layer forward/backward, loss, and optimizer step used to allocate
//! fresh `Vec<f32>` storage per call. At steady state the set of shapes a
//! training loop touches is fixed, so the arena recycles those allocations:
//! [`take`] pops a pooled buffer when one is large enough, and [`recycle`]
//! returns storage to the pool when a consumer is done with a tensor.
//!
//! The pool is thread-local — kernels parallelise *inside* an op, while the
//! training loop itself is single-threaded — so there is no locking on the
//! hot path. Pool pressure is observable: [`misses`] counts takes that had
//! to fall back to a fresh heap allocation, which is the debug counter the
//! zero-allocation-per-step tests assert on.

use crate::tensor::Tensor;
use std::cell::RefCell;

/// Maximum number of idle buffers the pool retains; beyond this,
/// [`recycle`] simply drops the storage.
const MAX_POOLED: usize = 64;

struct Pool {
    free: Vec<Vec<f32>>,
    hits: u64,
    misses: u64,
}

thread_local! {
    static POOL: RefCell<Pool> =
        const { RefCell::new(Pool { free: Vec::new(), hits: 0, misses: 0 }) };
}

/// Takes a `rows×cols` tensor from the pool. **Contents are unspecified** —
/// use this for outputs a kernel fully overwrites; use [`take_zeroed`] when
/// the consumer accumulates into the buffer.
pub fn take(rows: usize, cols: usize) -> Tensor {
    match take_storage(rows * cols) {
        Some(data) => Tensor::from_vec(rows, cols, data),
        None => Tensor::zeros(rows, cols),
    }
}

/// Takes a raw `len`-element `Vec<f32>` from the pool. **Contents are
/// unspecified** — this is the entry the backend kernels use for packing
/// panels and quantization scratch that are not tensors; return the
/// storage with [`recycle_vec`].
pub fn take_vec(len: usize) -> Vec<f32> {
    take_storage(len).unwrap_or_else(|| vec![0.0; len])
}

/// Pops the smallest pooled buffer that fits `len` (resized to exactly
/// `len`), or records a miss and returns `None`.
fn take_storage(len: usize) -> Option<Vec<f32>> {
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        // Smallest pooled buffer whose capacity fits, to keep big buffers
        // available for big requests.
        let mut best: Option<(usize, usize)> = None;
        for (i, buf) in pool.free.iter().enumerate() {
            let cap = buf.capacity();
            if cap >= len && best.is_none_or(|(_, c)| cap < c) {
                best = Some((i, cap));
            }
        }
        match best {
            Some((i, _)) => {
                pool.hits += 1;
                let mut buf = pool.free.swap_remove(i);
                if buf.len() >= len {
                    buf.truncate(len);
                } else {
                    buf.resize(len, 0.0);
                }
                Some(buf)
            }
            None => {
                pool.misses += 1;
                None
            }
        }
    })
}

/// Takes a zero-filled `rows×cols` tensor from the pool.
pub fn take_zeroed(rows: usize, cols: usize) -> Tensor {
    let mut t = take(rows, cols);
    t.as_mut_slice().fill(0.0);
    t
}

/// Takes a pooled copy of `src`.
pub fn take_copy(src: &Tensor) -> Tensor {
    let mut t = take(src.rows(), src.cols());
    t.as_mut_slice().copy_from_slice(src.as_slice());
    t
}

/// Returns a tensor's storage to the pool for reuse.
pub fn recycle(t: Tensor) {
    recycle_vec(t.into_vec());
}

/// Returns raw `Vec<f32>` storage to the pool for reuse.
pub fn recycle_vec(buf: Vec<f32>) {
    if buf.capacity() == 0 {
        return;
    }
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.free.len() < MAX_POOLED {
            pool.free.push(buf);
        }
    });
}

/// Refreshes a cache slot with a copy of `src`, reusing the existing
/// allocation when the shape matches and recycling it when it does not.
/// This is how layers keep their `cached_input` across steps without a
/// fresh clone per forward pass.
pub fn cache_assign(slot: &mut Option<Tensor>, src: &Tensor) {
    cache_slot(slot, src.rows(), src.cols()).as_mut_slice().copy_from_slice(src.as_slice());
}

/// The `rows×cols` tensor in a cache slot, for the caller to overwrite:
/// the slot's allocation when the shape matches, else a pooled one (the
/// old one recycled). **Contents are unspecified.**
pub fn cache_slot(slot: &mut Option<Tensor>, rows: usize, cols: usize) -> &mut Tensor {
    if slot.as_ref().is_none_or(|t| t.shape() != (rows, cols)) {
        if let Some(old) = slot.take() {
            recycle(old);
        }
        *slot = Some(take(rows, cols));
    }
    slot.as_mut().expect("the slot was filled above")
}

/// Pool takes served from a recycled buffer (this thread).
pub fn hits() -> u64 {
    POOL.with(|p| p.borrow().hits)
}

/// Pool takes that fell back to a fresh heap allocation (this thread).
/// A warmed-up training step should not move this counter.
pub fn misses() -> u64 {
    POOL.with(|p| p.borrow().misses)
}

/// Resets the hit/miss counters (this thread); the pool itself is kept.
pub fn reset_counters() {
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        pool.hits = 0;
        pool.misses = 0;
    });
}

/// Drops every pooled buffer and zeroes the counters (this thread).
pub fn clear() {
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        pool.free.clear();
        pool.hits = 0;
        pool.misses = 0;
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycled_storage_is_reused() {
        clear();
        let t = take(8, 8);
        let miss_baseline = misses();
        recycle(t);
        let t2 = take(8, 8);
        assert_eq!(misses(), miss_baseline, "take after recycle must not allocate");
        assert_eq!(hits(), 1);
        assert_eq!(t2.shape(), (8, 8));
        recycle(t2);
    }

    #[test]
    fn smaller_request_reuses_larger_buffer() {
        clear();
        recycle(Tensor::zeros(10, 10));
        let t = take(3, 3);
        assert_eq!(t.shape(), (3, 3));
        assert_eq!(hits(), 1);
        assert_eq!(misses(), 0);
    }

    #[test]
    fn take_zeroed_really_zeroes() {
        clear();
        let mut t = take(4, 4);
        t.as_mut_slice().fill(7.0);
        recycle(t);
        let z = take_zeroed(4, 4);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn cache_assign_reuses_matching_shape() {
        clear();
        let src = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let mut slot = None;
        cache_assign(&mut slot, &src);
        let before = misses();
        let src2 = Tensor::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        cache_assign(&mut slot, &src2);
        assert_eq!(misses(), before, "same-shape refresh must not allocate");
        assert_eq!(slot.unwrap().as_slice(), src2.as_slice());
    }
}
