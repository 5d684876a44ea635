//! At one worker a sampling chunk holds one part's activations (parts of
//! at most 256 rows), not the whole chunk's: an 8 192-row chunk of the
//! Loan-shaped latent DDPM (13 columns, 128 hidden units, 8 layers) used
//! to run its backbone on all rows at once, a few `8 192 × 128`
//! activations alive at a time, while at two workers the same chunk ran
//! as 16-row parts.
//!
//! This binary counts every heap byte through its own global allocator,
//! so it holds this one test and nothing else runs while it measures.

use rand::rngs::StdRng;
use rand::SeedableRng;
use silofuse_diffusion::backbone::{BackboneConfig, DiffusionBackbone};
use silofuse_diffusion::gaussian::{GaussianDdpm, GaussianDiffusion, Parameterization};
use silofuse_diffusion::schedule::{NoiseSchedule, ScheduleKind};
use silofuse_nn::backend;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(now, Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn one_worker_samples_a_big_chunk_one_part_at_a_time() {
    backend::set_threads(1);
    let (dim, hidden, rows) = (13, 128, 8_192);
    let mut rng = StdRng::seed_from_u64(3);
    let backbone = DiffusionBackbone::new(BackboneConfig::paper_latent(dim, hidden), 3, &mut rng);
    let diffusion = GaussianDiffusion::new(
        NoiseSchedule::new(ScheduleKind::Linear, 200),
        Parameterization::PredictX0,
    );
    let ddpm = GaussianDdpm::new(diffusion, backbone, 1e-3);
    let mut sampler = ddpm.chunked_sampler_from_base(rows, 2, 1.0, rows, 11).unwrap();

    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let (first, latents) = sampler.next_chunk().unwrap();
    let held = PEAK.load(Relaxed) - before;

    assert_eq!((first, latents.shape()), (0, (rows, dim)));
    assert!(latents.all_finite());
    let chunk = rows * dim * size_of::<f32>();
    let part = 256 * hidden * size_of::<f32>();
    let activation = rows * hidden * size_of::<f32>();
    assert!(
        held < chunk + 8 * part,
        "sampling held {held} B at its peak: the chunk's latents are {chunk} B, one 256-row \
         part's activation {part} B, and one {rows}-row activation {activation} B"
    );
}
