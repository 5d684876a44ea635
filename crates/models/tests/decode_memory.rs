//! A decode's live heap follows the decoder head's width times the block
//! size, not the number of rows decoded. Decoding 4 096 rows through the
//! 2 946-wide head of Churn's first silo used to hold the whole call's
//! logits twice (`rows × head` from the decoder, `rows × width` re-packed
//! for the encoder), about 96 MB; blocked, it holds one block's logits.
//!
//! This binary counts every heap byte through its own global allocator,
//! so it holds this one test and nothing else runs while it measures.

use rand::rngs::StdRng;
use rand::SeedableRng;
use silofuse_models::{AutoencoderConfig, TabularAutoencoder, DECODE_BLOCK_ROWS};
use silofuse_nn::init::randn;
use silofuse_tabular::partition::{PartitionPlan, PartitionStrategy};
use silofuse_tabular::{profiles, ColumnKind};
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
fn decode_holds_a_few_blocks_of_logits_not_the_whole_batch() {
    let churn = profiles::churn().generate(256, 3);
    let plan = PartitionPlan::new(churn.n_cols(), 4, PartitionStrategy::Default);
    let silo0 = plan.split(&churn).swap_remove(0);
    let schema = silo0.schema();
    let head = schema.one_hot_width() + schema.numeric_count();
    assert!(head > 2_900, "Churn's first silo has a {head}-wide head");
    let cfg = AutoencoderConfig { hidden_dim: 64, ..Default::default() };
    let ae = TabularAutoencoder::new(&silo0, cfg);

    let rows = 4_096;
    let latents = randn(rows, ae.latent_dim(), &mut StdRng::seed_from_u64(9));
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let table = ae.decode(&latents);
    let held = PEAK.load(Relaxed) - before;

    assert_eq!(table.n_rows(), rows);
    let table_bytes: usize = schema
        .columns()
        .iter()
        .map(|c| match c.kind {
            ColumnKind::Numeric => rows * size_of::<f64>(),
            ColumnKind::Categorical { .. } => rows * size_of::<u32>(),
        })
        .sum();
    let block = DECODE_BLOCK_ROWS * head * size_of::<f32>();
    let whole_batch = rows * head * size_of::<f32>();
    assert!(
        held < table_bytes + 4 * block,
        "decode held {held} B at its peak: the table is {table_bytes} B and one block of \
         logits {block} B (the whole batch's logits are {whole_batch} B)"
    );
}
