//! A sampling chunk split across idle cores writes the bytes of the serial
//! run, for both distributed protocols.
//!
//! A chunk of at least 128 rows splits into contiguous parts of 16 to 18
//! rows, which the caller and the cores the worker pool lends it take from
//! a shared queue, and each part is sampled as its own batch. Every row's
//! noise is keyed to its absolute index, so the split must not change a
//! byte. The pool counters prove the split really ran: without them a run
//! that found no idle core would sample inline and pass without touching
//! the pool.
//!
//! This file holds a single test on purpose. The pool lends only cores no
//! other caller holds, so another test's kernels running at the same
//! moment could rightly keep a chunk from splitting.

use rand::rngs::StdRng;
use rand::SeedableRng;
use silofuse_distributed::e2e_distr::E2eDistributed;
use silofuse_distributed::stacked::SiloFuseModel;
use silofuse_models::latentdiff::LatentDiffConfig;
use silofuse_models::AutoencoderConfig;
use silofuse_nn::backend;
use silofuse_observe::names::{POOL_DISPATCHES, SYNTH_SPLIT_CHUNKS};
use silofuse_observe::TelemetryHub;
use silofuse_tabular::partition::{PartitionPlan, PartitionStrategy};
use silofuse_tabular::profiles;
use silofuse_tabular::table::Table;

fn tiny_config(seed: u64) -> LatentDiffConfig {
    LatentDiffConfig {
        ae: AutoencoderConfig { hidden_dim: 32, lr: 2e-3, seed, ..Default::default() },
        ddpm_hidden: 32,
        timesteps: 8,
        ae_steps: 10,
        diffusion_steps: 10,
        batch_size: 32,
        inference_steps: 4,
        seed,
        ..Default::default()
    }
}

fn partitions(seed: u64) -> Vec<Table> {
    let t = profiles::loan().generate(48, seed);
    PartitionPlan::new(t.n_cols(), 2, PartitionStrategy::Default).split(&t)
}

/// A counter summed over every actor's scope.
fn counter(hub: &TelemetryHub, name: &str) -> u64 {
    hub.scopes().iter().map(|s| s.metrics().counter(name).get()).sum()
}

#[test]
fn chunks_split_across_idle_cores_give_the_serial_bytes() {
    const ROWS: usize = 300;
    let found = backend::threads();
    backend::set_threads(1);
    let hub = silofuse_observe::init_scoped("split-synthesis", "main");
    let mut stacked =
        SiloFuseModel::fit(&partitions(31), tiny_config(31), &mut StdRng::seed_from_u64(31));
    let mut e2e =
        E2eDistributed::fit(&partitions(37), tiny_config(37), &mut StdRng::seed_from_u64(37));

    // A 300-row request is a 200-row chunk (parts of 16 and 17 rows) plus
    // a 100-row one at chunk size 200, a 256-row chunk plus a 44-row one
    // at 256, and one 300-row chunk at 8192; each chunk of 128 rows or
    // more can split.
    for chunk in [200, 256, 8192] {
        stacked.set_synth_chunk_rows(chunk);
        e2e.set_synth_chunk_rows(chunk);
        let mut run = || {
            (
                stacked.synthesize_partitioned(ROWS, 0, &mut StdRng::seed_from_u64(5)),
                e2e.synthesize_partitioned(ROWS, &mut StdRng::seed_from_u64(6)),
            )
        };
        backend::set_threads(1);
        let splits_before = counter(&hub, SYNTH_SPLIT_CHUNKS);
        let serial = run();
        assert_eq!(counter(&hub, SYNTH_SPLIT_CHUNKS), splits_before, "1 worker borrows no core");
        for threads in [2, 4] {
            backend::set_threads(threads);
            let splits = counter(&hub, SYNTH_SPLIT_CHUNKS);
            let dispatches = counter(&hub, POOL_DISPATCHES);
            let (s, e) = run();
            assert!(
                counter(&hub, SYNTH_SPLIT_CHUNKS) >= splits + 2,
                "chunk={chunk} threads={threads}: each protocol's big chunk must split"
            );
            assert!(counter(&hub, POOL_DISPATCHES) > dispatches, "the split borrows helpers");
            assert_eq!(s, serial.0, "stacked diverged at chunk={chunk} threads={threads}");
            assert_eq!(e, serial.1, "e2e diverged at chunk={chunk} threads={threads}");
        }
    }
    silofuse_observe::shutdown();
    backend::set_threads(found);
}
