//! Integration tests of the multi-tenant synthesis service: cursor
//! pagination must be byte-identical under ANY split of a job's row
//! range — across streamed chunk boundaries, nn-backend thread counts,
//! full server restarts (registry reload from checkpoints), and tenants
//! sampling one shared model at once — and overload or a range past the
//! last row must answer with a typed rejection instead of queueing or
//! panicking.

use proptest::prelude::*;
use silofuse_core::diffusion::SampleRequestError;
use silofuse_core::serve::{
    ModelRegistry, ModelSpec, ServeConfig, ServeError, SynthesisServer, TenantClient,
};
use silofuse_core::TrainBudget;
use silofuse_distributed::ServeRejectCode;
use silofuse_tabular::Table;
use std::path::PathBuf;
use std::sync::{Barrier, OnceLock};
use std::time::Duration;

/// Small enough to fit in seconds, real enough to exercise both phases.
fn tiny_budget() -> TrainBudget {
    TrainBudget::quick().scaled_down(8)
}

fn specs() -> Vec<ModelSpec> {
    vec![ModelSpec::new("loan", "Loan", 128, 11, tiny_budget())]
}

fn serve_config(chunk_rows: usize) -> ServeConfig {
    ServeConfig { chunk_rows, ..ServeConfig::default() }
}

/// Checkpoints of one trained registry, shared by every pagination case;
/// each `ModelRegistry::open` over it is a bit-identical fast-forward —
/// exactly what a server restart does.
fn trained_dir() -> &'static PathBuf {
    static TRAINED: OnceLock<PathBuf> = OnceLock::new();
    TRAINED.get_or_init(|| {
        let dir =
            std::env::temp_dir().join(format!("silofuse-serve-pagination-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let registry =
            ModelRegistry::open(Some(&dir), 25, &specs()).expect("initial training must succeed");
        assert_eq!(registry.len(), 1);
        dir
    })
}

/// Fetches rows `start..start+rows` of `job` on a freshly restarted
/// server (new registry instance loaded from the shared checkpoints).
fn fetch_on_fresh_server(job: u64, start: u64, rows: u32) -> Result<Table, ServeError> {
    let registry = ModelRegistry::open(Some(trained_dir()), 25, &specs())?;
    let mut server = SynthesisServer::new(registry, serve_config(16))?;
    let client = server.connect("paginator");
    let model = client.model_id("loan").expect("loan is cataloged");
    let table = client.fetch(model, job, start, rows);
    drop(client);
    server.shutdown();
    table
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The acceptance property: ANY split of `n` rows into cursor-resumed
    /// fetches — every fetch on its own restarted server — reassembles
    /// into exactly the table a single fetch returns, at 1, 2, and 4
    /// backend threads.
    #[test]
    fn any_cursor_split_across_restarts_and_threads_matches_one_fetch(
        n in 8u32..48,
        raw_cuts in proptest::collection::vec(1u32..48, 0..3),
        job in 0u64..1_000_000,
    ) {
        let mut cuts: Vec<u32> = raw_cuts.iter().map(|c| c % n).filter(|c| *c != 0).collect();
        cuts.sort_unstable();
        cuts.dedup();
        let mut bounds = vec![0u32];
        bounds.extend(cuts);
        bounds.push(n);

        let mut per_thread_count: Vec<Table> = Vec::new();
        for threads in [1usize, 2, 4] {
            silofuse_nn::backend::set_threads(threads);
            let reference = fetch_on_fresh_server(job, 0, n)
                .map_err(|e| TestCaseError::fail(format!("reference fetch: {e}")))?;
            prop_assert_eq!(reference.n_rows(), n as usize);

            let mut parts = Vec::new();
            for w in bounds.windows(2) {
                let part = fetch_on_fresh_server(job, u64::from(w[0]), w[1] - w[0])
                    .map_err(|e| TestCaseError::fail(format!("fetch [{}, {}): {e}", w[0], w[1])))?;
                parts.push(part);
            }
            let refs: Vec<&Table> = parts.iter().collect();
            let stitched = Table::concat_rows(&refs);
            prop_assert_eq!(&stitched, &reference);
            per_thread_count.push(reference);
        }
        // And the three thread counts agree with each other bit for bit.
        prop_assert_eq!(&per_thread_count[0], &per_thread_count[1]);
        prop_assert_eq!(&per_thread_count[1], &per_thread_count[2]);
    }
}

#[test]
fn overload_answers_a_typed_rejection_instead_of_queueing() {
    let registry = ModelRegistry::open(None, 50, &specs()).expect("training must succeed");
    let mut server = SynthesisServer::new(
        registry,
        ServeConfig {
            max_in_flight: 1,
            per_tenant_max: 1,
            chunk_rows: 8,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let busy = server.connect("acme");
    let probe = server.connect("acme"); // second connection, same quota
    let model = busy.model_id("loan").unwrap();

    // A long job: thousands of rows in 8-row chunks keeps the only
    // in-flight slot occupied for a while.
    let big = std::thread::spawn(move || busy.fetch(model, 1, 0, 3000));
    std::thread::sleep(Duration::from_millis(200));

    // While it runs, the same tenant's second connection must be told
    // "overloaded" immediately — the request is answered, not parked.
    match probe.fetch(model, 2, 0, 1) {
        Err(ServeError::Rejected { job: 2, code: ServeRejectCode::Overloaded }) => {}
        Ok(_) => panic!("probe was served while the quota was exhausted"),
        Err(e) => panic!("expected a typed Overloaded rejection, got {e}"),
    }

    let served = big.join().expect("busy tenant panicked").expect("big job must complete");
    assert_eq!(served.n_rows(), 3000);

    // Capacity freed: the probe's retry succeeds. The final chunk can
    // reach the client a beat before the server releases the permit, so
    // honor the contract and back off between attempts.
    let mut retry = probe.fetch(model, 3, 0, 4);
    for _ in 0..200 {
        match &retry {
            Err(ServeError::Rejected { code: ServeRejectCode::Overloaded, .. }) => {
                std::thread::sleep(Duration::from_millis(10));
                retry = probe.fetch(model, 3, 0, 4);
            }
            _ => break,
        }
    }
    assert_eq!(retry.expect("retry after back-off must be admitted").n_rows(), 4);
    drop(probe);
    server.shutdown();
}

#[test]
fn zero_chunk_rows_is_a_typed_error_at_every_layer() {
    // Serve config: the server refuses to start.
    let registry = ModelRegistry::open(None, 50, &specs()).expect("training must succeed");
    let err = SynthesisServer::new(registry, ServeConfig { chunk_rows: 0, ..Default::default() })
        .err()
        .expect("zero chunk_rows must not start a server");
    assert!(matches!(err, ServeError::Config(_)), "{err}");

    // Model config: the old `.max(1)` clamp is gone — a zero
    // `synth_chunk_rows` is rejected at the request boundary.
    use rand::{rngs::StdRng, SeedableRng};
    use silofuse_core::models::{LatentDiff, Synthesizer};
    let mut cfg = tiny_budget().latent_config(3);
    cfg.synth_chunk_rows = 0;
    let table = silofuse_tabular::profiles::profile_by_name("Loan").unwrap().generate(64, 3);
    let mut model = LatentDiff::new(cfg);
    let mut rng = StdRng::seed_from_u64(3);
    model.fit(&table, &mut rng);
    let err = model.try_synthesize_with_steps(8, None, &mut rng).err().unwrap();
    assert!(matches!(err, SampleRequestError::ChunkRows(_)), "{err}");
    let err = model.try_synthesize_range(0, 8, 7).err().unwrap();
    assert!(matches!(err, SampleRequestError::ChunkRows(_)), "{err}");
}

#[test]
fn catalog_rejects_unknown_models_client_side() {
    let registry = ModelRegistry::open(None, 50, &specs()).expect("training must succeed");
    let mut server = SynthesisServer::new(registry, serve_config(32)).unwrap();
    let client = server.connect("curious");
    assert!(client.model_id("no-such-model").is_none());
    let err = client.fetch(99, 1, 0, 8).expect_err("uncataloged id must fail");
    assert!(matches!(err, ServeError::Protocol(_)), "{err}");
    drop(client);
    server.shutdown();
}

#[test]
fn a_range_past_the_last_row_is_a_typed_rejection() {
    let registry = ModelRegistry::open(Some(trained_dir()), 25, &specs()).unwrap();
    let model = registry.model_id("loan").unwrap();
    let err = registry.sample(model, 5, u64::MAX - 10, 256).expect_err("the range end overflows");
    assert!(matches!(err, ServeError::Sample(SampleRequestError::RowRange(_))), "{err}");
    // The last rows below the limit are still addressable.
    assert_eq!(registry.sample(model, 5, u64::MAX - 10, 10).unwrap().n_rows(), 10);

    let mut server = SynthesisServer::new(registry, serve_config(4)).unwrap();
    let client = server.connect("edge");
    match client.fetch(model, 5, u64::MAX - 10, 256) {
        Err(ServeError::Rejected { job: 5, code: ServeRejectCode::InvalidRequest }) => {}
        Ok(t) => panic!("served {} rows past the last row", t.n_rows()),
        Err(e) => panic!("expected a typed InvalidRequest rejection, got {e}"),
    }
    // The connection survived the bad request.
    assert_eq!(client.fetch(model, 5, 0, 8).unwrap().n_rows(), 8);
    drop(client);
    server.shutdown();
}

/// Fetches a page, backing off while admission answers `Overloaded`.
fn fetch_admitted(client: &TenantClient, job: u64, start: u64, rows: u32) -> Table {
    let model = client.model_id("loan").expect("loan is cataloged");
    loop {
        match client.fetch(model, job, start, rows) {
            Err(ServeError::Rejected { code: ServeRejectCode::Overloaded, .. }) => {
                std::thread::sleep(Duration::from_millis(5));
            }
            other => return other.expect("page must be served"),
        }
    }
}

#[test]
fn concurrent_tenants_of_one_model_get_a_lone_tenants_bytes() {
    let registry = ModelRegistry::open(Some(trained_dir()), 25, &specs()).unwrap();
    let config =
        ServeConfig { max_in_flight: 4, per_tenant_max: 1, chunk_rows: 4, ..Default::default() };
    let mut server = SynthesisServer::new(registry, config).unwrap();
    // Tenant t pages through job 40 + t % 2 from row 8t in overlapping
    // 24-row pages, so both jobs are read by two tenants at once and
    // every page streams as six interleaving 4-row chunks.
    let pages = |t: u64| (0..3u64).map(move |p| (40 + t % 2, 8 * t + 16 * p, 24u32));
    let go = &Barrier::new(4);
    let served: Vec<Vec<Table>> = std::thread::scope(|scope| {
        let tenants: Vec<_> = (0..4u64)
            .map(|t| {
                let client = server.connect(&format!("tenant-{t}"));
                scope.spawn(move || {
                    go.wait();
                    pages(t)
                        .map(|(job, start, rows)| fetch_admitted(&client, job, start, rows))
                        .collect()
                })
            })
            .collect();
        tenants.into_iter().map(|h| h.join().expect("tenant thread panicked")).collect()
    });
    server.shutdown();
    for (t, tables) in served.iter().enumerate() {
        for ((job, start, rows), table) in pages(t as u64).zip(tables) {
            let lone = fetch_on_fresh_server(job, start, rows).unwrap();
            assert_eq!(table, &lone, "tenant {t}: job {job} rows {start}+{rows}");
        }
    }
}

#[test]
fn concurrent_registry_samples_match_sequential_ones() {
    let registry = ModelRegistry::open(Some(trained_dir()), 25, &specs()).unwrap();
    let model = registry.model_id("loan").unwrap();
    let requests = [(1u64, 0u64, 96u32), (2, 48, 96)];
    let sequential: Vec<Table> = requests
        .iter()
        .map(|&(job, start, rows)| registry.sample(model, job, start, rows).unwrap())
        .collect();
    let (registry, go) = (&registry, &Barrier::new(requests.len()));
    let concurrent: Vec<Table> = std::thread::scope(|scope| {
        let calls: Vec<_> = requests
            .iter()
            .map(|&(job, start, rows)| {
                scope.spawn(move || {
                    go.wait();
                    registry.sample(model, job, start, rows)
                })
            })
            .collect();
        calls.into_iter().map(|h| h.join().expect("sampler panicked").unwrap()).collect()
    });
    assert_eq!(concurrent, sequential);
}

/// Tenant threads share one registry and sample from it without a lock,
/// so every model layer on the inference path must be `Send + Sync`.
#[test]
fn the_inference_path_is_send_and_sync() {
    fn shared<T: Send + Sync>() {}
    shared::<ModelRegistry>();
    shared::<silofuse_core::models::LatentDiff>();
    shared::<silofuse_core::diffusion::GaussianDdpm>();
    shared::<silofuse_core::models::TabularAutoencoder>();
    shared::<silofuse_core::nn::layers::Sequential>();
}
