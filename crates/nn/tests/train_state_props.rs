//! Property tests for the crash-safe training-state dict: an arbitrary
//! stack of every layer type round-trips its full training state (params,
//! Adam moments, dropout RNGs) exactly, and a run resumed from a state
//! dict exported at any step is bit-identical to one that never stopped.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use silofuse_nn::init::Init;
use silofuse_nn::layers::{
    Activation, ActivationKind, Conv1d, Dropout, Layer, LayerNorm, Linear, Sequential,
};
use silofuse_nn::optim::Adam;
use silofuse_nn::serialize::{export_train_state, import_train_state};

const DIM: usize = 4;

/// One width-preserving layer per kind, so stacks compose freely.
fn push_layer(net: Sequential, kind: u8, seed: u64, rng: &mut StdRng) -> Sequential {
    match kind % 5 {
        0 => net.push(Linear::new(DIM, DIM, Init::XavierUniform, rng)),
        1 => net.push(Activation::new(ActivationKind::Gelu)),
        2 => net.push(Dropout::new(0.25, seed)),
        3 => net.push(LayerNorm::new(DIM)),
        _ => net.push(Conv1d::new(1, 1, 1, 1, 0, DIM, rng)),
    }
}

fn build(kinds: &[u8], seed: u64) -> Sequential {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = Sequential::new();
    for (i, &k) in kinds.iter().enumerate() {
        net = push_layer(net, k, seed ^ ((i as u64) << 3), &mut rng);
    }
    net
}

fn train_step(net: &mut Sequential, opt: &mut Adam, x: &silofuse_nn::Tensor) {
    net.zero_grad();
    let y = net.forward(x);
    let _ = net.backward(&y);
    opt.step(net);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Export → import into a differently-initialised twin → both copies
    /// evolve bit-identically through further stochastic training.
    #[test]
    fn any_layer_stack_round_trips_train_state(
        kinds in proptest::collection::vec(0u8..5, 1..6),
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = silofuse_nn::init::randn(5, DIM, &mut rng);
        let mut net = build(&kinds, seed);
        let mut opt = Adam::new(2e-3);
        for _ in 0..3 {
            train_step(&mut net, &mut opt, &x);
        }
        let state = export_train_state(&mut net, &opt);

        let mut twin = build(&kinds, seed ^ 0xdead_beef);
        let mut twin_opt = Adam::new(0.9);
        import_train_state(&mut twin, &mut twin_opt, &state).expect("state must round-trip");
        for _ in 0..3 {
            net.zero_grad();
            twin.zero_grad();
            let a = net.forward(&x);
            let b = twin.forward(&x);
            prop_assert_eq!(&a, &b);
            let _ = net.backward(&a);
            let _ = twin.backward(&b);
            opt.step(&mut net);
            twin_opt.step(&mut twin);
        }
        prop_assert_eq!(net.infer(&x), twin.infer(&x));
    }

    /// Interrupt training at an arbitrary step, restore into a fresh model
    /// and a fresh (differently-configured) Adam, finish the run: the
    /// final weights must equal an uninterrupted run's, bit for bit.
    #[test]
    fn adam_resume_from_any_step_is_bit_identical(
        seed in 0u64..1000,
        split in 1usize..10,
    ) {
        // Linear params + dropout RNG + layer-norm params + Adam moments.
        let kinds = [0u8, 2, 3, 0];
        let mut rng = StdRng::seed_from_u64(seed);
        let x = silofuse_nn::init::randn(6, DIM, &mut rng);

        let mut straight = build(&kinds, seed);
        let mut straight_opt = Adam::new(2e-3);
        for _ in 0..10 {
            train_step(&mut straight, &mut straight_opt, &x);
        }

        let mut first = build(&kinds, seed);
        let mut first_opt = Adam::new(2e-3);
        for _ in 0..split {
            train_step(&mut first, &mut first_opt, &x);
        }
        let state = export_train_state(&mut first, &first_opt);
        drop(first);

        // The "restarted process": fresh init, wrong LR — the state dict
        // must overwrite both (hyperparams and step counter included).
        let mut resumed = build(&kinds, seed ^ 1);
        let mut resumed_opt = Adam::new(0.123);
        import_train_state(&mut resumed, &mut resumed_opt, &state).expect("state must import");
        for _ in split..10 {
            train_step(&mut resumed, &mut resumed_opt, &x);
        }
        prop_assert_eq!(straight.infer(&x), resumed.infer(&x));
    }
}
