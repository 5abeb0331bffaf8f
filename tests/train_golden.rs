//! Golden digests of trained models: one short seeded fit per Table I
//! paper configuration, compiled and serialized, must hash to the bytes
//! recorded here at every pool width.
//!
//! The training kernels promise bit-identical results to their naive
//! oracles, so the exported models must not change by a single bit. The
//! artifacts hold only binarized weights, so the model gate catches a
//! wrong gradient (a dropped tap flips trained signs) but one short fit
//! can absorb an ulp-level change without moving any latent weight across
//! zero. A second gate therefore hashes the float gradients of one BiConv
//! → encoding backward pass at each Table I geometry: any change to that
//! arithmetic, down to one ulp or the sign of a zero, changes its digest.
//! A digest may only be re-recorded together with an intended change to
//! what training computes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use univsa::{save_packed, EncodingLayer, PackedModel, TrainOptions, UniVsaConfig, UniVsaTrainer};
use univsa_data::{tasks, Dataset, Task};
use univsa_nn::BinaryConv2d;
use univsa_tensor::{signs, Tensor};

/// Training samples per fit, taken at an even stride through the split so
/// every class is represented.
const SAMPLES: usize = 32;
const FIT_SEED: u64 = 12;
const DATA_SEED: u64 = 2025;

/// FNV-1a digests of `save_packed(&PackedModel::compile(&model))`, in
/// Table I order.
const GOLDEN: [(&str, u64); 6] = [
    ("EEGMMI", 0x46f2_b262_0816_5791),
    ("BCI-III-V", 0xb53f_4d45_b718_701f),
    ("CHB-B", 0x8df0_3568_e283_5a87),
    ("CHB-IB", 0xd91b_c23a_8154_5b58),
    ("ISOLET", 0xb89f_125d_247f_f364),
    ("HAR", 0xdb11_dbbb_502c_3004),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn paper_config(task: &Task) -> UniVsaConfig {
    let (d_h, d_l, d_k, o, theta) =
        tasks::paper_config_tuple(&task.spec.name).expect("paper config exists");
    UniVsaConfig::for_task(&task.spec)
        .d_h(d_h)
        .d_l(d_l)
        .d_k(d_k)
        .out_channels(o)
        .voters(theta)
        .build()
        .expect("paper configurations are valid")
}

fn strided(task: &Task) -> Dataset {
    let full = &task.train;
    let picked = (0..SAMPLES)
        .map(|i| full.samples()[i * full.len() / SAMPLES].clone())
        .collect();
    Dataset::new(task.spec.clone(), picked).expect("subset is valid")
}

fn digests() -> Vec<(String, u64)> {
    tasks::all(DATA_SEED)
        .iter()
        .map(|task| {
            let options = TrainOptions {
                epochs: 1,
                ..TrainOptions::default()
            };
            let model = UniVsaTrainer::new(paper_config(task), options)
                .fit(&strided(task), FIT_SEED)
                .expect("fit succeeds")
                .model;
            let bytes = save_packed(&PackedModel::compile(&model)).expect("save succeeds");
            (task.spec.name.clone(), fnv1a(&bytes))
        })
        .collect()
}

#[test]
fn trained_models_match_golden_digests_at_every_pool_width() {
    for threads in [1, 4] {
        let got = univsa_par::with_threads(threads, digests);
        for ((name, digest), (want_name, want)) in got.iter().zip(GOLDEN) {
            assert_eq!(name, want_name);
            assert_eq!(
                *digest, want,
                "{name} trained model digest changed at {threads} thread(s): {digest:#018x}"
            );
        }
    }
}

/// FNV-1a digests of the float gradients of one BiConv → encoding
/// backward pass per Table I geometry, in Table I order.
const GRADIENT_GOLDEN: [(&str, u64); 6] = [
    ("EEGMMI", 0x0e66_4da3_7b39_cbb9),
    ("BCI-III-V", 0xc9db_7c62_6b3b_ca77),
    ("CHB-B", 0x1020_a516_9cd3_f050),
    ("CHB-IB", 0x92e4_aaee_5742_756b),
    ("ISOLET", 0xc23d_b789_c212_c34c),
    ("HAR", 0x0d7f_8da2_294b_54ce),
];

/// Samples per backward batch: enough to exercise the sample-order
/// gradient reduction at four workers.
const GRADIENT_BATCH: usize = 4;

fn fnv1a_f32(h: u64, xs: &[f32]) -> u64 {
    xs.iter().fold(h, |h, x| {
        x.to_bits().to_le_bytes().iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    })
}

/// Seeded layers at the task's geometry, one forward and one backward
/// pass, and the digest of every gradient the backward produces.
fn gradient_digest(task: &Task) -> u64 {
    let cfg = paper_config(task);
    let spec = cfg.conv_spec();
    let (o, d) = (spec.out_channels, spec.height * spec.width);
    let mut rng = StdRng::seed_from_u64(FIT_SEED);
    let mut conv = BinaryConv2d::new(spec, &mut rng).expect("paper spec is valid");
    let mut enc = EncodingLayer::new(o, d, &mut rng);
    let batch: Vec<Tensor> = (0..GRADIENT_BATCH)
        .map(|_| signs(&spec.input_dims(), &mut rng))
        .collect();
    let maps = conv
        .forward(batch)
        .expect("shapes match")
        .into_iter()
        .map(|a| a.reshape(&[o, d]).expect("same size"))
        .collect();
    enc.forward(maps).expect("shapes match");
    // upstream gradients with exact zeros, as the similarity heads emit
    let grad_s: Vec<Tensor> = (0..GRADIENT_BATCH)
        .map(|_| {
            let v = (0..d).map(|_| match rng.gen_range(0..6) {
                0 => 0.0,
                _ => rng.gen_range(-1.0f32..1.0),
            });
            Tensor::from_vec(v.collect(), &[d]).expect("sized")
        })
        .collect();
    let grad_a: Vec<Tensor> = enc
        .backward(&grad_s)
        .expect("shapes match")
        .into_iter()
        .map(|g| g.reshape(&spec.output_dims()).expect("same size"))
        .collect();
    let grad_x = conv.backward(&grad_a).expect("shapes match");
    let mut h = 0xcbf2_9ce4_8422_2325;
    h = fnv1a_f32(h, enc.f_latent().grad().as_slice());
    h = fnv1a_f32(h, conv.kernel().grad().as_slice());
    for g in grad_a.iter().chain(&grad_x) {
        h = fnv1a_f32(h, g.as_slice());
    }
    h
}

#[test]
fn backward_gradients_match_golden_digests_at_every_pool_width() {
    let tasks = tasks::all(DATA_SEED);
    for threads in [1, 4] {
        for (task, (want_name, want)) in tasks.iter().zip(GRADIENT_GOLDEN) {
            assert_eq!(task.spec.name, want_name);
            let digest = univsa_par::with_threads(threads, || gradient_digest(task));
            assert_eq!(
                digest, want,
                "{want_name} gradient digest changed at {threads} thread(s): {digest:#018x}"
            );
        }
    }
}
