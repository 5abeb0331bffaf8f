//! Training-substrate benchmarks: one LDC-style epoch on a small task and
//! the partial-BNN building blocks (binary conv forward, encoding
//! forward) — the costs that bound the evolutionary search budget.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use univsa::{EncodingLayer, TrainOptions, UniVsaConfig, UniVsaTrainer};
use univsa_data::{GeneratorParams, SyntheticGenerator, TaskSpec};
use univsa_nn::BinaryConv2d;
use univsa_tensor::{signs, Conv2dSpec};

fn small_task() -> univsa_data::Dataset {
    let spec = TaskSpec {
        name: "bench".into(),
        width: 8,
        length: 16,
        classes: 2,
        levels: 256,
    };
    let mut rng = StdRng::seed_from_u64(0);
    let generator = SyntheticGenerator::new(GeneratorParams::new(spec), &mut rng);
    generator.dataset(&[32, 32], &mut rng)
}

fn bench_train_epoch(c: &mut Criterion) {
    let train = small_task();
    let cfg = UniVsaConfig::for_task(train.spec())
        .d_h(4)
        .d_l(2)
        .d_k(3)
        .out_channels(8)
        .voters(1)
        .build()
        .expect("bench config valid");
    let options = TrainOptions {
        epochs: 1,
        ..TrainOptions::default()
    };
    let trainer = UniVsaTrainer::new(cfg, options);
    c.bench_function("train_one_epoch_small", |bench| {
        bench.iter(|| trainer.fit(&train, 3).unwrap());
    });
}

fn bench_binary_conv_forward(c: &mut Criterion) {
    let spec = Conv2dSpec {
        in_channels: 8,
        out_channels: 22,
        kernel: 3,
        height: 16,
        width: 40,
    };
    let mut rng = StdRng::seed_from_u64(1);
    let mut conv = BinaryConv2d::new(spec, &mut rng).expect("spec valid");
    let x = signs(&[8, 16, 40], &mut rng);
    c.bench_function("binary_conv_forward_isolet_geometry", |bench| {
        bench.iter(|| conv.forward(vec![x.clone()]).unwrap());
    });
}

fn bench_encoding_forward(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let mut enc = EncodingLayer::new(22, 640, &mut rng);
    let a = signs(&[22, 640], &mut rng);
    c.bench_function("encoding_forward_isolet_geometry", |bench| {
        bench.iter(|| enc.forward(vec![a.clone()]).unwrap());
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(8));
    targets = bench_train_epoch, bench_binary_conv_forward, bench_encoding_forward
}
criterion_main!(benches);
