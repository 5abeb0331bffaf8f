//! LDC-style training of the UniVSA partial BNN.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use univsa_bits::{BitMatrix, BitVec};
use univsa_data::Dataset;
use univsa_nn::{softmax_cross_entropy, Adam, BatchIter, BinaryConv2d, BinaryLinear, Optimizer};
use univsa_tensor::Tensor;

use crate::observe::{EpochObserver, EpochStats};
use crate::{EncodingLayer, Mask, UniVsaConfig, UniVsaError, UniVsaModel, ValueBox};

/// Hyperparameters of the training loop.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainOptions {
    /// Number of passes over the training split.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Hidden width of the ValueBox MLPs.
    pub hidden: usize,
    /// Logit scale applied to the averaged similarity scores before the
    /// softmax; `None` picks `4/√D`, which keeps the softmax out of
    /// saturation across the paper's dimension range.
    pub logit_scale: Option<f32>,
    /// Latent-weight clip bound for the binary layers (keeps the STE
    /// window populated).
    pub weight_clip: f32,
}

impl Default for TrainOptions {
    fn default() -> Self {
        Self {
            epochs: 30,
            batch_size: 32,
            learning_rate: 0.01,
            hidden: 16,
            logit_scale: None,
            weight_clip: 1.0,
        }
    }
}

/// Per-epoch training curve.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainHistory {
    /// Mean cross-entropy per epoch.
    pub epoch_loss: Vec<f32>,
    /// Training accuracy per epoch (from the training-time logits).
    pub epoch_accuracy: Vec<f64>,
}

/// The result of [`UniVsaTrainer::fit`]: the packed deployment model and
/// its training curve.
#[derive(Debug, Clone)]
pub struct TrainOutcome {
    /// The frozen packed model.
    pub model: UniVsaModel,
    /// Loss/accuracy history.
    pub history: TrainHistory,
}

/// Trains UniVSA models with the LDC strategy: the model runs as a float
/// partial BNN with straight-through estimators during training, and only
/// the binarized weight sets are exported.
///
/// See the crate-level quickstart for an end-to-end example.
#[derive(Debug, Clone)]
pub struct UniVsaTrainer {
    config: UniVsaConfig,
    options: TrainOptions,
}

impl UniVsaTrainer {
    /// Creates a trainer for the given configuration and hyperparameters.
    pub fn new(config: UniVsaConfig, options: TrainOptions) -> Self {
        Self { config, options }
    }

    /// The configuration this trainer targets.
    #[inline]
    pub fn config(&self) -> &UniVsaConfig {
        &self.config
    }

    /// The training hyperparameters.
    #[inline]
    pub fn options(&self) -> &TrainOptions {
        &self.options
    }

    /// Trains on the given split with a fixed seed and exports the packed
    /// model.
    ///
    /// # Errors
    ///
    /// Returns [`UniVsaError::Input`] if the dataset is empty or its
    /// geometry disagrees with the configuration, and propagates any
    /// internal shape error (which would indicate a bug in the wiring).
    pub fn fit(&self, train: &Dataset, seed: u64) -> Result<TrainOutcome, UniVsaError> {
        self.fit_observed(train, seed, &mut ())
    }

    /// [`fit`](Self::fit) with an [`EpochObserver`] receiving per-epoch
    /// loss/accuracy/duration and the total fit wall time. Telemetry
    /// spans (`train.epoch`, `train.fit`) are emitted alongside whenever
    /// the global registry is enabled.
    ///
    /// # Errors
    ///
    /// Same conditions as [`fit`](Self::fit).
    pub fn fit_observed(
        &self,
        train: &Dataset,
        seed: u64,
        observer: &mut dyn EpochObserver,
    ) -> Result<TrainOutcome, UniVsaError> {
        let fit_start = Instant::now();
        let cfg = &self.config;
        let opt = &self.options;
        self.check_dataset(train)?;
        // RAII span held for the whole fit so per-epoch spans (and the
        // pool regions they dispatch) causally nest under it in a trace
        let fit_span = univsa_telemetry::span("train", "fit")
            .field("epochs", opt.epochs)
            .field("samples", train.len())
            .field("seed", seed);

        let mut rng = StdRng::seed_from_u64(seed);
        let d = cfg.vsa_dim();
        let channels = cfg.encoding_channels();
        let voters = cfg.effective_voters();
        let scale = opt.logit_scale.unwrap_or_else(|| 4.0 / (d as f32).sqrt());

        // DVP mask (all-high when the enhancement is off).
        let mask = if cfg.enhancements.dvp {
            Mask::learn(train, cfg.high_fraction)?
        } else {
            Mask::all_high(cfg.features())
        };

        // Assemble the partial BNN.
        let mut vb_h = ValueBox::new(cfg.levels, cfg.d_h, opt.hidden, &mut rng);
        let mut vb_l = if cfg.enhancements.dvp {
            Some(ValueBox::new(cfg.levels, cfg.d_l, opt.hidden, &mut rng))
        } else {
            None
        };
        let mut conv = if cfg.enhancements.biconv {
            Some(BinaryConv2d::new(cfg.conv_spec(), &mut rng)?)
        } else {
            None
        };
        let mut enc = EncodingLayer::new(channels, d, &mut rng);
        let mut heads: Vec<BinaryLinear> = (0..voters)
            .map(|_| BinaryLinear::new(d, cfg.classes, &mut rng))
            .collect();
        let mut adam = Adam::new(opt.learning_rate);

        let n = train.len();
        let mut history = TrainHistory {
            epoch_loss: Vec::with_capacity(opt.epochs),
            epoch_accuracy: Vec::with_capacity(opt.epochs),
        };

        for epoch in 0..opt.epochs {
            let epoch_start = Instant::now();
            let epoch_span = univsa_telemetry::span("train", "epoch");
            let mut epoch_loss = 0.0f64;
            let mut batches = 0usize;
            let mut correct = 0usize;
            for batch in BatchIter::new(n, opt.batch_size, &mut rng) {
                let labels: Vec<usize> = batch.iter().map(|&i| train.samples()[i].label).collect();

                // 1. Value tables over the level grid.
                let th = vb_h.forward_table()?;
                let tl = match vb_l.as_mut() {
                    Some(vb) => Some(vb.forward_table()?),
                    None => None,
                };

                // 2. Per-sample value maps (D_H, W, L), built on the
                //    worker pool (independent per sample, collected in
                //    sample order).
                let xs: Vec<Tensor> =
                    univsa_par::map_indexed("train.value_maps", batch.len(), |bi| {
                        self.build_value_map(train, batch[bi], &mask, &th, tl.as_ref())
                    })
                    .into_iter()
                    .collect::<Result<_, _>>()?;

                // 3. BiConv (or passthrough) to channel maps (channels, D).
                let (a_maps, conv_inputs): (Vec<Tensor>, bool) = match conv.as_mut() {
                    Some(conv) => {
                        let outs = conv.forward(xs)?;
                        (
                            outs.into_iter()
                                .map(|t| t.reshape(&[channels, d]))
                                .collect::<Result<_, _>>()?,
                            true,
                        )
                    }
                    None => (
                        xs.iter()
                            .map(|x| x.clone().reshape(&[channels, d]))
                            .collect::<Result<_, _>>()?,
                        false,
                    ),
                };

                // 4. Encoding to sample vectors s.
                let s_vecs = enc.forward(a_maps)?;
                let mut s_flat = Vec::with_capacity(batch.len() * d);
                for s in &s_vecs {
                    s_flat.extend_from_slice(s.as_slice());
                }
                let s_batch = Tensor::from_vec(s_flat, &[batch.len(), d])?;

                // 5. Soft-voting similarity heads.
                let mut sum_logits = Tensor::zeros(&[batch.len(), cfg.classes]);
                for head in &mut heads {
                    let logits = head.forward(&s_batch)?;
                    sum_logits.axpy(1.0, &logits)?;
                }
                let avg_logits = sum_logits.scale(scale / voters as f32);

                // 6. Loss.
                let (loss, grad_logits) = softmax_cross_entropy(&avg_logits, &labels)?;
                epoch_loss += f64::from(loss);
                batches += 1;
                for (row, &label) in avg_logits.as_slice().chunks(cfg.classes).zip(labels.iter()) {
                    let pred = row
                        .iter()
                        .enumerate()
                        .max_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap())
                        .map(|(i, _)| i)
                        .unwrap_or(0);
                    if pred == label {
                        correct += 1;
                    }
                }

                // 7. Backward.
                vb_h.zero_grad();
                if let Some(vb) = vb_l.as_mut() {
                    vb.zero_grad();
                }
                if let Some(conv) = conv.as_mut() {
                    conv.zero_grad();
                }
                enc.zero_grad();
                for head in &mut heads {
                    head.zero_grad();
                }

                let grad_heads = grad_logits.scale(scale / voters as f32);
                let mut grad_s = Tensor::zeros(&[batch.len(), d]);
                for head in &mut heads {
                    grad_s.axpy(1.0, &head.backward(&grad_heads)?)?;
                }
                let grad_s_rows: Vec<Tensor> = grad_s
                    .as_slice()
                    .chunks(d)
                    .map(|row| Tensor::from_vec(row.to_vec(), &[d]))
                    .collect::<Result<_, _>>()?;
                let grad_a = enc.backward(&grad_s_rows)?;
                let grad_x: Vec<Tensor> = if conv_inputs {
                    let conv = conv.as_mut().expect("conv_inputs implies conv");
                    let ga3: Vec<Tensor> = grad_a
                        .into_iter()
                        .map(|g| g.reshape(&[channels, cfg.width, cfg.length]))
                        .collect::<Result<_, _>>()?;
                    conv.backward(&ga3)?
                } else {
                    grad_a
                        .into_iter()
                        .map(|g| g.reshape(&[cfg.d_h, cfg.width, cfg.length]))
                        .collect::<Result<_, _>>()?
                };

                // 8. Scatter grads back into the value tables.
                let mut grad_th = Tensor::zeros(&[cfg.levels, cfg.d_h]);
                let mut grad_tl = Tensor::zeros(&[cfg.levels, cfg.d_l]);
                for (bi, &i) in batch.iter().enumerate() {
                    let sample = &train.samples()[i];
                    let gx = grad_x[bi].as_slice();
                    for pos in 0..d {
                        let level = sample.values[pos] as usize;
                        if mask.is_high(pos) {
                            let dst =
                                &mut grad_th.as_mut_slice()[level * cfg.d_h..(level + 1) * cfg.d_h];
                            for (c, slot) in dst.iter_mut().enumerate() {
                                *slot += gx[c * d + pos];
                            }
                        } else {
                            let dst =
                                &mut grad_tl.as_mut_slice()[level * cfg.d_l..(level + 1) * cfg.d_l];
                            for (c, slot) in dst.iter_mut().enumerate() {
                                *slot += gx[c * d + pos];
                            }
                        }
                    }
                }
                vb_h.backward_table(&grad_th)?;
                if let Some(vb) = vb_l.as_mut() {
                    vb.backward_table(&grad_tl)?;
                }

                // 9. Optimizer steps + latent clipping.
                vb_h.step(&mut adam);
                if let Some(vb) = vb_l.as_mut() {
                    vb.step(&mut adam);
                }
                if let Some(conv) = conv.as_mut() {
                    adam.step(conv.kernel_mut());
                    conv.kernel_mut().clip(opt.weight_clip);
                }
                adam.step(enc.f_latent_mut());
                enc.f_latent_mut().clip(opt.weight_clip);
                for head in &mut heads {
                    adam.step(head.weight_mut());
                    head.weight_mut().clip(opt.weight_clip);
                }
            }
            let loss = (epoch_loss / batches.max(1) as f64) as f32;
            let accuracy = correct as f64 / n as f64;
            history.epoch_loss.push(loss);
            history.epoch_accuracy.push(accuracy);
            drop(
                epoch_span
                    .field("epoch", epoch)
                    .field("loss", loss)
                    .field("accuracy", accuracy),
            );
            observer.on_epoch(&EpochStats {
                epoch,
                epochs: opt.epochs,
                loss,
                accuracy,
                duration: epoch_start.elapsed(),
            });
        }

        // Export the packed deployment model.
        let v_h = vb_h.export_table()?;
        let v_l = match vb_l.as_ref() {
            Some(vb) => vb.export_table()?,
            // DVP off: VB_L is never consulted (mask is all-high); reuse
            // VB_H so dimensions validate.
            None => v_h.clone(),
        };
        let kernel = match conv.as_ref() {
            Some(conv) => pack_kernel(&conv.binary_kernel(), cfg),
            None => vec![],
        };
        let f = pack_rows(&enc.binary_f(), channels, d)?;
        let c = heads
            .iter()
            .map(|h| pack_rows(&h.binary_weight(), cfg.classes, d))
            .collect::<Result<Vec<_>, _>>()?;
        let model = UniVsaModel::from_parts(cfg.clone(), mask, v_h, v_l, kernel, f, c)?;
        let total = fit_start.elapsed();
        drop(fit_span);
        observer.on_fit_done(opt.epochs, total);
        Ok(TrainOutcome { model, history })
    }

    /// Builds one training sample's value map `(D_H, W, L)` from the
    /// current float value tables, mirroring [`crate::ValueMap`]'s packed
    /// layout (low-importance fill is constant `+1`).
    fn build_value_map(
        &self,
        train: &Dataset,
        index: usize,
        mask: &Mask,
        th: &Tensor,
        tl: Option<&Tensor>,
    ) -> Result<Tensor, UniVsaError> {
        let cfg = &self.config;
        let d = cfg.vsa_dim();
        let mut x = vec![1.0f32; cfg.d_h * d];
        let sample = &train.samples()[index];
        for pos in 0..d {
            let level = sample.values[pos] as usize;
            if mask.is_high(pos) {
                let row = &th.as_slice()[level * cfg.d_h..(level + 1) * cfg.d_h];
                for (c, &v) in row.iter().enumerate() {
                    x[c * d + pos] = v;
                }
            } else {
                let tl = tl.expect("low-importance feature requires VB_L");
                let row = &tl.as_slice()[level * cfg.d_l..(level + 1) * cfg.d_l];
                for (c, &v) in row.iter().enumerate() {
                    x[c * d + pos] = v;
                }
                // channels d_l.. stay at the +1 fill
            }
        }
        Tensor::from_vec(x, &[cfg.d_h, cfg.width, cfg.length]).map_err(UniVsaError::from)
    }

    fn check_dataset(&self, train: &Dataset) -> Result<(), UniVsaError> {
        if train.is_empty() {
            return Err(UniVsaError::Input(
                "cannot train on an empty dataset".into(),
            ));
        }
        let spec = train.spec();
        let cfg = &self.config;
        if spec.width != cfg.width
            || spec.length != cfg.length
            || spec.classes != cfg.classes
            || spec.levels != cfg.levels
        {
            return Err(UniVsaError::Input(format!(
                "dataset geometry ({}, {}, {} classes, {} levels) disagrees with config ({}, {}, {}, {})",
                spec.width,
                spec.length,
                spec.classes,
                spec.levels,
                cfg.width,
                cfg.length,
                cfg.classes,
                cfg.levels
            )));
        }
        Ok(())
    }
}

/// Packs a binarized `(O, D_H, K, K)` kernel tensor into per-tap channel
/// words (bit `c` set when `kernel[o, c, ky, kx] > 0`).
fn pack_kernel(kernel: &Tensor, cfg: &UniVsaConfig) -> Vec<u64> {
    let (o_count, d_h, k) = (cfg.out_channels, cfg.d_h, cfg.d_k);
    let buf = kernel.as_slice();
    let mut words = vec![0u64; o_count * k * k];
    for o in 0..o_count {
        for c in 0..d_h {
            for ky in 0..k {
                for kx in 0..k {
                    let v = buf[((o * d_h + c) * k + ky) * k + kx];
                    if v > 0.0 {
                        words[o * k * k + ky * k + kx] |= 1 << c;
                    }
                }
            }
        }
    }
    words
}

/// Packs a binarized `(rows, dim)` tensor into a [`BitMatrix`].
fn pack_rows(t: &Tensor, rows: usize, dim: usize) -> Result<BitMatrix, UniVsaError> {
    let buf = t.as_slice();
    let packed = (0..rows)
        .map(|r| {
            let mut v = BitVec::zeros(dim);
            for (i, &x) in buf[r * dim..(r + 1) * dim].iter().enumerate() {
                if x > 0.0 {
                    v.set(i, true);
                }
            }
            v
        })
        .collect();
    BitMatrix::from_rows(packed).map_err(UniVsaError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Enhancements;
    use univsa_data::{GeneratorParams, SyntheticGenerator, TaskSpec};

    fn tiny_task(seed: u64) -> (Dataset, Dataset) {
        let spec = TaskSpec {
            name: "tiny".into(),
            width: 4,
            length: 8,
            classes: 2,
            levels: 256,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = GeneratorParams::new(spec);
        // keep the smoke-test task easy: strong, dense linear signal
        params.linear_bias = 0.9;
        params.informative_fraction = 0.5;
        params.noise = 0.25;
        params.texture = 0.4;
        let generator = SyntheticGenerator::new(params, &mut rng);
        (
            generator.dataset(&[30, 30], &mut rng),
            generator.dataset(&[15, 15], &mut rng),
        )
    }

    fn tiny_options() -> TrainOptions {
        TrainOptions {
            epochs: 8,
            batch_size: 16,
            ..TrainOptions::default()
        }
    }

    fn tiny_config(enhancements: Enhancements) -> UniVsaConfig {
        let spec = TaskSpec {
            name: "tiny".into(),
            width: 4,
            length: 8,
            classes: 2,
            levels: 256,
        };
        UniVsaConfig::for_task(&spec)
            .d_h(4)
            .d_l(2)
            .d_k(3)
            .out_channels(8)
            .voters(2)
            .enhancements(enhancements)
            .build()
            .unwrap()
    }

    #[test]
    fn trains_above_chance_full() {
        let (train, test) = tiny_task(0);
        let trainer = UniVsaTrainer::new(tiny_config(Enhancements::all()), tiny_options());
        let outcome = trainer.fit(&train, 7).unwrap();
        let acc = outcome.model.evaluate(&test).unwrap();
        assert!(acc > 0.6, "test accuracy {acc} not above chance");
        assert_eq!(outcome.history.epoch_loss.len(), 8);
        // loss should broadly decrease
        assert!(
            outcome.history.epoch_loss.last().unwrap()
                < outcome.history.epoch_loss.first().unwrap()
        );
    }

    #[test]
    fn trains_with_all_enhancements_off() {
        let (train, test) = tiny_task(1);
        let trainer = UniVsaTrainer::new(tiny_config(Enhancements::none()), tiny_options());
        let outcome = trainer.fit(&train, 7).unwrap();
        let acc = outcome.model.evaluate(&test).unwrap();
        assert!(acc > 0.5, "baseline accuracy {acc} at or below chance");
        // no kernel, single voter, single value table
        assert!(outcome.model.kernel_words().is_empty());
        assert_eq!(outcome.model.class_sets().len(), 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let (train, _) = tiny_task(2);
        let trainer = UniVsaTrainer::new(tiny_config(Enhancements::all()), tiny_options());
        let a = trainer.fit(&train, 11).unwrap();
        let b = trainer.fit(&train, 11).unwrap();
        assert_eq!(a.model, b.model);
    }

    /// The data-parallel fan-outs (value maps, BiConv, encoding,
    /// evaluation) must reduce in strict sample order: training and
    /// evaluation are bit-identical at every worker-pool width.
    #[test]
    fn fit_independent_of_thread_count() {
        let (train, test) = tiny_task(5);
        let trainer = UniVsaTrainer::new(tiny_config(Enhancements::all()), tiny_options());
        let serial = univsa_par::with_threads(1, || trainer.fit(&train, 13)).unwrap();
        let parallel = univsa_par::with_threads(4, || trainer.fit(&train, 13)).unwrap();
        assert_eq!(serial.model, parallel.model);
        assert_eq!(serial.history.epoch_loss, parallel.history.epoch_loss);
        assert_eq!(
            serial.history.epoch_accuracy,
            parallel.history.epoch_accuracy
        );
        let acc_serial = univsa_par::with_threads(1, || serial.model.evaluate(&test)).unwrap();
        let acc_parallel = univsa_par::with_threads(4, || parallel.model.evaluate(&test)).unwrap();
        assert_eq!(acc_serial, acc_parallel);
    }

    #[test]
    fn rejects_geometry_mismatch() {
        let (train, _) = tiny_task(3);
        let spec = TaskSpec {
            name: "other".into(),
            width: 5,
            length: 8,
            classes: 2,
            levels: 256,
        };
        let cfg = UniVsaConfig::for_task(&spec).build().unwrap();
        let trainer = UniVsaTrainer::new(cfg, tiny_options());
        assert!(trainer.fit(&train, 0).is_err());
    }

    #[test]
    fn rejects_empty_dataset() {
        let spec = TaskSpec {
            name: "tiny".into(),
            width: 4,
            length: 8,
            classes: 2,
            levels: 256,
        };
        let empty = Dataset::new(spec, vec![]).unwrap();
        let trainer = UniVsaTrainer::new(tiny_config(Enhancements::all()), tiny_options());
        assert!(trainer.fit(&empty, 0).is_err());
    }

    #[test]
    fn observer_sees_every_epoch() {
        struct Recorder {
            epochs: Vec<usize>,
            losses: Vec<f32>,
            total: Option<std::time::Duration>,
        }
        impl crate::EpochObserver for Recorder {
            fn on_epoch(&mut self, stats: &crate::EpochStats) {
                assert_eq!(stats.epochs, 8);
                self.epochs.push(stats.epoch);
                self.losses.push(stats.loss);
            }
            fn on_fit_done(&mut self, epochs: usize, total: std::time::Duration) {
                assert_eq!(epochs, 8);
                self.total = Some(total);
            }
        }
        let (train, _) = tiny_task(6);
        let trainer = UniVsaTrainer::new(tiny_config(Enhancements::all()), tiny_options());
        let mut rec = Recorder {
            epochs: Vec::new(),
            losses: Vec::new(),
            total: None,
        };
        let outcome = trainer.fit_observed(&train, 3, &mut rec).unwrap();
        assert_eq!(rec.epochs, (0..8).collect::<Vec<_>>());
        assert_eq!(rec.losses, outcome.history.epoch_loss);
        assert!(rec.total.is_some());
    }

    #[test]
    fn closure_observer_matches_history() {
        let (train, _) = tiny_task(7);
        let trainer = UniVsaTrainer::new(tiny_config(Enhancements::all()), tiny_options());
        let mut accs = Vec::new();
        let outcome = trainer
            .fit_observed(&train, 3, &mut |s: &crate::EpochStats| {
                accs.push(s.accuracy)
            })
            .unwrap();
        assert_eq!(accs, outcome.history.epoch_accuracy);
    }

    /// The exported packed model must reproduce the float network's
    /// predictions (the training path and the packed path implement the
    /// same arithmetic).
    #[test]
    fn packed_model_memory_matches_eq5() {
        let (train, _) = tiny_task(4);
        let trainer = UniVsaTrainer::new(tiny_config(Enhancements::all()), tiny_options());
        let outcome = trainer.fit(&train, 5).unwrap();
        assert_eq!(
            outcome.model.storage_bits(),
            outcome.model.memory_report().total_bits()
        );
    }
}
