//! Low-dimensional computing (LDC) binary VSA baseline.

use rand::rngs::StdRng;
use rand::SeedableRng;
use univsa::{EncodingLayer, ValueBox};
use univsa_bits::{BitMatrix, BitVec, Bundler};
use univsa_data::Dataset;
use univsa_nn::{softmax_cross_entropy, Adam, BatchIter, BinaryLinear, Optimizer};
use univsa_tensor::Tensor;

use crate::Classifier;

/// LDC hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct LdcOptions {
    /// VSA vector dimension (the paper's Table II uses `D = 128`).
    pub dims: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Mini-batch size.
    pub batch_size: usize,
    /// ValueBox hidden width.
    pub hidden: usize,
}

impl Default for LdcOptions {
    fn default() -> Self {
        Self {
            dims: 128,
            epochs: 20,
            learning_rate: 0.01,
            batch_size: 32,
            hidden: 16,
        }
    }
}

/// The LDC-trained binary VSA of Duan et al. (tinyML'22), the paper's
/// state-of-the-art low-dimensional baseline: a trainable ValueBox
/// projects each feature value to a `D`-bit vector, a trainable binary
/// encoding layer holds one feature vector per *feature position*
/// (`N × D`, unlike UniVSA's per-channel layout), and a single binary
/// dense head holds the class vectors.
///
/// After training the model is the packed triple `(V, F, C)` and inference
/// is pure XNOR/popcount.
#[derive(Debug, Clone)]
pub struct Ldc {
    value_table: BitMatrix,     // M × D
    feature_vectors: BitMatrix, // N × D
    class_vectors: BitMatrix,   // C × D
}

impl Ldc {
    /// Trains the LDC partial BNN and exports the packed model.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or `dims == 0`.
    pub fn fit(train: &Dataset, options: &LdcOptions, seed: u64) -> Self {
        assert!(!train.is_empty(), "LDC needs a nonempty training split");
        assert!(options.dims > 0, "dims must be positive");
        let spec = train.spec();
        let (n_features, classes, levels) = (spec.features(), spec.classes, spec.levels);
        let d = options.dims;
        let mut rng = StdRng::seed_from_u64(seed);

        let mut vb = ValueBox::new(levels, d, options.hidden, &mut rng);
        let mut enc = EncodingLayer::new(n_features, d, &mut rng);
        let mut head = BinaryLinear::new(d, classes, &mut rng);
        let mut adam = Adam::new(options.learning_rate);
        let scale = 4.0 / (d as f32).sqrt();
        let n = train.len();

        for _ in 0..options.epochs {
            for batch in BatchIter::new(n, options.batch_size, &mut rng) {
                let table = vb.forward_table().expect("value box shapes fixed");
                // per-sample activation maps (N, D): row i = v_{x_i}
                let a_maps: Vec<Tensor> = batch
                    .iter()
                    .map(|&i| {
                        let sample = &train.samples()[i];
                        let mut buf = Vec::with_capacity(n_features * d);
                        for &level in &sample.values {
                            let row =
                                &table.as_slice()[level as usize * d..(level as usize + 1) * d];
                            buf.extend_from_slice(row);
                        }
                        Tensor::from_vec(buf, &[n_features, d]).expect("buffer sized")
                    })
                    .collect();
                let s_vecs = enc.forward(a_maps).expect("encoding shapes fixed");
                let mut flat = Vec::with_capacity(batch.len() * d);
                for s in &s_vecs {
                    flat.extend_from_slice(s.as_slice());
                }
                let s_batch = Tensor::from_vec(flat, &[batch.len(), d]).expect("buffer sized");
                let labels: Vec<usize> = batch.iter().map(|&i| train.samples()[i].label).collect();
                let logits = head.forward(&s_batch).expect("shapes fixed").scale(scale);
                let (_, grad) = softmax_cross_entropy(&logits, &labels).expect("shapes fixed");

                vb.zero_grad();
                enc.zero_grad();
                head.zero_grad();
                let grad_s = head.backward(&grad.scale(scale)).expect("shapes fixed");
                let grad_rows: Vec<Tensor> = grad_s
                    .as_slice()
                    .chunks(d)
                    .map(|row| Tensor::from_vec(row.to_vec(), &[d]).expect("row sized"))
                    .collect();
                let grad_a = enc.backward(&grad_rows).expect("shapes fixed");
                // scatter activation grads into the value table
                let mut grad_table = Tensor::zeros(&[levels, d]);
                for (bi, &i) in batch.iter().enumerate() {
                    let sample = &train.samples()[i];
                    let ga = grad_a[bi].as_slice();
                    for (fi, &level) in sample.values.iter().enumerate() {
                        let dst = &mut grad_table.as_mut_slice()
                            [level as usize * d..(level as usize + 1) * d];
                        for (slot, &g) in dst.iter_mut().zip(&ga[fi * d..(fi + 1) * d]) {
                            *slot += g;
                        }
                    }
                }
                vb.backward_table(&grad_table).expect("shapes fixed");

                vb.step(&mut adam);
                adam.step(enc.f_latent_mut());
                enc.f_latent_mut().clip(1.0);
                adam.step(head.weight_mut());
                head.weight_mut().clip(1.0);
            }
        }

        let value_table = vb.export_table().expect("value box exports");
        let feature_vectors = pack(&enc.binary_f(), n_features, d);
        let class_vectors = pack(&head.binary_weight(), classes, d);
        Self {
            value_table,
            feature_vectors,
            class_vectors,
        }
    }

    /// The VSA dimension `D`.
    #[inline]
    pub fn dims(&self) -> usize {
        self.value_table.dim()
    }

    /// Encodes one sample: `s = sgn(Σᵢ fᵢ ∘ v_{xᵢ})`.
    pub fn encode(&self, values: &[u8]) -> BitVec {
        let mut bundler = Bundler::new(self.dims());
        for (i, &level) in values.iter().enumerate() {
            let bound = self
                .feature_vectors
                .row(i)
                .xnor(self.value_table.row(level as usize))
                .expect("codebooks share dimension");
            bundler.add(&bound).expect("dimension matches");
        }
        bundler.finish()
    }
}

fn pack(t: &Tensor, rows: usize, dim: usize) -> BitMatrix {
    BitMatrix::from_rows(
        (0..rows)
            .map(|r| {
                let mut v = BitVec::zeros(dim);
                for (i, &x) in t.as_slice()[r * dim..(r + 1) * dim].iter().enumerate() {
                    if x > 0.0 {
                        v.set(i, true);
                    }
                }
                v
            })
            .collect(),
    )
    .expect("rows share dimension")
}

impl Classifier for Ldc {
    fn name(&self) -> &str {
        "LDC"
    }

    fn predict(&self, values: &[u8]) -> usize {
        let s = self.encode(values);
        self.class_vectors
            .nearest(&s)
            .expect("class vectors match encoding dimension")
    }

    fn memory_bits(&self) -> Option<usize> {
        Some(
            self.value_table.storage_bits()
                + self.feature_vectors.storage_bits()
                + self.class_vectors.storage_bits(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use univsa_data::{GeneratorParams, SyntheticGenerator, TaskSpec};

    fn task(seed: u64) -> (Dataset, Dataset) {
        let spec = TaskSpec {
            name: "t".into(),
            width: 4,
            length: 8,
            classes: 2,
            levels: 256,
        };
        let mut p = GeneratorParams::new(spec);
        p.linear_bias = 0.7;
        p.noise = 0.25;
        p.informative_fraction = 0.5;
        p.texture = 0.4;
        let mut rng = StdRng::seed_from_u64(seed);
        let g = SyntheticGenerator::new(p, &mut rng);
        (
            g.dataset(&[40, 40], &mut rng),
            g.dataset(&[20, 20], &mut rng),
        )
    }

    fn small_options() -> LdcOptions {
        LdcOptions {
            dims: 32,
            epochs: 10,
            ..LdcOptions::default()
        }
    }

    #[test]
    fn learns_above_chance() {
        let (train, test) = task(0);
        let model = Ldc::fit(&train, &small_options(), 1);
        let acc = crate::evaluate(&model, &test);
        assert!(acc > 0.65, "LDC accuracy {acc} too low");
    }

    #[test]
    fn memory_is_codebook_sum() {
        let (train, _) = task(1);
        let model = Ldc::fit(&train, &small_options(), 2);
        // (M + N + C) × D
        assert_eq!(model.memory_bits(), Some((256 + 32 + 2) * 32));
    }

    #[test]
    fn deterministic_given_seed() {
        let (train, test) = task(2);
        let a = Ldc::fit(&train, &small_options(), 5);
        let b = Ldc::fit(&train, &small_options(), 5);
        for s in test.samples().iter().take(10) {
            assert_eq!(a.predict(&s.values), b.predict(&s.values));
        }
    }

    #[test]
    fn default_dims_is_paper_value() {
        assert_eq!(LdcOptions::default().dims, 128);
    }
}
