//! Training-side layer probes, run in every traced run.
//!
//! Training is the only path through taped autograd, `nn`, `train` and
//! `pool`, and through the packed GEMM tier that serving shares with it.
//! It has no end-to-end workload (see the README: `train_fit` was dropped
//! as unsteady), so these per-layer metrics are where a serving-side
//! kernel change that slows training shows.

use embsr_core::{Embsr, EmbsrConfig};
use embsr_tensor::{kernels, Rng, Tensor};
use embsr_train::{ParallelTrainer, SessionModel, TrainConfig};

use crate::inputs::training_dataset;
use crate::report::Report;
use crate::stats::{median_ms, time_us};

/// Embedding width of the trained model.
const DIM: usize = 32;
/// Worker threads of the probe fit.
const THREADS: usize = 2;
/// Examples in the `train.forward_backward_ms` batch.
const PROBE_BATCH: usize = 64;

/// `train.forward_backward_ms` (one taped batch on one thread through the
/// public model API), `train.epoch_s` (one `ParallelTrainer` epoch on the
/// JD-Computers corpus) and the packed GEMM at the trainer's logits shape.
pub fn layer_probes(seed: u64, report: &mut Report) {
    let _span = embsr_obs::span("bench", "train_probes");
    let data = training_dataset(seed);
    let cfg = EmbsrConfig::full(data.num_items, data.num_ops, DIM);
    let model = Embsr::new(cfg.clone());
    let params = model.parameters();
    let batch = &data.train[..data.train.len().min(PROBE_BATCH)];
    let mut rng = Rng::seed_from_u64(seed);
    let fb = median_ms(5, || {
        for p in &params {
            p.zero_grad();
        }
        let losses: Vec<Tensor> = batch
            .iter()
            .map(|ex| {
                model
                    .logits(&ex.session, true, &mut rng)
                    .cross_entropy_single(ex.target as usize)
            })
            .collect();
        if let Some(sum) = losses.into_iter().reduce(|a, b| a.add(&b)) {
            sum.mul_scalar(1.0 / batch.len() as f32).backward();
        }
    });
    report.metric("train.forward_backward_ms", fb, "ms");

    let one_epoch = TrainConfig {
        epochs: 1,
        batch_size: 64,
        patience: None,
        val_fraction: 0.3,
        train_threads: THREADS,
        ..TrainConfig::default()
    };
    let fitted = Embsr::new(cfg.clone());
    let r = ParallelTrainer::new(one_epoch).fit(
        &fitted,
        || Embsr::new(cfg.clone()),
        &data.train,
        &data.val,
    );
    let epoch_s = r.epochs.first().map_or(0.0, |e| e.duration_s);
    report.metric("train.epoch_s", epoch_s, "s");

    // The logits GEMM of one training example: [1, d] · [|V|, d]ᵀ.
    let n = data.num_items;
    let a: Vec<f32> = (0..DIM).map(|_| rng.uniform() - 0.5).collect();
    let b: Vec<f32> = (0..n * DIM).map(|_| rng.uniform() - 0.5).collect();
    let mut out = vec![0.0f32; n];
    let us = time_us(150_000, 5, || {
        kernels::gemm_abt_packed(&a, &b, &mut out, 1, DIM, n);
        std::hint::black_box(&out);
    });
    report.metric(
        "tensor.gemm_packed_gflops.train",
        2.0 * (n * DIM) as f64 / us / 1e3,
        "GFLOP/s",
    );
}
