//! Extending the library: plugging a custom model into the shared training
//! and evaluation machinery.
//!
//! Implements a miniature "last-item bilinear" recommender as a
//! [`SessionModel`] — the trait EMBSR itself implements — and runs it
//! through the same `Trainer`/`evaluate` pipeline as the paper's models.
//!
//! ```bash
//! cargo run --release -p embsr-bench --example custom_model
//! ```

use embsr_datasets::{build_dataset, DatasetPreset, SyntheticConfig};
use embsr_eval::evaluate;
use embsr_nn::{Embedding, Forward, Linear, Module};
use embsr_sessions::Session;
use embsr_tensor::{Rng, Tensor};
use embsr_train::{NeuralRecommender, Recommender, SessionModel, TrainConfig};

/// `score(v | session) = (W · e_last) · e_v` — a learned bigram model.
struct LastItemBilinear {
    items: Embedding,
    w: Linear,
    num_items: usize,
}

impl LastItemBilinear {
    fn new(num_items: usize, dim: usize, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        LastItemBilinear {
            items: Embedding::new(num_items, dim, &mut rng),
            w: Linear::new_no_bias(dim, dim, &mut rng),
            num_items,
        }
    }
}

impl SessionModel for LastItemBilinear {
    fn name(&self) -> &str {
        "LastItemBilinear"
    }

    fn num_items(&self) -> usize {
        self.num_items
    }

    fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.items.parameters();
        p.extend(self.w.parameters());
        p
    }

    /// The session representation: `W · e_last` (`[d]`).
    fn session_repr(&self, session: &Session, _training: bool, _rng: &mut Rng) -> Tensor {
        let last = session.events.last().expect("non-empty session").item as usize;
        self.w.apply(&self.items.lookup_one(last))
    }

    /// Scores representations `[B, d]` against every item: `[B, |V|]`.
    fn logits_of_reprs(&self, reprs: &Tensor) -> Tensor {
        reprs.matmul(&self.items.weight.transpose())
    }
}

fn main() {
    let data = build_dataset(&SyntheticConfig::tiny(DatasetPreset::JdAppliances));
    let mut rec = NeuralRecommender::new(
        LastItemBilinear::new(data.num_items, 16, 11),
        TrainConfig {
            epochs: 4,
            ..TrainConfig::default()
        },
    );
    println!("training the custom model on {} examples…", data.train.len());
    rec.fit(&data.train, &data.val);
    let report = rec.report.as_ref().expect("trained");
    println!(
        "final train loss {:.3} (best epoch {})",
        report.final_train_loss(),
        report.best_epoch
    );

    let eval = evaluate(&rec, &data.test, &[5, 10, 20]);
    println!(
        "custom model: H@5 {:.2}  H@10 {:.2}  H@20 {:.2}  M@20 {:.2}",
        eval.hit_at(5),
        eval.hit_at(10),
        eval.hit_at(20),
        eval.mrr_at(20)
    );
    assert!(eval.hit_at(20) > 0.0, "the bigram signal should be learnable");
}
