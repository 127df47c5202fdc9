//! The [`Recommender`] and [`SessionModel`] interfaces.

use embsr_sessions::{Example, Session};
use embsr_tensor::{Rng, Tensor};

/// Anything that can score the full item vocabulary for a session.
///
/// This is the single interface the evaluation harness consumes; both
/// neural models (via [`NeuralRecommender`]) and non-neural methods
/// (S-POP, SKNN, STAN) implement it.
pub trait Recommender {
    /// Human-readable model name as it appears in the paper's tables.
    fn name(&self) -> &str;

    /// Size of the item vocabulary `|V|`.
    fn num_items(&self) -> usize;

    /// Fits the model on training examples (validation examples are used
    /// for early stopping where applicable).
    fn fit(&mut self, train: &[Example], val: &[Example]);

    /// Scores for every item given the session prefix; higher is better.
    /// The returned vector has length `num_items()`.
    fn scores(&self, session: &Session) -> Vec<f32>;

    /// Scores for a batch of session prefixes: one `num_items()`-length
    /// vector per session, in input order.
    ///
    /// Takes references (mirroring [`SessionModel::logits_batch`]) so bulk
    /// callers like the eval harness can batch without cloning every
    /// session's event vector. The default loops over
    /// [`Recommender::scores`], so every implementor is batchable; neural
    /// models override it with a genuinely batched, tape-free forward (see
    /// `NeuralRecommender`). Row `i` must equal `self.scores(sessions[i])`
    /// — the serving equivalence suite holds overrides to bitwise equality.
    fn scores_batch(&self, sessions: &[&Session]) -> Vec<Vec<f32>> {
        sessions.iter().map(|&s| self.scores(s)).collect()
    }

    /// The training report of the most recent [`Recommender::fit`], when the
    /// model trains with the shared [`crate::Trainer`]. Non-neural methods
    /// keep the default `None`.
    fn train_report(&self) -> Option<&crate::TrainReport> {
        None
    }
}

/// A differentiable next-item model trained by the shared [`crate::Trainer`].
///
/// Every model is a session encoder followed by one scoring GEMM, and
/// implements exactly those two steps: [`SessionModel::session_repr`]
/// (session → `[d]`) and [`SessionModel::logits_of_reprs`]
/// (`[B, d]` → `[B, |V|]`). Training, batched inference and the serving
/// repr cache are all built from them by the provided methods, which
/// implementors do not override.
pub trait SessionModel {
    /// Model name.
    fn name(&self) -> &str;

    /// Item vocabulary size.
    fn num_items(&self) -> usize;

    /// All trainable parameters.
    fn parameters(&self) -> Vec<Tensor>;

    /// The session representation `[d]`: the model state right before the
    /// final scoring GEMM (EMBSR's fused `m` of eq. 18).
    ///
    /// `training` toggles dropout; `rng` drives it.
    fn session_repr(&self, session: &Session, training: bool, rng: &mut Rng) -> Tensor;

    /// Logits `[B, |V|]` from stacked representations `[B, d]`: the final
    /// scoring GEMM against the item table (eq. 19 for EMBSR).
    ///
    /// GEMM rows are independent sequential dot products, so row `i` depends
    /// only on `reprs` row `i`: a batch of one scores exactly like any row of
    /// a larger batch. This is what makes [`SessionModel::logits_batch`] and
    /// the serving-side repr cache bitwise-equal to the per-session forward.
    fn logits_of_reprs(&self, reprs: &Tensor) -> Tensor;

    /// Logits `[|V|]` for the next item after `session`: the representation
    /// scored as a batch of one. This is the training forward.
    fn logits(&self, session: &Session, training: bool, rng: &mut Rng) -> Tensor {
        let m = self.session_repr(session, training, rng);
        let d = m.len();
        let y = self.logits_of_reprs(&m.reshape(&[1, d]));
        let n = y.len();
        y.reshape(&[n])
    }

    /// Inference-time session representation `[d]`: no dropout, no RNG to
    /// thread.
    fn repr_infer(&self, session: &Session) -> Tensor {
        let mut rng = Rng::seed_from_u64(0); // never drawn from: dropout is off
        self.session_repr(session, false, &mut rng)
    }

    /// Inference-time logits `[|V|]`: no dropout, no RNG to thread.
    fn logits_infer(&self, session: &Session) -> Tensor {
        let mut rng = Rng::seed_from_u64(0); // never drawn from: dropout is off
        self.logits(session, false, &mut rng)
    }

    /// Inference-time logits for a batch of sessions, shape `[B, |V|]` with
    /// row `i` scoring `sessions[i]`: the [`SessionModel::repr_infer`] rows
    /// stacked and scored in one [`SessionModel::logits_of_reprs`] GEMM, so
    /// the item-table pass is shared across the batch while every row stays
    /// bitwise-equal to [`SessionModel::logits_infer`].
    fn logits_batch(&self, sessions: &[&Session]) -> Tensor {
        assert!(!sessions.is_empty(), "logits_batch of an empty batch");
        let reprs: Vec<Tensor> = sessions.iter().map(|s| self.repr_infer(s)).collect();
        self.logits_of_reprs(&Tensor::stack_rows(&reprs))
    }
}

/// Adapter turning a trained [`SessionModel`] into a [`Recommender`].
///
/// `fit` delegates to the shared trainer with the stored config.
pub struct NeuralRecommender<M: SessionModel> {
    pub model: M,
    pub config: crate::TrainConfig,
    pub report: Option<crate::TrainReport>,
}

impl<M: SessionModel> NeuralRecommender<M> {
    /// Wraps a model with its training configuration.
    pub fn new(model: M, config: crate::TrainConfig) -> Self {
        NeuralRecommender {
            model,
            config,
            report: None,
        }
    }
}

impl<M: SessionModel> Recommender for NeuralRecommender<M> {
    fn name(&self) -> &str {
        self.model.name()
    }

    fn num_items(&self) -> usize {
        self.model.num_items()
    }

    fn fit(&mut self, train: &[Example], val: &[Example]) {
        let trainer = crate::Trainer::new(self.config.clone());
        self.report = Some(trainer.fit(&self.model, train, val));
    }

    fn scores(&self, session: &Session) -> Vec<f32> {
        let truncated = crate::trainer::truncate_session(session, self.config.max_session_len);
        self.model.logits_infer(&truncated).to_vec()
    }

    fn scores_batch(&self, sessions: &[&Session]) -> Vec<Vec<f32>> {
        if sessions.is_empty() {
            return Vec::new();
        }
        let truncated: Vec<Session> = sessions
            .iter()
            .map(|&s| crate::trainer::truncate_session(s, self.config.max_session_len))
            .collect();
        let refs: Vec<&Session> = truncated.iter().collect();
        // Tape-free: the whole batched forward runs without recording the
        // autograd graph, so intermediate activations recycle through the
        // buffer pool instead of accumulating until the logits drop.
        let logits = embsr_tensor::inference_mode(|| self.model.logits_batch(&refs));
        let v = self.model.num_items();
        assert_eq!(logits.rows(), sessions.len(), "one logit row per session");
        assert_eq!(logits.cols(), v, "full-vocabulary rows");
        let data = logits.data();
        data.chunks(v).map(<[f32]>::to_vec).collect()
    }

    fn train_report(&self) -> Option<&crate::TrainReport> {
        self.report.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use embsr_sessions::MicroBehavior;

    /// A trivial bigram-count "neural" model used to exercise the adapter.
    struct Uniform {
        n: usize,
    }

    impl SessionModel for Uniform {
        fn name(&self) -> &str {
            "Uniform"
        }
        fn num_items(&self) -> usize {
            self.n
        }
        fn parameters(&self) -> Vec<Tensor> {
            Vec::new()
        }
        fn session_repr(&self, _s: &Session, _t: bool, _r: &mut Rng) -> Tensor {
            Tensor::zeros(&[self.n])
        }
        fn logits_of_reprs(&self, reprs: &Tensor) -> Tensor {
            reprs.clone()
        }
    }

    #[test]
    fn adapter_exposes_model_metadata() {
        let rec = NeuralRecommender::new(Uniform { n: 7 }, crate::TrainConfig::fast());
        assert_eq!(rec.name(), "Uniform");
        assert_eq!(rec.num_items(), 7);
        let s = Session {
            id: 0,
            events: vec![MicroBehavior::new(1, 0)],
        };
        assert_eq!(rec.scores(&s).len(), 7);
    }

    #[test]
    fn batched_scores_match_per_session_scores() {
        let rec = NeuralRecommender::new(Uniform { n: 5 }, crate::TrainConfig::fast());
        let sessions: Vec<Session> = (0..3)
            .map(|i| Session {
                id: i,
                events: vec![MicroBehavior::new(i as u32 + 1, 0)],
            })
            .collect();
        let refs: Vec<&Session> = sessions.iter().collect();
        let batched = rec.scores_batch(&refs);
        assert_eq!(batched.len(), 3);
        for (s, row) in sessions.iter().zip(&batched) {
            assert_eq!(row, &rec.scores(s));
        }
        assert!(rec.scores_batch(&[]).is_empty());
    }

    #[test]
    fn default_logits_batch_stacks_rows() {
        let m = Uniform { n: 4 };
        let s = Session {
            id: 0,
            events: vec![MicroBehavior::new(1, 0)],
        };
        let out = m.logits_batch(&[&s, &s, &s]);
        assert_eq!(out.shape().dims(), &[3, 4]);
        assert_eq!(m.logits_infer(&s).len(), 4);
    }
}
