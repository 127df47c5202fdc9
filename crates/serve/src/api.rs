//! The batch-first prediction API: request/response pairs.
//!
//! Serving traffic is expressed as *batches of session prefixes*, not single
//! sessions — the shape both the micro-batching engine and the batched
//! kernels want. A [`ScoreBatch`] asks for full-vocabulary score vectors
//! (what the eval harness consumes); a [`TopK`] asks only for the `k`
//! best-scored items per session (what a recommendation endpoint returns).

use embsr_sessions::{ItemId, Session};

/// Request: score the full item vocabulary for each session prefix.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ScoreBatch {
    /// Session prefixes to score, in reply order.
    pub sessions: Vec<Session>,
}

/// Response to a [`ScoreBatch`]: one `num_items`-length score vector per
/// requested session, in request order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ScoreResponse {
    /// `scores[i][v]` is the model's score of item `v` after `sessions[i]`.
    pub scores: Vec<Vec<f32>>,
    /// Snapshot version that produced the scores. During a hot-swap a
    /// batch may mix replicas on the old and new versions; the tag is the
    /// newest contributing version (0 when the server predates tagging).
    pub model_version: u64,
}

/// Request: the `k` highest-scored items for each session prefix.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TopK {
    /// Session prefixes to score, in reply order.
    pub sessions: Vec<Session>,
    /// Number of recommendations per session.
    pub k: usize,
}

/// Response to a [`TopK`]: per session, the best `k` items best-first.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TopKResponse {
    /// `items[i]` are the recommendations for `sessions[i]`, descending by
    /// score (ties broken by ascending item id, so responses are
    /// deterministic).
    pub items: Vec<Vec<ScoredItem>>,
    /// Snapshot version that produced the recommendations (see
    /// [`ScoreResponse::model_version`]).
    pub model_version: u64,
}

/// One recommended item with its score.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScoredItem {
    /// The recommended item.
    pub item: ItemId,
    /// The model's score for it.
    pub score: f32,
}

/// Selects the `k` best items of one score row, descending by score with
/// ascending-id tie-break. `k` is clamped to the vocabulary size.
///
/// Scores compare by [`f32::total_cmp`], so `-0.0` ranks below `0.0` and
/// NaNs rank by sign and payload: the order is total and the output
/// deterministic. Only the best `k` ids are sorted; the rest are
/// partitioned off in linear time.
pub fn top_k_of_row(scores: &[f32], k: usize) -> Vec<ScoredItem> {
    let k = k.min(scores.len());
    if k == 0 {
        return Vec::new();
    }
    let better = |a: &u32, b: &u32| {
        scores[*b as usize]
            .total_cmp(&scores[*a as usize])
            .then(a.cmp(b))
    };
    let mut order: Vec<u32> = (0..scores.len() as u32).collect();
    if k < order.len() {
        order.select_nth_unstable_by(k - 1, better);
        order.truncate(k);
    }
    // Ids are distinct, so no two entries compare equal and the unstable
    // sort is deterministic.
    order.sort_unstable_by(better);
    order
        .into_iter()
        .map(|i| ScoredItem {
            item: i,
            score: scores[i as usize],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference selection: sort every id, then take the first `k`.
    fn full_sort_top_k(scores: &[f32], k: usize) -> Vec<ScoredItem> {
        let mut order: Vec<u32> = (0..scores.len() as u32).collect();
        order.sort_by(|&a, &b| {
            scores[b as usize]
                .total_cmp(&scores[a as usize])
                .then(a.cmp(&b))
        });
        order
            .into_iter()
            .take(k)
            .map(|i| ScoredItem {
                item: i,
                score: scores[i as usize],
            })
            .collect()
    }

    fn bits(items: &[ScoredItem]) -> Vec<(u32, u32)> {
        items.iter().map(|s| (s.item, s.score.to_bits())).collect()
    }

    #[test]
    fn top_k_sorts_descending_with_id_tiebreak() {
        let got = top_k_of_row(&[0.5, 2.0, 0.5, -1.0], 3);
        let items: Vec<u32> = got.iter().map(|s| s.item).collect();
        assert_eq!(items, vec![1, 0, 2]);
        assert_eq!(got[0].score, 2.0);

        let nan = f32::NAN;
        let rows: [&[f32]; 5] = [
            // ties across the selection boundary
            &[1.0, 3.0, 1.0, 3.0, 1.0, 2.0, 1.0, 3.0],
            // signed zeros: -0.0 ranks below 0.0
            &[0.0, -0.0, 0.0, -0.0, -1.0, 1.0],
            // NaNs of both signs around finite scores and infinities
            &[nan, 1.0, -nan, f32::INFINITY, nan, f32::NEG_INFINITY, 0.5],
            &[-2.0; 9],
            &[],
        ];
        for row in rows {
            for k in [
                0,
                1,
                2,
                3,
                row.len().saturating_sub(1),
                row.len(),
                row.len() + 5,
            ] {
                assert_eq!(
                    bits(&top_k_of_row(row, k)),
                    bits(&full_sort_top_k(row, k)),
                    "row {row:?}, k = {k}"
                );
            }
        }
        assert!(
            top_k_of_row(&[1.0, 2.0], 0).is_empty(),
            "k = 0 selects nothing"
        );
    }

    #[test]
    fn top_k_clamps_to_vocabulary() {
        assert_eq!(top_k_of_row(&[1.0, 0.0], 10).len(), 2);
        assert!(top_k_of_row(&[], 3).is_empty());
    }
}
