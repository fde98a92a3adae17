//! Monte-Carlo sampling planner (paper §IV-B, Algorithm 1 lines 9–11).
//!
//! Instead of running an inner optimizer over the surrogate, the agent
//! exploits the network's cheap inference: sample `m` grid points inside
//! the trust region, score each with `Value ∘ f_NN`, and propose the
//! argmax — "a more vanilla Monte Carlo sampling-based planning".

use crate::approximator::SpiceApproximator;
use asdex_env::{DesignSpace, SpecSet, ValueFn};
use asdex_rng::Rng;

/// A candidate the planner proposes.
#[derive(Debug, Clone, PartialEq)]
pub struct Proposal {
    /// Normalized (grid-snapped) coordinates.
    pub x: Vec<f64>,
    /// Model-predicted measurements.
    pub predicted: Vec<f64>,
    /// Value of the predicted measurements.
    pub predicted_value: f64,
}

/// Monte-Carlo planner over a trust region.
#[derive(Debug, Clone, Copy)]
pub struct McPlanner {
    /// Number of candidates sampled per planning step.
    pub samples: usize,
}

impl McPlanner {
    /// Creates a planner drawing `samples` candidates per step.
    pub fn new(samples: usize) -> Self {
        McPlanner { samples }
    }

    /// Proposes the best candidate inside the ∞-norm ball of `radius`
    /// around `center`, as scored by the model + value function. Points
    /// equal to the center are skipped so the search always moves;
    /// returns `None` when the region contains no other grid point.
    #[allow(clippy::too_many_arguments)] // mirrors the planning-step signature of Algorithm 1
    pub fn propose<R: Rng + ?Sized>(
        &self,
        space: &DesignSpace,
        center: &[f64],
        radius: f64,
        model: &SpiceApproximator,
        value_fn: &ValueFn,
        specs: &SpecSet,
        rng: &mut R,
    ) -> Option<Proposal> {
        let (xs, rows) = self.draw(space, center, radius, rng);
        if rows == 0 {
            return None;
        }
        let preds = model.predict_rows(&xs);
        let mut best: Option<(usize, f64)> = None;
        for (r, predicted) in preds.chunks_exact(preds.len() / rows).enumerate() {
            let v = value_fn.value(predicted, specs);
            if best.is_none_or(|(_, b)| v > b) {
                best = Some((r, v));
            }
        }
        best.map(|(r, predicted_value)| Proposal {
            x: row(&xs, r, rows),
            predicted: row(&preds, r, rows),
            predicted_value,
        })
    }

    /// Multi-corner variant: scores a candidate by the **minimum**
    /// predicted value across all active corners' models — the paper's
    /// "complete assignments with the lowest expected value" rule for
    /// searches covering several PVT conditions simultaneously.
    #[allow(clippy::too_many_arguments)]
    pub fn propose_multi<R: Rng + ?Sized>(
        &self,
        space: &DesignSpace,
        center: &[f64],
        radius: f64,
        models: &[&SpiceApproximator],
        value_fn: &ValueFn,
        specs: &SpecSet,
        rng: &mut R,
    ) -> Option<Proposal> {
        let (xs, rows) = self.draw(space, center, radius, rng);
        if rows == 0 {
            return None;
        }
        // Per model: the block's predictions and their values.
        let scored: Vec<(Vec<f64>, Vec<f64>)> = models
            .iter()
            .map(|m| {
                let preds = m.predict_rows(&xs);
                let values = preds
                    .chunks_exact(preds.len() / rows)
                    .map(|p| value_fn.value(p, specs))
                    .collect();
                (preds, values)
            })
            .collect();
        let mut best: Option<(usize, Option<usize>, f64)> = None;
        for r in 0..rows {
            // The worst corner; `None` when no model scores below +inf.
            let mut worst_value = f64::INFINITY;
            let mut worst = None;
            for (k, (_, values)) in scored.iter().enumerate() {
                if values[r] < worst_value {
                    worst_value = values[r];
                    worst = Some(k);
                }
            }
            if best.is_none_or(|(_, _, b)| worst_value > b) {
                best = Some((r, worst, worst_value));
            }
        }
        best.map(|(r, worst, predicted_value)| Proposal {
            x: row(&xs, r, rows),
            predicted: worst.map_or_else(Vec::new, |k| row(&scored[k].0, r, rows)),
            predicted_value,
        })
    }

    /// Draws the step's `samples` candidates, in order, dropping those
    /// equal to the center. Returns them row-major with their count.
    fn draw<R: Rng + ?Sized>(
        &self,
        space: &DesignSpace,
        center: &[f64],
        radius: f64,
        rng: &mut R,
    ) -> (Vec<f64>, usize) {
        let mut xs = Vec::with_capacity(self.samples * center.len());
        let mut rows = 0;
        for _ in 0..self.samples {
            let x = space.sample_within(rng, center, radius);
            if x != center {
                xs.extend_from_slice(&x);
                rows += 1;
            }
        }
        (xs, rows)
    }
}

/// Row `r` of a row-major block of `rows` equal rows.
fn row(block: &[f64], r: usize, rows: usize) -> Vec<f64> {
    let width = block.len() / rows;
    block[r * width..(r + 1) * width].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdex_env::{Param, Spec};
    use asdex_rng::rngs::StdRng;
    use asdex_rng::SeedableRng;

    fn space() -> DesignSpace {
        DesignSpace::new(vec![
            Param::linear("a", 0.0, 1.0, 101).unwrap(),
            Param::linear("b", 0.0, 1.0, 101).unwrap(),
        ])
        .unwrap()
    }

    /// Model trained so prediction ≈ −distance² from (0.7, 0.7).
    fn trained_model() -> SpiceApproximator {
        let mut rng = StdRng::seed_from_u64(5);
        let mut m = SpiceApproximator::new(2, 1, 32, 0.003, &mut rng);
        for i in 0..12 {
            for j in 0..12 {
                let x = vec![0.4 + 0.05 * i as f64 / 2.0, 0.4 + 0.05 * j as f64 / 2.0];
                let d2 = (x[0] - 0.7f64).powi(2) + (x[1] - 0.7f64).powi(2);
                m.push(x, vec![10.0 - 20.0 * d2]);
            }
        }
        m.fit(200);
        m
    }

    #[test]
    fn proposes_toward_model_optimum() {
        let space = space();
        let model = trained_model();
        let specs = SpecSet::new(vec![Spec::at_least(0, "score", 10.0)]);
        let value_fn = ValueFn::default();
        let mut rng = StdRng::seed_from_u64(1);
        let center = vec![0.5, 0.5];
        let p = McPlanner::new(400)
            .propose(&space, &center, 0.15, &model, &value_fn, &specs, &mut rng)
            .expect("found a candidate");
        // The proposal should move toward (0.7, 0.7) within the region.
        let d_before = (0.5f64 - 0.7).hypot(0.5 - 0.7);
        let d_after = (p.x[0] - 0.7f64).hypot(p.x[1] - 0.7);
        assert!(d_after < d_before, "moved toward the optimum: {:?}", p.x);
        assert!((p.x[0] - 0.5).abs() <= 0.15 + 0.006, "stayed in region");
    }

    #[test]
    fn degenerate_region_returns_none() {
        // Radius smaller than a grid step around a center: only the center
        // itself is reachable.
        let space = DesignSpace::new(vec![Param::linear("a", 0.0, 1.0, 2).unwrap()]).unwrap();
        let model = {
            let mut rng = StdRng::seed_from_u64(5);
            SpiceApproximator::new(1, 1, 4, 0.003, &mut rng)
        };
        let specs = SpecSet::new(vec![Spec::at_least(0, "s", 0.0)]);
        let mut rng = StdRng::seed_from_u64(1);
        let p = McPlanner::new(50).propose(&space, &[0.0], 0.05, &model, &ValueFn::default(), &specs, &mut rng);
        assert!(p.is_none());
    }

    /// A model trained to predict the constant `level` everywhere.
    fn constant_model(level: f64, seed: u64) -> SpiceApproximator {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = SpiceApproximator::new(2, 1, 8, 0.003, &mut rng);
        for i in 0..10 {
            m.push(vec![0.1 * i as f64, 0.5], vec![level + 1e-3 * i as f64]);
        }
        m.fit(50);
        m
    }

    #[test]
    fn tied_corner_values_report_the_first_models_prediction() {
        // Both models predict far above the spec, so every candidate
        // scores exactly 0.0 on both: the worst-corner tie goes to the
        // first model in the list, as the candidate-by-candidate fold did.
        let space = space();
        let (a, b) = (constant_model(100.0, 3), constant_model(200.0, 4));
        let specs = SpecSet::new(vec![Spec::at_least(0, "score", 10.0)]);
        for (first, second) in [(&a, &b), (&b, &a)] {
            let mut rng = StdRng::seed_from_u64(6);
            let p = McPlanner::new(50)
                .propose_multi(&space, &[0.5, 0.5], 0.2, &[first, second], &ValueFn::default(), &specs, &mut rng)
                .expect("candidate");
            assert_eq!(p.predicted_value, 0.0);
            assert_eq!(p.predicted, first.predict(&p.x), "tie goes to the first model");
            // Across candidates the first of equal values wins too: the
            // first drawn candidate that is not the center.
            let mut rng = StdRng::seed_from_u64(6);
            let first_drawn = loop {
                let x = space.sample_within(&mut rng, &[0.5, 0.5], 0.2);
                if x != [0.5, 0.5] {
                    break x;
                }
            };
            assert_eq!(p.x, first_drawn);
        }
    }

    #[test]
    fn multi_corner_uses_worst_case() {
        let space = space();
        // Two models disagreeing: one peaks at (0.7,0.7), the other is the
        // constant −100 (always bad) — worst-case scoring must follow the
        // pessimistic model and give a very low predicted value.
        let good = trained_model();
        let mut rng = StdRng::seed_from_u64(9);
        let mut bad = SpiceApproximator::new(2, 1, 8, 0.003, &mut rng);
        for i in 0..10 {
            bad.push(vec![0.1 * i as f64, 0.5], vec![-100.0]);
        }
        bad.fit(50);
        let specs = SpecSet::new(vec![Spec::at_least(0, "score", 10.0)]);
        let mut rng = StdRng::seed_from_u64(2);
        let p = McPlanner::new(200)
            .propose_multi(&space, &[0.5, 0.5], 0.2, &[&good, &bad], &ValueFn::default(), &specs, &mut rng)
            .expect("candidate");
        assert!(p.predicted_value < -0.5, "worst-case dominated: {}", p.predicted_value);
    }
}
