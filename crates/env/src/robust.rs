//! The retry/recovery ladder: escalating solver effort for flaky points.
//!
//! Analog simulators fail routinely — a bias point that does not converge
//! at default Newton–Raphson settings often converges with more
//! iterations, tighter damping, or a perturbed initial guess. The ladder
//! encodes that escalation: attempt 0 runs at stock options, each further
//! attempt raises [`EvalEffort`] one notch, and every attempt is charged
//! against the simulation budget so accounting stays exact.

use asdex_spice::analysis::OpOptions;

/// Solver-effort level for one evaluation attempt. Attempt 0 is the stock
/// configuration; higher attempts escalate iterations, damping, and the
/// initial guess.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvalEffort {
    /// Zero-based attempt index within the retry ladder.
    pub attempt: usize,
}

impl EvalEffort {
    /// Effort for the given attempt index.
    pub fn attempt(attempt: usize) -> Self {
        EvalEffort { attempt }
    }

    /// Whether this is the first (stock-options) attempt.
    pub fn is_first(&self) -> bool {
        self.attempt == 0
    }

    /// Escalates Newton–Raphson options in place: each rung doubles the
    /// iteration allowance and halves the per-iteration step clamp
    /// (tighter damping trades speed for robustness). The solve watchdog
    /// budget scales along, so an escalated attempt that legitimately
    /// needs more iterations is not cut off by a stock deadline.
    pub fn apply(&self, opts: &mut OpOptions) {
        opts.max_iter *= 1 + self.attempt;
        opts.max_step /= (1 + self.attempt) as f64;
        opts.budget = opts.budget.escalated(self.attempt);
    }

    /// A deterministic perturbed initial guess for an MNA system of
    /// dimension `dim`, or `None` on the first attempt (engine default
    /// start). The perturbation is a small per-unknown offset that varies
    /// with the attempt index, nudging Newton out of a basin that traps
    /// the default start.
    pub fn initial_guess(&self, dim: usize) -> Option<Vec<f64>> {
        if self.attempt == 0 {
            return None;
        }
        let mut state = 0x9E37_79B9u64 ^ (self.attempt as u64);
        Some(
            (0..dim)
                .map(|_| {
                    let z = asdex_rng::splitmix64(&mut state);
                    // ±0.05 V per rung, deterministic in (attempt, index).
                    let u = (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                    (u - 0.5) * 0.1 * self.attempt as f64
                })
                .collect(),
        )
    }
}

/// How many escalated attempts the ladder may spend on a retryable
/// failure before declaring the point infeasible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Extra attempts beyond the first (0 disables the ladder).
    pub max_retries: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 2 }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> Self {
        RetryPolicy { max_retries: 0 }
    }

    /// Total attempts allowed per point (first try + retries).
    pub fn max_attempts(&self) -> usize {
        1 + self.max_retries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effort_escalates_solver_options() {
        let base = OpOptions::default();
        let mut opts = base;
        EvalEffort::attempt(0).apply(&mut opts);
        assert_eq!(opts.max_iter, base.max_iter);
        assert_eq!(opts.max_step, base.max_step);
        let mut opts = base;
        EvalEffort::attempt(2).apply(&mut opts);
        assert_eq!(opts.max_iter, 3 * base.max_iter);
        assert!((opts.max_step - base.max_step / 3.0).abs() < 1e-12);
        assert_eq!(
            opts.budget.max_newton_iters_total,
            3 * base.budget.max_newton_iters_total,
            "watchdog budget escalates with the ladder"
        );
    }

    #[test]
    fn initial_guess_deterministic_and_small() {
        assert!(EvalEffort::attempt(0).initial_guess(5).is_none());
        let a = EvalEffort::attempt(1).initial_guess(5).unwrap();
        let b = EvalEffort::attempt(1).initial_guess(5).unwrap();
        assert_eq!(a, b);
        assert!(a.iter().all(|v| v.abs() <= 0.05 + 1e-12));
        let c = EvalEffort::attempt(2).initial_guess(5).unwrap();
        assert_ne!(a, c, "each rung perturbs differently");
    }
}
