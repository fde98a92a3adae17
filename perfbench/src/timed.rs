//! The traced run's evaluator decorator: every simulator call the program
//! makes goes through [`TimedEvaluator`], which forwards it unchanged and
//! logs its start, duration, inputs and result.

use crate::{m, median, Metric};
use asdex_env::{EnvError, EvalEffort, Evaluator, PvtCorner, SizingProblem};
use asdex_spice::analysis::SolverChoice;
use asdex_spice::process::ProcessCorner;
use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Identity of one simulator call: point bits, corner, retry attempt.
type CallKey = (Vec<u64>, ProcessCorner, u64, u64, usize);

/// One logged simulator call.
pub struct Call {
    pub start: Instant,
    pub dur: Duration,
    /// The exact `(x bits, corner, attempt)` key was seen before on this
    /// evaluator: the evaluator's own memo serves it.
    pub repeat: bool,
    /// Physical parameters.
    pub x: Vec<f64>,
    pub corner: PvtCorner,
    /// Measurements, `None` when the call failed.
    pub meas: Option<Vec<f64>>,
}

/// Forwards every [`Evaluator`] method to the wrapped evaluator and logs
/// each call.
pub struct TimedEvaluator {
    inner: Arc<dyn Evaluator>,
    seen: Mutex<HashSet<CallKey>>,
    calls: Mutex<Vec<Call>>,
}

impl TimedEvaluator {
    /// Swaps `problem`'s evaluator for a timed wrapper around it and
    /// returns the wrapper.
    pub fn wrap(problem: &mut SizingProblem) -> Arc<TimedEvaluator> {
        let timed = Arc::new(TimedEvaluator {
            inner: Arc::clone(&problem.evaluator),
            seen: Mutex::new(HashSet::new()),
            calls: Mutex::new(Vec::new()),
        });
        problem.evaluator = Arc::clone(&timed) as Arc<dyn Evaluator>;
        timed
    }

    /// Takes the call log, in call-start order.
    pub fn take_calls(&self) -> Vec<Call> {
        let mut calls = std::mem::take(&mut *self.calls.lock().expect("call log poisoned"));
        calls.sort_by_key(|c| c.start);
        calls
    }

    fn timed(
        &self,
        x: &[f64],
        corner: &PvtCorner,
        attempt: usize,
        f: impl FnOnce() -> Result<Vec<f64>, EnvError>,
    ) -> Result<Vec<f64>, EnvError> {
        let start = Instant::now();
        let result = f();
        let dur = start.elapsed();
        let key: CallKey = (
            x.iter().map(|v| v.to_bits()).collect(),
            corner.process,
            corner.vdd_scale.to_bits(),
            corner.temp_celsius.to_bits(),
            attempt,
        );
        let repeat = !self.seen.lock().expect("key set poisoned").insert(key);
        let call = Call {
            start,
            dur,
            repeat,
            x: x.to_vec(),
            corner: *corner,
            meas: result.as_ref().ok().cloned(),
        };
        self.calls.lock().expect("call log poisoned").push(call);
        result
    }
}

impl Evaluator for TimedEvaluator {
    fn measurement_names(&self) -> &[String] {
        self.inner.measurement_names()
    }

    fn evaluate(&self, x: &[f64], corner: &PvtCorner) -> Result<Vec<f64>, EnvError> {
        self.timed(x, corner, 0, || self.inner.evaluate(x, corner))
    }

    fn evaluate_with_effort(
        &self,
        x: &[f64],
        corner: &PvtCorner,
        effort: EvalEffort,
    ) -> Result<Vec<f64>, EnvError> {
        self.timed(x, corner, effort.attempt, || {
            self.inner.evaluate_with_effort(x, corner, effort)
        })
    }

    fn set_solver(&self, choice: SolverChoice) {
        self.inner.set_solver(choice);
    }
}

/// Median duration, µs, of the repeat (memo-served) or the fresh calls;
/// NaN when there are none.
pub fn p50_us(calls: &[Call], repeat: bool) -> f64 {
    let us: Vec<f64> = calls
        .iter()
        .filter(|c| c.repeat == repeat)
        .map(|c| c.dur.as_secs_f64() * 1e6)
        .collect();
    median(&us)
}

/// The `env.eval.*` layer metrics over a set of logged calls. `wall` is
/// the traced pass's wall time and `threads` its evaluation threads.
pub fn eval_metrics(calls: &[Call], wall: f64, threads: usize) -> Vec<Metric> {
    let repeats = calls.iter().filter(|c| c.repeat).count();
    let busy: f64 = calls.iter().map(|c| c.dur.as_secs_f64()).sum();
    vec![
        m("env.eval.calls", calls.len() as f64, "count"),
        m("env.eval.fresh", (calls.len() - repeats) as f64, "count"),
        m("env.eval.repeat", repeats as f64, "count"),
        m("env.eval.fresh_us_p50", p50_us(calls, false), "us"),
        m(
            "env.eval.errors",
            calls.iter().filter(|c| c.meas.is_none()).count() as f64,
            "count",
        ),
        m("env.eval.busy_s", busy, "s"),
        m("env.eval.share", busy / wall, "ratio"),
        m("env.batch.util", busy / (wall * threads as f64), "ratio"),
    ]
}
