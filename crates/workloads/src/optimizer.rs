//! Classical parameter optimizers with operation counting.
//!
//! Two optimizers drive the benchmarks (Section 7.1):
//!
//! - **Gradient Descent (GD)** with the parameter-shift rule: every
//!   iteration evaluates the circuit at `θ ± π/2` for *each* parameter —
//!   2P evaluations, each changing a single parameter. Communication
//!   rounds scale with parameter count, but per-round post-processing is
//!   light.
//! - **SPSA**: every iteration evaluates two simultaneous random
//!   perturbations regardless of parameter count — few communication
//!   rounds, heavier per-round parameter arithmetic.
//!
//! Updates perform their real arithmetic while recording it into an
//! [`OpCounter`]; host core models convert the counts to cycles.

use std::f64::consts::FRAC_PI_2;

use qtenon_sim_engine::rng::splitmix64;

use qtenon_sim_engine::{OpClass, OpCounter};

use crate::Params;

/// A classical optimizer driving a VQA.
///
/// The contract is iteration-oriented: [`Optimizer::iteration_plan`]
/// names the parameter vectors to evaluate this iteration (each one is a
/// quantum job), then [`Optimizer::update`] consumes the measured costs
/// and produces the next parameter vector.
pub trait Optimizer {
    /// The optimizer's display name.
    fn name(&self) -> &'static str;

    /// Parameter vectors to evaluate this iteration, in dispatch order.
    fn iteration_plan(&mut self, params: &[f64]) -> Vec<Params>;

    /// Consumes evaluation results (aligned with the plan) and returns
    /// updated parameters, recording host arithmetic into `ops`.
    fn update(
        &mut self,
        params: &[f64],
        plan: &[Params],
        evals: &[f64],
        ops: &mut OpCounter,
    ) -> Params;

    /// Whether each evaluation differs from the previous one in at most
    /// one parameter (true for parameter-shift GD) — the property that
    /// makes Qtenon's incremental updates cheapest.
    fn is_single_parameter_stepped(&self) -> bool;
}

/// Gradient descent with the parameter-shift rule.
///
/// # Examples
///
/// ```
/// use qtenon_workloads::{GradientDescentOptimizer, Optimizer};
///
/// let mut gd = GradientDescentOptimizer::new(0.1);
/// let plan = gd.iteration_plan(&[0.5, 0.5]);
/// assert_eq!(plan.len(), 4); // 2 shifts × 2 parameters
/// ```
#[derive(Debug, Clone)]
pub struct GradientDescentOptimizer {
    learning_rate: f64,
}

impl GradientDescentOptimizer {
    /// Creates a GD optimizer with the given learning rate.
    ///
    /// # Panics
    ///
    /// Panics if `learning_rate` is not finite and positive.
    pub fn new(learning_rate: f64) -> Self {
        assert!(
            learning_rate.is_finite() && learning_rate > 0.0,
            "learning rate must be positive"
        );
        GradientDescentOptimizer { learning_rate }
    }

    /// The learning rate.
    pub fn learning_rate(&self) -> f64 {
        self.learning_rate
    }
}

impl Optimizer for GradientDescentOptimizer {
    fn name(&self) -> &'static str {
        "GD"
    }

    fn iteration_plan(&mut self, params: &[f64]) -> Vec<Params> {
        let mut plan = Vec::with_capacity(2 * params.len());
        for i in 0..params.len() {
            for sign in [1.0, -1.0] {
                let mut shifted = params.to_vec();
                shifted[i] += sign * FRAC_PI_2;
                plan.push(shifted);
            }
        }
        plan
    }

    fn update(
        &mut self,
        params: &[f64],
        plan: &[Params],
        evals: &[f64],
        ops: &mut OpCounter,
    ) -> Params {
        assert_eq!(plan.len(), evals.len(), "plan/evals misaligned");
        assert_eq!(plan.len(), 2 * params.len(), "parameter-shift plan size");
        let mut next = params.to_vec();
        for i in 0..params.len() {
            // Parameter-shift gradient: (f(θ+π/2) − f(θ−π/2)) / 2.
            let grad = (evals[2 * i] - evals[2 * i + 1]) / 2.0;
            next[i] -= self.learning_rate * grad;
            // sub, div, mul, sub + the loads/stores around them.
            ops.record(OpClass::FpAlu, 3);
            ops.record(OpClass::FpComplex, 1);
            ops.record(OpClass::Mem, 4);
            ops.record(OpClass::IntAlu, 2);
            ops.record(OpClass::Branch, 1);
        }
        next
    }

    fn is_single_parameter_stepped(&self) -> bool {
        true
    }
}

/// Simultaneous Perturbation Stochastic Approximation.
///
/// # Examples
///
/// ```
/// use qtenon_workloads::{Optimizer, SpsaOptimizer};
///
/// let mut spsa = SpsaOptimizer::new(7);
/// let plan = spsa.iteration_plan(&[0.1; 30]);
/// assert_eq!(plan.len(), 2); // independent of parameter count
/// ```
#[derive(Debug, Clone)]
pub struct SpsaOptimizer {
    /// SplitMix64 state for the perturbation signs.
    rng: u64,
    /// Step-size coefficient `a`.
    a: f64,
    /// Perturbation magnitude `c`.
    c: f64,
    /// Iteration counter for gain decay.
    k: u64,
    /// The perturbation used by the outstanding plan.
    delta: Vec<f64>,
}

impl SpsaOptimizer {
    /// Creates an SPSA optimizer with standard gains and a seeded RNG.
    /// The seed is salted so the signs never share a stream with a
    /// workload built from the same seed.
    pub fn new(seed: u64) -> Self {
        SpsaOptimizer {
            rng: seed ^ 0x5350_5341,
            a: 0.2,
            c: 0.2,
            k: 0,
            delta: Vec::new(),
        }
    }

    fn gains(&self) -> (f64, f64) {
        // Standard SPSA decay schedules.
        let ak = self.a / (self.k as f64 + 1.0).powf(0.602);
        let ck = self.c / (self.k as f64 + 1.0).powf(0.101);
        (ak, ck)
    }
}

impl Optimizer for SpsaOptimizer {
    fn name(&self) -> &'static str {
        "SPSA"
    }

    fn iteration_plan(&mut self, params: &[f64]) -> Vec<Params> {
        let (_, ck) = self.gains();
        // The top bit of each draw picks the sign.
        let rng = &mut self.rng;
        self.delta = (0..params.len())
            .map(|_| [-1.0, 1.0][(splitmix64(rng) >> 63) as usize])
            .collect();
        let plus: Params = params
            .iter()
            .zip(&self.delta)
            .map(|(p, d)| p + ck * d)
            .collect();
        let minus: Params = params
            .iter()
            .zip(&self.delta)
            .map(|(p, d)| p - ck * d)
            .collect();
        vec![plus, minus]
    }

    fn update(
        &mut self,
        params: &[f64],
        plan: &[Params],
        evals: &[f64],
        ops: &mut OpCounter,
    ) -> Params {
        assert_eq!(plan.len(), 2, "SPSA evaluates exactly two points");
        assert_eq!(evals.len(), 2, "SPSA needs two results");
        let (ak, ck) = self.gains();
        let diff = evals[0] - evals[1];
        ops.record(OpClass::FpAlu, 1);
        let next = params
            .iter()
            .zip(&self.delta)
            .map(|(p, d)| {
                // ghat_i = diff / (2 c_k d_i); θ_i ← θ_i − a_k ghat_i.
                let ghat = diff / (2.0 * ck * d);
                ops.record(OpClass::FpAlu, 3);
                ops.record(OpClass::FpComplex, 1);
                ops.record(OpClass::Mem, 3);
                ops.record(OpClass::IntAlu, 2);
                ops.record(OpClass::Branch, 1);
                p - ak * ghat
            })
            .collect();
        self.k += 1;
        next
    }

    fn is_single_parameter_stepped(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimize;

    /// A smooth convex test function: Σ (θ_i − 1)².
    fn quadratic(params: &[f64]) -> f64 {
        params.iter().map(|p| (p - 1.0) * (p - 1.0)).sum()
    }

    #[test]
    fn gd_plan_shape_and_single_parameter_property() {
        let mut gd = GradientDescentOptimizer::new(0.1);
        let params = vec![0.0, 0.5, 1.0];
        let plan = gd.iteration_plan(&params);
        assert_eq!(plan.len(), 6);
        // Each plan entry differs from base in exactly one coordinate.
        for p in &plan {
            let diffs = p
                .iter()
                .zip(&params)
                .filter(|(a, b)| (*a - *b).abs() > 1e-12)
                .count();
            assert_eq!(diffs, 1);
        }
        assert!(gd.is_single_parameter_stepped());
    }

    #[test]
    fn gd_descends_quadratic() {
        let mut gd = GradientDescentOptimizer::new(0.2);
        let start = vec![3.0, -2.0];
        let initial_cost = quadratic(&start);
        let (_, final_cost) = optimize(&mut gd, start, 30, quadratic);
        assert!(final_cost < initial_cost / 100.0, "final={final_cost}");
    }

    #[test]
    fn spsa_descends_quadratic() {
        let mut spsa = SpsaOptimizer::new(3);
        let start = vec![3.0, -2.0, 1.5, 0.0];
        let initial_cost = quadratic(&start);
        let (_, final_cost) = optimize(&mut spsa, start, 200, quadratic);
        assert!(final_cost < initial_cost / 10.0, "final={final_cost}");
    }

    #[test]
    fn spsa_plan_is_two_full_perturbations() {
        let mut spsa = SpsaOptimizer::new(1);
        let params = vec![0.5; 10];
        let plan = spsa.iteration_plan(&params);
        assert_eq!(plan.len(), 2);
        // Every coordinate perturbed, symmetric about base.
        for i in 0..10 {
            assert!((plan[0][i] - params[i]).abs() > 1e-9);
            assert!(((plan[0][i] + plan[1][i]) / 2.0 - params[i]).abs() < 1e-12);
        }
        assert!(!spsa.is_single_parameter_stepped());
    }

    #[test]
    fn spsa_is_deterministic_per_seed() {
        let mut a = SpsaOptimizer::new(5);
        let mut b = SpsaOptimizer::new(5);
        assert_eq!(a.iteration_plan(&[0.1; 4]), b.iteration_plan(&[0.1; 4]));
    }

    #[test]
    fn updates_record_host_ops() {
        let mut ops = OpCounter::new();
        let mut gd = GradientDescentOptimizer::new(0.1);
        let params = vec![0.0; 8];
        let plan = gd.iteration_plan(&params);
        let evals = vec![0.0; plan.len()];
        gd.update(&params, &plan, &evals, &mut ops);
        assert!(ops.total() > 0);
        assert_eq!(ops.get(OpClass::FpComplex), 8);
    }

    #[test]
    fn spsa_gains_decay() {
        let mut spsa = SpsaOptimizer::new(0);
        let (a0, c0) = spsa.gains();
        let params = vec![0.0; 2];
        for _ in 0..10 {
            let plan = spsa.iteration_plan(&params);
            let mut ops = OpCounter::new();
            spsa.update(&params, &plan, &[0.1, 0.2], &mut ops);
        }
        let (a10, c10) = spsa.gains();
        assert!(a10 < a0);
        assert!(c10 < c0);
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn bad_learning_rate_panics() {
        let _ = GradientDescentOptimizer::new(-1.0);
    }
}
