//! Activation functions.

/// Element-wise activation applied after a dense layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit: `max(0, x)`.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Identity (linear output layer).
    Identity,
}

impl Activation {
    /// Applies the activation to a pre-activation value.
    #[inline]
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Tanh => x.tanh(),
            Activation::Identity => x,
        }
    }

    /// Derivative of the activation, expressed in terms of the
    /// **pre-activation** value `x`.
    #[inline]
    pub fn derivative(self, x: f64) -> f64 {
        match self {
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
            Activation::Identity => 1.0,
        }
    }

    /// The same derivative expressed through the activation's **output**
    /// `y = apply(x)`, which the backward pass has already stored. It is
    /// bit for bit `derivative(x)`: tanh′ is `1 − t·t` with the very
    /// `t = tanh(x)` that `derivative` recomputes, and `max(x, 0) > 0`
    /// exactly when `x > 0`.
    #[inline]
    pub fn derivative_at_output(self, y: f64) -> f64 {
        match self {
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - y * y,
            Activation::Identity => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_shape() {
        assert_eq!(Activation::Relu.apply(3.0), 3.0);
        assert_eq!(Activation::Relu.apply(-3.0), 0.0);
        assert_eq!(Activation::Relu.derivative(2.0), 1.0);
        assert_eq!(Activation::Relu.derivative(-2.0), 0.0);
    }

    #[test]
    fn tanh_derivative_matches_fd() {
        for &x in &[-2.0, -0.3, 0.0, 0.7, 1.9] {
            let d = Activation::Tanh.derivative(x);
            let h = 1e-6;
            let fd = (Activation::Tanh.apply(x + h) - Activation::Tanh.apply(x - h)) / (2.0 * h);
            assert!((d - fd).abs() < 1e-8, "x={x}");
        }
    }

    #[test]
    fn derivative_at_output_is_derivative_bitwise() {
        let xs = [-40.0, -3.0, -0.7, -1e-300, -0.0, 0.0, 1e-300, 0.3, 2.5, 40.0, f64::NAN];
        for act in [Activation::Relu, Activation::Tanh, Activation::Identity] {
            for &x in &xs {
                assert_eq!(
                    act.derivative_at_output(act.apply(x)).to_bits(),
                    act.derivative(x).to_bits(),
                    "{act:?} at {x}"
                );
            }
        }
    }

    #[test]
    fn identity_passthrough() {
        assert_eq!(Activation::Identity.apply(-7.5), -7.5);
        assert_eq!(Activation::Identity.derivative(123.0), 1.0);
    }
}
