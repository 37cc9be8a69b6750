//! Neural-network building blocks on top of the autodiff [`Graph`].
//!
//! Layers own [`Parameter`]s; their `forward` methods record ops on a
//! caller-supplied [`Graph`]. The [`Module`] trait exposes the parameter
//! list so optimizers, target-network updates, and checkpointing can treat
//! every network uniformly.

use rand::Rng;

use crate::graph::{Graph, NodeId, Parameter};
use crate::tensor::{Tensor, TensorPool};

/// Anything that owns trainable parameters.
pub trait Module {
    /// All trainable parameters, in a stable order.
    fn parameters(&self) -> Vec<Parameter>;

    /// Total number of scalar weights.
    fn num_parameters(&self) -> usize {
        self.parameters().iter().map(Parameter::len).sum()
    }

    /// Zeroes the gradient of every parameter.
    fn zero_grad(&self) {
        for p in self.parameters() {
            p.zero_grad();
        }
    }
}

/// Activation applied between layers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Activation {
    /// `max(x, 0)` — the default hidden activation.
    #[default]
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// No activation (identity).
    Identity,
}

impl Activation {
    /// Records this activation applied to `x` on the graph.
    pub fn apply(self, g: &mut Graph, x: NodeId) -> NodeId {
        match self {
            Activation::Relu => g.relu(x),
            Activation::Tanh => g.tanh(x),
            Activation::Sigmoid => g.sigmoid(x),
            Activation::Identity => x,
        }
    }
}

/// Xavier/Glorot uniform initialization bound for a `fan_in × fan_out`
/// weight matrix.
pub fn xavier_bound(fan_in: usize, fan_out: usize) -> f32 {
    (6.0 / (fan_in + fan_out) as f32).sqrt()
}

/// He (Kaiming) normal standard deviation for a `fan_in` weight matrix.
pub fn he_std(fan_in: usize) -> f32 {
    (2.0 / fan_in as f32).sqrt()
}

/// A fully-connected layer `y = x W + b` with `W: [in, out]`, `b: [out]`.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Parameter,
    bias: Parameter,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Creates a layer with Xavier-uniform weights and zero bias.
    pub fn new<R: Rng + ?Sized>(name: &str, in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        let bound = xavier_bound(in_dim, out_dim);
        let weight = Parameter::new(
            format!("{name}.weight"),
            Tensor::uniform(vec![in_dim, out_dim], -bound, bound, rng),
        );
        let bias = Parameter::new(format!("{name}.bias"), Tensor::zeros(vec![out_dim]));
        Self {
            weight,
            bias,
            in_dim,
            out_dim,
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Records `x W + b` for a `[batch, in]` node.
    ///
    /// # Panics
    ///
    /// Panics when `x` is not `[batch, in_dim]`.
    pub fn forward(&self, g: &mut Graph, x: NodeId) -> NodeId {
        let w = g.param(&self.weight);
        let b = g.param(&self.bias);
        let xw = g.matmul(x, w);
        g.add_bias(xw, b)
    }
}

impl Module for Linear {
    fn parameters(&self) -> Vec<Parameter> {
        vec![self.weight.clone(), self.bias.clone()]
    }
}

/// A 2D convolution layer over `[N, C, H, W]` inputs.
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Parameter,
    bias: Parameter,
    stride: usize,
    padding: usize,
}

impl Conv2d {
    /// Creates a conv layer with He-normal weights and zero bias.
    pub fn new<R: Rng + ?Sized>(
        name: &str,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut R,
    ) -> Self {
        let fan_in = in_channels * kernel * kernel;
        let weight = Parameter::new(
            format!("{name}.weight"),
            Tensor::randn(
                vec![out_channels, in_channels, kernel, kernel],
                he_std(fan_in),
                rng,
            ),
        );
        let bias = Parameter::new(format!("{name}.bias"), Tensor::zeros(vec![out_channels]));
        Self {
            weight,
            bias,
            stride,
            padding,
        }
    }

    /// Records the convolution of a `[N, C, H, W]` node.
    ///
    /// # Panics
    ///
    /// Panics on rank/channel mismatch (see [`Graph::conv2d`]).
    pub fn forward(&self, g: &mut Graph, x: NodeId) -> NodeId {
        let w = g.param(&self.weight);
        let b = g.param(&self.bias);
        g.conv2d(x, w, b, self.stride, self.padding)
    }
}

impl Module for Conv2d {
    fn parameters(&self) -> Vec<Parameter> {
        vec![self.weight.clone(), self.bias.clone()]
    }
}

/// A multi-layer perceptron: `Linear → act → … → Linear` with an identity
/// output head.
///
/// # Examples
///
/// ```
/// use hero_autograd::nn::{Mlp, Activation, Module};
/// use hero_autograd::{Graph, Tensor};
/// use rand::{SeedableRng, rngs::StdRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let net = Mlp::new("q", &[4, 32, 2], Activation::Relu, &mut rng);
/// let mut g = Graph::new();
/// let x = g.input(Tensor::zeros(vec![3, 4]));
/// let y = net.forward(&mut g, x);
/// assert_eq!(g.value(y).shape(), &[3, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    activation: Activation,
}

impl Mlp {
    /// Creates an MLP from a list of layer widths (`dims[0]` is the input
    /// width, `dims.last()` the output width).
    ///
    /// # Panics
    ///
    /// Panics when fewer than two widths are supplied.
    pub fn new<R: Rng + ?Sized>(
        name: &str,
        dims: &[usize],
        activation: Activation,
        rng: &mut R,
    ) -> Self {
        assert!(dims.len() >= 2, "an MLP needs at least input and output widths");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(&format!("{name}.l{i}"), w[0], w[1], rng))
            .collect();
        Self { layers, activation }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.layers[self.layers.len() - 1].out_dim()
    }

    /// Records the full forward pass for a `[batch, in]` node.
    pub fn forward(&self, g: &mut Graph, x: NodeId) -> NodeId {
        let mut h = x;
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(g, h);
            if i < last {
                h = self.activation.apply(g, h);
            }
        }
        h
    }

    /// Convenience inference: runs a single `[batch, in]` tensor through a
    /// throwaway graph and returns the output tensor.
    pub fn infer(&self, x: &Tensor) -> Tensor {
        let mut g = Graph::new();
        let xn = g.input(x.clone());
        let y = self.forward(&mut g, xn);
        g.value(y).clone()
    }

    /// Inference-only forward pass: no graph, no tape, no gradient buffers.
    ///
    /// Activations are checked out of `pool` and returned as each layer
    /// completes, so a warm pool makes repeated calls allocation-free
    /// (hand the returned tensor's buffer back with
    /// `pool.put(out.into_data())` to keep it that way). Every arithmetic
    /// step matches the graph ops exactly — the same [`matmul_into`]
    /// kernel dispatch, the same `x·W + b` addition order, the same
    /// activation formulas — so the result is bitwise identical to
    /// [`Mlp::infer`], and because each output element of the
    /// matmul accumulates independently, row `r` of a `[batch, in]` call
    /// is bitwise identical to a `[1, in]` call on that row alone.
    ///
    /// [`matmul_into`]: crate::tensor::matmul_into
    ///
    /// # Panics
    ///
    /// Panics when `x` is not `[batch, in_dim]`.
    pub fn infer_in(&self, x: &Tensor, pool: &mut TensorPool) -> Tensor {
        assert_eq!(x.rank(), 2, "mlp input must be rank-2");
        assert_eq!(x.shape()[1], self.in_dim(), "mlp input width mismatch");
        let m = x.shape()[0];
        let last = self.layers.len() - 1;
        let mut cur: Option<Tensor> = None;
        for (i, layer) in self.layers.iter().enumerate() {
            let input = cur.as_ref().unwrap_or(x);
            let n = layer.out_dim;
            let mut data = pool.take(m * n);
            {
                let w = layer.weight.value();
                crate::tensor::matmul_into(input, &w, &mut data);
            }
            {
                let b = layer.bias.value();
                let bv = b.data();
                for r in 0..m {
                    let row = &mut data[r * n..(r + 1) * n];
                    for (o, &bj) in row.iter_mut().zip(bv) {
                        *o += bj;
                    }
                }
            }
            if i < last {
                match self.activation {
                    Activation::Relu => data.iter_mut().for_each(|v| *v = v.max(0.0)),
                    Activation::Tanh => data.iter_mut().for_each(|v| *v = v.tanh()),
                    Activation::Sigmoid => {
                        data.iter_mut().for_each(|v| *v = crate::graph::sigmoid(*v));
                    }
                    Activation::Identity => {}
                }
            }
            if let Some(prev) = cur.take() {
                pool.put(prev.into_data());
            }
            cur = Some(Tensor::from_vec(vec![m, n], data));
        }
        cur.expect("an MLP has at least one layer")
    }
}

impl Module for Mlp {
    fn parameters(&self) -> Vec<Parameter> {
        self.layers.iter().flat_map(Module::parameters).collect()
    }
}

/// A small convolutional encoder for the simulator's occupancy-grid
/// "camera" images: two stride-2 conv layers followed by a flatten, mapping
/// `[N, C, H, W]` to `[N, out_dim]` features.
#[derive(Debug, Clone)]
pub struct ConvEncoder {
    conv1: Conv2d,
    conv2: Conv2d,
    channels: (usize, usize, usize),
    input_hw: (usize, usize),
    out_dim: usize,
}

impl ConvEncoder {
    /// Creates an encoder for `[N, in_channels, h, w]` inputs.
    ///
    /// # Panics
    ///
    /// Panics when `h` or `w` is smaller than 4 (two stride-2 3×3 convs
    /// need at least that).
    pub fn new<R: Rng + ?Sized>(
        name: &str,
        in_channels: usize,
        h: usize,
        w: usize,
        rng: &mut R,
    ) -> Self {
        assert!(h >= 4 && w >= 4, "ConvEncoder needs inputs of at least 4x4");
        let c1 = 4;
        let c2 = 8;
        let conv1 = Conv2d::new(&format!("{name}.conv1"), in_channels, c1, 3, 2, 1, rng);
        let conv2 = Conv2d::new(&format!("{name}.conv2"), c1, c2, 3, 2, 1, rng);
        let h1 = (h + 2 - 3) / 2 + 1;
        let w1 = (w + 2 - 3) / 2 + 1;
        let h2 = (h1 + 2 - 3) / 2 + 1;
        let w2 = (w1 + 2 - 3) / 2 + 1;
        Self {
            conv1,
            conv2,
            channels: (in_channels, c1, c2),
            input_hw: (h, w),
            out_dim: c2 * h2 * w2,
        }
    }

    /// Width of the flattened feature vector.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Expected input channel count.
    pub fn in_channels(&self) -> usize {
        self.channels.0
    }

    /// Expected input spatial size `(h, w)`.
    pub fn input_hw(&self) -> (usize, usize) {
        self.input_hw
    }

    /// Records the encoder on a `[N, C, H, W]` node, returning `[N, out_dim]`.
    pub fn forward(&self, g: &mut Graph, x: NodeId) -> NodeId {
        let h1 = self.conv1.forward(g, x);
        let h1 = g.relu(h1);
        let h2 = self.conv2.forward(g, h1);
        let h2 = g.relu(h2);
        let batch = g.value(h2).shape()[0];
        g.reshape(h2, vec![batch, self.out_dim])
    }
}

impl Module for ConvEncoder {
    fn parameters(&self) -> Vec<Parameter> {
        let mut p = self.conv1.parameters();
        p.extend(self.conv2.parameters());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_shapes_and_param_count() {
        let mut rng = StdRng::seed_from_u64(1);
        let l = Linear::new("l", 3, 5, &mut rng);
        assert_eq!(l.num_parameters(), 3 * 5 + 5);
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros(vec![7, 3]));
        let y = l.forward(&mut g, x);
        assert_eq!(g.value(y).shape(), &[7, 5]);
    }

    #[test]
    fn mlp_trains_toward_constant_target() {
        // One gradient step on MSE must reduce the loss.
        let mut rng = StdRng::seed_from_u64(2);
        let net = Mlp::new("n", &[2, 16, 1], Activation::Tanh, &mut rng);
        let x = Tensor::from_vec(vec![4, 2], vec![0.1, 0.2, -0.3, 0.4, 0.5, -0.6, 0.7, 0.8]);
        let target = Tensor::from_vec(vec![4, 1], vec![1.0, -1.0, 0.5, 0.0]);

        let loss_of = |net: &Mlp| {
            let mut g = Graph::new();
            let xn = g.input(x.clone());
            let t = g.input(target.clone());
            let y = net.forward(&mut g, xn);
            let d = g.sub(y, t);
            let sq = g.mul(d, d);
            let l = g.mean(sq);
            g.value(l).item()
        };

        let before = loss_of(&net);
        let mut g = Graph::new();
        let xn = g.input(x.clone());
        let t = g.input(target.clone());
        let y = net.forward(&mut g, xn);
        let d = g.sub(y, t);
        let sq = g.mul(d, d);
        let l = g.mean(sq);
        g.backward(l);
        for p in net.parameters() {
            p.apply_update(|v, grad| {
                for (vi, gi) in v.data_mut().iter_mut().zip(grad.data()) {
                    *vi -= 0.5 * gi;
                }
            });
        }
        let after = loss_of(&net);
        assert!(after < before, "loss did not decrease: {before} -> {after}");
    }

    #[test]
    fn mlp_infer_matches_forward() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = Mlp::new("n", &[3, 8, 2], Activation::Relu, &mut rng);
        let x = Tensor::from_vec(vec![1, 3], vec![0.3, -0.2, 0.9]);
        let via_infer = net.infer(&x);
        let mut g = Graph::new();
        let xn = g.input(x);
        let y = net.forward(&mut g, xn);
        assert_eq!(&via_infer, g.value(y));
    }

    #[test]
    fn conv_encoder_output_dim_consistent() {
        let mut rng = StdRng::seed_from_u64(4);
        let enc = ConvEncoder::new("e", 1, 12, 12, &mut rng);
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros(vec![2, 1, 12, 12]));
        let y = enc.forward(&mut g, x);
        assert_eq!(g.value(y).shape(), &[2, enc.out_dim()]);
    }

    #[test]
    fn activations_apply() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(vec![1, 2], vec![-1.0, 1.0]));
        let relu = Activation::Relu.apply(&mut g, x);
        assert_eq!(g.value(relu).data(), &[0.0, 1.0]);
        let x2 = g.input(Tensor::from_vec(vec![1, 1], vec![0.0]));
        let sig = Activation::Sigmoid.apply(&mut g, x2);
        assert_eq!(g.value(sig).data(), &[0.5]);
        assert_eq!(Activation::Identity.apply(&mut g, x2), x2);
    }

    #[test]
    fn xavier_and_he_bounds_positive() {
        assert!(xavier_bound(10, 20) > 0.0);
        assert!(he_std(10) > 0.0);
    }
}
