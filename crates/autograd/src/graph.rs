//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Graph`] is a per-forward-pass tape. Leaves are either constants
//! ([`Graph::input`]) or trainable [`Parameter`]s ([`Graph::param`]); every
//! operation appends a node holding its computed value and enough structure
//! to propagate gradients. [`Graph::backward`] walks the tape in reverse,
//! accumulating parameter gradients into the shared [`Parameter`] storage so
//! an optimizer can apply them afterwards.
//!
//! # Examples
//!
//! ```
//! use hero_autograd::{Graph, Parameter, Tensor};
//!
//! let w = Parameter::new("w", Tensor::from_vec(vec![1, 1], vec![3.0]));
//! let mut g = Graph::new();
//! let x = g.input(Tensor::from_vec(vec![1, 1], vec![2.0]));
//! let wn = g.param(&w);
//! let y = g.matmul(x, wn); // y = w * x = 6
//! let loss = g.sum(y);
//! g.backward(loss);
//! assert_eq!(g.value(y).item(), 6.0);
//! assert_eq!(w.grad().item(), 2.0); // dy/dw = x
//! ```

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use parking_lot::{MappedRwLockReadGuard, RwLock, RwLockReadGuard};

use crate::tensor::{
    matmul_into as tensor_matmul_into, matmul_nt_into as tensor_matmul_nt_into,
    matmul_tn_into as tensor_matmul_tn_into, Tensor, TensorPool,
};

/// Identifier of a node on a [`Graph`] tape.
///
/// Only meaningful for the graph that produced it; using it with another
/// graph panics or yields nonsense values.
pub type NodeId = usize;

struct ParamInner {
    value: Tensor,
    grad: Tensor,
}

/// A trainable tensor shared between graphs and an optimizer.
///
/// Cloning a `Parameter` is cheap and yields a handle to the *same*
/// underlying storage (like `Arc`). Gradients accumulate across
/// [`Graph::backward`] calls until [`Parameter::zero_grad`] resets them.
/// Parameters are `Send + Sync`, so whole agents can be trained on worker
/// threads (the paper trains the low-level skills in parallel
/// environments).
#[derive(Clone)]
pub struct Parameter {
    // The name is immutable after construction and read on every per-step
    // diagnostics call, so it lives outside the value/grad lock.
    name: Arc<str>,
    inner: Arc<RwLock<ParamInner>>,
}

impl Parameter {
    /// Creates a parameter with an initial value and a zeroed gradient.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape().to_vec());
        Self {
            name: Arc::from(name.into()),
            inner: Arc::new(RwLock::new(ParamInner { value, grad })),
        }
    }

    /// The human-readable name given at construction. Lock-free and
    /// allocation-free.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The parameter's shape.
    pub fn shape(&self) -> Vec<usize> {
        self.inner.read().value.shape().to_vec()
    }

    /// Number of scalar elements.
    pub fn len(&self) -> usize {
        self.inner.read().value.len()
    }

    /// Whether the parameter holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read-locks the current value.
    pub fn value(&self) -> MappedRwLockReadGuard<'_, Tensor> {
        RwLockReadGuard::map(self.inner.read(), |p| &p.value)
    }

    /// Read-locks the accumulated gradient.
    pub fn grad(&self) -> MappedRwLockReadGuard<'_, Tensor> {
        RwLockReadGuard::map(self.inner.read(), |p| &p.grad)
    }

    /// Replaces the value, keeping the gradient buffer (re-shaped to match).
    pub fn set_value(&self, value: Tensor) {
        let mut inner = self.inner.write();
        inner.grad = Tensor::zeros(value.shape().to_vec());
        inner.value = value;
    }

    /// Runs `f` with mutable access to the value and shared access to the
    /// gradient — the hook used by optimizers.
    pub fn apply_update(&self, f: impl FnOnce(&mut Tensor, &Tensor)) {
        let inner = &mut *self.inner.write();
        f(&mut inner.value, &inner.grad);
    }

    /// Scales the accumulated gradient in place (used for gradient clipping).
    pub fn scale_grad(&self, factor: f32) {
        self.inner.write().grad.scale_assign(factor);
    }

    /// Resets the accumulated gradient to zero.
    pub fn zero_grad(&self) {
        self.inner.write().grad.zero_();
    }

    /// Whether two handles refer to the same underlying parameter storage.
    pub fn same_storage(&self, other: &Parameter) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Adds `g` element-wise into the accumulated gradient (what
    /// [`Graph::backward`] does internally). Public so external harnesses
    /// can accumulate manual gradients — e.g. the fault-injection harness
    /// poisons a gradient with NaN to exercise the optimizer watchdog.
    pub fn accumulate_grad(&self, g: &Tensor) {
        self.inner.write().grad.add_assign(g);
    }
}

impl fmt::Debug for Parameter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Parameter(name={:?}, shape={:?})",
            self.name,
            self.inner.read().value.shape()
        )
    }
}

/// Zeroes the gradients of every parameter in a slice.
pub fn zero_grads(params: &[Parameter]) {
    for p in params {
        p.zero_grad();
    }
}

/// Copies the values of `src` into `dst` element-wise (hard update, used to
/// initialize target networks).
///
/// # Panics
///
/// Panics when the slices differ in length or any pair differs in shape.
pub fn copy_params(src: &[Parameter], dst: &[Parameter]) {
    assert_eq!(src.len(), dst.len(), "parameter count mismatch");
    for (s, d) in src.iter().zip(dst) {
        d.set_value(s.value().clone());
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Conv2dSpec {
    batch: usize,
    in_channels: usize,
    in_h: usize,
    in_w: usize,
    out_channels: usize,
    k_h: usize,
    k_w: usize,
    stride: usize,
    padding: usize,
    out_h: usize,
    out_w: usize,
}

enum Op {
    Input,
    Param(Parameter),
    Add(NodeId, NodeId),
    AddBias(NodeId, NodeId),
    Sub(NodeId, NodeId),
    Mul(NodeId, NodeId),
    Neg(NodeId),
    Scale(NodeId, f32),
    AddScalar(NodeId),
    MatMul(NodeId, NodeId),
    MatMulNT(NodeId, NodeId),
    MatMulTN(NodeId, NodeId),
    Transpose(NodeId),
    Relu(NodeId),
    Tanh(NodeId),
    Sigmoid(NodeId),
    Exp(NodeId),
    Ln(NodeId),
    Softplus(NodeId),
    Clamp(NodeId, f32, f32),
    Softmax(NodeId),
    LogSoftmax(NodeId),
    Sum(NodeId),
    Mean(NodeId),
    SumRows(NodeId),
    ConcatCols(NodeId, NodeId),
    SliceCols(NodeId, Range<usize>),
    RowScale(NodeId, NodeId),
    Minimum(NodeId, NodeId),
    Reshape(NodeId),
    Conv2d(NodeId, NodeId, NodeId, Conv2dSpec),
}

struct Node {
    value: Tensor,
    op: Op,
}

/// A reusable autodiff tape.
///
/// A `Graph` records one forward pass at a time. Calling [`Graph::reset`]
/// between minibatches returns every node's storage to an internal
/// [`TensorPool`], so a long-lived graph stops allocating once the largest
/// minibatch shape has been seen — the arena lifecycle described in
/// DESIGN.md. See the [module docs](self) for a usage example.
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
    pool: TensorPool,
    grad_slots: Vec<Option<Tensor>>,
    requires: Vec<bool>,
}

const LN_EPS: f32 = 1e-12;

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Clears the tape for reuse, recycling every node's buffer into the
    /// graph's [`TensorPool`]. Node ids from before the reset are invalid
    /// afterwards.
    pub fn reset(&mut self) {
        for node in self.nodes.drain(..) {
            self.pool.put(node.value.into_data());
        }
    }

    /// The graph's buffer pool. Inference passes
    /// ([`crate::nn::Mlp::infer_in`]) and pooled inputs share it with the
    /// tape: an input built from it and recorded with [`Graph::input`]
    /// returns to it at the next [`Graph::reset`].
    pub fn pool(&mut self) -> &mut TensorPool {
        &mut self.pool
    }

    /// The computed value of a node.
    ///
    /// # Panics
    ///
    /// Panics when `id` was not produced by this graph.
    pub fn value(&self, id: NodeId) -> &Tensor {
        &self.nodes[id].value
    }

    fn push(&mut self, value: Tensor, op: Op) -> NodeId {
        self.nodes.push(Node { value, op });
        self.nodes.len() - 1
    }

    /// Records a constant leaf (no gradient flows into it).
    pub fn input(&mut self, value: Tensor) -> NodeId {
        self.push(value, Op::Input)
    }

    /// Records a trainable leaf; [`Graph::backward`] accumulates its
    /// gradient into the [`Parameter`].
    pub fn param(&mut self, p: &Parameter) -> NodeId {
        let mut data = self.pool.take(p.len());
        let value = {
            let v = p.value();
            data.extend_from_slice(v.data());
            Tensor::from_vec(v.shape().to_vec(), data)
        };
        self.push(value, Op::Param(p.clone()))
    }

    /// Element-wise addition of two same-shaped nodes.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let mut data = self.pool.take(self.nodes[a].value.len());
        let (va, vb) = (&self.nodes[a].value, &self.nodes[b].value);
        assert_eq!(va.shape(), vb.shape(), "add shape mismatch");
        data.extend(va.data().iter().zip(vb.data()).map(|(x, y)| x + y));
        let value = Tensor::from_vec(va.shape().to_vec(), data);
        self.push(value, Op::Add(a, b))
    }

    /// Adds a rank-1 bias `[n]` to every row of a `[m, n]` matrix.
    ///
    /// # Panics
    ///
    /// Panics unless `a` is rank-2, `bias` is rank-1, and widths match.
    pub fn add_bias(&mut self, a: NodeId, bias: NodeId) -> NodeId {
        let mut data = self.pool.take(self.nodes[a].value.len());
        let (va, vb) = (&self.nodes[a].value, &self.nodes[bias].value);
        assert_eq!(va.rank(), 2, "add_bias lhs must be rank-2");
        assert_eq!(vb.rank(), 1, "add_bias bias must be rank-1");
        let (m, n) = (va.shape()[0], va.shape()[1]);
        assert_eq!(vb.len(), n, "add_bias width mismatch");
        // Row-wise `extend` over zipped slices vectorizes; the sum per
        // element is the `x + b` that `Mlp::infer_in` computes.
        for i in 0..m {
            let row = &va.data()[i * n..(i + 1) * n];
            data.extend(row.iter().zip(vb.data()).map(|(x, b)| x + b));
        }
        let value = Tensor::from_vec(vec![m, n], data);
        self.push(value, Op::AddBias(a, bias))
    }

    /// Element-wise subtraction `a - b` of two same-shaped nodes.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let mut data = self.pool.take(self.nodes[a].value.len());
        let (va, vb) = (&self.nodes[a].value, &self.nodes[b].value);
        assert_eq!(va.shape(), vb.shape(), "sub shape mismatch");
        data.extend(va.data().iter().zip(vb.data()).map(|(x, y)| x - y));
        let value = Tensor::from_vec(va.shape().to_vec(), data);
        self.push(value, Op::Sub(a, b))
    }

    /// Element-wise (Hadamard) product of two same-shaped nodes.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let mut data = self.pool.take(self.nodes[a].value.len());
        let (va, vb) = (&self.nodes[a].value, &self.nodes[b].value);
        assert_eq!(va.shape(), vb.shape(), "mul shape mismatch");
        data.extend(va.data().iter().zip(vb.data()).map(|(x, y)| x * y));
        let value = Tensor::from_vec(va.shape().to_vec(), data);
        self.push(value, Op::Mul(a, b))
    }

    /// Element-wise negation.
    pub fn neg(&mut self, a: NodeId) -> NodeId {
        let mut data = self.pool.take(self.nodes[a].value.len());
        let va = &self.nodes[a].value;
        data.extend(va.data().iter().map(|x| -x));
        let value = Tensor::from_vec(va.shape().to_vec(), data);
        self.push(value, Op::Neg(a))
    }

    /// Multiplication by a compile-time constant scalar.
    pub fn scale(&mut self, a: NodeId, factor: f32) -> NodeId {
        let mut data = self.pool.take(self.nodes[a].value.len());
        let va = &self.nodes[a].value;
        data.extend(va.data().iter().map(|x| x * factor));
        let value = Tensor::from_vec(va.shape().to_vec(), data);
        self.push(value, Op::Scale(a, factor))
    }

    /// Addition of a constant scalar to every element.
    pub fn add_scalar(&mut self, a: NodeId, constant: f32) -> NodeId {
        let mut data = self.pool.take(self.nodes[a].value.len());
        let va = &self.nodes[a].value;
        data.extend(va.data().iter().map(|x| x + constant));
        let value = Tensor::from_vec(va.shape().to_vec(), data);
        self.push(value, Op::AddScalar(a))
    }

    /// Matrix product of a `[m, k]` node and a `[k, n]` node.
    ///
    /// # Panics
    ///
    /// Panics unless both operands are rank-2 with matching inner dims.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let mut data = self
            .pool
            .take(self.nodes[a].value.shape()[0] * self.nodes[b].value.shape()[1]);
        let (va, vb) = (&self.nodes[a].value, &self.nodes[b].value);
        tensor_matmul_into(va, vb, &mut data);
        let value = Tensor::from_vec(vec![va.shape()[0], vb.shape()[1]], data);
        self.push(value, Op::MatMul(a, b))
    }

    /// Fused product `A · Bᵀ` of a `[m, k]` node and an `[n, k]` node,
    /// producing `[m, n]` without materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics unless both operands are rank-2 with matching `k` dims.
    pub fn matmul_nt(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let mut data = self
            .pool
            .take(self.nodes[a].value.shape()[0] * self.nodes[b].value.shape()[0]);
        let (va, vb) = (&self.nodes[a].value, &self.nodes[b].value);
        tensor_matmul_nt_into(va, vb, &mut data);
        let value = Tensor::from_vec(vec![va.shape()[0], vb.shape()[0]], data);
        self.push(value, Op::MatMulNT(a, b))
    }

    /// Fused product `Aᵀ · B` of a `[k, m]` node and a `[k, n]` node,
    /// producing `[m, n]` without materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics unless both operands are rank-2 with matching `k` dims.
    pub fn matmul_tn(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let mut data = self
            .pool
            .take(self.nodes[a].value.shape()[1] * self.nodes[b].value.shape()[1]);
        let (va, vb) = (&self.nodes[a].value, &self.nodes[b].value);
        tensor_matmul_tn_into(va, vb, &mut data);
        let value = Tensor::from_vec(vec![va.shape()[1], vb.shape()[1]], data);
        self.push(value, Op::MatMulTN(a, b))
    }

    /// Matrix transpose of a rank-2 node.
    ///
    /// # Panics
    ///
    /// Panics unless the operand is rank-2.
    pub fn transpose(&mut self, a: NodeId) -> NodeId {
        let value = self.nodes[a].value.transposed();
        self.push(value, Op::Transpose(a))
    }

    /// Rectified linear unit, `max(x, 0)`.
    pub fn relu(&mut self, a: NodeId) -> NodeId {
        let mut data = self.pool.take(self.nodes[a].value.len());
        let va = &self.nodes[a].value;
        data.extend(va.data().iter().map(|x| x.max(0.0)));
        let value = Tensor::from_vec(va.shape().to_vec(), data);
        self.push(value, Op::Relu(a))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        let mut data = self.pool.take(self.nodes[a].value.len());
        let va = &self.nodes[a].value;
        data.extend(va.data().iter().map(|x| x.tanh()));
        let value = Tensor::from_vec(va.shape().to_vec(), data);
        self.push(value, Op::Tanh(a))
    }

    /// Logistic sigmoid `1 / (1 + e^{-x})`.
    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        let mut data = self.pool.take(self.nodes[a].value.len());
        let va = &self.nodes[a].value;
        data.extend(va.data().iter().map(|x| sigmoid(*x)));
        let value = Tensor::from_vec(va.shape().to_vec(), data);
        self.push(value, Op::Sigmoid(a))
    }

    /// Element-wise exponential.
    pub fn exp(&mut self, a: NodeId) -> NodeId {
        let mut data = self.pool.take(self.nodes[a].value.len());
        let va = &self.nodes[a].value;
        data.extend(va.data().iter().map(|x| x.exp()));
        let value = Tensor::from_vec(va.shape().to_vec(), data);
        self.push(value, Op::Exp(a))
    }

    /// Element-wise natural logarithm, clamped below at `1e-12` for
    /// numerical safety.
    pub fn ln(&mut self, a: NodeId) -> NodeId {
        let mut data = self.pool.take(self.nodes[a].value.len());
        let va = &self.nodes[a].value;
        data.extend(va.data().iter().map(|x| x.max(LN_EPS).ln()));
        let value = Tensor::from_vec(va.shape().to_vec(), data);
        self.push(value, Op::Ln(a))
    }

    /// Numerically stable softplus `ln(1 + e^x)`.
    pub fn softplus(&mut self, a: NodeId) -> NodeId {
        let mut data = self.pool.take(self.nodes[a].value.len());
        let va = &self.nodes[a].value;
        data.extend(va.data().iter().map(|x| softplus(*x)));
        let value = Tensor::from_vec(va.shape().to_vec(), data);
        self.push(value, Op::Softplus(a))
    }

    /// Element-wise clamp into `[lo, hi]`; gradients pass only where the
    /// input lies strictly inside the range.
    ///
    /// # Panics
    ///
    /// Panics when `lo > hi`.
    pub fn clamp(&mut self, a: NodeId, lo: f32, hi: f32) -> NodeId {
        assert!(lo <= hi, "clamp requires lo <= hi");
        let mut data = self.pool.take(self.nodes[a].value.len());
        let va = &self.nodes[a].value;
        data.extend(va.data().iter().map(|x| x.clamp(lo, hi)));
        let value = Tensor::from_vec(va.shape().to_vec(), data);
        self.push(value, Op::Clamp(a, lo, hi))
    }

    /// Row-wise softmax of a `[m, n]` node.
    ///
    /// # Panics
    ///
    /// Panics unless the operand is rank-2.
    pub fn softmax(&mut self, a: NodeId) -> NodeId {
        let mut data = self.pool.take(self.nodes[a].value.len());
        let va = &self.nodes[a].value;
        assert_eq!(va.rank(), 2, "softmax expects rank-2 input");
        data.resize(va.len(), 0.0);
        rowwise_into(va, &mut data, softmax_row);
        let value = Tensor::from_vec(va.shape().to_vec(), data);
        self.push(value, Op::Softmax(a))
    }

    /// Row-wise log-softmax of a `[m, n]` node (numerically stable).
    ///
    /// # Panics
    ///
    /// Panics unless the operand is rank-2.
    pub fn log_softmax(&mut self, a: NodeId) -> NodeId {
        let mut data = self.pool.take(self.nodes[a].value.len());
        let va = &self.nodes[a].value;
        assert_eq!(va.rank(), 2, "log_softmax expects rank-2 input");
        data.resize(va.len(), 0.0);
        rowwise_into(va, &mut data, log_softmax_row);
        let value = Tensor::from_vec(va.shape().to_vec(), data);
        self.push(value, Op::LogSoftmax(a))
    }

    /// Sum of all elements, producing a scalar node.
    pub fn sum(&mut self, a: NodeId) -> NodeId {
        let value = Tensor::scalar(self.nodes[a].value.sum());
        self.push(value, Op::Sum(a))
    }

    /// Mean of all elements, producing a scalar node.
    ///
    /// # Panics
    ///
    /// Panics on empty operands.
    pub fn mean(&mut self, a: NodeId) -> NodeId {
        let va = &self.nodes[a].value;
        assert!(!va.is_empty(), "mean of empty tensor");
        let value = Tensor::scalar(va.mean());
        self.push(value, Op::Mean(a))
    }

    /// Per-row sum of a `[m, n]` node, producing `[m, 1]`.
    ///
    /// # Panics
    ///
    /// Panics unless the operand is rank-2.
    pub fn sum_rows(&mut self, a: NodeId) -> NodeId {
        let mut data = self.pool.take(self.nodes[a].value.shape()[0]);
        let va = &self.nodes[a].value;
        assert_eq!(va.rank(), 2, "sum_rows expects rank-2 input");
        let (m, n) = (va.shape()[0], va.shape()[1]);
        for i in 0..m {
            data.push(va.data()[i * n..(i + 1) * n].iter().sum());
        }
        let value = Tensor::from_vec(vec![m, 1], data);
        self.push(value, Op::SumRows(a))
    }

    /// Concatenates two rank-2 nodes with equal row counts along columns.
    ///
    /// # Panics
    ///
    /// Panics unless both operands are rank-2 with equal row counts.
    pub fn concat_cols(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let mut data = self
            .pool
            .take(self.nodes[a].value.len() + self.nodes[b].value.len());
        let (va, vb) = (&self.nodes[a].value, &self.nodes[b].value);
        assert_eq!(va.rank(), 2, "concat_cols lhs must be rank-2");
        assert_eq!(vb.rank(), 2, "concat_cols rhs must be rank-2");
        assert_eq!(va.shape()[0], vb.shape()[0], "concat_cols row mismatch");
        let (m, na, nb) = (va.shape()[0], va.shape()[1], vb.shape()[1]);
        for i in 0..m {
            data.extend_from_slice(&va.data()[i * na..(i + 1) * na]);
            data.extend_from_slice(&vb.data()[i * nb..(i + 1) * nb]);
        }
        let value = Tensor::from_vec(vec![m, na + nb], data);
        self.push(value, Op::ConcatCols(a, b))
    }

    /// Concatenates any number of rank-2 nodes along columns.
    ///
    /// # Panics
    ///
    /// Panics when `parts` is empty or shapes are incompatible.
    pub fn concat_cols_many(&mut self, parts: &[NodeId]) -> NodeId {
        assert!(!parts.is_empty(), "concat_cols_many requires >= 1 part");
        let mut acc = parts[0];
        for &p in &parts[1..] {
            acc = self.concat_cols(acc, p);
        }
        acc
    }

    /// Column slice `[m, cols]` → `[m, range.len()]` of a rank-2 node.
    ///
    /// # Panics
    ///
    /// Panics unless the operand is rank-2 and the range is in bounds.
    pub fn slice_cols(&mut self, a: NodeId, range: Range<usize>) -> NodeId {
        let mut data = self
            .pool
            .take(self.nodes[a].value.shape()[0] * (range.end - range.start));
        let va = &self.nodes[a].value;
        assert_eq!(va.rank(), 2, "slice_cols expects rank-2 input");
        let (m, n) = (va.shape()[0], va.shape()[1]);
        assert!(range.end <= n, "slice_cols range out of bounds");
        let width = range.end - range.start;
        for i in 0..m {
            data.extend_from_slice(&va.data()[i * n + range.start..i * n + range.end]);
        }
        let value = Tensor::from_vec(vec![m, width], data);
        self.push(value, Op::SliceCols(a, range))
    }

    /// Scales each row `i` of a `[m, n]` node by the scalar `w[i]` from a
    /// `[m, 1]` node (broadcast multiply along columns).
    ///
    /// # Panics
    ///
    /// Panics unless `a` is `[m, n]` and `w` is `[m, 1]`.
    pub fn row_scale(&mut self, a: NodeId, w: NodeId) -> NodeId {
        let mut data = self.pool.take(self.nodes[a].value.len());
        let (va, vw) = (&self.nodes[a].value, &self.nodes[w].value);
        assert_eq!(va.rank(), 2, "row_scale lhs must be rank-2");
        assert_eq!(vw.shape(), &[va.shape()[0], 1], "row_scale weights must be [m, 1]");
        let (m, n) = (va.shape()[0], va.shape()[1]);
        for i in 0..m {
            let wi = vw.data()[i];
            for j in 0..n {
                data.push(va.data()[i * n + j] * wi);
            }
        }
        let value = Tensor::from_vec(vec![m, n], data);
        self.push(value, Op::RowScale(a, w))
    }

    /// Element-wise minimum of two same-shaped nodes; on ties the gradient
    /// flows to the first operand.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn minimum(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let mut data = self.pool.take(self.nodes[a].value.len());
        let (va, vb) = (&self.nodes[a].value, &self.nodes[b].value);
        assert_eq!(va.shape(), vb.shape(), "minimum shape mismatch");
        data.extend(va.data().iter().zip(vb.data()).map(|(x, y)| x.min(*y)));
        let value = Tensor::from_vec(va.shape().to_vec(), data);
        self.push(value, Op::Minimum(a, b))
    }

    /// Reshapes a node to a new shape with the same element count.
    ///
    /// # Panics
    ///
    /// Panics when the element counts differ.
    pub fn reshape(&mut self, a: NodeId, shape: Vec<usize>) -> NodeId {
        let value = self.nodes[a].value.reshaped(shape).expect("reshape element count mismatch");
        self.push(value, Op::Reshape(a))
    }

    /// 2D convolution of a `[N, C, H, W]` input with `[F, C, KH, KW]`
    /// filters and a `[F]` bias.
    ///
    /// # Panics
    ///
    /// Panics on rank or channel mismatches, or when the kernel (with
    /// padding) does not fit the input.
    pub fn conv2d(
        &mut self,
        input: NodeId,
        weight: NodeId,
        bias: NodeId,
        stride: usize,
        padding: usize,
    ) -> NodeId {
        assert!(stride > 0, "conv2d stride must be positive");
        let (vi, vw, vb) = (
            &self.nodes[input].value,
            &self.nodes[weight].value,
            &self.nodes[bias].value,
        );
        assert_eq!(vi.rank(), 4, "conv2d input must be [N, C, H, W]");
        assert_eq!(vw.rank(), 4, "conv2d weight must be [F, C, KH, KW]");
        assert_eq!(vb.rank(), 1, "conv2d bias must be [F]");
        let (batch, in_channels, in_h, in_w) =
            (vi.shape()[0], vi.shape()[1], vi.shape()[2], vi.shape()[3]);
        let (out_channels, w_c, k_h, k_w) =
            (vw.shape()[0], vw.shape()[1], vw.shape()[2], vw.shape()[3]);
        assert_eq!(in_channels, w_c, "conv2d channel mismatch");
        assert_eq!(vb.len(), out_channels, "conv2d bias length mismatch");
        let padded_h = in_h + 2 * padding;
        let padded_w = in_w + 2 * padding;
        assert!(
            padded_h >= k_h && padded_w >= k_w,
            "conv2d kernel larger than padded input"
        );
        let out_h = (padded_h - k_h) / stride + 1;
        let out_w = (padded_w - k_w) / stride + 1;
        let spec = Conv2dSpec {
            batch,
            in_channels,
            in_h,
            in_w,
            out_channels,
            k_h,
            k_w,
            stride,
            padding,
            out_h,
            out_w,
        };
        let value = conv2d_forward(vi, vw, vb, spec);
        self.push(value, Op::Conv2d(input, weight, bias, spec))
    }

    /// Runs reverse-mode differentiation from a scalar `loss` node,
    /// accumulating into every reachable [`Parameter`]'s gradient buffer.
    ///
    /// # Panics
    ///
    /// Panics when `loss` is not a single-element node.
    pub fn backward(&mut self, loss: NodeId) {
        assert_eq!(
            self.nodes[loss].value.len(),
            1,
            "backward requires a scalar loss node"
        );
        // Both the slot vector and every gradient buffer are checked out of
        // the graph's pool and returned before this call finishes, so
        // steady-state backward passes allocate nothing. Gradients are
        // moved into slots (not cloned) whenever they have a single
        // pending consumer.
        let mut pool = std::mem::take(&mut self.pool);
        let mut grads = std::mem::take(&mut self.grad_slots);
        grads.clear();
        grads.resize_with(self.nodes.len(), || None);
        // Requires-grad sweep: a node needs a gradient only if a Parameter
        // is somewhere beneath it. Gradients headed for pure-input subtrees
        // (e.g. dLoss/dX of the first layer's minibatch) are never computed
        // or stored. The buffer lives on the graph so steady state stays
        // allocation-free.
        let mut requires = std::mem::take(&mut self.requires);
        requires.clear();
        for node in &self.nodes {
            let req = match &node.op {
                Op::Input => false,
                Op::Param(_) => true,
                Op::Add(a, b)
                | Op::AddBias(a, b)
                | Op::Sub(a, b)
                | Op::Mul(a, b)
                | Op::MatMul(a, b)
                | Op::MatMulNT(a, b)
                | Op::MatMulTN(a, b)
                | Op::ConcatCols(a, b)
                | Op::RowScale(a, b)
                | Op::Minimum(a, b) => requires[*a] || requires[*b],
                Op::Neg(a)
                | Op::Scale(a, _)
                | Op::AddScalar(a)
                | Op::Transpose(a)
                | Op::Relu(a)
                | Op::Tanh(a)
                | Op::Sigmoid(a)
                | Op::Exp(a)
                | Op::Ln(a)
                | Op::Softplus(a)
                | Op::Clamp(a, _, _)
                | Op::Softmax(a)
                | Op::LogSoftmax(a)
                | Op::Sum(a)
                | Op::Mean(a)
                | Op::SumRows(a)
                | Op::SliceCols(a, _)
                | Op::Reshape(a) => requires[*a],
                Op::Conv2d(i, w, b, _) => requires[*i] || requires[*w] || requires[*b],
            };
            requires.push(req);
        }
        {
            let mut seed = pool.take(1);
            seed.push(1.0);
            grads[loss] = Some(Tensor::from_vec(
                self.nodes[loss].value.shape().to_vec(),
                seed,
            ));
        }

        for id in (0..self.nodes.len()).rev() {
            let Some(mut g) = grads[id].take() else { continue };
            match &self.nodes[id].op {
                Op::Input => pool.put(g.into_data()),
                Op::Param(p) => {
                    p.accumulate_grad(&g);
                    pool.put(g.into_data());
                }
                Op::Add(a, b) => {
                    let (a, b) = (*a, *b);
                    if a == b {
                        // Bit-identical to adding g twice: x * 2.0 == x + x.
                        g.scale_assign(2.0);
                        accumulate(&mut grads, &mut pool, &requires, a, g);
                    } else if grads[a].is_none() && grads[b].is_some() {
                        if let Some(gb) = grads[b].as_mut() {
                            gb.add_assign(&g);
                        }
                        grads[a] = Some(g);
                    } else {
                        if let Some(ga) = grads[a].as_mut() {
                            ga.add_assign(&g);
                        } else {
                            let mut data = pool.take(g.len());
                            data.extend_from_slice(g.data());
                            grads[a] = Some(Tensor::from_vec(g.shape().to_vec(), data));
                        }
                        accumulate(&mut grads, &mut pool, &requires, b, g);
                    }
                }
                Op::AddBias(a, bias) => {
                    let (a, bias) = (*a, *bias);
                    let n = self.nodes[id].value.shape()[1];
                    let m = self.nodes[id].value.shape()[0];
                    let mut gb = pool.take(n);
                    gb.resize(n, 0.0);
                    for i in 0..m {
                        for (gbj, &gv) in gb.iter_mut().zip(&g.data()[i * n..(i + 1) * n]) {
                            *gbj += gv;
                        }
                    }
                    accumulate(&mut grads, &mut pool, &requires, a, g);
                    accumulate(&mut grads, &mut pool, &requires, bias, Tensor::from_vec(vec![n], gb));
                }
                Op::Sub(a, b) => {
                    let (a, b) = (*a, *b);
                    let mut gneg = pool.take(g.len());
                    gneg.extend(g.data().iter().map(|x| -x));
                    let gneg = Tensor::from_vec(g.shape().to_vec(), gneg);
                    accumulate(&mut grads, &mut pool, &requires, a, g);
                    accumulate(&mut grads, &mut pool, &requires, b, gneg);
                }
                Op::Mul(a, b) => {
                    let (a, b) = (*a, *b);
                    let gb = elementwise_pooled(&mut pool, &g, &self.nodes[a].value, |g, x| g * x);
                    {
                        let vb = &self.nodes[b].value;
                        for (gv, &y) in g.data_mut().iter_mut().zip(vb.data()) {
                            *gv *= y;
                        }
                    }
                    accumulate(&mut grads, &mut pool, &requires, a, g);
                    accumulate(&mut grads, &mut pool, &requires, b, gb);
                }
                Op::Neg(a) => {
                    let a = *a;
                    for gv in g.data_mut() {
                        *gv = -*gv;
                    }
                    accumulate(&mut grads, &mut pool, &requires, a, g);
                }
                Op::Scale(a, f) => {
                    let (a, f) = (*a, *f);
                    for gv in g.data_mut() {
                        *gv *= f;
                    }
                    accumulate(&mut grads, &mut pool, &requires, a, g);
                }
                Op::AddScalar(a) => {
                    let a = *a;
                    accumulate(&mut grads, &mut pool, &requires, a, g);
                }
                Op::MatMul(a, b) => {
                    // dA = g · Bᵀ and dB = Aᵀ · g via the fused kernels —
                    // no transposes are materialized, and a side with no
                    // Parameter beneath it skips its kernel entirely.
                    let (a, b) = (*a, *b);
                    if requires[a] {
                        let ga = {
                            let (va, vb) = (&self.nodes[a].value, &self.nodes[b].value);
                            let mut ga_data = pool.take(va.len());
                            tensor_matmul_nt_into(&g, vb, &mut ga_data);
                            Tensor::from_vec(va.shape().to_vec(), ga_data)
                        };
                        accumulate(&mut grads, &mut pool, &requires, a, ga);
                    }
                    if requires[b] {
                        let gb = {
                            let (va, vb) = (&self.nodes[a].value, &self.nodes[b].value);
                            let mut gb_data = pool.take(vb.len());
                            tensor_matmul_tn_into(va, &g, &mut gb_data);
                            Tensor::from_vec(vb.shape().to_vec(), gb_data)
                        };
                        accumulate(&mut grads, &mut pool, &requires, b, gb);
                    }
                    pool.put(g.into_data());
                }
                Op::MatMulNT(a, b) => {
                    // C = A · Bᵀ: dA = g · B, dB = gᵀ · A.
                    let (a, b) = (*a, *b);
                    if requires[a] {
                        let ga = {
                            let (va, vb) = (&self.nodes[a].value, &self.nodes[b].value);
                            let mut ga_data = pool.take(va.len());
                            tensor_matmul_into(&g, vb, &mut ga_data);
                            Tensor::from_vec(va.shape().to_vec(), ga_data)
                        };
                        accumulate(&mut grads, &mut pool, &requires, a, ga);
                    }
                    if requires[b] {
                        let gb = {
                            let (va, vb) = (&self.nodes[a].value, &self.nodes[b].value);
                            let mut gb_data = pool.take(vb.len());
                            tensor_matmul_tn_into(&g, va, &mut gb_data);
                            Tensor::from_vec(vb.shape().to_vec(), gb_data)
                        };
                        accumulate(&mut grads, &mut pool, &requires, b, gb);
                    }
                    pool.put(g.into_data());
                }
                Op::MatMulTN(a, b) => {
                    // C = Aᵀ · B: dA = B · gᵀ, dB = A · g.
                    let (a, b) = (*a, *b);
                    if requires[a] {
                        let ga = {
                            let (va, vb) = (&self.nodes[a].value, &self.nodes[b].value);
                            let mut ga_data = pool.take(va.len());
                            tensor_matmul_nt_into(vb, &g, &mut ga_data);
                            Tensor::from_vec(va.shape().to_vec(), ga_data)
                        };
                        accumulate(&mut grads, &mut pool, &requires, a, ga);
                    }
                    if requires[b] {
                        let gb = {
                            let (va, vb) = (&self.nodes[a].value, &self.nodes[b].value);
                            let mut gb_data = pool.take(vb.len());
                            tensor_matmul_into(va, &g, &mut gb_data);
                            Tensor::from_vec(vb.shape().to_vec(), gb_data)
                        };
                        accumulate(&mut grads, &mut pool, &requires, b, gb);
                    }
                    pool.put(g.into_data());
                }
                Op::Transpose(a) => {
                    let a = *a;
                    let (p, q) = (g.shape()[0], g.shape()[1]);
                    let mut ga = pool.take(g.len());
                    ga.resize(g.len(), 0.0);
                    for i in 0..p {
                        for j in 0..q {
                            ga[j * p + i] = g.data()[i * q + j];
                        }
                    }
                    accumulate(&mut grads, &mut pool, &requires, a, Tensor::from_vec(vec![q, p], ga));
                    pool.put(g.into_data());
                }
                Op::Relu(a) => {
                    let a = *a;
                    {
                        let va = &self.nodes[a].value;
                        // A select, not a branch, so the loop vectorizes.
                        // `0.0` and `-0.0` zero the gradient; NaN keeps it.
                        for (gv, &x) in g.data_mut().iter_mut().zip(va.data()) {
                            *gv = if x <= 0.0 { 0.0 } else { *gv };
                        }
                    }
                    accumulate(&mut grads, &mut pool, &requires, a, g);
                }
                Op::Tanh(a) => {
                    let a = *a;
                    {
                        let y = &self.nodes[id].value;
                        for (gv, &yv) in g.data_mut().iter_mut().zip(y.data()) {
                            *gv *= 1.0 - yv * yv;
                        }
                    }
                    accumulate(&mut grads, &mut pool, &requires, a, g);
                }
                Op::Sigmoid(a) => {
                    let a = *a;
                    {
                        let y = &self.nodes[id].value;
                        for (gv, &yv) in g.data_mut().iter_mut().zip(y.data()) {
                            *gv = *gv * yv * (1.0 - yv);
                        }
                    }
                    accumulate(&mut grads, &mut pool, &requires, a, g);
                }
                Op::Exp(a) => {
                    let a = *a;
                    {
                        let y = &self.nodes[id].value;
                        for (gv, &yv) in g.data_mut().iter_mut().zip(y.data()) {
                            *gv *= yv;
                        }
                    }
                    accumulate(&mut grads, &mut pool, &requires, a, g);
                }
                Op::Ln(a) => {
                    let a = *a;
                    {
                        let va = &self.nodes[a].value;
                        for (gv, &x) in g.data_mut().iter_mut().zip(va.data()) {
                            *gv /= x.max(LN_EPS);
                        }
                    }
                    accumulate(&mut grads, &mut pool, &requires, a, g);
                }
                Op::Softplus(a) => {
                    let a = *a;
                    {
                        let va = &self.nodes[a].value;
                        for (gv, &x) in g.data_mut().iter_mut().zip(va.data()) {
                            *gv *= sigmoid(x);
                        }
                    }
                    accumulate(&mut grads, &mut pool, &requires, a, g);
                }
                Op::Clamp(a, lo, hi) => {
                    let (a, lo, hi) = (*a, *lo, *hi);
                    {
                        let va = &self.nodes[a].value;
                        for (gv, &x) in g.data_mut().iter_mut().zip(va.data()) {
                            if !(x > lo && x < hi) {
                                *gv = 0.0;
                            }
                        }
                    }
                    accumulate(&mut grads, &mut pool, &requires, a, g);
                }
                Op::Softmax(a) => {
                    let a = *a;
                    {
                        let y = &self.nodes[id].value;
                        let (m, n) = (y.shape()[0], y.shape()[1]);
                        for i in 0..m {
                            let yr = &y.data()[i * n..(i + 1) * n];
                            let gr = &mut g.data_mut()[i * n..(i + 1) * n];
                            let dot: f32 = yr.iter().zip(gr.iter()).map(|(y, g)| y * g).sum();
                            for (gv, &yv) in gr.iter_mut().zip(yr) {
                                *gv = yv * (*gv - dot);
                            }
                        }
                    }
                    accumulate(&mut grads, &mut pool, &requires, a, g);
                }
                Op::LogSoftmax(a) => {
                    let a = *a;
                    {
                        let y = &self.nodes[id].value;
                        let (m, n) = (y.shape()[0], y.shape()[1]);
                        for i in 0..m {
                            let yr = &y.data()[i * n..(i + 1) * n];
                            let gr = &mut g.data_mut()[i * n..(i + 1) * n];
                            let gsum: f32 = gr.iter().sum();
                            for (gv, &yv) in gr.iter_mut().zip(yr) {
                                *gv -= yv.exp() * gsum;
                            }
                        }
                    }
                    accumulate(&mut grads, &mut pool, &requires, a, g);
                }
                Op::Sum(a) => {
                    let a = *a;
                    let shape = self.nodes[a].value.shape().to_vec();
                    let len = self.nodes[a].value.len();
                    let mut ga = pool.take(len);
                    ga.resize(len, g.item());
                    accumulate(&mut grads, &mut pool, &requires, a, Tensor::from_vec(shape, ga));
                    pool.put(g.into_data());
                }
                Op::Mean(a) => {
                    let a = *a;
                    let shape = self.nodes[a].value.shape().to_vec();
                    let len = self.nodes[a].value.len();
                    let mut ga = pool.take(len);
                    ga.resize(len, g.item() / len as f32);
                    accumulate(&mut grads, &mut pool, &requires, a, Tensor::from_vec(shape, ga));
                    pool.put(g.into_data());
                }
                Op::SumRows(a) => {
                    let a = *a;
                    let (m, n) = {
                        let s = self.nodes[a].value.shape();
                        (s[0], s[1])
                    };
                    let mut ga = pool.take(m * n);
                    for i in 0..m {
                        let gi = g.data()[i];
                        ga.extend(std::iter::repeat(gi).take(n));
                    }
                    accumulate(&mut grads, &mut pool, &requires, a, Tensor::from_vec(vec![m, n], ga));
                    pool.put(g.into_data());
                }
                Op::ConcatCols(a, b) => {
                    let (a, b) = (*a, *b);
                    let na = self.nodes[a].value.shape()[1];
                    let nb = self.nodes[b].value.shape()[1];
                    let m = self.nodes[a].value.shape()[0];
                    let mut ga = pool.take(m * na);
                    let mut gb = pool.take(m * nb);
                    let n = na + nb;
                    for i in 0..m {
                        ga.extend_from_slice(&g.data()[i * n..i * n + na]);
                        gb.extend_from_slice(&g.data()[i * n + na..(i + 1) * n]);
                    }
                    accumulate(&mut grads, &mut pool, &requires, a, Tensor::from_vec(vec![m, na], ga));
                    accumulate(&mut grads, &mut pool, &requires, b, Tensor::from_vec(vec![m, nb], gb));
                    pool.put(g.into_data());
                }
                Op::SliceCols(a, range) => {
                    let (a, range) = (*a, range.clone());
                    let (m, n) = {
                        let s = self.nodes[a].value.shape();
                        (s[0], s[1])
                    };
                    let width = range.end - range.start;
                    let mut ga = pool.take(m * n);
                    ga.resize(m * n, 0.0);
                    for i in 0..m {
                        for j in 0..width {
                            ga[i * n + range.start + j] = g.data()[i * width + j];
                        }
                    }
                    accumulate(&mut grads, &mut pool, &requires, a, Tensor::from_vec(vec![m, n], ga));
                    pool.put(g.into_data());
                }
                Op::RowScale(a, w) => {
                    let (a, w) = (*a, *w);
                    let (m, n) = {
                        let s = self.nodes[a].value.shape();
                        (s[0], s[1])
                    };
                    let mut gw = pool.take(m);
                    gw.resize(m, 0.0);
                    {
                        let va = &self.nodes[a].value;
                        let vw = &self.nodes[w].value;
                        for i in 0..m {
                            let wi = vw.data()[i];
                            let grow = &mut g.data_mut()[i * n..(i + 1) * n];
                            let varow = &va.data()[i * n..(i + 1) * n];
                            for (gv, &xv) in grow.iter_mut().zip(varow) {
                                let gij = *gv;
                                *gv = gij * wi;
                                gw[i] += gij * xv;
                            }
                        }
                    }
                    accumulate(&mut grads, &mut pool, &requires, a, g);
                    accumulate(&mut grads, &mut pool, &requires, w, Tensor::from_vec(vec![m, 1], gw));
                }
                Op::Minimum(a, b) => {
                    let (a, b) = (*a, *b);
                    let mut gb = pool.take(g.len());
                    gb.resize(g.len(), 0.0);
                    {
                        let va = &self.nodes[a].value;
                        let vb = &self.nodes[b].value;
                        let gd = g.data_mut();
                        for i in 0..gd.len() {
                            if va.data()[i] > vb.data()[i] {
                                gb[i] = gd[i];
                                gd[i] = 0.0;
                            }
                        }
                    }
                    let shape = g.shape().to_vec();
                    accumulate(&mut grads, &mut pool, &requires, a, g);
                    accumulate(&mut grads, &mut pool, &requires, b, Tensor::from_vec(shape, gb));
                }
                Op::Reshape(a) => {
                    let a = *a;
                    let shape = self.nodes[a].value.shape().to_vec();
                    let ga = Tensor::from_vec(shape, g.into_data());
                    accumulate(&mut grads, &mut pool, &requires, a, ga);
                }
                Op::Conv2d(input, weight, bias, spec) => {
                    let (input, weight, bias, spec) = (*input, *weight, *bias, *spec);
                    let (gi, gw, gb) = conv2d_backward(
                        &g,
                        &self.nodes[input].value,
                        &self.nodes[weight].value,
                        spec,
                    );
                    accumulate(&mut grads, &mut pool, &requires, input, gi);
                    accumulate(&mut grads, &mut pool, &requires, weight, gw);
                    accumulate(&mut grads, &mut pool, &requires, bias, gb);
                    pool.put(g.into_data());
                }
            }
        }

        self.grad_slots = grads;
        self.pool = pool;
        self.requires = requires;
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Graph({} nodes)", self.nodes.len())
    }
}

/// Accumulate `g` into `grads[id]`. Takes ownership: the tensor is moved
/// into an empty slot, and its buffer returns to the pool when the slot is
/// already occupied (the common two-consumer case adds in place).
///
/// Gradients headed for nodes with no Parameter beneath them (`requires[id]`
/// false — Inputs and pure-input subtrees) are recycled instead of stored:
/// nothing downstream will ever read them.
fn accumulate(
    grads: &mut [Option<Tensor>],
    pool: &mut TensorPool,
    requires: &[bool],
    id: NodeId,
    g: Tensor,
) {
    if !requires[id] {
        pool.put(g.into_data());
        return;
    }
    match &mut grads[id] {
        Some(existing) => {
            existing.add_assign(&g);
            pool.put(g.into_data());
        }
        slot => *slot = Some(g),
    }
}

fn elementwise_pooled(
    pool: &mut TensorPool,
    g: &Tensor,
    other: &Tensor,
    f: impl Fn(f32, f32) -> f32,
) -> Tensor {
    debug_assert_eq!(g.shape(), other.shape());
    let mut data = pool.take(g.len());
    data.extend(g.data().iter().zip(other.data()).map(|(&a, &b)| f(a, b)));
    Tensor::from_vec(g.shape().to_vec(), data)
}

fn rowwise_into(t: &Tensor, out: &mut [f32], f: impl Fn(&[f32], &mut [f32])) {
    let (m, n) = (t.shape()[0], t.shape()[1]);
    for i in 0..m {
        f(&t.data()[i * n..(i + 1) * n], &mut out[i * n..(i + 1) * n]);
    }
}

fn softmax_row(row: &[f32], out: &mut [f32]) {
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for (o, &x) in out.iter_mut().zip(row) {
        *o = (x - max).exp();
        sum += *o;
    }
    for o in out.iter_mut() {
        *o /= sum;
    }
}

fn log_softmax_row(row: &[f32], out: &mut [f32]) {
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let log_sum: f32 = row.iter().map(|&x| (x - max).exp()).sum::<f32>().ln();
    for (o, &x) in out.iter_mut().zip(row) {
        *o = x - max - log_sum;
    }
}

pub(crate) fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

fn softplus(x: f32) -> f32 {
    x.max(0.0) + (-x.abs()).exp().ln_1p()
}

fn conv2d_forward(input: &Tensor, weight: &Tensor, bias: &Tensor, s: Conv2dSpec) -> Tensor {
    let mut out = vec![0.0f32; s.batch * s.out_channels * s.out_h * s.out_w];
    let in_plane = s.in_h * s.in_w;
    let out_plane = s.out_h * s.out_w;
    for n in 0..s.batch {
        for f in 0..s.out_channels {
            for oy in 0..s.out_h {
                for ox in 0..s.out_w {
                    let mut acc = bias.data()[f];
                    for c in 0..s.in_channels {
                        for ky in 0..s.k_h {
                            let iy = (oy * s.stride + ky) as isize - s.padding as isize;
                            if iy < 0 || iy >= s.in_h as isize {
                                continue;
                            }
                            for kx in 0..s.k_w {
                                let ix = (ox * s.stride + kx) as isize - s.padding as isize;
                                if ix < 0 || ix >= s.in_w as isize {
                                    continue;
                                }
                                let ival = input.data()[n * s.in_channels * in_plane
                                    + c * in_plane
                                    + iy as usize * s.in_w
                                    + ix as usize];
                                let wval = weight.data()[f * s.in_channels * s.k_h * s.k_w
                                    + c * s.k_h * s.k_w
                                    + ky * s.k_w
                                    + kx];
                                acc += ival * wval;
                            }
                        }
                    }
                    out[n * s.out_channels * out_plane + f * out_plane + oy * s.out_w + ox] = acc;
                }
            }
        }
    }
    Tensor::from_vec(vec![s.batch, s.out_channels, s.out_h, s.out_w], out)
}

fn conv2d_backward(
    g: &Tensor,
    input: &Tensor,
    weight: &Tensor,
    s: Conv2dSpec,
) -> (Tensor, Tensor, Tensor) {
    let in_plane = s.in_h * s.in_w;
    let out_plane = s.out_h * s.out_w;
    let mut gi = vec![0.0f32; input.len()];
    let mut gw = vec![0.0f32; weight.len()];
    let mut gb = vec![0.0f32; s.out_channels];
    for n in 0..s.batch {
        for f in 0..s.out_channels {
            for oy in 0..s.out_h {
                for ox in 0..s.out_w {
                    let go =
                        g.data()[n * s.out_channels * out_plane + f * out_plane + oy * s.out_w + ox];
                    if go == 0.0 {
                        continue;
                    }
                    gb[f] += go;
                    for c in 0..s.in_channels {
                        for ky in 0..s.k_h {
                            let iy = (oy * s.stride + ky) as isize - s.padding as isize;
                            if iy < 0 || iy >= s.in_h as isize {
                                continue;
                            }
                            for kx in 0..s.k_w {
                                let ix = (ox * s.stride + kx) as isize - s.padding as isize;
                                if ix < 0 || ix >= s.in_w as isize {
                                    continue;
                                }
                                let i_idx = n * s.in_channels * in_plane
                                    + c * in_plane
                                    + iy as usize * s.in_w
                                    + ix as usize;
                                let w_idx = f * s.in_channels * s.k_h * s.k_w
                                    + c * s.k_h * s.k_w
                                    + ky * s.k_w
                                    + kx;
                                gi[i_idx] += go * weight.data()[w_idx];
                                gw[w_idx] += go * input.data()[i_idx];
                            }
                        }
                    }
                }
            }
        }
    }
    (
        Tensor::from_vec(input.shape().to_vec(), gi),
        Tensor::from_vec(weight.shape().to_vec(), gw),
        Tensor::from_vec(vec![s.out_channels], gb),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar_input(g: &mut Graph, v: f32) -> NodeId {
        g.input(Tensor::from_vec(vec![1, 1], vec![v]))
    }

    #[test]
    fn add_and_backward_through_param() {
        let p = Parameter::new("p", Tensor::from_vec(vec![1, 1], vec![5.0]));
        let mut g = Graph::new();
        let x = scalar_input(&mut g, 2.0);
        let pn = g.param(&p);
        let y = g.add(x, pn);
        let loss = g.sum(y);
        g.backward(loss);
        assert_eq!(g.value(y).item(), 7.0);
        assert_eq!(p.grad().item(), 1.0);
    }

    #[test]
    fn grads_accumulate_across_backward_calls() {
        let p = Parameter::new("p", Tensor::from_vec(vec![1, 1], vec![1.0]));
        for _ in 0..3 {
            let mut g = Graph::new();
            let pn = g.param(&p);
            let loss = g.sum(pn);
            g.backward(loss);
        }
        assert_eq!(p.grad().item(), 3.0);
        p.zero_grad();
        assert_eq!(p.grad().item(), 0.0);
    }

    #[test]
    fn shared_param_used_twice_accumulates_both_paths() {
        // loss = p * p => dloss/dp = 2p
        let p = Parameter::new("p", Tensor::from_vec(vec![1, 1], vec![3.0]));
        let mut g = Graph::new();
        let a = g.param(&p);
        let b = g.param(&p);
        let y = g.mul(a, b);
        let loss = g.sum(y);
        g.backward(loss);
        assert_eq!(p.grad().item(), 6.0);
    }

    #[test]
    fn matmul_gradients_match_manual() {
        // loss = sum(A @ B); dA = 1 @ B^T, dB = A^T @ 1
        let a = Parameter::new("a", Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]));
        let b = Parameter::new("b", Tensor::from_vec(vec![2, 2], vec![5.0, 6.0, 7.0, 8.0]));
        let mut g = Graph::new();
        let an = g.param(&a);
        let bn = g.param(&b);
        let y = g.matmul(an, bn);
        let loss = g.sum(y);
        g.backward(loss);
        assert_eq!(a.grad().data(), &[11.0, 15.0, 11.0, 15.0]);
        assert_eq!(b.grad().data(), &[4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]));
        let y = g.softmax(x);
        for i in 0..2 {
            let s: f32 = g.value(y).row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn log_softmax_matches_softmax_log() {
        let mut g = Graph::new();
        let t = Tensor::from_vec(vec![1, 4], vec![0.5, -1.0, 2.0, 0.0]);
        let x = g.input(t.clone());
        let x2 = g.input(t);
        let ls = g.log_softmax(x);
        let sm = g.softmax(x2);
        for j in 0..4 {
            assert!((g.value(ls).data()[j] - g.value(sm).data()[j].ln()).abs() < 1e-5);
        }
    }

    #[test]
    fn minimum_routes_gradient_to_smaller() {
        let a = Parameter::new("a", Tensor::from_vec(vec![1, 2], vec![1.0, 5.0]));
        let b = Parameter::new("b", Tensor::from_vec(vec![1, 2], vec![2.0, 4.0]));
        let mut g = Graph::new();
        let an = g.param(&a);
        let bn = g.param(&b);
        let m = g.minimum(an, bn);
        let loss = g.sum(m);
        g.backward(loss);
        assert_eq!(a.grad().data(), &[1.0, 0.0]);
        assert_eq!(b.grad().data(), &[0.0, 1.0]);
    }

    #[test]
    fn concat_and_slice_roundtrip_gradients() {
        let a = Parameter::new("a", Tensor::from_vec(vec![2, 2], vec![1.0; 4]));
        let b = Parameter::new("b", Tensor::from_vec(vec![2, 1], vec![1.0; 2]));
        let mut g = Graph::new();
        let an = g.param(&a);
        let bn = g.param(&b);
        let c = g.concat_cols(an, bn);
        assert_eq!(g.value(c).shape(), &[2, 3]);
        let right = g.slice_cols(c, 2..3);
        let loss = g.sum(right);
        g.backward(loss);
        assert_eq!(a.grad().data(), &[0.0; 4]);
        assert_eq!(b.grad().data(), &[1.0, 1.0]);
    }

    #[test]
    fn row_scale_weights_gradient() {
        let a = Parameter::new("a", Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]));
        let w = Parameter::new("w", Tensor::from_vec(vec![2, 1], vec![10.0, 20.0]));
        let mut g = Graph::new();
        let an = g.param(&a);
        let wn = g.param(&w);
        let y = g.row_scale(an, wn);
        let loss = g.sum(y);
        g.backward(loss);
        assert_eq!(a.grad().data(), &[10.0, 10.0, 20.0, 20.0]);
        assert_eq!(w.grad().data(), &[3.0, 7.0]);
    }

    #[test]
    fn clamp_blocks_gradient_outside_range() {
        let p = Parameter::new("p", Tensor::from_vec(vec![1, 3], vec![-5.0, 0.5, 5.0]));
        let mut g = Graph::new();
        let pn = g.param(&p);
        let c = g.clamp(pn, -1.0, 1.0);
        let loss = g.sum(c);
        g.backward(loss);
        assert_eq!(p.grad().data(), &[0.0, 1.0, 0.0]);
        assert_eq!(g.value(c).data(), &[-1.0, 0.5, 1.0]);
    }

    #[test]
    fn conv2d_known_values() {
        // 1x1x3x3 input, single 2x2 filter of ones, stride 1, no padding:
        // each output is the sum of a 2x2 patch.
        let mut g = Graph::new();
        let input = g.input(Tensor::from_vec(
            vec![1, 1, 3, 3],
            (1..=9).map(|v| v as f32).collect(),
        ));
        let weight = g.input(Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0; 4]));
        let bias = g.input(Tensor::from_vec(vec![1], vec![0.0]));
        let y = g.conv2d(input, weight, bias, 1, 0);
        assert_eq!(g.value(y).shape(), &[1, 1, 2, 2]);
        assert_eq!(g.value(y).data(), &[12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn conv2d_padding_preserves_size() {
        let mut g = Graph::new();
        let input = g.input(Tensor::ones(vec![2, 1, 4, 4]));
        let weight = g.input(Tensor::ones(vec![3, 1, 3, 3]));
        let bias = g.input(Tensor::zeros(vec![3]));
        let y = g.conv2d(input, weight, bias, 1, 1);
        assert_eq!(g.value(y).shape(), &[2, 3, 4, 4]);
        // Center cells see the full 3x3 = 9 ones.
        assert_eq!(g.value(y).get(&[0, 0, 1, 1]), 9.0);
        // Corner cells see a 2x2 patch.
        assert_eq!(g.value(y).get(&[0, 0, 0, 0]), 4.0);
    }

    #[test]
    fn conv2d_bias_gradient_counts_outputs() {
        let w = Parameter::new("w", Tensor::ones(vec![1, 1, 2, 2]));
        let b = Parameter::new("b", Tensor::zeros(vec![1]));
        let mut g = Graph::new();
        let input = g.input(Tensor::ones(vec![1, 1, 3, 3]));
        let wn = g.param(&w);
        let bn = g.param(&b);
        let y = g.conv2d(input, wn, bn, 1, 0);
        let loss = g.sum(y);
        g.backward(loss);
        // 2x2 output positions each contribute 1 to the bias gradient.
        assert_eq!(b.grad().item(), 4.0);
        // Every weight sees 4 patches of ones.
        assert_eq!(w.grad().data(), &[4.0; 4]);
    }

    #[test]
    fn copy_params_hard_update() {
        let src = vec![Parameter::new("s", Tensor::from_slice(&[1.0, 2.0]))];
        let dst = vec![Parameter::new("d", Tensor::from_slice(&[0.0, 0.0]))];
        copy_params(&src, &dst);
        assert_eq!(dst[0].value().data(), &[1.0, 2.0]);
        assert!(!src[0].same_storage(&dst[0]));
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_rejects_non_scalar() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(vec![1, 2], vec![1.0, 2.0]));
        g.backward(x);
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// The row-wise bias add equals the per-element `x + b` it replaced,
    /// bit for bit, on signed zeros and NaN.
    #[test]
    fn add_bias_matches_the_per_element_sum_bitwise() {
        const NAN: f32 = f32::NAN;
        let x = [
            0.0, -0.0, 0.0, NAN, -0.0, 0.0, -0.0, -0.0, NAN, -0.0, 1.0, -1.0,
        ];
        let bias = [-0.0, 0.0, NAN, 1.0];
        let mut g = Graph::new();
        let xn = g.input(Tensor::from_vec(vec![3, 4], x.to_vec()));
        let bn = g.input(Tensor::from_slice(&bias));
        let y = g.add_bias(xn, bn);
        let want: Vec<u32> = (0..12).map(|i| (x[i] + bias[i % 4]).to_bits()).collect();
        assert_eq!(bits(g.value(y)), want);
    }

    /// The select in the ReLU backward keeps the gradients the branch it
    /// replaced kept: `0.0` and `-0.0` inputs zero theirs, NaN keeps its
    /// own.
    #[test]
    fn relu_backward_matches_the_branch_bitwise() {
        const INF: f32 = f32::INFINITY;
        let x = [0.0, -0.0, f32::NAN, 1.5, -2.0, INF, -INF, 1e-40];
        let upstream = [0.5, -3.0, 2.0, -0.25, 7.0, -1.0, 4.0, -8.0];
        let p = Parameter::new("x", Tensor::from_vec(vec![2, 4], x.to_vec()));
        let mut g = Graph::new();
        let xn = g.param(&p);
        let un = g.input(Tensor::from_vec(vec![2, 4], upstream.to_vec()));
        let y = g.relu(xn);
        let scaled = g.mul(y, un);
        let loss = g.sum(scaled);
        g.backward(loss);
        let want: Vec<u32> = x
            .iter()
            .zip(upstream)
            .map(|(&x, mut gv)| {
                if x <= 0.0 {
                    gv = 0.0;
                }
                gv.to_bits()
            })
            .collect();
        assert_eq!(bits(&p.grad()), want);
    }
}
