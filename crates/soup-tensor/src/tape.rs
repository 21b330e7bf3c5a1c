//! Define-by-run reverse-mode automatic differentiation.
//!
//! A [`Tape`] records every operation of one forward pass as a `Node`
//! holding the output value, the parent variables, and a backward closure.
//! [`Tape::backward`] then walks the nodes in reverse creation order —
//! which is a valid reverse topological order because parents are always
//! created before children — accumulating gradients.
//!
//! This is exactly the machinery Learned Souping needs: the soup's forward
//! pass (Eq. 3) is recorded through the ingredient-weighted sum and the GNN
//! layers, and `backward` produces ∂L/∂α (Eq. 4) for the optimizer.
//!
//! Design notes:
//! - One tape per training step; tapes are cheap to build and dropped
//!   whole, which also releases all intermediate activations (and their
//!   device-memory accounting) at once.
//! - Tape construction is single-threaded (`RefCell`), mirroring one CUDA
//!   stream; the *kernels inside* each op run their static chunks on the
//!   fork-join pool ([`crate::parallel`]), bitwise independent of the
//!   thread count.
//! - Gradient pruning: a node only stores a backward closure if some
//!   ancestor requires gradients. In LS, ingredient weights are constants
//!   and only the interpolation parameters are differentiable, so backward
//!   touches a tiny slice of the graph.

use crate::tensor::Tensor;
use std::cell::RefCell;

/// Handle to a value recorded on a [`Tape`]. Cheap to copy; only valid for
/// the tape that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var {
    pub(crate) id: usize,
}

impl Var {
    /// Raw node index (diagnostics only).
    pub fn id(&self) -> usize {
        self.id
    }
}

/// Backward closure: `(grad_out, parent_values, out_value) -> parent_grads`.
/// Returning `None` for a parent means "no gradient flows there" (constant
/// or structurally zero).
pub(crate) type GradFn = Box<dyn Fn(&Tensor, &[Tensor], &Tensor) -> Vec<Option<Tensor>>>;

pub(crate) struct Node {
    pub(crate) value: Tensor,
    pub(crate) parents: Vec<Var>,
    pub(crate) grad_fn: Option<GradFn>,
    pub(crate) requires_grad: bool,
}

/// The autograd tape. See module docs.
pub struct Tape {
    nodes: RefCell<Vec<Node>>,
}

impl Tape {
    pub fn new() -> Self {
        Self {
            nodes: RefCell::new(Vec::new()),
        }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Record a constant leaf: no gradient will ever flow into it.
    pub fn constant(&self, value: Tensor) -> Var {
        self.push(value, Vec::new(), None, false)
    }

    /// Record a differentiable leaf (a trainable parameter).
    pub fn param(&self, value: Tensor) -> Var {
        self.push(value, Vec::new(), None, true)
    }

    /// The forward value of `v` (cheap Arc clone).
    pub fn value(&self, v: Var) -> Tensor {
        self.nodes.borrow()[v.id].value.clone()
    }

    /// Whether gradients flow into `v`.
    pub fn requires_grad(&self, v: Var) -> bool {
        self.nodes.borrow()[v.id].requires_grad
    }

    /// Internal: record an op output. `requires_grad` of the node is the OR
    /// over parents (leaves pass their own flag via `leaf_requires`).
    pub(crate) fn push(
        &self,
        value: Tensor,
        parents: Vec<Var>,
        grad_fn: Option<GradFn>,
        leaf_requires: bool,
    ) -> Var {
        let mut nodes = self.nodes.borrow_mut();
        let requires = leaf_requires
            || parents.iter().any(|p| {
                debug_assert!(p.id < nodes.len(), "parent Var from another tape");
                nodes[p.id].requires_grad
            });
        // Drop the closure entirely when no ancestor needs gradients: the
        // backward walk skips the node and its captured buffers free early.
        let grad_fn = if requires { grad_fn } else { None };
        nodes.push(Node {
            value,
            parents,
            grad_fn,
            requires_grad: requires,
        });
        Var {
            id: nodes.len() - 1,
        }
    }

    /// Convenience used by op implementations.
    pub(crate) fn push_op(&self, value: Tensor, parents: Vec<Var>, grad_fn: GradFn) -> Var {
        self.push(value, parents, Some(grad_fn), false)
    }

    /// Reverse-mode sweep from `root`.
    ///
    /// The root is seeded with all-ones (for the scalar losses used in this
    /// workspace that is the conventional dL/dL = 1).
    pub fn backward(&self, root: Var) -> Grads {
        let nodes = self.nodes.borrow();
        assert!(root.id < nodes.len(), "backward root not on this tape");
        let mut grads: Vec<Option<Tensor>> = vec![None; nodes.len()];
        let seed = {
            let v = &nodes[root.id].value;
            Tensor::ones(v.rows(), v.cols())
        };
        grads[root.id] = Some(seed);

        for id in (0..=root.id).rev() {
            let node = &nodes[id];
            if !node.requires_grad {
                continue;
            }
            let Some(grad_out) = grads[id].clone() else {
                continue;
            };
            let Some(grad_fn) = &node.grad_fn else {
                continue;
            };
            let parent_vals: Vec<Tensor> = node
                .parents
                .iter()
                .map(|p| nodes[p.id].value.clone())
                .collect();
            let parent_grads = grad_fn(&grad_out, &parent_vals, &node.value);
            debug_assert_eq!(
                parent_grads.len(),
                node.parents.len(),
                "grad_fn returned {} grads for {} parents",
                parent_grads.len(),
                node.parents.len()
            );
            for (parent, g) in node.parents.iter().zip(parent_grads) {
                let Some(g) = g else { continue };
                if !nodes[parent.id].requires_grad {
                    continue;
                }
                debug_assert_eq!(
                    g.shape(),
                    nodes[parent.id].value.shape(),
                    "gradient shape {} != value shape {} at node {}",
                    g.shape(),
                    nodes[parent.id].value.shape(),
                    parent.id
                );
                grads[parent.id] = Some(match grads[parent.id].take() {
                    Some(acc) => acc.add(&g),
                    None => g,
                });
            }
        }
        Grads { grads }
    }
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

/// Gradients produced by [`Tape::backward`], indexed by [`Var`].
pub struct Grads {
    grads: Vec<Option<Tensor>>,
}

impl Grads {
    /// Gradient of the loss w.r.t. `v`, if any flowed there.
    pub fn get(&self, v: Var) -> Option<&Tensor> {
        self.grads.get(v.id).and_then(|g| g.as_ref())
    }

    /// Gradient or an explicit zero tensor of `like`'s shape.
    pub fn get_or_zeros(&self, v: Var, like: &Tensor) -> Tensor {
        self.get(v)
            .cloned()
            .unwrap_or_else(|| Tensor::zeros(like.rows(), like.cols()))
    }
}

/// Finite-difference gradient check used by the op test-suites.
///
/// `f` rebuilds the forward pass from scratch on a fresh tape given leaf
/// parameters; we compare its analytic gradients against central
/// differences. Exposed (not test-gated) so downstream crates can gradcheck
/// their own composite ops.
pub fn gradcheck(
    f: &dyn Fn(&Tape, &[Var]) -> Var,
    params: &[Tensor],
    eps: f32,
    tol: f32,
) -> soup_error::Result<()> {
    // Analytic gradients.
    let tape = Tape::new();
    let vars: Vec<Var> = params.iter().map(|p| tape.param(p.clone())).collect();
    let out = f(&tape, &vars);
    let out_val = tape.value(out);
    if !out_val.shape().is_scalar() {
        return Err(soup_error::SoupError::shape(format!(
            "gradcheck requires scalar output, got {}",
            out_val.shape()
        )));
    }
    let grads = tape.backward(out);

    for (pi, p) in params.iter().enumerate() {
        let analytic = grads.get_or_zeros(vars[pi], p);
        for i in 0..p.len() {
            let mut plus = p.clone();
            plus.make_mut()[i] += eps;
            let mut minus = p.clone();
            minus.make_mut()[i] -= eps;

            let eval = |perturbed: Tensor| -> f32 {
                let t = Tape::new();
                let vs: Vec<Var> = params
                    .iter()
                    .enumerate()
                    .map(|(j, q)| {
                        t.param(if j == pi {
                            perturbed.clone()
                        } else {
                            q.clone()
                        })
                    })
                    .collect();
                t.value(f(&t, &vs)).item()
            };
            let numeric = (eval(plus) - eval(minus)) / (2.0 * eps);
            let a = analytic.data()[i];
            let denom = 1.0f32.max(a.abs()).max(numeric.abs());
            if (a - numeric).abs() / denom > tol {
                return Err(soup_error::SoupError::numeric(format!(
                    "param {pi} elem {i}: analytic {a} vs numeric {numeric}"
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn constant_has_no_grad() {
        let tape = Tape::new();
        let c = tape.constant(Tensor::scalar(3.0));
        assert!(!tape.requires_grad(c));
        let grads = tape.backward(c);
        // Root gets the seed but constants below it receive nothing; the
        // root itself is the only node.
        assert!(grads.get(c).is_some());
    }

    #[test]
    fn param_identity_grad_is_one() {
        let tape = Tape::new();
        let p = tape.param(Tensor::scalar(2.0));
        let grads = tape.backward(p);
        assert_eq!(grads.get(p).unwrap().item(), 1.0);
    }

    #[test]
    fn chain_and_accumulate() {
        // y = x + x => dy/dx = 2 through gradient accumulation.
        let tape = Tape::new();
        let x = tape.param(Tensor::scalar(5.0));
        let y = tape.add(x, x);
        let grads = tape.backward(y);
        assert_eq!(grads.get(x).unwrap().item(), 2.0);
    }

    #[test]
    fn pruned_subgraph_skips_backward() {
        let tape = Tape::new();
        let a = tape.constant(Tensor::scalar(1.0));
        let b = tape.constant(Tensor::scalar(2.0));
        let c = tape.mul(a, b); // no param upstream -> pruned
        assert!(!tape.requires_grad(c));
        let p = tape.param(Tensor::scalar(3.0));
        let d = tape.mul(c, p);
        let grads = tape.backward(d);
        assert_eq!(grads.get(p).unwrap().item(), 2.0);
        assert!(grads.get(a).is_none());
        assert!(grads.get(b).is_none());
    }

    #[test]
    fn gradcheck_product_chain() {
        let mut rng = SplitMix64::new(1);
        let a = Tensor::randn(3, 4, 1.0, &mut rng);
        let b = Tensor::randn(4, 2, 1.0, &mut rng);
        gradcheck(
            &|t, vs| {
                let y = t.matmul(vs[0], vs[1]);
                t.sum(y)
            },
            &[a, b],
            1e-2,
            2e-2,
        )
        .unwrap();
    }

    #[test]
    fn gradcheck_rejects_nonscalar() {
        let a = Tensor::ones(2, 2);
        let err = gradcheck(&|_, vs| vs[0], &[a], 1e-2, 1e-2).unwrap_err();
        assert_eq!(err.kind(), "shape");
        assert!(err.to_string().contains("scalar"));
    }

    #[test]
    fn backward_of_deep_chain() {
        // y = ((x*2)*2)*2... 10 times => dy/dx = 2^10
        let tape = Tape::new();
        let x = tape.param(Tensor::scalar(1.0));
        let mut y = x;
        for _ in 0..10 {
            y = tape.scale(y, 2.0);
        }
        let grads = tape.backward(y);
        assert_eq!(grads.get(x).unwrap().item(), 1024.0);
    }

    #[test]
    fn get_or_zeros_for_untouched_param() {
        let tape = Tape::new();
        let used = tape.param(Tensor::scalar(1.0));
        let unused = tape.param(Tensor::ones(2, 3));
        let y = tape.scale(used, 3.0);
        let grads = tape.backward(y);
        assert!(grads.get(unused).is_none());
        let z = grads.get_or_zeros(unused, &Tensor::ones(2, 3));
        assert_eq!(z.sum(), 0.0);
        assert_eq!(z.shape(), crate::Shape::new(2, 3));
    }
}
