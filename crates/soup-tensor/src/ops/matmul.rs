//! Dense matrix product with autograd.

use crate::tape::{Tape, Var};

impl Tape {
    /// `a (m,k) × b (k,n)`.
    ///
    /// Backward: `∂L/∂a = g bᵀ`, `∂L/∂b = aᵀ g` — each side is computed
    /// only if gradients actually flow there. The pruning matters for
    /// Learned Souping, where layer inputs can be constants (the feature
    /// matrix) while only the soup-mixed weights carry gradient: skipping
    /// `g bᵀ` saves an `(n × f)` GEMM per layer per epoch.
    pub fn matmul(&self, a: Var, b: Var) -> Var {
        let out = self.value(a).matmul(&self.value(b));
        let need_a = self.requires_grad(a);
        let need_b = self.requires_grad(b);
        self.push_op(
            out,
            vec![a, b],
            Box::new(move |g, parents, _| {
                let ga = need_a.then(|| g.matmul_nt(&parents[1]));
                let gb = need_b.then(|| parents[0].matmul_tn(g));
                vec![ga, gb]
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::rng::SplitMix64;
    use crate::tape::{gradcheck, Tape};
    use crate::tensor::Tensor;

    #[test]
    fn forward_matches_tensor_matmul() {
        let mut rng = SplitMix64::new(1);
        let a = Tensor::randn(3, 5, 1.0, &mut rng);
        let b = Tensor::randn(5, 2, 1.0, &mut rng);
        let tape = Tape::new();
        let va = tape.constant(a.clone());
        let vb = tape.constant(b.clone());
        let y = tape.matmul(va, vb);
        assert!(tape.value(y).allclose(&a.matmul(&b), 1e-6));
    }

    #[test]
    fn gradcheck_both_sides() {
        let mut rng = SplitMix64::new(2);
        let a = Tensor::randn(4, 3, 0.5, &mut rng);
        let b = Tensor::randn(3, 5, 0.5, &mut rng);
        gradcheck(&|t, v| t.sum(t.matmul(v[0], v[1])), &[a, b], 1e-2, 2e-2).unwrap();
    }

    #[test]
    fn gradcheck_chained_matmul() {
        let mut rng = SplitMix64::new(3);
        let a = Tensor::randn(2, 3, 0.5, &mut rng);
        let b = Tensor::randn(3, 3, 0.5, &mut rng);
        let c = Tensor::randn(3, 2, 0.5, &mut rng);
        gradcheck(
            &|t, v| t.sum(t.matmul(t.matmul(v[0], v[1]), v[2])),
            &[a, b, c],
            1e-2,
            3e-2,
        )
        .unwrap();
    }

    #[test]
    fn grad_of_constant_side_not_materialised() {
        let tape = Tape::new();
        let a = tape.constant(Tensor::ones(2, 2));
        let b = tape.param(Tensor::ones(2, 2));
        let y = tape.sum(tape.matmul(a, b));
        let g = tape.backward(y);
        assert!(g.get(a).is_none());
        assert_eq!(g.get(b).unwrap().data(), &[2.0; 4]);
    }
}
