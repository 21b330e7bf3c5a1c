//! Inverted dropout.

use crate::rng::SplitMix64;
use crate::tape::{Tape, Var};
use crate::tensor::Tensor;

impl Tape {
    /// Inverted dropout: keeps each element with probability `1 - p` and
    /// rescales by `1/(1-p)` so that expectations match at evaluation time.
    /// When `training` is false this is the identity (no node recorded
    /// beyond a pass-through).
    pub fn dropout(&self, x: Var, p: f32, training: bool, rng: &mut SplitMix64) -> Var {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout p must be in [0,1), got {p}"
        );
        if !training || p == 0.0 {
            return x;
        }
        let xv = self.value(x);
        let keep = 1.0 - p;
        let inv = 1.0 / keep;
        let mut mask = crate::pool::take_scratch(xv.len());
        mask.iter_mut()
            .for_each(|m| *m = if rng.next_f32() < keep { inv } else { 0.0 });
        let mask = Tensor::from_vec(xv.rows(), xv.cols(), mask);
        let out = xv.mul(&mask);
        self.push_op(
            out,
            vec![x],
            Box::new(move |g, _, _| vec![Some(g.mul(&mask))]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_mode_is_identity() {
        let mut rng = SplitMix64::new(1);
        let tape = Tape::new();
        let x = tape.constant(Tensor::ones(4, 4));
        let y = tape.dropout(x, 0.5, false, &mut rng);
        assert_eq!(x, y, "eval-mode dropout should return the same Var");
    }

    #[test]
    fn p_zero_is_identity() {
        let mut rng = SplitMix64::new(2);
        let tape = Tape::new();
        let x = tape.constant(Tensor::ones(4, 4));
        let y = tape.dropout(x, 0.0, true, &mut rng);
        assert_eq!(x, y);
    }

    #[test]
    fn preserves_expectation() {
        let mut rng = SplitMix64::new(3);
        let tape = Tape::new();
        let x = tape.constant(Tensor::ones(200, 200));
        let y = tape.dropout(x, 0.3, true, &mut rng);
        let mean = tape.value(y).mean();
        assert!((mean - 1.0).abs() < 0.02, "mean={mean}");
    }

    #[test]
    fn zeros_fraction_matches_p() {
        let mut rng = SplitMix64::new(4);
        let tape = Tape::new();
        let x = tape.constant(Tensor::ones(100, 100));
        let y = tape.dropout(x, 0.4, true, &mut rng);
        let zeros = tape.value(y).data().iter().filter(|&&v| v == 0.0).count();
        let frac = zeros as f32 / 10_000.0;
        assert!((frac - 0.4).abs() < 0.03, "frac={frac}");
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut rng = SplitMix64::new(5);
        let tape = Tape::new();
        let x = tape.param(Tensor::ones(10, 10));
        let y = tape.dropout(x, 0.5, true, &mut rng);
        let loss = tape.sum(y);
        let g = tape.backward(loss);
        let gx = g.get(x).unwrap();
        let yv = tape.value(y);
        // Gradient must be exactly the mask (since d(sum)/dy = 1).
        assert_eq!(gx.data(), yv.data());
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut rng = SplitMix64::new(seed);
            let tape = Tape::new();
            let x = tape.constant(Tensor::ones(8, 8));
            tape.value(tape.dropout(x, 0.5, true, &mut rng))
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    #[should_panic(expected = "dropout p")]
    fn p_one_panics() {
        let mut rng = SplitMix64::new(6);
        let tape = Tape::new();
        let x = tape.constant(Tensor::ones(2, 2));
        tape.dropout(x, 1.0, true, &mut rng);
    }
}
