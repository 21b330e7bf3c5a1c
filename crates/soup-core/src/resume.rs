//! Resumable Phase-2 souping: durable optimizer-state checkpoints for the
//! LS/PLS α-optimisation loops.
//!
//! A crash between epochs loses nothing: the loop periodically persists a
//! [`Phase2State`] — current raw α tensors, SGD momentum buffers,
//! best-so-far for early stopping, the epoch counter, the watchdog's LR
//! scale, and the *full serialized RNG state* (Weyl counter + cached
//! Box-Muller spare) — as a `soup-ckpt/2` envelope written through the
//! crash-safe [`Store`]. Because every stochastic input of an epoch flows
//! from that RNG and every numeric input is serialized losslessly, a run
//! resumed from the last durable state replays the remaining epochs
//! **bit-identically**: `tests/durability.rs` crashes the state write after
//! every epoch in turn (the `durable.rename` fault point) and checks it.
//! A run ends only by finishing or by returning an error.
//!
//! Resume invariants (checked by `Phase2State::validate_for`):
//! - the state was written by the same strategy (`ls` vs `pls`), seed,
//!   epoch schedule, ingredient count and (for PLS) `K`/`R` — anything
//!   else is a foreign checkpoint and a hard [`SoupError::Checkpoint`];
//! - a *corrupt* state file is not fatal: it is reported, counted, and
//!   the run starts fresh (the durable store makes this unreachable short
//!   of external damage);
//! - a state with `next_epoch == total_epochs` marks a finished run, so
//!   resuming it reproduces the final soup without running any epoch.

use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};
use soup_error::SoupError;
use soup_store::Store;
use soup_tensor::{SplitMix64, Tensor};

use crate::learned::{AlphaState, LoopState};

type Result<T> = std::result::Result<T, SoupError>;

/// Version tag of the serialized [`Phase2State`] payload.
pub const PHASE2_STATE_VERSION: u32 = 1;

/// How (and whether) a Phase-2 run persists its progress.
#[derive(Debug, Clone)]
pub struct Phase2Persist {
    /// Artifact directory (shared with the Phase-1 checkpoints/manifest).
    pub dir: PathBuf,
    /// Checkpoint cadence: persist after every `every` completed epochs
    /// (a final checkpoint is always written when the loop ends).
    pub every: usize,
    /// Load and continue from an existing state file when present.
    pub resume: bool,
}

impl Phase2Persist {
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            every: 1,
            resume: false,
        }
    }

    pub fn every(mut self, every: usize) -> Self {
        self.every = every.max(1);
        self
    }

    pub fn resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// State-file name for a strategy (`phase2_ls.ck` / `phase2_pls.ck`).
    pub fn state_name(strategy: &str) -> String {
        format!("phase2_{strategy}.ck")
    }

    /// State-file path inside an artifact directory.
    pub fn state_path(dir: impl AsRef<Path>, strategy: &str) -> PathBuf {
        dir.as_ref().join(Self::state_name(strategy))
    }
}

/// Everything the LS/PLS loop needs to continue bit-identically from the
/// end of a completed epoch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Phase2State {
    pub version: u32,
    /// `"ls"` or `"pls"`.
    pub strategy: String,
    /// The souping seed the run was started with.
    pub seed: u64,
    /// Configured epoch schedule length (cosine `t_max`).
    pub total_epochs: u64,
    /// Ingredient-pool size the α tensors were shaped for.
    pub num_ingredients: u64,
    /// PLS partition count `K` (0 for LS).
    pub partitions: u64,
    /// PLS per-epoch budget `R` (0 for LS).
    pub budget: u64,
    /// First epoch index that has not run yet.
    pub next_epoch: u64,
    /// Epochs that actually stepped (PLS skips empty draws).
    pub epochs_run: u64,
    /// Forward passes performed so far.
    pub forwards: u64,
    /// RNG Weyl counter at the resume point.
    pub rng_state: u64,
    /// Cached Box-Muller spare at the resume point.
    pub rng_gauss_spare: Option<f32>,
    /// Raw (pre-softmax) per-layer α tensors.
    pub alphas: Vec<Tensor>,
    /// SGD momentum buffers (slot order matches `alphas`).
    pub velocity: Vec<Option<Tensor>>,
    /// Best monitored accuracy so far (LS early stopping).
    pub best_acc: Option<f64>,
    /// α snapshot at the best epoch (LS early stopping).
    pub best_alphas: Option<Vec<Tensor>>,
    /// Epochs since the monitored accuracy last improved.
    pub since_best: u64,
    /// Cumulative learning-rate multiplier applied by the numeric
    /// watchdog (1.0 when it never fired).
    pub lr_scale: f32,
    /// Total watchdog retries so far (telemetry).
    pub nan_retries: u64,
}

/// The immutable identity of one Phase-2 run: everything a state file must
/// agree on before resuming from it is allowed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunShape {
    /// `"ls"` or `"pls"`.
    pub strategy: &'static str,
    pub seed: u64,
    pub total_epochs: usize,
    pub num_ingredients: usize,
    /// PLS `K` (0 for LS).
    pub partitions: usize,
    /// PLS `R` (0 for LS).
    pub budget: usize,
}

impl Phase2State {
    /// Stamp the loop state at the end of epoch `st.epoch - 1` into its
    /// serializable form.
    pub(crate) fn capture(shape: &RunShape, st: &LoopState) -> Self {
        let (rng_state, rng_gauss_spare) = st.rng.snapshot();
        Self {
            version: PHASE2_STATE_VERSION,
            strategy: shape.strategy.to_string(),
            seed: shape.seed,
            total_epochs: shape.total_epochs as u64,
            num_ingredients: shape.num_ingredients as u64,
            partitions: shape.partitions as u64,
            budget: shape.budget as u64,
            next_epoch: st.epoch as u64,
            epochs_run: st.epochs_run as u64,
            forwards: st.forwards as u64,
            rng_state,
            rng_gauss_spare,
            alphas: st.alphas.raw.clone(),
            velocity: st.velocity.clone(),
            best_acc: st.best.as_ref().map(|(acc, _)| *acc),
            best_alphas: st.best.as_ref().map(|(_, a)| a.raw.clone()),
            since_best: st.since_best as u64,
            lr_scale: st.lr_scale,
            nan_retries: st.nan_retries,
        }
    }

    /// The loop state to continue from — the inverse of [`Self::capture`].
    pub(crate) fn into_loop_state(self) -> LoopState {
        LoopState {
            epoch: self.next_epoch as usize,
            epochs_run: self.epochs_run as usize,
            forwards: self.forwards as usize,
            rng: SplitMix64::from_snapshot(self.rng_state, self.rng_gauss_spare),
            alphas: AlphaState { raw: self.alphas },
            velocity: self.velocity,
            best: match (self.best_acc, self.best_alphas) {
                (Some(acc), Some(raw)) => Some((acc, AlphaState { raw })),
                _ => None,
            },
            since_best: self.since_best as usize,
            lr_scale: self.lr_scale,
            nan_retries: self.nan_retries,
        }
    }

    /// Reject a state written by a different run shape. Every mismatch is
    /// a [`SoupError::Checkpoint`]: continuing from it would silently
    /// break the bit-identical-resume guarantee.
    pub(crate) fn validate_for(&self, shape: &RunShape) -> Result<()> {
        let RunShape {
            strategy,
            seed,
            total_epochs,
            num_ingredients,
            partitions,
            budget,
        } = *shape;
        let fail = |what: &str, got: &dyn std::fmt::Display, want: &dyn std::fmt::Display| {
            Err(SoupError::checkpoint(format!(
                "phase2 state {what} mismatch: checkpoint has {got}, run expects {want} \
                 (state from a different run?)"
            )))
        };
        if self.version != PHASE2_STATE_VERSION {
            return fail("version", &self.version, &PHASE2_STATE_VERSION);
        }
        if self.strategy != strategy {
            return fail("strategy", &self.strategy, &strategy);
        }
        if self.seed != seed {
            return fail("seed", &self.seed, &seed);
        }
        if self.total_epochs != total_epochs as u64 {
            return fail("total_epochs", &self.total_epochs, &total_epochs);
        }
        if self.num_ingredients != num_ingredients as u64 {
            return fail("num_ingredients", &self.num_ingredients, &num_ingredients);
        }
        if self.partitions != partitions as u64 {
            return fail("partitions", &self.partitions, &partitions);
        }
        if self.budget != budget as u64 {
            return fail("budget", &self.budget, &budget);
        }
        if self.next_epoch > self.total_epochs {
            return Err(SoupError::checkpoint(format!(
                "phase2 state next_epoch {} exceeds total_epochs {}",
                self.next_epoch, self.total_epochs
            )));
        }
        for t in self.alphas.iter().chain(self.best_alphas.iter().flatten()) {
            if !t.data().iter().all(|v| v.is_finite()) {
                return Err(SoupError::corrupt(
                    "phase2 state holds non-finite α parameters".to_string(),
                ));
            }
        }
        Ok(())
    }
}

/// Live persistence handle threaded through one LS/PLS invocation.
/// `Phase2Session::begin(None, ..)` yields an inert session so the loop
/// stays branch-light when persistence is off.
pub(crate) struct Phase2Session<'a> {
    shape: RunShape,
    /// The open store and its checkpoint policy; `None` = persistence off.
    sink: Option<(Store, &'a Phase2Persist)>,
}

impl<'a> Phase2Session<'a> {
    /// Open the store and (on `resume`) load + validate any existing
    /// state, handed back for restoring the loop.
    pub fn begin(
        persist: Option<&'a Phase2Persist>,
        shape: RunShape,
    ) -> Result<(Self, Option<Phase2State>)> {
        let Some(p) = persist else {
            return Ok((Self { shape, sink: None }, None));
        };
        let store = Store::open(&p.dir)?;
        let name = Phase2Persist::state_name(shape.strategy);
        let resumed = if p.resume && store.exists(&name) {
            match store
                .read_envelope(&name)
                .and_then(|payload| decode_state(&payload))
            {
                Ok(state) => {
                    state.validate_for(&shape)?;
                    soup_obs::counter!("soup.phase2.resumed_epochs").add(state.next_epoch);
                    soup_obs::info!(
                        "phase2 resume: {} continuing from epoch {}/{}",
                        shape.strategy,
                        state.next_epoch,
                        shape.total_epochs
                    );
                    Some(state)
                }
                Err(err) if err.kind() == "corrupt" => {
                    soup_obs::counter!("soup.phase2.corrupt_state").inc();
                    soup_obs::warn!("phase2 resume: state file corrupt ({err}); starting fresh");
                    None
                }
                Err(err) => return Err(err),
            }
        } else {
            None
        };
        let sink = Some((store, p));
        Ok((Self { shape, sink }, resumed))
    }

    /// Called after epoch `st.epoch - 1` finished its bookkeeping.
    /// Persists the state at the configured cadence and always at the
    /// schedule end.
    pub fn after_epoch(&self, st: &LoopState) -> Result<()> {
        let Some((store, p)) = &self.sink else {
            return Ok(());
        };
        let finished = st.epoch >= self.shape.total_epochs;
        if finished || st.epoch.is_multiple_of(p.every.max(1)) {
            let payload = encode_state(&Phase2State::capture(&self.shape, st))?;
            store.write_envelope(&Phase2Persist::state_name(self.shape.strategy), &payload)?;
            soup_obs::counter!("soup.phase2.checkpoints").inc();
        }
        Ok(())
    }
}

/// Serialize a state to the envelope payload (JSON, floats bit-exact
/// through the workspace's shortest-roundtrip printer).
pub fn encode_state(state: &Phase2State) -> Result<Vec<u8>> {
    serde_json::to_string(state)
        .map(String::into_bytes)
        .map_err(|e| SoupError::parse(format!("serializing phase2 state: {e}")))
}

/// Parse an envelope payload back into a state.
pub fn decode_state(payload: &[u8]) -> Result<Phase2State> {
    let json = std::str::from_utf8(payload)
        .map_err(|_| SoupError::corrupt("phase2 state payload is not UTF-8".to_string()))?;
    serde_json::from_str(json)
        .map_err(|e| SoupError::corrupt(format!("phase2 state is not valid JSON: {e}")))
}

/// Load and validate a phase-2 state file directly (used by `soupctl
/// verify`). Returns `Ok(None)` when the file does not exist.
pub fn load_state(path: impl AsRef<Path>) -> Result<Option<Phase2State>> {
    let path = path.as_ref();
    if !path.exists() {
        return Ok(None);
    }
    let payload = soup_store::read_payload(path)?;
    decode_state(&payload).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> Phase2State {
        let mut rng = SplitMix64::new(3);
        rng.normal();
        let (rs, spare) = rng.snapshot();
        Phase2State {
            version: PHASE2_STATE_VERSION,
            strategy: "ls".into(),
            seed: 42,
            total_epochs: 30,
            num_ingredients: 4,
            partitions: 0,
            budget: 0,
            next_epoch: 7,
            epochs_run: 7,
            forwards: 14,
            rng_state: rs,
            rng_gauss_spare: spare,
            alphas: vec![Tensor::randn(4, 1, 0.6, &mut rng); 2],
            velocity: vec![Some(Tensor::randn(4, 1, 0.1, &mut rng)), None],
            best_acc: Some(0.53125),
            best_alphas: Some(vec![Tensor::randn(4, 1, 0.6, &mut rng); 2]),
            since_best: 2,
            lr_scale: 0.25,
            nan_retries: 3,
        }
    }

    #[test]
    fn state_round_trips_bit_exactly() {
        let s = state();
        let back = decode_state(&encode_state(&s).unwrap()).unwrap();
        assert_eq!(back.rng_state, s.rng_state);
        assert_eq!(
            back.rng_gauss_spare.map(f32::to_bits),
            s.rng_gauss_spare.map(f32::to_bits)
        );
        assert_eq!(back.alphas, s.alphas);
        assert_eq!(back.velocity, s.velocity);
        assert_eq!(
            back.best_acc.map(f64::to_bits),
            s.best_acc.map(f64::to_bits)
        );
        assert_eq!(back.best_alphas, s.best_alphas);
        assert_eq!(back.lr_scale.to_bits(), s.lr_scale.to_bits());
        assert_eq!(back.next_epoch, 7);
        assert_eq!(back.nan_retries, 3);
    }

    fn shape() -> RunShape {
        RunShape {
            strategy: "ls",
            seed: 42,
            total_epochs: 30,
            num_ingredients: 4,
            partitions: 0,
            budget: 0,
        }
    }

    #[test]
    fn validate_rejects_foreign_states() {
        let s = state();
        s.validate_for(&shape()).unwrap();
        let foreign = [
            RunShape {
                strategy: "pls",
                ..shape()
            },
            RunShape {
                seed: 43,
                ..shape()
            },
            RunShape {
                total_epochs: 31,
                ..shape()
            },
            RunShape {
                num_ingredients: 5,
                ..shape()
            },
            RunShape {
                partitions: 8,
                ..shape()
            },
            RunShape {
                budget: 2,
                ..shape()
            },
        ];
        for sh in foreign {
            assert_eq!(s.validate_for(&sh).unwrap_err().kind(), "checkpoint");
        }
    }

    #[test]
    fn validate_flags_nonfinite_alphas_as_corrupt() {
        let mut s = state();
        s.alphas[0].make_mut()[1] = f32::INFINITY;
        assert_eq!(s.validate_for(&shape()).unwrap_err().kind(), "corrupt");
    }

    fn loop_state(epoch: usize) -> LoopState {
        let mut rng = SplitMix64::new(9);
        rng.normal();
        let alphas = AlphaState {
            raw: vec![Tensor::randn(4, 1, 0.5, &mut rng); 3],
        };
        LoopState {
            epoch,
            epochs_run: 11,
            forwards: 24,
            velocity: vec![None, Some(Tensor::randn(4, 1, 0.1, &mut rng)), None],
            best: Some((0.5, alphas.clone())),
            alphas,
            rng,
            since_best: 1,
            lr_scale: 0.5,
            nan_retries: 2,
        }
    }

    #[test]
    fn capture_round_trips_through_validate() {
        let st = loop_state(12);
        let s = Phase2State::capture(&shape(), &st);
        s.validate_for(&shape()).unwrap();
        let back = decode_state(&encode_state(&s).unwrap())
            .unwrap()
            .into_loop_state();
        assert_eq!(back.alphas.raw, st.alphas.raw);
        assert_eq!(back.velocity, st.velocity);
        assert_eq!(back.best.unwrap().1.raw, st.alphas.raw);
        assert_eq!(back.rng.snapshot(), st.rng.snapshot());
        assert_eq!(
            (back.epoch, back.epochs_run, back.forwards, back.since_best),
            (12, 11, 24, 1)
        );
        assert_eq!((back.lr_scale, back.nan_retries), (0.5, 2));
    }

    #[test]
    fn session_writes_at_cadence_and_schedule_end() {
        let dir = std::env::temp_dir().join(format!("soup-p2-session-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let persist = Phase2Persist::new(&dir).every(4);
        let resumed_epoch = || {
            let resuming = persist.clone().resume(true);
            let (_, resumed) = Phase2Session::begin(Some(&resuming), shape()).unwrap();
            resumed.map(|s| s.next_epoch)
        };
        let (session, resumed) = Phase2Session::begin(Some(&persist), shape()).unwrap();
        assert!(resumed.is_none());
        // Epoch 1: no checkpoint due. 4: cadence. 5: none. 30: schedule end,
        // though not a multiple of 4.
        session.after_epoch(&loop_state(1)).unwrap();
        assert!(!Phase2Persist::state_path(&dir, "ls").exists());
        session.after_epoch(&loop_state(4)).unwrap();
        assert_eq!(resumed_epoch(), Some(4));
        session.after_epoch(&loop_state(5)).unwrap();
        assert_eq!(resumed_epoch(), Some(4));
        session.after_epoch(&loop_state(30)).unwrap();
        assert_eq!(resumed_epoch(), Some(30));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn inert_session_never_writes() {
        let (session, resumed) = Phase2Session::begin(None, shape()).unwrap();
        assert!(resumed.is_none());
        session.after_epoch(&loop_state(10)).unwrap();
    }
}
