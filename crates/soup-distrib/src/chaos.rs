//! Deterministic chaos injection for sharded runs.
//!
//! PR-3's [`FaultPlan`](crate::FaultPlan) proved Phase-1's in-process
//! retry logic by striking worker *threads* on a seeded schedule. The
//! [`ChaosPlan`] here does the same for the multi-process layer: it kills
//! whole shard-worker OS processes at chosen pipeline phases, mangles
//! control frames, and corrupts a shard's checkpoint right before a respawn
//! — everything the supervisor must survive, scheduled deterministically
//! so tests can assert the recovered run is bit-identical to a clean one.
//!
//! Determinism contract: every decision is a pure function of
//! `(plan.seed, worker ordinal, phase)` — two runs with the same plan
//! inject exactly the same faults. Injected kills fire only at session
//! epoch 0 (the first incarnation), mirroring `FaultPlan`'s
//! first-attempt-only faults, so every respawned worker converges;
//! `persistent_kills` is the deliberate exception that defeats the
//! restart budget for degraded-run testing.

use serde::{Deserialize, Serialize};
use soup_error::{Result, SoupError};
use soup_tensor::SplitMix64;

/// Pipeline phase of a shard-worker, in execution order. Kill targets
/// name the phase whose *start* the kill strikes (for [`Train`] the kill
/// instead lands after the first durable ingredient checkpoint, so the
/// respawn exercises a partial-checkpoint resume).
///
/// [`Train`]: ChaosPhase::Train
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChaosPhase {
    /// Immediately on entry, before the dataset is mapped.
    Spawn,
    /// After READY, before the halo rows are copied from the map.
    Fetch,
    /// Mid-Phase-1, after ≥1 ingredient checkpoint is durable.
    Train,
    /// After training, before souping begins.
    Soup,
    /// After souping, before RESULT is sent.
    Report,
}

impl ChaosPhase {
    pub const ALL: [ChaosPhase; 5] = [
        ChaosPhase::Spawn,
        ChaosPhase::Fetch,
        ChaosPhase::Train,
        ChaosPhase::Soup,
        ChaosPhase::Report,
    ];

    pub fn name(self) -> &'static str {
        match self {
            ChaosPhase::Spawn => "spawn",
            ChaosPhase::Fetch => "fetch",
            ChaosPhase::Train => "train",
            ChaosPhase::Soup => "soup",
            ChaosPhase::Report => "report",
        }
    }

    /// Parse a phase name as written in `--chaos-kill shard:phase`.
    pub fn from_name(s: &str) -> Result<Self> {
        Self::ALL
            .into_iter()
            .find(|p| p.name() == s)
            .ok_or_else(|| {
                SoupError::usage(format!(
                    "unknown chaos phase '{s}' (expected one of spawn/fetch/train/soup/report)"
                ))
            })
    }

    fn ordinal(self) -> u64 {
        match self {
            ChaosPhase::Spawn => 0,
            ChaosPhase::Fetch => 1,
            ChaosPhase::Train => 2,
            ChaosPhase::Soup => 3,
            ChaosPhase::Report => 4,
        }
    }
}

/// What chaos does to one outbound control frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFault {
    /// The frame is never sent; the worker carries on as if it were.
    Drop,
    /// The frame is sent after this many milliseconds.
    Delay(u64),
    /// Half the frame is written, then the stream is shut down.
    Truncate,
}

/// Seeded, deterministic fault schedule for a sharded run. Serialised
/// into the `ShardPlan`, so worker processes see exactly the plan the
/// coordinator committed to and both sides agree on every injection.
#[derive(Debug, Clone, Default, Serialize, Deserialize, PartialEq)]
pub struct ChaosPlan {
    /// Seed of the chaos schedule (independent of the training seed).
    pub seed: u64,
    /// Targeted kills: worker `shard` dies at `phase`, first incarnation
    /// only — the respawn runs clean and must recover bit-identically.
    pub kills: Vec<(usize, ChaosPhase)>,
    /// Probability in `[0, 1]` that a given (shard, phase) is struck by a
    /// kill at epoch 0, drawn deterministically from the seed.
    pub kill_rate: f64,
    /// Kills that fire at *every* incarnation — the tool for proving the
    /// restart budget actually bounds respawns and the run degrades.
    pub persistent_kills: Vec<(usize, ChaosPhase)>,
    /// Probability in `[0, 1]` that an epoch-0 control frame is struck
    /// (drop / delay / truncate, chosen deterministically per frame).
    pub frame_rate: f64,
    /// Delay applied when the frame fault comes up [`FrameFault::Delay`].
    pub frame_delay_ms: u64,
    /// Shards whose newest ingredient checkpoint is corrupted right
    /// before their first respawn — proving checkpoint validation rejects
    /// the bad artifact and retrains it rather than souping garbage.
    pub corrupt_journal: Vec<usize>,
}

impl ChaosPlan {
    /// Whether any injection is configured at all; an inert plan is
    /// dropped from the `ShardPlan` so clean runs carry no chaos state.
    pub fn is_active(&self) -> bool {
        !self.kills.is_empty()
            || !self.persistent_kills.is_empty()
            || !self.corrupt_journal.is_empty()
            || self.kill_rate > 0.0
            || self.frame_rate > 0.0
    }

    /// Should worker `shard` (incarnation `epoch`) die at `phase`?
    pub fn kill_at(&self, shard: usize, phase: ChaosPhase, epoch: u32) -> bool {
        if self.persistent_kills.contains(&(shard, phase)) {
            return true;
        }
        if epoch != 0 {
            return false; // transient chaos: respawns run clean
        }
        if self.kills.contains(&(shard, phase)) {
            return true;
        }
        if self.kill_rate > 0.0 {
            let mut rng = self.keyed(0x6b17, shard as u64, phase.ordinal());
            return draw_unit(&mut rng) < self.kill_rate;
        }
        false
    }

    /// The fault (if any) striking the `seq`-th control frame of opcode
    /// `op` sent by worker `shard` at epoch 0. Heartbeats are exempt —
    /// they are redundant by design, so mangling them proves nothing.
    pub fn frame_fault(&self, shard: usize, op: u8, seq: u64, epoch: u32) -> Option<FrameFault> {
        if epoch != 0 || self.frame_rate <= 0.0 || op == crate::control::OP_HEARTBEAT {
            return None;
        }
        let mut rng = self.keyed(0xf7a3, shard as u64, (op as u64) << 32 | seq);
        if draw_unit(&mut rng) >= self.frame_rate {
            return None;
        }
        Some(match rng.next_u64() % 3 {
            0 => FrameFault::Drop,
            1 => FrameFault::Delay(self.frame_delay_ms.max(1)),
            _ => FrameFault::Truncate,
        })
    }

    /// Should the supervisor corrupt `shard`'s newest checkpoint before
    /// respawning it into `epoch`? First respawn only — the healed
    /// checkpoint must then survive later incarnations untouched.
    pub fn corrupt_at_respawn(&self, shard: usize, epoch: u32) -> bool {
        epoch == 1 && self.corrupt_journal.contains(&shard)
    }

    fn keyed(&self, tag: u64, a: u64, b: u64) -> SplitMix64 {
        SplitMix64::new(self.seed ^ tag).derive(a.wrapping_mul(0x9e37).wrapping_add(b) + 1)
    }
}

fn draw_unit(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Parse a `--chaos-kill` style list: comma-separated `shard:phase`
/// pairs, e.g. `0:train,2:spawn`.
pub fn parse_kill_list(s: &str) -> Result<Vec<(usize, ChaosPhase)>> {
    let mut out = Vec::new();
    for item in s.split(',').filter(|t| !t.is_empty()) {
        let (shard, phase) = item
            .split_once(':')
            .ok_or_else(|| SoupError::usage(format!("chaos kill '{item}' is not shard:phase")))?;
        let shard: usize = shard
            .trim()
            .parse()
            .map_err(|_| SoupError::usage(format!("chaos kill shard '{shard}' is not a number")))?;
        out.push((shard, ChaosPhase::from_name(phase.trim())?));
    }
    Ok(out)
}

/// Parse a comma-separated shard list, e.g. `0,3`.
pub fn parse_shard_list(s: &str) -> Result<Vec<usize>> {
    s.split(',')
        .filter(|t| !t.is_empty())
        .map(|t| {
            t.trim()
                .parse()
                .map_err(|_| SoupError::usage(format!("shard '{t}' is not a number")))
        })
        .collect()
}

/// Exit code a chaos kill uses, distinct from panics and clean exits so
/// the supervisor's logs attribute the death correctly.
pub const CHAOS_KILL_EXIT: i32 = 86;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_seed_sensitive() {
        let plan = ChaosPlan {
            seed: 99,
            kill_rate: 0.5,
            ..Default::default()
        };
        let a: Vec<bool> = (0..8)
            .flat_map(|s| ChaosPhase::ALL.map(|p| plan.kill_at(s, p, 0)))
            .collect();
        let b: Vec<bool> = (0..8)
            .flat_map(|s| ChaosPhase::ALL.map(|p| plan.kill_at(s, p, 0)))
            .collect();
        assert_eq!(a, b, "same plan, same schedule");
        assert!(a.iter().any(|&x| x) && a.iter().any(|&x| !x), "{a:?}");
        let other = ChaosPlan { seed: 100, ..plan };
        let c: Vec<bool> = (0..8)
            .flat_map(|s| ChaosPhase::ALL.map(|p| other.kill_at(s, p, 0)))
            .collect();
        assert_ne!(a, c, "different seed, different schedule");
    }

    #[test]
    fn kills_are_first_incarnation_only_except_persistent() {
        let plan = ChaosPlan {
            kills: vec![(1, ChaosPhase::Train)],
            persistent_kills: vec![(2, ChaosPhase::Spawn)],
            ..Default::default()
        };
        assert!(plan.kill_at(1, ChaosPhase::Train, 0));
        assert!(!plan.kill_at(1, ChaosPhase::Train, 1), "respawn runs clean");
        assert!(!plan.kill_at(1, ChaosPhase::Soup, 0));
        for epoch in 0..4 {
            assert!(plan.kill_at(2, ChaosPhase::Spawn, epoch), "epoch {epoch}");
        }
    }

    #[test]
    fn frame_faults_spare_heartbeats_and_respawns() {
        let plan = ChaosPlan {
            seed: 7,
            frame_rate: 1.0,
            frame_delay_ms: 10,
            ..Default::default()
        };
        assert!(plan
            .frame_fault(0, crate::control::OP_READY, 0, 0)
            .is_some());
        assert!(plan
            .frame_fault(0, crate::control::OP_HEARTBEAT, 0, 0)
            .is_none());
        assert!(plan
            .frame_fault(0, crate::control::OP_READY, 0, 1)
            .is_none());
        // Deterministic per (shard, op, seq).
        assert_eq!(
            plan.frame_fault(3, crate::control::OP_RESULT, 2, 0),
            plan.frame_fault(3, crate::control::OP_RESULT, 2, 0)
        );
    }

    #[test]
    fn journal_corruption_strikes_first_respawn_only() {
        let plan = ChaosPlan {
            corrupt_journal: vec![0],
            ..Default::default()
        };
        assert!(plan.corrupt_at_respawn(0, 1));
        assert!(!plan.corrupt_at_respawn(0, 2));
        assert!(!plan.corrupt_at_respawn(1, 1));
    }

    #[test]
    fn kill_list_parsing() {
        assert_eq!(
            parse_kill_list("0:train, 2:spawn").unwrap(),
            vec![(0, ChaosPhase::Train), (2, ChaosPhase::Spawn)]
        );
        assert_eq!(parse_kill_list("").unwrap(), vec![]);
        assert_eq!(parse_kill_list("0").unwrap_err().kind(), "usage");
        assert_eq!(parse_kill_list("0:flee").unwrap_err().kind(), "usage");
        assert_eq!(parse_shard_list("1,3").unwrap(), vec![1, 3]);
    }

    #[test]
    fn plan_roundtrips_through_json_and_reports_activity() {
        assert!(!ChaosPlan::default().is_active());
        let plan = ChaosPlan {
            seed: 5,
            kills: vec![(0, ChaosPhase::Fetch)],
            frame_rate: 0.25,
            ..Default::default()
        };
        assert!(plan.is_active());
        let text = serde_json::to_string(&plan).unwrap();
        let back: ChaosPlan = serde_json::from_str(&text).unwrap();
        assert_eq!(back, plan);
        assert!(text.contains("\"Fetch\""), "{text}");
    }
}
