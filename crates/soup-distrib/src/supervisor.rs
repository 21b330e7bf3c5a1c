//! The shard supervisor: self-healing coordinator for multi-process runs.
//!
//! A worker reports by exiting. It is done when it exits 0 and its durable
//! `shard-<i>/result.json` decodes to a [`ShardResult`] for its own shard;
//! any other exit, or a missing or undecodable file, is a crash. Workers
//! never wait for each other, so the coordinator only watches them, in one
//! supervised poll loop:
//!
//! - **Detection.** Every tick the supervisor `try_wait`s each child
//!   (crash → detected within milliseconds) and checks its heartbeat
//!   deadline (hang → detected within one `worker_timeout`). Each child's
//!   stdin is one end of a socket pair whose other end the supervisor
//!   drains every tick; the worker writes a byte to it at a quarter of
//!   the deadline, and any byte counts as a heartbeat. Either way a dead
//!   worker is noticed in well under 2× the deadline.
//! - **Reaping.** A lost child is killed *and waited* — failed runs never
//!   accumulate zombies. The supervisor's `Drop` does the same for every
//!   child still alive, so early errors can't leak processes either.
//! - **Respawn.** A lost shard is relaunched with a bounded restart
//!   budget and a bumped **session epoch** (`--epoch`); a worker with
//!   epoch > 0 resumes from its shard checkpoints, so the recovered run is
//!   bit-identical to an uninterrupted one. `result.json` is deleted
//!   before every spawn, so a file from an earlier incarnation or run is
//!   never taken for this one's result.
//! - **Degradation.** A shard that exhausts its budget is marked lost;
//!   the surviving shards complete and the run reports exact accuracy
//!   over surviving owned-test nodes with explicit `missing` provenance
//!   ([`ShardRunReport::is_degraded`]). Only when *every* shard is lost
//!   does the run error.
//!
//! Observability: `supervisor.restarts`, `supervisor.reaps`,
//! `supervisor.crashes`, `supervisor.hangs` counters, a
//! `supervisor.degraded_shards` gauge, and the per-worker
//! `distrib.worker.<shard>.heartbeat_s` gauges set when a heartbeat
//! arrives.

use std::io::{ErrorKind, Read};
use std::os::fd::OwnedFd;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Stdio};
use std::time::{Duration, Instant};

use soup_error::SoupError;

use crate::shard::{ShardPlan, ShardResult, ShardRunReport, WorkerLaunch};

type Result<T> = std::result::Result<T, SoupError>;

/// Poll-loop granularity. Crash detection latency is one tick; the cost
/// of an idle tick is one `try_wait` + one nonblocking read per worker.
const TICK: Duration = Duration::from_millis(10);

/// One shard's supervision record. A slot is running until it holds a
/// result or is lost.
struct Slot {
    shard: usize,
    /// Session epoch == incarnation counter; bumped on every respawn.
    epoch: u32,
    restarts_left: u32,
    child: Option<Child>,
    /// The supervisor's end of the child's stdin socket pair.
    heartbeats: Option<UnixStream>,
    /// Last proof of life: spawn or heartbeat.
    last_seen: Instant,
    result: Option<ShardResult>,
    /// Restart budget exhausted; excluded from the run.
    lost: bool,
}

impl Slot {
    fn running(&self) -> bool {
        !self.lost && self.result.is_none()
    }

    /// Read every heartbeat byte waiting on the socket. Returns whether
    /// any arrived; a closed or failed socket just stops delivering them.
    fn drain_heartbeats(&mut self) -> bool {
        let Some(stream) = self.heartbeats.as_mut() else {
            return false;
        };
        let mut buf = [0u8; 64];
        let mut beat = false;
        loop {
            match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(_) => beat = true,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        beat
    }
}

fn unix_now_s() -> f64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0)
}

/// The supervisor itself. Construction spawns every worker; [`run`]
/// drives them to completion; `Drop` kills and reaps whatever is left.
///
/// [`run`]: Supervisor::run
struct Supervisor<'a> {
    plan: &'a ShardPlan,
    launch: &'a WorkerLaunch,
    plan_path: PathBuf,
    slots: Vec<Slot>,
    restarts: u32,
}

impl Drop for Supervisor<'_> {
    fn drop(&mut self) {
        // Kill-on-drop with reaping: `kill` alone would leave zombies.
        for slot in &mut self.slots {
            if let Some(mut child) = slot.child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

impl<'a> Supervisor<'a> {
    fn new(plan: &'a ShardPlan, launch: &'a WorkerLaunch) -> Result<Self> {
        let out_dir = plan.out_dir_path();
        std::fs::create_dir_all(&out_dir).map_err(|e| SoupError::io_at(&out_dir, e))?;
        let plan_path = plan.save()?;
        let mut this = Self {
            plan,
            launch,
            plan_path,
            slots: Vec::with_capacity(plan.k),
            restarts: 0,
        };
        for shard in 0..plan.k {
            let (child, heartbeats) = this.spawn(shard, 0)?;
            this.slots.push(Slot {
                shard,
                epoch: 0,
                restarts_left: plan.restart_budget,
                child: Some(child),
                heartbeats: Some(heartbeats),
                last_seen: Instant::now(),
                result: None,
                lost: false,
            });
        }
        Ok(this)
    }

    /// Launch incarnation `epoch` of `shard`'s worker with one end of a
    /// fresh socket pair as its stdin; returns the child and the other end.
    fn spawn(&self, shard: usize, epoch: u32) -> Result<(Child, UnixStream)> {
        let stale = self.plan.result_path(shard);
        match std::fs::remove_file(&stale) {
            Err(e) if e.kind() != ErrorKind::NotFound => return Err(SoupError::io_at(&stale, e)),
            _ => {}
        }
        let (ours, theirs) = UnixStream::pair()?;
        ours.set_nonblocking(true)?;
        let child = std::process::Command::new(&self.launch.exe)
            .args(&self.launch.args)
            .arg("--plan")
            .arg(&self.plan_path)
            .arg("--shard")
            .arg(shard.to_string())
            .arg("--epoch")
            .arg(epoch.to_string())
            .stdin(Stdio::from(OwnedFd::from(theirs)))
            .spawn()
            .map_err(|e| SoupError::io_at(&self.launch.exe, e))?;
        Ok((child, ours))
    }

    /// Kill + reap slot `i`'s worker and either respawn it into the next
    /// session epoch or, with the budget spent, degrade the run.
    fn lose_slot(&mut self, i: usize, reason: &str, hang: bool) -> Result<()> {
        let slot = &mut self.slots[i];
        soup_obs::counter!("supervisor.reaps").inc();
        if hang {
            soup_obs::counter!("supervisor.hangs").inc();
        } else {
            soup_obs::counter!("supervisor.crashes").inc();
        }
        if let Some(mut child) = slot.child.take() {
            let _ = child.kill();
            let _ = child.wait(); // reap: no zombies, ever
        }
        slot.heartbeats = None;
        if slot.restarts_left == 0 {
            soup_obs::warn!(
                "shard {}: {reason}; restart budget exhausted — degrading",
                slot.shard
            );
            slot.lost = true;
            let degraded = self.slots.iter().filter(|s| s.lost).count();
            soup_obs::counter!("supervisor.shards_degraded").inc();
            soup_obs::gauge!("supervisor.degraded_shards").set(degraded as f64);
            return Ok(());
        }
        slot.restarts_left -= 1;
        slot.epoch += 1;
        let (shard, epoch) = (slot.shard, slot.epoch);
        soup_obs::warn!("shard {shard}: {reason}; respawning (session epoch {epoch})");
        soup_obs::counter!("supervisor.restarts").inc();
        self.restarts += 1;
        let (child, heartbeats) = self.spawn(shard, epoch)?;
        let slot = &mut self.slots[i];
        slot.child = Some(child);
        slot.heartbeats = Some(heartbeats);
        slot.last_seen = Instant::now();
        Ok(())
    }

    /// Drain slot `i`'s heartbeats and `try_wait` its child. `Err` says
    /// why the slot must be declared lost, and whether it hung.
    fn check(&mut self, i: usize) -> std::result::Result<(), (String, bool)> {
        let timeout = self.plan.worker_timeout();
        let result_path = self.plan.result_path(self.slots[i].shard);
        let slot = &mut self.slots[i];
        if slot.drain_heartbeats() {
            slot.last_seen = Instant::now();
            soup_obs::registry::gauge(&format!("distrib.worker.{}.heartbeat_s", slot.shard))
                .set(unix_now_s());
        }
        let Some(child) = slot.child.as_mut() else {
            return Ok(());
        };
        match child.try_wait() {
            Ok(Some(status)) if status.success() => {
                let result = ShardResult::load(&result_path, slot.shard)
                    .map_err(|e| (format!("worker exited 0 without a result: {e}"), false))?;
                slot.result = Some(result);
                slot.child = None; // clean exit, reaped
                slot.heartbeats = None;
                Ok(())
            }
            Ok(Some(status)) => Err((format!("worker exited with {status}"), false)),
            Ok(None) => {
                let stale = slot.last_seen.elapsed();
                if stale > timeout {
                    return Err((
                        format!(
                            "heartbeat deadline missed ({:.1}s > {:.1}s)",
                            stale.as_secs_f64(),
                            timeout.as_secs_f64()
                        ),
                        true,
                    ));
                }
                Ok(())
            }
            Err(e) => Err((format!("try_wait failed: {e}"), false)),
        }
    }

    fn run(&mut self) -> Result<()> {
        while self.slots.iter().any(Slot::running) {
            for i in 0..self.slots.len() {
                if !self.slots[i].running() {
                    continue;
                }
                if let Err((reason, hang)) = self.check(i) {
                    self.lose_slot(i, &reason, hang)?;
                }
            }
            std::thread::sleep(TICK);
        }
        Ok(())
    }
}

/// Shape of the durable `out_dir/run.json` provenance record.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
struct RunProvenance {
    k: usize,
    degraded: bool,
    missing: Vec<usize>,
    restarts: u32,
    test_accuracy: f64,
    surviving_shards: Vec<usize>,
}

/// Fork one worker per shard and supervise them with crash/hang
/// detection, bounded respawn and graceful degradation, then aggregate
/// the surviving shards' results. See the module docs for the full fault
/// model.
pub fn run_supervised(plan: &ShardPlan, launch: &WorkerLaunch) -> Result<ShardRunReport> {
    let _span = soup_obs::span!("distrib.shard_run");
    let start = Instant::now();
    soup_obs::gauge!("supervisor.degraded_shards").set(0.0);

    let mut sup = Supervisor::new(plan, launch)?;
    sup.run()?;

    let mut per_shard: Vec<ShardResult> = Vec::new();
    let mut missing: Vec<usize> = Vec::new();
    for slot in &mut sup.slots {
        match slot.result.take() {
            Some(r) => per_shard.push(r),
            None => missing.push(slot.shard),
        }
    }
    let restarts = sup.restarts;
    drop(sup);

    if per_shard.is_empty() {
        return Err(SoupError::shard_degraded(
            missing,
            "every shard exhausted its restart budget".to_string(),
        ));
    }

    let correct: u64 = per_shard.iter().map(|r| r.correct).sum();
    let total: u64 = per_shard.iter().map(|r| r.test_total).sum();
    let max_worker_peak_rss = per_shard
        .iter()
        .map(|r| r.peak_rss_bytes)
        .max()
        .unwrap_or(0);
    let report = ShardRunReport {
        test_accuracy: correct as f64 / total.max(1) as f64,
        per_shard,
        wall_ms: start.elapsed().as_millis() as u64,
        max_worker_peak_rss,
        missing,
        restarts,
    };
    soup_obs::gauge!("shard.test_accuracy").set(report.test_accuracy);
    soup_obs::gauge!("shard.max_worker_peak_rss").set(max_worker_peak_rss as f64);

    // Durable run provenance: a degraded run must say so on disk, not
    // just on stdout.
    let provenance = RunProvenance {
        k: plan.k,
        degraded: report.is_degraded(),
        missing: report.missing.clone(),
        restarts: report.restarts,
        test_accuracy: report.test_accuracy,
        surviving_shards: report.per_shard.iter().map(|r| r.shard).collect(),
    };
    let run_json = serde_json::to_string_pretty(&provenance)
        .map_err(|e| SoupError::corrupt(format!("run provenance serialise: {e}")))?;
    soup_store::write_durable(plan.out_dir_path().join("run.json"), run_json.as_bytes())?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn any_byte_on_the_socket_is_a_heartbeat() {
        let (ours, mut theirs) = UnixStream::pair().unwrap();
        ours.set_nonblocking(true).unwrap();
        let mut slot = Slot {
            shard: 0,
            epoch: 0,
            restarts_left: 0,
            child: None,
            heartbeats: Some(ours),
            last_seen: Instant::now(),
            result: None,
            lost: false,
        };
        assert!(!slot.drain_heartbeats(), "silence is no heartbeat");
        theirs.write_all(&[0; 100]).unwrap();
        assert!(slot.drain_heartbeats());
        assert!(!slot.drain_heartbeats(), "a beat counts once");
        drop(theirs);
        assert!(!slot.drain_heartbeats(), "a closed socket beats no more");
        assert!(slot.running());
    }
}
