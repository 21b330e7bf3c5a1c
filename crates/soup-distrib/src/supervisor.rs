//! The shard supervisor: self-healing coordinator for multi-process runs.
//!
//! Each worker speaks READY → HEARTBEAT* → RESULT over its control
//! connection ([`crate::control`]) and exits on ACK. Workers never wait
//! for each other, so the coordinator only watches them, in one
//! supervised poll loop:
//!
//! - **Detection.** Every tick the supervisor `try_wait`s each child
//!   (crash → detected within milliseconds) and checks its heartbeat
//!   deadline (hang → detected within one `worker_timeout`; workers send
//!   [`OP_HEARTBEAT`] at a quarter of that interval). Either way a dead
//!   worker is noticed in well under 2× the deadline.
//! - **Reaping.** A lost child is killed *and waited* — failed runs never
//!   accumulate zombies. The supervisor's `Drop` does the same for every
//!   child still alive, so early errors can't leak processes either.
//! - **Respawn.** A lost shard is relaunched with a bounded restart
//!   budget and a bumped **session epoch**; the worker resumes from its
//!   shard checkpoints, so the recovered run is bit-identical to an
//!   uninterrupted one. Frames carrying a stale epoch (leftovers from a
//!   pre-crash incarnation) are rejected and counted.
//! - **Degradation.** A shard that exhausts its budget is marked lost;
//!   the surviving shards complete and the run reports exact accuracy
//!   over surviving owned-test nodes with explicit `missing` provenance
//!   ([`ShardRunReport::is_degraded`]). Only when *every* shard is lost
//!   does the run error.
//!
//! Observability: `supervisor.restarts`, `supervisor.reaps`,
//! `supervisor.crashes`, `supervisor.hangs`, `supervisor.stale_frames`,
//! `supervisor.frame_retries` counters, a `supervisor.degraded_shards`
//! gauge, and the per-worker `distrib.worker.<shard>.heartbeat_s` gauges
//! republished from worker heartbeats.

use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::Child;
use std::time::{Duration, Instant};

use soup_error::SoupError;
use soup_store::frame::{write_frame, FrameBuf};

use crate::control::{
    control_socket_path, decode_control, MAX_FRAME, OP_ACK, OP_HEARTBEAT, OP_READY, OP_RESULT,
};
use crate::shard::{ShardPlan, ShardResult, ShardRunReport, WorkerLaunch};

type Result<T> = std::result::Result<T, SoupError>;

/// Poll-loop granularity. Crash detection latency is one tick; the cost
/// of an idle tick is one `try_wait` + one nonblocking read per worker.
const TICK: Duration = Duration::from_millis(10);

/// Where one worker stands in the control protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// Child spawned, READY not yet seen for the current epoch.
    Spawning,
    /// READY seen: the worker is building its view, training or souping.
    Ready,
    /// RESULT accepted and ACKed.
    Done,
    /// Restart budget exhausted; excluded from the run.
    Lost,
}

/// One shard's supervision record.
struct Slot {
    shard: usize,
    /// Session epoch == incarnation counter; bumped on every respawn.
    epoch: u32,
    restarts_left: u32,
    child: Option<Child>,
    conn: Option<Conn>,
    state: SlotState,
    /// Last proof of life: spawn, READY, RESULT or heartbeat.
    last_seen: Instant,
    done_at: Option<Instant>,
    result: Option<ShardResult>,
    lost_reason: Option<String>,
}

impl Slot {
    fn live(&self) -> bool {
        !matches!(self.state, SlotState::Lost)
    }
}

/// A control connection: attached to exactly one (shard, epoch) once its
/// READY frame identified it.
struct Conn {
    stream: UnixStream,
    buf: FrameBuf,
}

/// Write a (small) control frame to a nonblocking stream. Control frames
/// are a few bytes, so a worker that cannot absorb one within `timeout`
/// is as good as dead.
fn send_control(stream: &mut UnixStream, op: u8, timeout: Duration) -> Result<()> {
    let retries = soup_obs::counter!("supervisor.frame_retries");
    let until = Instant::now() + timeout;
    write_frame(stream, MAX_FRAME, &[&[op]], Some((until, retries)))
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
    listener: UnixListener,
    slots: Vec<Slot>,
    /// Accepted connections that have not yet sent READY, with their
    /// accept time.
    pending: Vec<(Conn, Instant)>,
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
        let control = control_socket_path(&out_dir);
        let _ = std::fs::remove_file(&control);
        let listener = UnixListener::bind(&control).map_err(|e| SoupError::io_at(&control, e))?;
        listener.set_nonblocking(true).map_err(SoupError::from)?;

        let mut this = Self {
            plan,
            launch,
            plan_path,
            listener,
            slots: Vec::with_capacity(plan.k),
            pending: Vec::new(),
            restarts: 0,
        };
        for shard in 0..plan.k {
            let child = this.spawn(shard, 0)?;
            this.slots.push(Slot {
                shard,
                epoch: 0,
                restarts_left: plan.restart_budget,
                child: Some(child),
                conn: None,
                state: SlotState::Spawning,
                last_seen: Instant::now(),
                done_at: None,
                result: None,
                lost_reason: None,
            });
        }
        Ok(this)
    }

    fn spawn(&self, shard: usize, epoch: u32) -> Result<Child> {
        std::process::Command::new(&self.launch.exe)
            .args(&self.launch.args)
            .arg("--plan")
            .arg(&self.plan_path)
            .arg("--shard")
            .arg(shard.to_string())
            .arg("--epoch")
            .arg(epoch.to_string())
            .spawn()
            .map_err(|e| SoupError::io_at(&self.launch.exe, e))
    }

    fn timeout(&self) -> Duration {
        self.plan.worker_timeout()
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
        slot.conn = None;
        if slot.restarts_left == 0 {
            soup_obs::warn!(
                "shard {}: {reason}; restart budget exhausted — degrading",
                slot.shard
            );
            slot.state = SlotState::Lost;
            slot.lost_reason = Some(reason.to_string());
            let degraded = self.slots.iter().filter(|s| !s.live()).count();
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
        let child = self.spawn(shard, epoch)?;
        let slot = &mut self.slots[i];
        slot.child = Some(child);
        slot.state = SlotState::Spawning;
        slot.last_seen = Instant::now();
        Ok(())
    }

    /// Accept any connections waiting on the listener.
    fn accept_new(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let buf = FrameBuf::new(MAX_FRAME);
                    self.pending.push((Conn { stream, buf }, Instant::now()));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(_) => return,
            }
        }
    }

    /// Drive pending connections to their READY frame and attach them to
    /// their slot. Anything that identifies badly — stale epoch, unknown
    /// shard, a non-READY first frame — is dropped and counted, never
    /// trusted.
    fn pump_pending(&mut self) {
        let timeout = self.timeout();
        let mut keep = Vec::new();
        for (mut c, since) in std::mem::take(&mut self.pending) {
            if !matches!(c.buf.fill(&mut c.stream), Ok(true)) {
                continue; // dropped before READY
            }
            match c.buf.pop().map(|f| f.map(decode_control)) {
                Ok(None) => {
                    if since.elapsed() < timeout {
                        keep.push((c, since));
                    }
                    // else: silently drop a mute connection
                }
                Ok(Some(Ok((OP_READY, shard, epoch, _)))) => self.attach(c, shard as usize, epoch),
                Ok(Some(_)) | Err(_) => {
                    // First frame must be READY; anything else is a stray
                    // stream from a dead incarnation or a corrupt peer.
                    soup_obs::counter!("supervisor.stale_frames").inc();
                }
            }
        }
        self.pending.extend(keep);
    }

    /// Bind an identified connection to its slot, carrying over any bytes
    /// (heartbeats) already buffered behind the READY frame.
    fn attach(&mut self, conn: Conn, shard: usize, epoch: u32) {
        let Some(slot) = self.slots.get_mut(shard) else {
            soup_obs::counter!("supervisor.stale_frames").inc();
            return;
        };
        if epoch != slot.epoch || !slot.live() || slot.state != SlotState::Spawning {
            // READY from a pre-crash incarnation that was still in the
            // listener backlog when its successor spawned.
            soup_obs::counter!("supervisor.stale_frames").inc();
            return;
        }
        slot.state = SlotState::Ready;
        slot.last_seen = Instant::now();
        slot.conn = Some(conn);
    }

    /// Drain frames from every attached connection. Returns the slots
    /// that must be declared lost (collected first — `lose_slot` needs
    /// `&mut self`).
    fn pump_slots(&mut self) -> Vec<(usize, String)> {
        let deadline = self.timeout();
        let mut lost: Vec<(usize, String)> = Vec::new();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if let Err(reason) = drain_conn(slot, deadline) {
                slot.conn = None;
                lost.push((i, reason));
            }
        }
        lost
    }

    /// `try_wait` every child: exits are either expected (Done) or a
    /// crash; hung workers are caught by the heartbeat deadline instead.
    fn check_children(&mut self) -> Vec<(usize, String, bool)> {
        let timeout = self.timeout();
        let mut lost = Vec::new();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            let Some(child) = slot.child.as_mut() else {
                continue;
            };
            match child.try_wait() {
                Ok(Some(status)) => {
                    if slot.state == SlotState::Done {
                        slot.child = None; // clean exit, reaped
                    } else if slot.live() {
                        lost.push((i, format!("worker exited with {status}"), false));
                    }
                }
                Ok(None) => {
                    let stale = slot.last_seen.elapsed();
                    if slot.state == SlotState::Done {
                        // ACKed but lingering: give it one deadline, then
                        // put it down — the result is already in hand.
                        if slot.done_at.is_some_and(|t| t.elapsed() > timeout) {
                            let mut c = slot.child.take().unwrap();
                            let _ = c.kill();
                            let _ = c.wait();
                            soup_obs::counter!("supervisor.reaps").inc();
                            soup_obs::warn!(
                                "shard {}: worker lingered after ACK; reaped",
                                slot.shard
                            );
                        }
                    } else if slot.live() && stale > timeout {
                        lost.push((
                            i,
                            format!(
                                "heartbeat deadline missed ({:.1}s > {:.1}s)",
                                stale.as_secs_f64(),
                                timeout.as_secs_f64()
                            ),
                            true,
                        ));
                    }
                }
                Err(e) => lost.push((i, format!("try_wait failed: {e}"), false)),
            }
        }
        lost
    }

    fn run(&mut self) -> Result<()> {
        loop {
            self.accept_new();
            self.pump_pending();
            for (i, reason) in self.pump_slots() {
                if self.slots[i].live() && self.slots[i].state != SlotState::Done {
                    self.lose_slot(i, &reason, false)?;
                }
            }
            for (i, reason, hang) in self.check_children() {
                if self.slots[i].live() && self.slots[i].state != SlotState::Done {
                    self.lose_slot(i, &reason, hang)?;
                }
            }
            if self
                .slots
                .iter()
                .all(|s| matches!(s.state, SlotState::Done | SlotState::Lost))
            {
                break;
            }
            std::thread::sleep(TICK);
        }
        // Drain: Done workers exit on their own after ACK; anything still
        // alive past one deadline is killed (and reaped) by check_children
        // or, ultimately, by Drop.
        let drain_deadline = Instant::now() + self.timeout();
        while self.slots.iter().any(|s| s.child.is_some()) && Instant::now() < drain_deadline {
            let _ = self.check_children();
            std::thread::sleep(TICK);
        }
        for slot in &mut self.slots {
            if let Some(mut child) = slot.child.take() {
                let _ = child.kill();
                let _ = child.wait();
                soup_obs::counter!("supervisor.reaps").inc();
            }
        }
        Ok(())
    }
}

/// Read and act on every frame waiting on `slot`'s connection, if it has
/// one. `Err` says why the slot must be declared lost.
fn drain_conn(slot: &mut Slot, deadline: Duration) -> std::result::Result<(), String> {
    let Some(conn) = slot.conn.as_mut() else {
        return Ok(());
    };
    let open = conn
        .buf
        .fill(&mut conn.stream)
        .map_err(|e| format!("control read: {e}"))?;
    while let Some(frame) = conn.buf.pop().map_err(|e| format!("control stream: {e}"))? {
        let (op, shard, epoch, rest) =
            decode_control(frame).map_err(|e| format!("unparsable control frame: {e}"))?;
        if shard as usize != slot.shard || epoch != slot.epoch {
            soup_obs::counter!("supervisor.stale_frames").inc();
            continue;
        }
        slot.last_seen = Instant::now();
        match op {
            OP_HEARTBEAT => {
                soup_obs::registry::gauge(&format!("distrib.worker.{}.heartbeat_s", slot.shard))
                    .set(unix_now_s());
            }
            OP_RESULT => {
                let result =
                    parse_result(rest, slot.shard).map_err(|e| format!("RESULT rejected: {e}"))?;
                if let Err(e) = send_control(&mut conn.stream, OP_ACK, deadline) {
                    let shard = slot.shard;
                    soup_obs::warn!("shard {shard}: ACK not delivered ({e}); result kept");
                }
                slot.result = Some(result);
                slot.state = SlotState::Done;
                slot.done_at = Some(Instant::now());
                slot.conn = None;
                return Ok(());
            }
            other => return Err(format!("unexpected control opcode {other}")),
        }
    }
    if open {
        Ok(())
    } else {
        Err("control connection closed".to_string())
    }
}

fn parse_result(json_bytes: &[u8], want_shard: usize) -> Result<ShardResult> {
    let json = std::str::from_utf8(json_bytes)
        .map_err(|_| SoupError::corrupt("shard RESULT payload is not UTF-8"))?;
    let result: ShardResult = serde_json::from_str(json)
        .map_err(|e| SoupError::corrupt(format!("shard RESULT decode: {e}")))?;
    if result.shard != want_shard {
        return Err(SoupError::corrupt(format!(
            "shard RESULT for {} arrived on shard {want_shard}'s connection",
            result.shard
        )));
    }
    Ok(result)
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

/// Supervised replacement for the PR-9 coordinator: fork one worker per
/// shard, drive the control protocol with crash/hang detection, bounded
/// respawn and graceful degradation, and aggregate the surviving shards'
/// results. See the module docs for the full fault model.
pub fn run_supervised(plan: &ShardPlan, launch: &WorkerLaunch) -> Result<ShardRunReport> {
    let _span = soup_obs::span!("distrib.shard_run");
    let start = Instant::now();
    soup_obs::gauge!("supervisor.degraded_shards").set(0.0);

    let mut sup = Supervisor::new(plan, launch)?;
    sup.run()?;

    let mut per_shard: Vec<ShardResult> = Vec::new();
    let mut missing: Vec<usize> = Vec::new();
    for slot in &sup.slots {
        match &slot.result {
            Some(r) => per_shard.push(r.clone()),
            None => missing.push(slot.shard),
        }
    }
    per_shard.sort_by_key(|r| r.shard);
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

    #[test]
    fn fill_handles_fragmented_frames_over_a_socketpair() {
        let (mut a, mut b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        let mut wire = Vec::new();
        crate::control::send(
            &mut wire,
            &[&[OP_READY], &crate::control::shard_epoch_payload(1, 0)],
        )
        .unwrap();
        // First half now, second half later.
        use std::io::Write;
        a.write_all(&wire[..wire.len() / 2]).unwrap();
        let mut buf = FrameBuf::new(MAX_FRAME);
        assert!(buf.fill(&mut b).unwrap());
        assert!(buf.pop().unwrap().is_none(), "half a frame is no frame");
        a.write_all(&wire[wire.len() / 2..]).unwrap();
        assert!(buf.fill(&mut b).unwrap());
        let payload = buf.pop().unwrap().unwrap();
        assert_eq!(decode_control(payload).unwrap(), (OP_READY, 1, 0, &[][..]));
        // Peer hangs up: fill reports the close.
        drop(a);
        assert!(!buf.fill(&mut b).unwrap());
    }

    #[test]
    fn control_writes_reach_a_nonblocking_peer_whole() {
        let (mut a, mut b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        send_control(&mut a, OP_ACK, Duration::from_secs(1)).unwrap();
        let mut buf = FrameBuf::new(MAX_FRAME);
        buf.fill(&mut b).unwrap();
        assert_eq!(buf.pop().unwrap(), Some(&[OP_ACK][..]));
    }
}
