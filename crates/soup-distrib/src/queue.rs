//! The shared dynamic task queue of §III-A, grown into a fault-tolerant
//! claim/complete/fail/requeue state machine.
//!
//! "Once a worker completes training an ingredient, it immediately begins
//! training the next available ingredient from a shared task queue." The
//! original queue was a single atomic cursor, which is exactly right while
//! every worker is flawless — but a production Phase 1 is not: workers
//! panic and produce corrupt output. Graph Ladling's zero-communication
//! property means ingredients are *independent*, so a failed ingredient
//! can simply be re-queued and retrained (bit-identically — its training
//! seed is keyed by ordinal, not by worker or attempt) without touching
//! any other task.
//!
//! Per-task lifecycle:
//!
//! ```text
//!            claim                complete
//! Pending ──────────▶ Running ───────────────▶ Done
//!    ▲                   │ fail (attempts ≤ budget)
//!    └───────────────────┤
//!                        │ fail (budget exhausted)
//!                        └───────────────────▶ Failed
//! ```
//!
//! Only a task's claimer resolves it: `complete` and `fail` consume the
//! [`Claim`], so a second completion of one attempt does not compile.
//!
//! Requeue ordering is FIFO: failed tasks go to the *back* of the ready
//! queue, so fresh work is never starved by a task that keeps failing.
//!
//! A stalled attempt is not requeued: a thread cannot be killed, so racing
//! it would only train the same ordinal twice on the same cores. Stalls
//! are the process supervisor's job ([`crate::supervisor`]), which can
//! kill what it gives up on.

use parking_lot::Mutex;
use std::collections::VecDeque;

/// A claimed task: the ordinal to train plus which attempt this is
/// (0 = first try). Only [`TaskQueue::claim`] makes one, and it is
/// neither `Copy` nor `Clone`: [`TaskQueue::complete`] and
/// [`TaskQueue::fail`] consume it, so only its claimer can resolve a
/// task, and only once.
#[derive(Debug, PartialEq, Eq)]
pub struct Claim {
    ordinal: usize,
    attempt: u32,
}

impl Claim {
    pub fn ordinal(&self) -> usize {
        self.ordinal
    }

    pub fn attempt(&self) -> u32 {
        self.attempt
    }
}

/// What [`TaskQueue::fail`] decided to do with a failed task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// The task went back to the ready queue; the value is the attempt
    /// number the *next* claim will carry.
    Requeued { next_attempt: u32 },
    /// The retry budget is spent; the task is permanently failed.
    Exhausted { attempts: u32 },
}

#[derive(Debug, Clone, Copy)]
enum TaskState {
    Pending { attempts: u32 },
    Running,
    Done,
    Failed,
}

#[derive(Debug)]
struct QueueState {
    ready: VecDeque<usize>,
    tasks: Vec<TaskState>,
    claims: usize,
    done: usize,
    failed: usize,
    requeues: u64,
}

/// Fault-tolerant claim queue over task ordinals `0..total`.
#[derive(Debug)]
pub struct TaskQueue {
    state: Mutex<QueueState>,
    total: usize,
    /// Number of *re*-tries allowed per task (0 = a single attempt).
    retry_budget: u32,
}

impl TaskQueue {
    /// A queue with no retries — the original flawless-worker behaviour.
    pub fn new(total: usize) -> Self {
        Self::with_retry_budget(total, 0)
    }

    /// A queue allowing each task up to `1 + retry_budget` attempts.
    pub fn with_retry_budget(total: usize, retry_budget: u32) -> Self {
        Self {
            state: Mutex::new(QueueState {
                ready: (0..total).collect(),
                tasks: vec![TaskState::Pending { attempts: 0 }; total],
                claims: 0,
                done: 0,
                failed: 0,
                requeues: 0,
            }),
            total,
            retry_budget,
        }
    }

    /// Claim the next ready task, or `None` when nothing is ready. `None`
    /// does not mean the phase is over — a running task may still fail and
    /// re-queue — but the worker that fails it will claim the requeue on
    /// its own next loop iteration, so exiting on `None` is safe.
    pub fn claim(&self) -> Option<Claim> {
        let mut s = self.state.lock();
        let ordinal = s.ready.pop_front()?;
        let TaskState::Pending { attempts } = s.tasks[ordinal] else {
            unreachable!("task {ordinal} is ready but not pending");
        };
        s.tasks[ordinal] = TaskState::Running;
        s.claims += 1;
        Some(Claim {
            ordinal,
            attempt: attempts,
        })
    }

    /// Mark a claimed task done.
    pub fn complete(&self, claim: Claim) {
        let mut s = self.state.lock();
        s.tasks[claim.ordinal] = TaskState::Done;
        s.done += 1;
    }

    /// Report a failed attempt. Requeues the task (FIFO, at the back) while
    /// the retry budget lasts, else marks it permanently failed.
    pub fn fail(&self, claim: Claim) -> FailAction {
        let mut s = self.state.lock();
        let ordinal = claim.ordinal;
        let attempts = claim.attempt + 1;
        if attempts <= self.retry_budget {
            s.tasks[ordinal] = TaskState::Pending { attempts };
            s.ready.push_back(ordinal);
            s.requeues += 1;
            FailAction::Requeued {
                next_attempt: attempts,
            }
        } else {
            s.tasks[ordinal] = TaskState::Failed;
            s.failed += 1;
            FailAction::Exhausted { attempts }
        }
    }

    /// Pre-complete a task (checkpoint resume): it is never handed out.
    /// Must be called before workers start claiming.
    pub fn mark_done(&self, ordinal: usize) {
        let mut s = self.state.lock();
        if !matches!(s.tasks[ordinal], TaskState::Done) {
            s.tasks[ordinal] = TaskState::Done;
            s.done += 1;
            s.ready.retain(|&o| o != ordinal);
        }
    }

    /// Number of successful `claim` calls so far (requeued attempts count
    /// again).
    pub fn claimed(&self) -> usize {
        self.state.lock().claims
    }

    pub fn total(&self) -> usize {
        self.total
    }

    pub fn retry_budget(&self) -> u32 {
        self.retry_budget
    }

    /// Tasks in the `Done` state.
    pub fn completed(&self) -> usize {
        self.state.lock().done
    }

    /// Tasks permanently failed (budget exhausted).
    pub fn failed_count(&self) -> usize {
        self.state.lock().failed
    }

    /// Total requeues performed (failure retries).
    pub fn requeues(&self) -> u64 {
        self.state.lock().requeues
    }

    /// Whether every task is resolved (done or permanently failed).
    pub fn is_drained(&self) -> bool {
        let s = self.state.lock();
        s.done + s.failed == self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sequential_claims_in_order() {
        let q = TaskQueue::new(3);
        assert_eq!(q.claim().map(|c| c.ordinal), Some(0));
        assert_eq!(q.claim().map(|c| c.ordinal), Some(1));
        assert_eq!(q.claim().map(|c| c.ordinal), Some(2));
        assert_eq!(q.claim(), None);
        assert_eq!(q.claim(), None);
        assert_eq!(q.claimed(), 3);
    }

    #[test]
    fn empty_queue() {
        let q = TaskQueue::new(0);
        assert_eq!(q.claim(), None);
        assert_eq!(q.claimed(), 0);
        assert!(q.is_drained());
    }

    #[test]
    fn complete_then_drained() {
        let q = TaskQueue::new(2);
        let a = q.claim().unwrap();
        let b = q.claim().unwrap();
        assert!(!q.is_drained());
        q.complete(a);
        q.complete(b);
        assert!(q.is_drained());
        assert_eq!(q.completed(), 2);
    }

    #[test]
    fn fail_requeues_until_budget_exhausted() {
        let q = TaskQueue::with_retry_budget(1, 2);
        // Attempt 0.
        let c = q.claim().unwrap();
        assert_eq!(c.attempt, 0);
        assert_eq!(q.fail(c), FailAction::Requeued { next_attempt: 1 });
        // Attempt 1.
        let c = q.claim().unwrap();
        assert_eq!(c.attempt, 1);
        assert_eq!(q.fail(c), FailAction::Requeued { next_attempt: 2 });
        // Attempt 2 — the last allowed.
        let c = q.claim().unwrap();
        assert_eq!(c.attempt, 2);
        assert_eq!(q.fail(c), FailAction::Exhausted { attempts: 3 });
        assert_eq!(q.claim(), None);
        assert_eq!(q.failed_count(), 1);
        assert!(q.is_drained());
    }

    #[test]
    fn requeue_goes_to_the_back() {
        let q = TaskQueue::with_retry_budget(3, 1);
        let first = q.claim().unwrap(); // task 0
        q.fail(first);
        // Fresh tasks 1 and 2 come before the requeued 0.
        assert_eq!(q.claim().unwrap().ordinal, 1);
        assert_eq!(q.claim().unwrap().ordinal, 2);
        let retry = q.claim().unwrap();
        assert_eq!((retry.ordinal, retry.attempt), (0, 1));
    }

    #[test]
    fn mark_done_skips_resumed_tasks() {
        let q = TaskQueue::new(3);
        q.mark_done(1);
        let got: Vec<usize> = std::iter::from_fn(|| q.claim().map(|c| c.ordinal)).collect();
        assert_eq!(got, vec![0, 2]);
        assert_eq!(q.completed(), 1);
    }

    #[test]
    fn concurrent_claims_are_exactly_once() {
        let q = Arc::new(TaskQueue::new(10_000));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let q = q.clone();
                std::thread::spawn(move || {
                    let mut mine = Vec::new();
                    while let Some(c) = q.claim() {
                        mine.push(c.ordinal);
                        q.complete(c);
                    }
                    mine
                })
            })
            .collect();
        let mut all: Vec<usize> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(
            all,
            (0..10_000).collect::<Vec<_>>(),
            "lost or duplicated tasks"
        );
        assert!(q.is_drained());
    }

    #[test]
    fn concurrent_fail_and_retry_converges() {
        let q = Arc::new(TaskQueue::with_retry_budget(1_000, 3));
        let handles: Vec<_> = (0..8)
            .map(|w| {
                let q = q.clone();
                std::thread::spawn(move || {
                    while let Some(c) = q.claim() {
                        // Fail every first attempt of every third ordinal.
                        if c.attempt == 0 && c.ordinal % 3 == 0 {
                            q.fail(c);
                        } else {
                            q.complete(c);
                        }
                        let _ = w;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(q.is_drained());
        assert_eq!(q.completed(), 1_000);
        assert_eq!(q.failed_count(), 0);
        assert!(q.requeues() >= 334); // every third ordinal retried once
    }
}
