//! The scheduling model of §III-A.
//!
//! Eq. (1): `T_total ≈ (N/W) · T_single` under dynamic allocation;
//! Eq. (2): `T_min = max_i T_single_i` when `N ≤ W`. The simulator runs
//! greedy list scheduling — exactly what the dynamic task queue implements
//! — so measured makespans can be validated against the analytic model
//! (the `workers` section of the `experiments` binary).

/// Predicted Phase-1 makespan for `n` equal-cost ingredients on `w`
/// workers (Eq. 1, with the exact ceil instead of the paper's continuous
/// approximation).
pub fn predicted_total_time(n: usize, w: usize, t_single: f64) -> f64 {
    assert!(w > 0, "need at least one worker");
    (n as f64 / w as f64).ceil() * t_single
}

/// Predicted makespan when every ingredient gets its own worker (Eq. 2).
pub fn predicted_min_time(task_times: &[f64]) -> f64 {
    task_times.iter().cloned().fold(0.0, f64::max)
}

/// Outcome of simulating the dynamic queue.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleResult {
    /// Total wall-clock until the last worker finishes.
    pub makespan: f64,
    /// Busy time per worker.
    pub per_worker_busy: Vec<f64>,
    /// Which tasks each worker executed, in claim order.
    pub per_worker_tasks: Vec<Vec<usize>>,
}

impl ScheduleResult {
    /// Load imbalance: max busy / mean busy (1.0 = perfect).
    pub fn imbalance(&self) -> f64 {
        let max = self.per_worker_busy.iter().cloned().fold(0.0, f64::max);
        let mean: f64 =
            self.per_worker_busy.iter().sum::<f64>() / self.per_worker_busy.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// Greedy list scheduling: tasks are claimed in order by whichever worker
/// is free first — the behaviour of the shared dynamic task queue.
pub fn simulate_schedule(task_times: &[f64], workers: usize) -> ScheduleResult {
    assert!(workers > 0, "need at least one worker");
    assert!(task_times.iter().all(|&t| t >= 0.0), "negative task time");
    let mut free_at = vec![0.0f64; workers];
    let mut tasks = vec![Vec::new(); workers];
    for (task, &t) in task_times.iter().enumerate() {
        // Earliest-free worker claims the next task (ties: lowest id, which
        // matches an atomic claim race won deterministically in the model).
        let w = (0..workers)
            .min_by(|&a, &b| free_at[a].partial_cmp(&free_at[b]).unwrap())
            .unwrap();
        free_at[w] += t;
        tasks[w].push(task);
    }
    ScheduleResult {
        makespan: free_at.iter().cloned().fold(0.0, f64::max),
        per_worker_busy: free_at,
        per_worker_tasks: tasks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq1_uniform_tasks() {
        assert_eq!(predicted_total_time(8, 4, 10.0), 20.0);
        assert_eq!(predicted_total_time(9, 4, 10.0), 30.0); // ceil
        assert_eq!(predicted_total_time(4, 8, 10.0), 10.0);
    }

    #[test]
    fn eq2_is_max() {
        assert_eq!(predicted_min_time(&[3.0, 7.0, 5.0]), 7.0);
        assert_eq!(predicted_min_time(&[]), 0.0);
    }

    #[test]
    fn simulation_matches_eq1_for_uniform_tasks() {
        let times = vec![10.0; 8];
        let r = simulate_schedule(&times, 4);
        assert_eq!(r.makespan, predicted_total_time(8, 4, 10.0));
        assert!((r.imbalance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn simulation_matches_eq2_when_n_leq_w() {
        let times = vec![4.0, 9.0, 2.0];
        let r = simulate_schedule(&times, 8);
        assert_eq!(r.makespan, 9.0);
    }

    #[test]
    fn dynamic_allocation_beats_static_blocks_on_skew() {
        // One long task plus many short: dynamic queue fills around it.
        let mut times = vec![1.0; 7];
        times.insert(0, 8.0);
        let r = simulate_schedule(&times, 2);
        // Dynamic: worker A takes the 8.0 task, worker B the seven 1.0s.
        assert_eq!(r.makespan, 8.0);
        // Static half-half split would give 8 + 3 = 11.
        assert!(r.makespan < 11.0);
    }

    #[test]
    fn all_tasks_scheduled_exactly_once() {
        let times: Vec<f64> = (0..20).map(|i| (i % 5) as f64 + 1.0).collect();
        let r = simulate_schedule(&times, 3);
        let mut all: Vec<usize> = r.per_worker_tasks.concat();
        all.sort_unstable();
        assert_eq!(all, (0..20).collect::<Vec<_>>());
        let busy_sum: f64 = r.per_worker_busy.iter().sum();
        assert!((busy_sum - times.iter().sum::<f64>()).abs() < 1e-9);
    }

    #[test]
    fn imbalance_detects_skew() {
        let r = simulate_schedule(&[10.0, 1.0], 2);
        assert!(r.imbalance() > 1.5);
    }

    #[test]
    #[should_panic(expected = "negative task time")]
    fn negative_time_panics() {
        simulate_schedule(&[-1.0], 1);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn makespan_bounds(times in proptest::collection::vec(0.1f64..10.0, 1..40),
                               workers in 1usize..8) {
                let r = simulate_schedule(&times, workers);
                let total: f64 = times.iter().sum();
                let max = times.iter().cloned().fold(0.0, f64::max);
                // Classic list-scheduling bounds.
                prop_assert!(r.makespan >= max - 1e-9);
                prop_assert!(r.makespan >= total / workers as f64 - 1e-9);
                prop_assert!(r.makespan <= total / workers as f64 + max + 1e-9);
            }

            #[test]
            fn more_workers_never_hurt(times in proptest::collection::vec(0.1f64..10.0, 1..30)) {
                let a = simulate_schedule(&times, 2).makespan;
                let b = simulate_schedule(&times, 4).makespan;
                prop_assert!(b <= a + 1e-9);
            }
        }
    }
}
