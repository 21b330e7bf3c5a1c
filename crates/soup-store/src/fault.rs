//! Test-armed fault points.
//!
//! Every place where the system must survive a crash or damage calls one
//! of two entry points with a literal site name: [`crash`] (a step that can
//! die) or [`damage`] (a step whose output can be spoiled). Both do nothing
//! unless a test has armed `(site, n)`; then the site's `n`-th hit acts:
//!
//! - a crash point returns an injected `io` error, or, when the arm says
//!   so (a forked shard worker), ends the process with [`EXIT_CODE`];
//! - a damage point returns `true`, and its caller applies that site's
//!   damage.
//!
//! [`census`] counts hits per site without arming anything, so a test can
//! run a clean pipeline once, learn how many points each site has, and
//! then arm every one of them in turn (`tests/crash_points.rs`). The arm is
//! global to the process; disarmed, a site costs one relaxed atomic load.
//!
//! Sites: `durable.{write,fsync,rename,dir_fsync}` ([`crate::atomic`]),
//! `store.{tear,flip}` ([`crate::store`]), `train.{panic,nan}` (the
//! Phase-1 trainer) and `worker.{spawn,fetch,train,soup,report}` (the
//! shard worker).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};

/// Exit code of a crash point armed to end its process, distinct from
/// panics (101) and ordinary failures (1) so a supervisor's log says what
/// happened.
pub const EXIT_CODE: i32 = 86;

/// Whether a census or an arm is live. Read before anything else, so a
/// disarmed site never touches the lock.
static LIVE: AtomicBool = AtomicBool::new(false);

static STATE: Mutex<State> = Mutex::new(State {
    arm: None,
    hits: BTreeMap::new(),
});

struct State {
    /// `(site, hit, exit)`: the armed point and how a crash there acts.
    arm: Option<(String, u64, bool)>,
    hits: BTreeMap<&'static str, u64>,
}

fn start(arm: Option<(String, u64, bool)>) {
    let mut st = STATE.lock().unwrap_or_else(PoisonError::into_inner);
    st.arm = arm;
    st.hits.clear();
    LIVE.store(true, Ordering::Relaxed);
}

/// Arm the `hit`-th hit (1-based) of `site`, and count every site's hits
/// from zero. With `exit`, an armed crash point ends the process with
/// [`EXIT_CODE`] instead of returning an error.
pub fn arm(site: &str, hit: u64, exit: bool) {
    start(Some((site.to_string(), hit, exit)));
}

/// Count every site's hits from zero, with nothing armed.
pub fn census() {
    start(None);
}

/// Stop counting and disarm; returns the hits per site since the last
/// [`arm`] or [`census`].
pub fn disarm() -> BTreeMap<&'static str, u64> {
    let mut st = STATE.lock().unwrap_or_else(PoisonError::into_inner);
    LIVE.store(false, Ordering::Relaxed);
    st.arm = None;
    std::mem::take(&mut st.hits)
}

/// Count a hit of `site`; `Some(exit)` when it is the armed one.
fn fire(site: &'static str) -> Option<bool> {
    if !LIVE.load(Ordering::Relaxed) {
        return None;
    }
    let mut st = STATE.lock().unwrap_or_else(PoisonError::into_inner);
    let n = st.hits.entry(site).or_insert(0);
    *n += 1;
    let n = *n;
    match &st.arm {
        Some((armed, hit, exit)) if armed == site && *hit == n => Some(*exit),
        _ => None,
    }
}

/// A crash point: `Err` (or process exit) when armed, `Ok` otherwise.
pub fn crash(site: &'static str) -> std::io::Result<()> {
    match fire(site) {
        None => Ok(()),
        Some(true) => {
            soup_obs::warn!("fault: crash at {site}; exiting {EXIT_CODE}");
            std::process::exit(EXIT_CODE)
        }
        Some(false) => Err(std::io::Error::other(format!("injected crash at {site}"))),
    }
}

/// A damage point: `true` when armed, and the caller spoils its output.
pub fn damage(site: &'static str) -> bool {
    let armed = fire(site).is_some();
    if armed {
        soup_obs::warn!("fault: damage at {site}");
    }
    armed
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test: the arm is process-global, so parallel tests would race.
    #[test]
    fn only_the_armed_hit_fires_and_census_counts() {
        assert!(crash("test.a").is_ok(), "disarmed sites never fire");
        census();
        for _ in 0..3 {
            assert!(crash("test.a").is_ok());
        }
        assert!(!damage("test.b"));
        let hits = disarm();
        assert_eq!((hits["test.a"], hits["test.b"]), (3, 1));

        arm("test.a", 2, false);
        assert!(crash("test.a").is_ok());
        let err = crash("test.a").unwrap_err();
        assert!(err.to_string().contains("test.a"), "{err}");
        assert!(crash("test.a").is_ok(), "an arm fires once");
        assert!(!damage("test.b"));
        assert_eq!(disarm()["test.a"], 3);

        arm("test.b", 1, true);
        assert!(damage("test.b"), "exit applies to crash points only");
        disarm();
        assert!(!damage("test.b"));
        assert!(
            !disarm().contains_key("test.b"),
            "disarmed sites are not counted"
        );
    }
}
