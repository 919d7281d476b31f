//! The single process-wide deadline (watchdog) thread every supervised
//! attempt shares. How a run hands experiments to its workers is
//! described in [`crate::shard`].
//!
//! [`arm_deadline`] registers a deadline with a single process-wide timer
//! thread (a binary-heap timer wheel). Cancellation is lazy: dropping the
//! [`DeadlineGuard`] marks the entry and the wheel discards it on pop,
//! with periodic compaction so canceled entries cannot accumulate. This
//! replaces the seed's thread-per-attempt watchdog: one deadline thread
//! total, regardless of shard count or attempt rate.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Watchdog: one process-wide deadline thread
// ---------------------------------------------------------------------------

/// One armed deadline in the wheel.
struct DeadlineEntry {
    fire_at: Instant,
    /// Tiebreak so heap order is total and deterministic.
    id: u64,
    /// Set by whichever side settles first: the guard (cancel) or the
    /// wheel (fire). The loser sees `true` and does nothing.
    settled: Arc<AtomicBool>,
    /// Fired exactly once if the deadline expires before cancellation.
    notify: Box<dyn FnOnce() + Send>,
}

impl PartialEq for DeadlineEntry {
    fn eq(&self, other: &Self) -> bool {
        self.fire_at == other.fire_at && self.id == other.id
    }
}
impl Eq for DeadlineEntry {}
impl PartialOrd for DeadlineEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for DeadlineEntry {
    /// Reversed so `BinaryHeap` (a max-heap) pops the *earliest* deadline.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .fire_at
            .cmp(&self.fire_at)
            .then_with(|| other.id.cmp(&self.id))
    }
}

#[derive(Default)]
struct WheelState {
    heap: BinaryHeap<DeadlineEntry>,
    /// Canceled-but-not-yet-popped entries; triggers compaction.
    canceled: usize,
}

struct Wheel {
    state: Mutex<WheelState>,
    wake: Condvar,
}

/// Canceled entries tolerated in the heap before a compaction sweep.
/// Keeps wheel memory proportional to *live* deadlines even when every
/// attempt finishes long before its (say) 30-second deadline.
const COMPACT_THRESHOLD: usize = 256;

fn wheel() -> &'static Arc<Wheel> {
    static WHEEL: OnceLock<Arc<Wheel>> = OnceLock::new();
    WHEEL.get_or_init(|| {
        let wheel = Arc::new(Wheel {
            state: Mutex::new(WheelState::default()),
            wake: Condvar::new(),
        });
        let thread_wheel = Arc::clone(&wheel);
        // The one deadline thread for the whole process; parks on the
        // condvar until the earliest armed deadline (or forever when idle).
        std::thread::Builder::new()
            .name("humnet-watchdog".to_owned())
            .spawn(move || watchdog_loop(&thread_wheel))
            .expect("failed to spawn the watchdog thread");
        wheel
    })
}

fn watchdog_loop(wheel: &Wheel) {
    let mut state = wheel.state.lock().unwrap_or_else(|e| e.into_inner());
    loop {
        let now = Instant::now();
        while state.heap.peek().is_some_and(|e| e.fire_at <= now) {
            let entry = state.heap.pop().expect("peeked entry");
            if entry.settled.swap(true, Ordering::AcqRel) {
                // Canceled before firing; drop it and move on.
                state.canceled = state.canceled.saturating_sub(1);
            } else {
                (entry.notify)();
            }
        }
        state = match state.heap.peek().map(|e| e.fire_at) {
            Some(next) => {
                let wait = next.saturating_duration_since(Instant::now());
                wheel
                    .wake
                    .wait_timeout(state, wait)
                    .unwrap_or_else(|e| e.into_inner())
                    .0
            }
            None => wheel.wake.wait(state).unwrap_or_else(|e| e.into_inner()),
        };
    }
}

/// RAII handle for an armed deadline: dropping it cancels the timer.
pub(crate) struct DeadlineGuard {
    settled: Arc<AtomicBool>,
}

impl Drop for DeadlineGuard {
    fn drop(&mut self) {
        if self.settled.swap(true, Ordering::AcqRel) {
            return; // already fired
        }
        let wheel = wheel();
        let mut state = wheel.state.lock().unwrap_or_else(|e| e.into_inner());
        state.canceled += 1;
        if state.canceled >= COMPACT_THRESHOLD {
            let heap = std::mem::take(&mut state.heap);
            state.heap = heap
                .into_iter()
                .filter(|e| !e.settled.load(Ordering::Acquire))
                .collect();
            state.canceled = 0;
        }
    }
}

/// Arm a deadline `after` from now: `notify` runs on the watchdog thread
/// if the returned guard is still alive when the deadline expires.
pub(crate) fn arm_deadline(after: Duration, notify: Box<dyn FnOnce() + Send>) -> DeadlineGuard {
    static NEXT_ID: AtomicU64 = AtomicU64::new(0);
    let settled = Arc::new(AtomicBool::new(false));
    let entry = DeadlineEntry {
        fire_at: Instant::now() + after,
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        settled: Arc::clone(&settled),
        notify,
    };
    let wheel = wheel();
    let mut state = wheel.state.lock().unwrap_or_else(|e| e.into_inner());
    let fire_at = entry.fire_at;
    state.heap.push(entry);
    // Wake the wheel only when this entry becomes the new earliest (or the
    // wheel was idle); otherwise its current wait already expires in time.
    let is_min = state.heap.peek().is_some_and(|e| e.fire_at >= fire_at);
    drop(state);
    if is_min {
        wheel.wake.notify_one();
    }
    DeadlineGuard { settled }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn armed_deadline_fires_once_and_cancel_suppresses() {
        let fired = Arc::new(AtomicUsize::new(0));
        let fired_in_wheel = Arc::clone(&fired);
        let guard = arm_deadline(
            Duration::from_millis(10),
            Box::new(move || {
                fired_in_wheel.fetch_add(1, Ordering::SeqCst);
            }),
        );
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        drop(guard); // dropping after the fire is a no-op

        let never = Arc::new(AtomicUsize::new(0));
        let never_in_wheel = Arc::clone(&never);
        let guard = arm_deadline(
            Duration::from_secs(60),
            Box::new(move || {
                never_in_wheel.fetch_add(1, Ordering::SeqCst);
            }),
        );
        drop(guard); // canceled long before the deadline
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(never.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn many_armed_deadlines_fire_in_order() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let guards: Vec<_> = [30u64, 10, 20]
            .iter()
            .map(|&ms| {
                let log = Arc::clone(&log);
                arm_deadline(
                    Duration::from_millis(ms),
                    Box::new(move || log.lock().unwrap().push(ms)),
                )
            })
            .collect();
        std::thread::sleep(Duration::from_millis(300));
        assert_eq!(*log.lock().unwrap(), vec![10, 20, 30]);
        drop(guards);
    }
}
