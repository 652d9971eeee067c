//! Hashed timer wheel for idle-connection deadlines.
//!
//! The reactor needs one timer per connection ("close it if nothing
//! arrives for `idle` seconds") with O(1) schedule and cancel-by-neglect.
//! A binary heap would need explicit cancellation on every received byte;
//! the wheel instead leans on *lazy revalidation*: entries are never
//! removed when a connection becomes active, they simply fire and the
//! reactor re-checks the connection's true `last_activity` before acting,
//! rescheduling the entry if the deadline moved. Idle timeouts are coarse
//! (seconds), so slot-granularity firing (an entry can pop one tick early
//! or late) is harmless — the reactor's revalidation is the source of
//! truth, the wheel is only a hint scheduler.

use std::time::{Duration, Instant};

/// One revolution of hashed slots. Entries further out than a revolution
/// are still placed in their (wrapped) slot and may fire early; the
/// caller's revalidation reschedules them, so correctness never depends on
/// wheel capacity.
#[derive(Debug)]
pub(crate) struct TimerWheel {
    slots: Vec<Vec<u64>>,
    tick: Duration,
    /// Start of the slot `cursor` points at.
    epoch: Instant,
    cursor: usize,
    armed: usize,
}

impl TimerWheel {
    /// A wheel whose revolution comfortably covers `horizon` (the idle
    /// timeout) at a granularity of roughly `horizon / 8`, clamped to
    /// [25ms, 1s]. Coarse on purpose: firing precision is bounded by one
    /// tick, and the reactor only needs "roughly then".
    pub(crate) fn for_horizon(horizon: Duration, now: Instant) -> TimerWheel {
        let tick = (horizon / 8).clamp(Duration::from_millis(25), Duration::from_secs(1));
        let revolution = (horizon.as_nanos() / tick.as_nanos()).max(1) as usize + 2;
        TimerWheel { slots: vec![Vec::new(); revolution], tick, epoch: now, cursor: 0, armed: 0 }
    }

    /// Place `token` in the slot covering `fire_at`. Deadlines in the past
    /// land in the current slot and pop on the next [`expire`](Self::expire).
    pub(crate) fn schedule(&mut self, token: u64, fire_at: Instant, now: Instant) {
        let ahead = fire_at.saturating_duration_since(now);
        let ticks = (ahead.as_nanos() / self.tick.as_nanos()) as usize;
        let slot = (self.cursor + ticks) % self.slots.len();
        self.slots[slot].push(token);
        self.armed += 1;
    }

    /// Advance the wheel to `now`, appending every candidate token whose
    /// slot has elapsed to `out`. Callers must revalidate: a popped token
    /// may belong to a connection that is active again, already closed, or
    /// rescheduled into a later slot.
    pub(crate) fn expire(&mut self, now: Instant, out: &mut Vec<u64>) {
        while now.saturating_duration_since(self.epoch) >= self.tick {
            let due = std::mem::take(&mut self.slots[self.cursor]);
            self.armed -= due.len();
            out.extend(due);
            self.cursor = (self.cursor + 1) % self.slots.len();
            self.epoch += self.tick;
        }
    }

    /// Time until the next slot boundary, if any entry is armed — feeds
    /// the poller timeout so an idle reactor sleeps instead of spinning.
    pub(crate) fn next_tick(&self, now: Instant) -> Option<Duration> {
        if self.armed == 0 {
            return None;
        }
        let next = self.epoch + self.tick;
        Some(next.saturating_duration_since(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_fire_once_their_slot_elapses() {
        let t0 = Instant::now();
        let mut w = TimerWheel::for_horizon(Duration::from_millis(800), t0);
        w.schedule(7, t0 + Duration::from_millis(300), t0);
        let mut due = Vec::new();
        w.expire(t0 + Duration::from_millis(150), &mut due);
        assert!(due.is_empty(), "not due yet: {due:?}");
        w.expire(t0 + Duration::from_millis(800), &mut due);
        assert_eq!(due, vec![7]);
        // Fired entries are gone: the wheel does not re-arm on its own.
        due.clear();
        w.expire(t0 + Duration::from_secs(5), &mut due);
        assert!(due.is_empty());
    }

    #[test]
    fn past_deadlines_pop_on_the_next_expire() {
        let t0 = Instant::now();
        let mut w = TimerWheel::for_horizon(Duration::from_millis(400), t0);
        w.schedule(1, t0, t0);
        let mut due = Vec::new();
        w.expire(t0 + Duration::from_millis(120), &mut due);
        assert_eq!(due, vec![1]);
    }

    #[test]
    fn next_tick_is_none_only_when_nothing_is_armed() {
        let t0 = Instant::now();
        let mut w = TimerWheel::for_horizon(Duration::from_secs(2), t0);
        assert_eq!(w.next_tick(t0), None);
        w.schedule(9, t0 + Duration::from_secs(1), t0);
        let hint = w.next_tick(t0).expect("armed wheel must sleep, not hang");
        assert!(hint <= Duration::from_secs(1));
        let mut due = Vec::new();
        w.expire(t0 + Duration::from_secs(3), &mut due);
        assert_eq!(due, vec![9]);
        assert_eq!(w.next_tick(t0 + Duration::from_secs(3)), None);
    }

    #[test]
    fn deadlines_beyond_one_revolution_fire_early_not_never() {
        // Wrapped entries pop early; the reactor's revalidation reschedules
        // them. The invariant the wheel owes is "never lost".
        let t0 = Instant::now();
        let mut w = TimerWheel::for_horizon(Duration::from_millis(200), t0);
        w.schedule(3, t0 + Duration::from_secs(60), t0);
        let mut due = Vec::new();
        w.expire(t0 + Duration::from_secs(1), &mut due);
        assert_eq!(due, vec![3], "a wrapped entry must still surface");
    }

    #[test]
    fn many_tokens_in_one_slot_all_surface() {
        let t0 = Instant::now();
        let mut w = TimerWheel::for_horizon(Duration::from_millis(800), t0);
        for tok in 0..100u64 {
            w.schedule(tok, t0 + Duration::from_millis(300), t0);
        }
        let mut due = Vec::new();
        w.expire(t0 + Duration::from_secs(1), &mut due);
        due.sort_unstable();
        assert_eq!(due, (0..100).collect::<Vec<u64>>());
    }
}
