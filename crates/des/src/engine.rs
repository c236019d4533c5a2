//! The simulation driver.

use crate::clock::Clock;
use crate::queue::EventQueue;
use crate::time::SimTime;

/// A ready-to-use simulation loop: an [`EventQueue`] plus a monotone
/// virtual clock that panics on rewind.
///
/// The engine owns the queue and clock; the handler receives a mutable
/// re-borrow of the engine through [`EngineHandle`], so it can schedule
/// follow-up events while an event is being processed — the usual DES
/// pattern (a block-completion event schedules the device's next block).
pub struct Engine<E> {
    queue: EventQueue<E>,
    clock: Clock,
    processed: u64,
}

/// The scheduling surface exposed to event handlers while the engine is
/// mid-dispatch. Deliberately narrow: handlers may schedule new events and
/// read the clock, but cannot pop events or rewind time.
pub struct EngineHandle<'a, E> {
    queue: &'a mut EventQueue<E>,
    now: SimTime,
}

impl<E> EngineHandle<'_, E> {
    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past; an event scheduled before "now" could
    /// never be delivered in order.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={:?}, at={:?}",
            self.now,
            at
        );
        self.queue.push(at, payload);
    }

    /// Schedules `payload` to fire `dt` after the current time.
    pub fn schedule_after(&mut self, dt: SimTime, payload: E) {
        let at = self.now + dt;
        self.queue.push(at, payload);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }
}

impl<E> Engine<E> {
    /// Creates an engine with an empty queue at time zero.
    pub fn new() -> Engine<E> {
        Engine {
            queue: EventQueue::new(),
            clock: Clock::new(),
            processed: 0,
        }
    }

    /// Schedules an event before the simulation starts (or between runs).
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        self.queue.push(at, payload);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Total number of events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Runs until the queue is empty. The handler receives
    /// `(now, payload, handle)` for each event in timestamp order.
    pub fn run<F>(&mut self, mut handler: F)
    where
        F: FnMut(SimTime, E, &mut EngineHandle<'_, E>),
    {
        self.run_until(SimTime::INFINITY, &mut handler);
    }

    /// Runs until the queue is empty or the next event would fire after
    /// `horizon`. Events at exactly `horizon` are processed. Returns the
    /// number of events processed by this call.
    pub fn run_until<F>(&mut self, horizon: SimTime, handler: &mut F) -> u64
    where
        F: FnMut(SimTime, E, &mut EngineHandle<'_, E>),
    {
        let mut n = 0;
        while let Some(t) = self.queue.peek_time() {
            if t > horizon {
                break;
            }
            let ev = self.queue.pop().expect("peeked event must pop");
            self.clock.advance_to(ev.time);
            let mut handle = EngineHandle {
                queue: &mut self.queue,
                now: ev.time,
            };
            handler(ev.time, ev.payload, &mut handle);
            self.processed += 1;
            n += 1;
        }
        n
    }

    /// Processes exactly one event, if any is pending. Returns whether an
    /// event was processed. Useful for step-debugging a simulation.
    pub fn step<F>(&mut self, handler: &mut F) -> bool
    where
        F: FnMut(SimTime, E, &mut EngineHandle<'_, E>),
    {
        if let Some(ev) = self.queue.pop() {
            self.clock.advance_to(ev.time);
            let mut handle = EngineHandle {
                queue: &mut self.queue,
                now: ev.time,
            };
            handler(ev.time, ev.payload, &mut handle);
            self.processed += 1;
            true
        } else {
            false
        }
    }
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn runs_events_in_order() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule(t(3.0), 3);
        e.schedule(t(1.0), 1);
        e.schedule(t(2.0), 2);
        let mut seen = Vec::new();
        e.run(|now, ev, _| seen.push((now.as_secs(), ev)));
        assert_eq!(seen, vec![(1.0, 1), (2.0, 2), (3.0, 3)]);
        assert_eq!(e.events_processed(), 3);
    }

    #[test]
    fn handlers_can_chain_events() {
        // A "device" that re-schedules itself 5 times, 1 second apart.
        let mut e: Engine<u32> = Engine::new();
        e.schedule(t(0.0), 0);
        let mut fired = Vec::new();
        e.run(|now, count, h| {
            fired.push((now.as_secs(), count));
            if count < 4 {
                h.schedule_after(t(1.0), count + 1);
            }
        });
        assert_eq!(
            fired,
            vec![(0.0, 0), (1.0, 1), (2.0, 2), (3.0, 3), (4.0, 4)]
        );
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut e: Engine<u32> = Engine::new();
        for i in 0..10 {
            e.schedule(t(i as f64), i);
        }
        let mut seen = Vec::new();
        let n = e.run_until(t(4.0), &mut |_, ev, _| seen.push(ev));
        assert_eq!(n, 5); // events at t = 0..=4 inclusive
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        assert_eq!(e.pending(), 5);
        // Resume to completion.
        e.run(|_, ev, _| seen.push(ev));
        assert_eq!(seen.len(), 10);
    }

    #[test]
    fn step_processes_one_event() {
        let mut e: Engine<&str> = Engine::new();
        e.schedule(t(1.0), "a");
        e.schedule(t(2.0), "b");
        let mut seen = Vec::new();
        assert!(e.step(&mut |_, ev, _| seen.push(ev)));
        assert_eq!(seen, vec!["a"]);
        assert!(e.step(&mut |_, ev, _| seen.push(ev)));
        assert!(!e.step(&mut |_, ev, _| seen.push(ev)));
        assert_eq!(seen, vec!["a", "b"]);
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_the_past_panics() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule(t(5.0), 0);
        e.run(|_, _, h| h.schedule(t(1.0), 99));
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut e: Engine<u32> = Engine::new();
        for i in 0..50 {
            e.schedule(t(1.0), i);
        }
        let mut seen = Vec::new();
        e.run(|_, ev, _| seen.push(ev));
        let expected: Vec<u32> = (0..50).collect();
        assert_eq!(seen, expected);
    }
}
