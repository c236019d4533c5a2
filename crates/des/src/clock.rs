//! The virtual clock the [`Engine`](crate::Engine) advances.

use crate::time::SimTime;

/// A monotone virtual clock.
///
/// The clock only moves forward; attempting to rewind it panics, because a
/// rewind means the event queue handed out events out of order — a bug that
/// must never be papered over.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Clock {
    now: SimTime,
}

impl Clock {
    /// A clock at time zero.
    pub fn new() -> Clock {
        Clock { now: SimTime::ZERO }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the clock to `to`.
    ///
    /// # Panics
    ///
    /// Panics if `to` is earlier than the current time.
    #[inline]
    pub fn advance_to(&mut self, to: SimTime) {
        assert!(
            to >= self.now,
            "clock rewind: {:?} -> {:?} (event queue delivered out of order?)",
            self.now,
            to
        );
        self.now = to;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_advances() {
        let mut c = Clock::new();
        assert_eq!(c.now(), SimTime::ZERO);
        c.advance_to(SimTime::from_secs(1.0));
        assert_eq!(c.now().as_secs(), 1.0);
    }

    #[test]
    fn advancing_to_same_time_is_fine() {
        let mut c = Clock::new();
        c.advance_to(SimTime::from_secs(1.0));
        c.advance_to(SimTime::from_secs(1.0));
        assert_eq!(c.now().as_secs(), 1.0);
    }

    #[test]
    #[should_panic(expected = "rewind")]
    fn rewind_panics() {
        let mut c = Clock::new();
        c.advance_to(SimTime::from_secs(2.0));
        c.advance_to(SimTime::from_secs(1.0));
    }
}
