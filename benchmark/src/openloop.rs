//! Open-loop load generation: requests are sent on a schedule fixed in
//! advance, whether or not earlier ones have been answered, and each is
//! timed from when it was due. A stall therefore shows up as latency on
//! every request that came due during it, instead of silently thinning the
//! load the way a closed loop would.
//!
//! The one delay not charged to a request is the generator's own: when it
//! was idle and woke late, that oversleep is the load generator sharing the
//! host, not the system under test. It is reported separately as generator
//! lag, and a run whose lag is large does not measure the system.

use std::time::{Duration, Instant};

use crate::rng::Rng;

/// Time source of the generator, so the accounting can be tested on a
/// scripted clock.
pub trait Clock {
    /// Time since the clock's origin.
    fn now(&self) -> Duration;
    /// Blocks until `now() >= t`.
    fn sleep_until(&self, t: Duration);
}

/// The real clock. It waits by spinning, not sleeping: a sleeping
/// generator leaves its CPU idle, and a virtual CPU that goes idle between
/// requests wakes for the next one as late as its host decides, which puts
/// the host's load into every latency.
pub struct WallClock(pub Instant);

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn sleep_until(&self, t: Duration) {
        while self.now() < t {
            std::hint::spin_loop();
        }
    }
}

/// Timing of one request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    pub due: Duration,
    pub sent: Duration,
    pub done: Duration,
    /// How late the generator woke for a request it was idle waiting for
    /// (`None` when the previous request was still outstanding at the due
    /// time, so the request queued behind it instead).
    pub lag: Option<Duration>,
}

impl Sample {
    /// Latency from the due time, less the generator's own oversleep.
    pub fn latency(&self) -> Duration {
        self.done - self.due - self.lag.unwrap_or(Duration::ZERO)
    }

    /// Time the request waited in the client for earlier ones.
    pub fn client_wait(&self) -> Duration {
        self.sent - self.due
    }

    /// Time the server took once the request was sent.
    pub fn service(&self) -> Duration {
        self.done - self.sent
    }
}

/// Poisson arrival times at `rate` per second in `[start, end)`.
pub fn poisson(rng: &mut Rng, rate: f64, start: Duration, end: Duration) -> Vec<Duration> {
    let mut out = Vec::new();
    let mut t = start.as_secs_f64();
    let end = end.as_secs_f64();
    loop {
        t += -rng.unit().ln() / rate;
        if t >= end {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// Sends request `i` at `due[i]` (or as soon as the previous one returns,
/// if that is later) through `call`, and times it from its due time.
pub fn drive<C: Clock, T>(
    clock: &C,
    due: &[Duration],
    mut call: impl FnMut(usize) -> T,
) -> Vec<(Sample, T)> {
    let mut out = Vec::with_capacity(due.len());
    for (i, &d) in due.iter().enumerate() {
        let before = clock.now();
        let (sent, lag) = if before < d {
            clock.sleep_until(d);
            let sent = clock.now();
            (sent, Some(sent - d))
        } else {
            (before, None)
        };
        let result = call(i);
        let done = clock.now();
        out.push((
            Sample {
                due: d,
                sent,
                done,
                lag,
            },
            result,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;

    const MS: Duration = Duration::from_millis(1);

    /// A scripted clock: time moves only when the generator sleeps (waking
    /// `oversleep` late) or the test advances it.
    #[derive(Default)]
    struct FakeClock {
        now: Cell<Duration>,
        oversleep: Duration,
    }

    impl FakeClock {
        fn advance(&self, d: Duration) {
            self.now.set(self.now.get() + d);
        }
    }

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.now.get()
        }

        fn sleep_until(&self, t: Duration) {
            if t > self.now.get() {
                self.now.set(t + self.oversleep);
            }
        }
    }

    /// A 50 ms stall on one request must show as latency on every request
    /// that came due during it, and the schedule must not slip.
    #[test]
    fn a_stall_adds_latency_to_later_due_requests() {
        let clock = FakeClock::default();
        let due: Vec<Duration> = (0..20).map(|i| 5 * i * MS).collect();
        let samples = drive(&clock, &due, |i| {
            clock.advance(if i == 3 { 50 * MS } else { MS })
        });
        let samples: Vec<Sample> = samples.into_iter().map(|(s, ())| s).collect();

        // The stalled request itself.
        assert_eq!(samples[3].latency(), 50 * MS);
        // Requests 4..=12 came due at 20..=60 ms, while request 3 was
        // outstanding until 65 ms: each waits for the stall to clear, then
        // for its predecessors' 1 ms services.
        let mut free_at = 65 * MS;
        for s in &samples[4..=12] {
            assert!(s.due < 65 * MS);
            assert_eq!(s.sent, free_at, "sent as soon as the client is free");
            assert_eq!(s.latency(), free_at + MS - s.due);
            assert_eq!(s.lag, None, "queued behind the stall, not generator lag");
            free_at += MS;
        }
        assert_eq!(samples[4].latency(), 65 * MS + MS - 20 * MS);
        // Due times never moved: the schedule is fixed in advance.
        for (s, d) in samples.iter().zip(&due) {
            assert_eq!(s.due, *d);
        }
        // From the send time the stall is invisible on later requests —
        // exactly what timing from the due time avoids.
        assert!(samples[4..=12].iter().all(|s| s.service() == MS));
        let added: Duration = samples[4..=12]
            .iter()
            .map(|s| s.latency() - s.service())
            .sum();
        assert!(added >= 200 * MS, "stall cost only {added:?} downstream");
        // Once the backlog clears the generator idles again.
        let last = samples.last().unwrap();
        assert_eq!(last.lag, Some(Duration::ZERO));
        assert_eq!(last.latency(), MS);
    }

    /// A generator that wakes late reports lag; the lag is not latency.
    #[test]
    fn generator_oversleep_is_lag_not_latency() {
        let clock = FakeClock {
            oversleep: 2 * MS,
            ..FakeClock::default()
        };
        let due = [10 * MS, 20 * MS];
        let samples = drive(&clock, &due, |_| clock.advance(MS));
        for (s, ()) in &samples {
            assert_eq!(s.lag, Some(2 * MS));
            assert_eq!(s.latency(), MS);
            assert_eq!(s.done - s.due, 3 * MS);
        }
    }

    #[test]
    fn poisson_rate_and_window() {
        let mut rng = Rng::new(9);
        let arrivals = poisson(&mut rng, 1000.0, Duration::ZERO, Duration::from_secs(4));
        assert!((3800..4200).contains(&arrivals.len()), "{}", arrivals.len());
        assert!(arrivals.windows(2).all(|w| w[0] < w[1]));
        assert!(*arrivals.last().unwrap() < Duration::from_secs(4));
    }
}
