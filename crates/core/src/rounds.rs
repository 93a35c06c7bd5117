//! The multi-round discovery controller (§III-B-2).
//!
//! The consumer makes two decisions from response-arrival statistics:
//!
//! 1. **Is the current round finished?** The paper ends a round once the
//!    ratio of responses received within the recent window `T` to all
//!    responses since the round's query was sent falls to `T_r` or below.
//!    With its best value `T_r = 0` that means no response arrived within
//!    the last window: the stream has "diminished". A round that never
//!    produced a response ends after one idle window.
//! 2. **Start another round?** If the fraction of *new* entries this round
//!    (relative to everything received so far) exceeds `T_d`, more data is
//!    likely still out there. With the paper's best value `T_d = 0`, rounds
//!    continue until one returns nothing new.

use crate::config::RoundParams;
use crate::SimTime;

/// What the consumer should do after a poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RoundDecision {
    /// Keep waiting for responses.
    Continue,
    /// The round diminished; start the next round.
    StartNextRound,
    /// The round diminished and too little was new; stop discovering.
    Finished,
}

/// Round state machine for one discovery operation.
#[derive(Debug)]
pub(crate) struct RoundController {
    params: RoundParams,
    round: u32,
    round_started: SimTime,
    /// When this round's latest response arrived. Arrivals never go back
    /// in time, so with `T_r = 0` it alone decides whether the last window
    /// heard anything.
    last_arrival: Option<SimTime>,
    new_entries_this_round: u64,
    total_entries: u64,
}

impl RoundController {
    /// Creates a controller; the first round starts at `now`.
    #[must_use]
    pub(crate) fn new(params: RoundParams, now: SimTime) -> Self {
        Self {
            params,
            round: 0,
            round_started: now,
            last_arrival: None,
            new_entries_this_round: 0,
            total_entries: 0,
        }
    }

    /// The current round number (0-based).
    #[must_use]
    pub(crate) fn round(&self) -> u32 {
        self.round
    }

    /// Records a response carrying `new_entries` not-seen-before entries.
    pub(crate) fn on_response(&mut self, now: SimTime, new_entries: u64) {
        self.last_arrival = Some(now);
        self.new_entries_this_round += new_entries;
        self.total_entries += new_entries;
    }

    /// Advances to the next round at `now`.
    pub(crate) fn start_next_round(&mut self, now: SimTime) {
        self.round += 1;
        self.round_started = now;
        self.last_arrival = None;
        self.new_entries_this_round = 0;
    }

    /// Evaluates the two decisions at `now`.
    pub(crate) fn poll(&self, now: SimTime) -> RoundDecision {
        if !self.round_finished(now) {
            return RoundDecision::Continue;
        }
        if self.round + 1 >= self.params.max_rounds {
            return RoundDecision::Finished;
        }
        // New-round rule: proportion of new entries this round among all
        // received must exceed T_d. An all-zero first round also stops (the
        // network is empty or unreachable).
        if self.total_entries == 0 {
            return RoundDecision::Finished;
        }
        let proportion = self.new_entries_this_round as f64 / self.total_entries as f64;
        if proportion > self.params.t_d {
            RoundDecision::StartNextRound
        } else {
            RoundDecision::Finished
        }
    }

    fn round_finished(&self, now: SimTime) -> bool {
        let window_start = SimTime::from_micros(
            now.as_micros()
                .saturating_sub(self.params.t_window.as_micros()),
        );
        // Nothing within the last window. A round that has heard nothing
        // yet also waits out one whole window before giving up; one that
        // has, and then fell silent for a window, is past it already.
        self.last_arrival.is_none_or(|a| a < window_start)
            && now.since(self.round_started) >= self.params.t_window
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimDuration;

    fn params() -> RoundParams {
        RoundParams {
            t_window: SimDuration::from_secs(1),
            t_d: 0.0,
            max_rounds: 12,
        }
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn continues_while_responses_flow() {
        let mut c = RoundController::new(params(), t(0.0));
        c.on_response(t(0.2), 5);
        c.on_response(t(0.5), 3);
        assert_eq!(c.poll(t(0.6)), RoundDecision::Continue);
        assert_eq!(c.total_entries, 8);
    }

    #[test]
    fn starts_next_round_when_stream_dries_and_news_arrived() {
        let mut c = RoundController::new(params(), t(0.0));
        c.on_response(t(0.2), 5);
        // Window T = 1 s with no arrivals after 0.2 s: at 1.5 s the recent
        // window is empty → round over; 5 new entries > T_d = 0 → next round.
        assert_eq!(c.poll(t(1.5)), RoundDecision::StartNextRound);
        c.start_next_round(t(1.5));
        assert_eq!(c.round(), 1);
    }

    #[test]
    fn finishes_when_round_brought_nothing_new() {
        let mut c = RoundController::new(params(), t(0.0));
        c.on_response(t(0.2), 5);
        assert_eq!(c.poll(t(1.5)), RoundDecision::StartNextRound);
        c.start_next_round(t(1.5));
        c.on_response(t(1.7), 0); // all redundant
        assert_eq!(c.poll(t(3.0)), RoundDecision::Finished);
    }

    #[test]
    fn empty_network_finishes_after_one_window() {
        let c = RoundController::new(params(), t(0.0));
        assert_eq!(c.poll(t(0.5)), RoundDecision::Continue);
        assert_eq!(c.poll(t(1.0)), RoundDecision::Finished);
    }

    #[test]
    fn larger_t_d_stops_earlier() {
        let mut p = params();
        p.t_d = 0.5;
        let mut c = RoundController::new(p, t(0.0));
        c.on_response(t(0.2), 10);
        assert_eq!(c.poll(t(1.5)), RoundDecision::StartNextRound);
        c.start_next_round(t(1.5));
        // 4 new out of 14 total = 0.29 < 0.5 → finished despite new entries.
        c.on_response(t(1.7), 4);
        assert_eq!(c.poll(t(3.0)), RoundDecision::Finished);
    }

    #[test]
    fn max_rounds_caps_discovery() {
        let mut p = params();
        p.max_rounds = 2;
        let mut c = RoundController::new(p, t(0.0));
        c.on_response(t(0.2), 5);
        assert_eq!(c.poll(t(1.5)), RoundDecision::StartNextRound);
        c.start_next_round(t(1.5));
        c.on_response(t(1.7), 5);
        assert_eq!(
            c.poll(t(3.0)),
            RoundDecision::Finished,
            "round cap reached even though new entries arrived"
        );
    }

    #[test]
    fn poll_is_idempotent_when_continuing() {
        let mut c = RoundController::new(params(), t(0.0));
        c.on_response(t(0.1), 2);
        assert_eq!(c.poll(t(0.2)), RoundDecision::Continue);
        assert_eq!(c.poll(t(0.2)), RoundDecision::Continue);
        assert_eq!(c.total_entries, 2);
    }

    #[test]
    fn start_next_round_resets_round_state_but_not_totals() {
        let mut c = RoundController::new(params(), t(0.0));
        c.on_response(t(0.1), 7);
        c.start_next_round(t(2.0));
        assert_eq!(c.round(), 1);
        assert_eq!(c.total_entries, 7, "totals persist across rounds");
        // Fresh round with no responses: finishes after one idle window,
        // and with no new entries the discovery ends.
        assert_eq!(c.poll(t(2.5)), RoundDecision::Continue);
        assert_eq!(c.poll(t(3.0)), RoundDecision::Finished);
    }

    #[test]
    fn responses_with_zero_new_entries_still_extend_the_round() {
        let mut c = RoundController::new(params(), t(0.0));
        c.on_response(t(0.1), 3);
        // A steady stream of all-duplicate responses keeps the round alive.
        for i in 1..=20 {
            c.on_response(t(0.1 + 0.4 * f64::from(i)), 0);
        }
        assert_eq!(c.poll(t(8.2)), RoundDecision::Continue);
    }

    #[test]
    fn an_arrival_on_the_window_edge_keeps_the_round_open() {
        let at = |us: u64| SimTime::from_micros(us);
        let mut c = RoundController::new(params(), t(0.0));
        c.on_response(at(2_000_000), 1);
        // The window of a poll at 3 s starts at exactly 2 s: still open.
        assert_eq!(c.poll(at(3_000_000)), RoundDecision::Continue);
        // One µs later the arrival lies before the window.
        assert_eq!(c.poll(at(3_000_001)), RoundDecision::StartNextRound);
    }

    #[test]
    fn window_prunes_old_arrivals_only() {
        let mut c = RoundController::new(params(), t(0.0));
        c.on_response(t(0.1), 1);
        c.on_response(t(5.0), 1);
        // At 5.2 s, one arrival (5.0) is inside the window of 11 total... of
        // 2 total: ratio 0.5 > 0 → continue.
        assert_eq!(c.poll(t(5.2)), RoundDecision::Continue);
        // At 6.5 s the window is empty → round over.
        assert_eq!(c.poll(t(6.5)), RoundDecision::StartNextRound);
    }
}
