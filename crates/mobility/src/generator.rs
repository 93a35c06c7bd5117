//! Poisson-process trace generation from observation parameters.

use crate::trace::{MobilityTrace, PersonId, TraceAction, TraceEvent};
use pds_sim::{Position, SimDuration, SimRng, SimTime};

/// Aggregate observation parameters for a venue, as the paper reports them
/// (population plus join/leave/move rates per minute; §VI-B-2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObservationParams {
    /// Area width in meters.
    pub width_m: f64,
    /// Area height in meters.
    pub height_m: f64,
    /// Typical number of people present.
    pub population: usize,
    /// People entering per minute.
    pub joins_per_min: f64,
    /// People leaving per minute.
    pub leaves_per_min: f64,
    /// People relocating within the area per minute.
    pub moves_per_min: f64,
    /// Walking speed in m/s.
    pub speed_mps: f64,
}

impl ObservationParams {
    fn random_pos(&self, rng: &mut SimRng) -> Position {
        Position::new(
            rng.range_f64(0.0, self.width_m),
            rng.range_f64(0.0, self.height_m),
        )
    }
}

/// A streaming, seeded mobility event source: the same Poisson merge that
/// [`MobilityTrace::generate`] materializes, pulled one [`TraceEvent`] at
/// a time.
///
/// Memory is O(people currently present) regardless of duration, where
/// an hours-long trace for 100k people would materialize millions of
/// events up front. `generate` is defined as "collect this stream", so the
/// two are equal for the same seed by construction (and a property test
/// holds them to it).
#[derive(Debug)]
pub struct TraceStream {
    params: ObservationParams,
    multiplier: f64,
    /// Trace horizon in seconds; events past it end the stream.
    horizon: f64,
    rng: SimRng,
    next_person: u32,
    initial: Vec<(PersonId, Position)>,
    present: Vec<PersonId>,
    t_join: f64,
    t_leave: f64,
    t_move: f64,
}

impl TraceStream {
    /// Opens a stream over `duration` from `params`, rates scaled by
    /// `multiplier`, deterministic in `seed`. The initial `population`
    /// people are placed immediately (available via
    /// [`TraceStream::initial_people`]); join/leave/move events then
    /// arrive as independent Poisson processes. Leaves and moves pick a
    /// uniformly random present person; with nobody present the arrival
    /// is skipped, keeping the stream valid by construction.
    ///
    /// # Panics
    ///
    /// Panics if `multiplier` is negative or not finite.
    #[must_use]
    pub fn new(
        params: &ObservationParams,
        duration: SimDuration,
        multiplier: f64,
        seed: u64,
    ) -> Self {
        assert!(
            multiplier.is_finite() && multiplier >= 0.0,
            "mobility multiplier must be nonnegative"
        );
        let mut rng = SimRng::new(seed ^ 0x6d6f_6269_6c69_7479);
        let mut next_person = 0u32;
        let initial: Vec<(PersonId, Position)> = (0..params.population)
            .map(|_| {
                let p = PersonId(next_person);
                next_person += 1;
                (p, params.random_pos(&mut rng))
            })
            .collect();
        let present: Vec<PersonId> = initial.iter().map(|&(p, _)| p).collect();

        let multiplier_rate = |per_min: f64| per_min * multiplier / 60.0;
        let t_join = draw_next(&mut rng, multiplier_rate(params.joins_per_min), 0.0);
        let t_leave = draw_next(&mut rng, multiplier_rate(params.leaves_per_min), 0.0);
        let t_move = draw_next(&mut rng, multiplier_rate(params.moves_per_min), 0.0);
        Self {
            params: *params,
            multiplier,
            horizon: duration.as_secs_f64(),
            rng,
            next_person,
            initial,
            present,
            t_join,
            t_leave,
            t_move,
        }
    }

    /// The initially placed people and their positions.
    #[must_use]
    pub fn initial_people(&self) -> &[(PersonId, Position)] {
        &self.initial
    }

    fn rate(&self, per_min: f64) -> f64 {
        per_min * self.multiplier / 60.0
    }
}

fn draw_next(rng: &mut SimRng, r: f64, from: f64) -> f64 {
    if r <= 0.0 {
        f64::INFINITY
    } else {
        from + rng.exponential(1.0 / r)
    }
}

impl Iterator for TraceStream {
    type Item = TraceEvent;

    fn next(&mut self) -> Option<TraceEvent> {
        // Merge three Poisson processes by drawing each next arrival. A
        // leave/move arrival with nobody present consumes its timer (and
        // rng draw) without emitting, exactly as the materializing
        // generator skipped it.
        loop {
            let t = self.t_join.min(self.t_leave).min(self.t_move);
            if t > self.horizon {
                return None;
            }
            let at = SimTime::from_secs_f64(t);
            if t == self.t_join {
                let person = PersonId(self.next_person);
                self.next_person += 1;
                self.present.push(person);
                let pos = self.params.random_pos(&mut self.rng);
                let r = self.rate(self.params.joins_per_min);
                self.t_join = draw_next(&mut self.rng, r, t);
                return Some(TraceEvent {
                    at,
                    person,
                    action: TraceAction::Join { pos },
                });
            } else if t == self.t_leave {
                let ev = if self.present.is_empty() {
                    None
                } else {
                    let idx = self.rng.range_u64(0, self.present.len() as u64) as usize;
                    let person = self.present.swap_remove(idx);
                    Some(TraceEvent {
                        at,
                        person,
                        action: TraceAction::Leave,
                    })
                };
                let r = self.rate(self.params.leaves_per_min);
                self.t_leave = draw_next(&mut self.rng, r, t);
                if let Some(ev) = ev {
                    return Some(ev);
                }
            } else {
                let ev = if self.present.is_empty() {
                    None
                } else {
                    let idx = self.rng.range_u64(0, self.present.len() as u64) as usize;
                    let person = *self.present.get(idx)?;
                    Some(TraceEvent {
                        at,
                        person,
                        action: TraceAction::Move {
                            dest: self.params.random_pos(&mut self.rng),
                            speed_mps: self.params.speed_mps,
                        },
                    })
                };
                let r = self.rate(self.params.moves_per_min);
                self.t_move = draw_next(&mut self.rng, r, t);
                if let Some(ev) = ev {
                    return Some(ev);
                }
            }
        }
    }
}

impl MobilityTrace {
    /// Generates a trace of length `duration` from `params`, with every rate
    /// scaled by `multiplier` (the paper sweeps 0.5×–2×). Deterministic in
    /// `seed`.
    ///
    /// Defined as collecting a [`TraceStream`] with the same arguments —
    /// the materialized and streaming forms are interchangeable for the
    /// same seed. Prefer the stream for long or large scenarios; memory
    /// here is O(events).
    ///
    /// # Panics
    ///
    /// Panics if `multiplier` is negative or not finite.
    #[must_use]
    pub fn generate(
        params: &ObservationParams,
        duration: SimDuration,
        multiplier: f64,
        seed: u64,
    ) -> Self {
        let mut stream = TraceStream::new(params, duration, multiplier, seed);
        let initial = stream.initial_people().to_vec();
        let events: Vec<TraceEvent> = stream.by_ref().collect();
        Self::from_parts(initial, events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    fn hour() -> SimDuration {
        SimDuration::from_secs(3600)
    }

    #[test]
    fn generated_trace_is_valid() {
        for seed in 0..5 {
            let trace = MobilityTrace::generate(&presets::student_center(), hour(), 1.0, seed);
            trace.validate().expect("generated trace must be valid");
        }
    }

    #[test]
    fn rates_are_approximately_honored() {
        // Student center: 1 join, 1 leave, 4 moves per minute over an hour.
        let trace = MobilityTrace::generate(&presets::student_center(), hour(), 1.0, 7);
        let (joins, leaves, moves) = trace.event_counts();
        assert!((40..=85).contains(&joins), "joins = {joins}");
        assert!((40..=85).contains(&leaves), "leaves = {leaves}");
        assert!((180..=300).contains(&moves), "moves = {moves}");
    }

    #[test]
    fn multiplier_scales_event_counts() {
        let base = MobilityTrace::generate(&presets::student_center(), hour(), 1.0, 3);
        let double = MobilityTrace::generate(&presets::student_center(), hour(), 2.0, 3);
        let (j1, l1, m1) = base.event_counts();
        let (j2, l2, m2) = double.event_counts();
        let total1 = j1 + l1 + m1;
        let total2 = j2 + l2 + m2;
        let ratio = total2 as f64 / total1 as f64;
        assert!((1.6..2.5).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn zero_multiplier_freezes_everyone() {
        let trace = MobilityTrace::generate(&presets::classroom(), hour(), 0.0, 1);
        assert_eq!(trace.events().len(), 0);
        assert_eq!(trace.initial_people().len(), 30);
    }

    #[test]
    fn positions_stay_inside_area() {
        let p = presets::classroom();
        let trace = MobilityTrace::generate(&p, hour(), 2.0, 9);
        let inside = |pos: Position| {
            (0.0..=p.width_m).contains(&pos.x) && (0.0..=p.height_m).contains(&pos.y)
        };
        assert!(trace.initial_people().iter().all(|&(_, pos)| inside(pos)));
        for ev in trace.events() {
            match ev.action {
                TraceAction::Join { pos } => assert!(inside(pos)),
                TraceAction::Move { dest, .. } => assert!(inside(dest)),
                TraceAction::Leave => {}
            }
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = MobilityTrace::generate(&presets::student_center(), hour(), 1.0, 42);
        let b = MobilityTrace::generate(&presets::student_center(), hour(), 1.0, 42);
        assert_eq!(a, b);
        let c = MobilityTrace::generate(&presets::student_center(), hour(), 1.0, 43);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "multiplier")]
    fn negative_multiplier_panics() {
        let _ = MobilityTrace::generate(&presets::classroom(), hour(), -1.0, 1);
    }

    #[test]
    fn stream_matches_materialized_trace() {
        for seed in [0, 1, 7, 42, 9999] {
            let p = presets::student_center();
            let trace = MobilityTrace::generate(&p, hour(), 1.3, seed);
            let mut stream = TraceStream::new(&p, hour(), 1.3, seed);
            assert_eq!(stream.initial_people(), trace.initial_people());
            let streamed: Vec<TraceEvent> = stream.by_ref().collect();
            assert_eq!(streamed.as_slice(), trace.events());
            // Exhausted stream stays exhausted.
            assert_eq!(stream.next(), None);
        }
    }
}
