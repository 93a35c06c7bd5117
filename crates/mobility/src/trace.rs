//! Mobility traces: time-stamped join / leave / move event streams.

use pds_sim::{Position, SimTime};
use std::fmt;

/// Identifier of a person in a trace. People are not [`pds_sim::NodeId`]s:
/// the mapping is established when the trace is installed into a world (a
/// returning person would get a fresh node id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PersonId(pub u32);

impl fmt::Display for PersonId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// What a person does at a trace event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceAction {
    /// Enters the area at `pos`.
    Join {
        /// Entry position.
        pos: Position,
    },
    /// Leaves the area (their device and data go with them).
    Leave,
    /// Walks toward `dest` at `speed_mps`.
    Move {
        /// Destination inside the area.
        dest: Position,
        /// Walking speed in m/s.
        speed_mps: f64,
    },
}

/// One event in a mobility trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// When the event occurs.
    pub at: SimTime,
    /// Who it concerns.
    pub person: PersonId,
    /// What happens.
    pub action: TraceAction,
}

/// A validated, time-ordered mobility trace: initial placements plus a
/// stream of join/leave/move events. Produced by
/// [`MobilityTrace::generate`](crate::MobilityTrace::generate) or assembled
/// manually for tests.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MobilityTrace {
    initial: Vec<(PersonId, Position)>,
    events: Vec<TraceEvent>,
}

/// Why a trace failed validation.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum InvalidTrace {
    /// Events are not sorted by time.
    Unsorted,
    /// A person appears twice in the initial placement or re-joins while
    /// present.
    DuplicateJoin(PersonId),
    /// A leave or move refers to a person who is not present.
    NotPresent(PersonId),
}

impl MobilityTrace {
    /// Assembles a trace from parts (mainly for tests and custom scenarios).
    #[must_use]
    pub fn from_parts(initial: Vec<(PersonId, Position)>, events: Vec<TraceEvent>) -> Self {
        Self { initial, events }
    }

    /// People present at time zero, with their positions.
    #[must_use]
    pub fn initial_people(&self) -> &[(PersonId, Position)] {
        &self.initial
    }

    /// The time-ordered event stream.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Checks internal consistency: sorted events, no double joins, no
    /// events for absent people.
    ///
    /// # Errors
    ///
    /// Returns the first [`InvalidTrace`] violation found.
    #[cfg(test)]
    pub(crate) fn validate(&self) -> Result<(), InvalidTrace> {
        let mut present: pds_det::DetSet<PersonId> = pds_det::DetSet::default();
        for &(p, _) in &self.initial {
            if !present.insert(p) {
                return Err(InvalidTrace::DuplicateJoin(p));
            }
        }
        let mut last = SimTime::ZERO;
        for ev in &self.events {
            if ev.at < last {
                return Err(InvalidTrace::Unsorted);
            }
            last = ev.at;
            match ev.action {
                TraceAction::Join { .. } => {
                    if !present.insert(ev.person) {
                        return Err(InvalidTrace::DuplicateJoin(ev.person));
                    }
                }
                TraceAction::Leave => {
                    if !present.remove(&ev.person) {
                        return Err(InvalidTrace::NotPresent(ev.person));
                    }
                }
                TraceAction::Move { .. } => {
                    if !present.contains(&ev.person) {
                        return Err(InvalidTrace::NotPresent(ev.person));
                    }
                }
            }
        }
        Ok(())
    }

    /// Number of events of each kind: `(joins, leaves, moves)`.
    #[must_use]
    pub fn event_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for ev in &self.events {
            match ev.action {
                TraceAction::Join { .. } => counts.0 += 1,
                TraceAction::Leave => counts.1 += 1,
                TraceAction::Move { .. } => counts.2 += 1,
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn pos() -> Position {
        Position::new(1.0, 2.0)
    }

    #[test]
    fn valid_trace_passes() {
        let trace = MobilityTrace::from_parts(
            vec![(PersonId(0), pos())],
            vec![
                TraceEvent {
                    at: t(1.0),
                    person: PersonId(1),
                    action: TraceAction::Join { pos: pos() },
                },
                TraceEvent {
                    at: t(2.0),
                    person: PersonId(1),
                    action: TraceAction::Move {
                        dest: pos(),
                        speed_mps: 1.0,
                    },
                },
                TraceEvent {
                    at: t(3.0),
                    person: PersonId(0),
                    action: TraceAction::Leave,
                },
            ],
        );
        assert!(trace.validate().is_ok());
        assert_eq!(trace.event_counts(), (1, 1, 1));
    }

    #[test]
    fn unsorted_trace_fails() {
        let trace = MobilityTrace::from_parts(
            vec![(PersonId(0), pos())],
            vec![
                TraceEvent {
                    at: t(2.0),
                    person: PersonId(0),
                    action: TraceAction::Leave,
                },
                TraceEvent {
                    at: t(1.0),
                    person: PersonId(1),
                    action: TraceAction::Join { pos: pos() },
                },
            ],
        );
        assert_eq!(trace.validate(), Err(InvalidTrace::Unsorted));
    }

    #[test]
    fn double_join_fails() {
        let trace = MobilityTrace::from_parts(
            vec![(PersonId(0), pos())],
            vec![TraceEvent {
                at: t(1.0),
                person: PersonId(0),
                action: TraceAction::Join { pos: pos() },
            }],
        );
        assert_eq!(
            trace.validate(),
            Err(InvalidTrace::DuplicateJoin(PersonId(0)))
        );
    }

    #[test]
    fn event_for_absent_person_fails() {
        let trace = MobilityTrace::from_parts(
            vec![],
            vec![TraceEvent {
                at: t(1.0),
                person: PersonId(3),
                action: TraceAction::Leave,
            }],
        );
        assert_eq!(trace.validate(), Err(InvalidTrace::NotPresent(PersonId(3))));
        let trace = MobilityTrace::from_parts(
            vec![],
            vec![TraceEvent {
                at: t(1.0),
                person: PersonId(3),
                action: TraceAction::Move {
                    dest: pos(),
                    speed_mps: 1.0,
                },
            }],
        );
        assert_eq!(trace.validate(), Err(InvalidTrace::NotPresent(PersonId(3))));
    }

    #[test]
    fn leave_then_rejoin_is_valid() {
        let trace = MobilityTrace::from_parts(
            vec![(PersonId(0), pos())],
            vec![
                TraceEvent {
                    at: t(1.0),
                    person: PersonId(0),
                    action: TraceAction::Leave,
                },
                TraceEvent {
                    at: t(2.0),
                    person: PersonId(0),
                    action: TraceAction::Join { pos: pos() },
                },
            ],
        );
        assert!(trace.validate().is_ok());
    }
}
