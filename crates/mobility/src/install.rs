//! Installing a mobility trace into a simulated world.

use crate::trace::{MobilityTrace, PersonId, TraceAction, TraceEvent};
use pds_det::DetMap;
use pds_sim::{Application, NodeId, SimTime, World};
use std::sync::{Arc, Mutex};

type Mapping = Arc<Mutex<DetMap<PersonId, NodeId>>>;
type Factory = Arc<Mutex<dyn FnMut(PersonId) -> Box<dyn Application> + Send>>;

/// Applies one trace event to the world, maintaining the person → node
/// mapping.
fn apply_event(w: &mut World, ev: &TraceEvent, mapping: &Mapping, factory: &Factory) {
    match ev.action {
        TraceAction::Join { pos } => {
            let app = (factory.lock().expect("uncontended"))(ev.person);
            let id = w.add_node(pos, app);
            mapping.lock().expect("uncontended").insert(ev.person, id);
        }
        TraceAction::Leave => {
            if let Some(id) = mapping.lock().expect("uncontended").remove(&ev.person) {
                w.remove_node(id);
            }
        }
        TraceAction::Move { dest, speed_mps } => {
            if let Some(&id) = mapping.lock().expect("uncontended").get(&ev.person) {
                w.move_node(id, dest, speed_mps);
            }
        }
    }
}

/// Applies a [`MobilityTrace`] to a [`World`], creating protocol nodes as
/// people join and removing them when they leave.
///
/// The installer owns the person → node mapping; query it after (or during,
/// from scheduled closures) the run via [`TraceInstaller::node_of`].
///
/// # Examples
///
/// ```
/// use pds_mobility::{presets, MobilityTrace, TraceInstaller};
/// use pds_sim::{Application, Context, MessageMeta, SimConfig, SimDuration, SimTime, World};
///
/// struct Idle;
/// impl Application for Idle {
///     fn on_start(&mut self, _ctx: &mut Context) {}
///     fn on_message(&mut self, _ctx: &mut Context, _meta: MessageMeta, _payload: bytes::Bytes) {}
/// }
///
/// let trace = MobilityTrace::generate(
///     &presets::classroom(),
///     SimDuration::from_secs(60),
///     1.0,
///     1,
/// );
/// let mut world = World::new(SimConfig::default(), 1);
/// let installer = TraceInstaller::install(&mut world, &trace, |_person| Box::new(Idle));
/// world.run_until(SimTime::from_secs_f64(60.0));
/// assert!(installer.present_people().len() >= 25);
/// ```
#[derive(Debug, Clone)]
pub struct TraceInstaller {
    // Arc<Mutex> rather than Rc<RefCell>: the scheduled closures holding the
    // other handles live inside the World, which must stay `Send` so sweep
    // workers can own one per thread. The lock is never contended — a world
    // is driven by exactly one thread at a time.
    mapping: Mapping,
}

impl TraceInstaller {
    /// Installs `trace` into `world`. `factory` builds the application for
    /// each person when (and each time) they join; initial people join at
    /// the current world time. The factory must be `Send` because it is
    /// captured by closures scheduled into the (`Send`) world.
    pub fn install(
        world: &mut World,
        trace: &MobilityTrace,
        factory: impl FnMut(PersonId) -> Box<dyn Application> + Send + 'static,
    ) -> Self {
        let mapping: Mapping = Arc::default();
        let factory: Factory = Arc::new(Mutex::new(factory));

        for &(person, pos) in trace.initial_people() {
            let app = (factory.lock().expect("uncontended"))(person);
            let id = world.add_node(pos, app);
            mapping.lock().expect("uncontended").insert(person, id);
        }

        let base = world.now();
        for ev in trace.events().iter().cloned() {
            let mapping = Arc::clone(&mapping);
            let factory = Arc::clone(&factory);
            // Trace times are relative to the start of the trace.
            let at = base + ev.at.since(SimTime::ZERO);
            world.schedule(at, move |w| apply_event(w, &ev, &mapping, &factory));
        }
        Self { mapping }
    }

    /// The node currently embodying `person`, if they are present.
    #[must_use]
    pub fn node_of(&self, person: PersonId) -> Option<NodeId> {
        self.mapping
            .lock()
            .expect("uncontended")
            .get(&person)
            .copied()
    }

    /// People currently present, in unspecified order.
    #[must_use]
    pub fn present_people(&self) -> Vec<PersonId> {
        self.mapping
            .lock()
            .expect("uncontended")
            .keys()
            .copied()
            .collect()
    }

    /// Nodes currently embodying present people, in unspecified order.
    #[must_use]
    pub fn present_nodes(&self) -> Vec<NodeId> {
        self.mapping
            .lock()
            .expect("uncontended")
            .values()
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use pds_sim::{Context, MessageMeta, Position, SimConfig, SimTime};

    struct Idle;
    impl Application for Idle {
        fn on_start(&mut self, _ctx: &mut Context) {}
        fn on_message(&mut self, _ctx: &mut Context, _meta: MessageMeta, _payload: Bytes) {}
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn install_applies_joins_leaves_and_moves() {
        let trace = MobilityTrace::from_parts(
            vec![(PersonId(0), Position::new(0.0, 0.0))],
            vec![
                TraceEvent {
                    at: t(1.0),
                    person: PersonId(1),
                    action: TraceAction::Join {
                        pos: Position::new(10.0, 0.0),
                    },
                },
                TraceEvent {
                    at: t(2.0),
                    person: PersonId(0),
                    action: TraceAction::Move {
                        dest: Position::new(100.0, 0.0),
                        speed_mps: 10.0,
                    },
                },
                TraceEvent {
                    at: t(3.0),
                    person: PersonId(1),
                    action: TraceAction::Leave,
                },
            ],
        );
        let mut world = World::new(SimConfig::default(), 1);
        let inst = TraceInstaller::install(&mut world, &trace, |_| Box::new(Idle));
        let n0 = inst.node_of(PersonId(0)).expect("initial person present");
        assert!(world.is_alive(n0));
        assert_eq!(inst.node_of(PersonId(1)), None);

        world.run_until(t(1.5));
        let n1 = inst.node_of(PersonId(1)).expect("joined");
        assert!(world.is_alive(n1));

        world.run_until(t(3.5));
        assert_eq!(inst.node_of(PersonId(1)), None, "left at t=3");
        assert!(!world.is_alive(n1));

        // Person 0 walked at 10 m/s from t=2: by t=3.5 they are ~15 m along.
        let pos = world.position(n0).expect("alive");
        assert!(pos.x > 5.0 && pos.x < 30.0, "pos.x = {}", pos.x);
    }

    #[test]
    fn rejoin_gets_fresh_node_id() {
        let trace = MobilityTrace::from_parts(
            vec![(PersonId(0), Position::new(0.0, 0.0))],
            vec![
                TraceEvent {
                    at: t(1.0),
                    person: PersonId(0),
                    action: TraceAction::Leave,
                },
                TraceEvent {
                    at: t(2.0),
                    person: PersonId(0),
                    action: TraceAction::Join {
                        pos: Position::new(5.0, 5.0),
                    },
                },
            ],
        );
        let mut world = World::new(SimConfig::default(), 1);
        let inst = TraceInstaller::install(&mut world, &trace, |_| Box::new(Idle));
        let first = inst.node_of(PersonId(0)).expect("present");
        world.run_until(t(5.0));
        let second = inst.node_of(PersonId(0)).expect("rejoined");
        assert_ne!(first, second);
        assert!(world.is_alive(second));
        assert!(!world.is_alive(first));
    }

    #[test]
    fn present_counts_track_population() {
        let params = crate::presets::classroom();
        let trace = MobilityTrace::generate(&params, pds_sim::SimDuration::from_secs(300), 1.0, 5);
        let mut world = World::new(SimConfig::default(), 2);
        let inst = TraceInstaller::install(&mut world, &trace, |_| Box::new(Idle));
        world.run_until(t(300.0));
        // Joins ≈ leaves, so the population should hover near 30.
        let present = inst.present_people().len();
        assert!((20..=40).contains(&present), "present = {present}");
        assert_eq!(inst.present_nodes().len(), present);
    }
}
