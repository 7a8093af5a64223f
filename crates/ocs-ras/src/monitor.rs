//! The client-side callback library over `checkStatus` (§7.2).
//!
//! The paper deliberately implements failure callbacks in *library code*
//! rather than in the RAS itself: "the RAS is not forced to remember
//! callbacks when it recovers after a failure". [`RasMonitor`] is that
//! library: services register a callback per entity; a poll process
//! invokes `checkStatus` for all watched entities and fires callbacks
//! for the dead ones.

use std::sync::Arc;
use std::time::Duration;

use ocs_orb::{ClientCtx, ObjRef};
use ocs_sim::{Addr, NodeId, NodeRtExt, Rt};
use parking_lot::Mutex;

use crate::types::{EntityId, EntityStatus, RasApiClient};

/// A watch callback: invoked once when the entity is found dead.
pub type DeathCallback = Box<dyn FnOnce() + Send>;

struct Watch {
    entity: EntityId,
    cb: Option<DeathCallback>,
}

/// Client library polling the local RAS and dispatching death callbacks.
pub struct RasMonitor {
    rt: Rt,
    ras: RasApiClient,
    watches: Mutex<Vec<Watch>>,
}

impl RasMonitor {
    /// Creates a monitor polling the RAS at `ras_addr` every `interval`
    /// (the paper's MMS polls its local RAS; §9.7 uses 10 s).
    pub fn start(rt: Rt, ras_addr: Addr, interval: Duration) -> Arc<RasMonitor> {
        let target = ObjRef {
            addr: ras_addr,
            incarnation: ObjRef::STABLE,
            type_id: RasApiClient::TYPE_ID,
            object_id: 0,
        };
        let ctx = ClientCtx::new(rt.clone()).with_timeout(interval / 2);
        let ras = RasApiClient::attach(ctx, target).expect("type id matches");
        let monitor = Arc::new(RasMonitor {
            rt: rt.clone(),
            ras,
            watches: Mutex::new(Vec::new()),
        });
        let m = Arc::clone(&monitor);
        rt.spawn_fn("ras-monitor", move || m.poll_loop(interval));
        monitor
    }

    /// Registers a death callback for an entity.
    pub fn watch(&self, entity: EntityId, cb: DeathCallback) {
        self.watches.lock().push(Watch {
            entity,
            cb: Some(cb),
        });
    }

    /// Convenience: watch a settop.
    pub fn watch_settop(&self, node: NodeId, cb: DeathCallback) {
        self.watch(EntityId::Settop { node }, cb);
    }

    /// Convenience: watch a service object.
    pub fn watch_object(&self, obj: ObjRef, cb: DeathCallback) {
        self.watch(EntityId::Object { obj }, cb);
    }

    /// Stops watching an entity (e.g. the resource was released cleanly).
    pub fn unwatch(&self, entity: &EntityId) {
        self.watches.lock().retain(|w| w.entity != *entity);
    }

    /// Number of active watches.
    pub fn watch_count(&self) -> usize {
        self.watches.lock().len()
    }

    fn poll_loop(self: Arc<Self>, interval: Duration) {
        loop {
            self.rt.sleep(interval);
            // Each entity is asked about once, however many watch it.
            let mut entities: Vec<EntityId> = {
                let watches = self.watches.lock();
                watches.iter().map(|w| w.entity).collect()
            };
            entities.sort_unstable();
            entities.dedup();
            if entities.is_empty() {
                continue;
            }
            let Ok(statuses) = self.ras.check_status(entities.clone()) else {
                continue; // Local RAS restarting; retry next round.
            };
            let mut fired: Vec<DeathCallback> = Vec::new();
            {
                let mut watches = self.watches.lock();
                for (entity, status) in entities.iter().zip(statuses) {
                    if status == EntityStatus::Dead {
                        for w in watches.iter_mut() {
                            if w.entity == *entity {
                                if let Some(cb) = w.cb.take() {
                                    fired.push(cb);
                                }
                            }
                        }
                    }
                }
                watches.retain(|w| w.cb.is_some());
            }
            for cb in fired {
                cb();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{RasApi, RasApiServant, RasError};
    use ocs_orb::{Caller, Orb};
    use ocs_sim::{NodeRt, PortReq, Sim, SimTime};
    use std::sync::atomic::{AtomicU32, Ordering};

    /// A RAS for which everything is dead, and which keeps what it was
    /// asked.
    #[derive(Default)]
    struct Morgue(Mutex<Vec<Vec<EntityId>>>);

    impl RasApi for Morgue {
        fn check_status(
            &self,
            _caller: &Caller,
            entities: Vec<EntityId>,
        ) -> Result<Vec<EntityStatus>, RasError> {
            let verdicts = vec![EntityStatus::Dead; entities.len()];
            self.0.lock().push(entities);
            Ok(verdicts)
        }
    }

    #[test]
    fn an_entity_watched_twice_is_asked_about_once_and_fires_both() {
        let sim = Sim::new(1);
        let node = sim.add_node("n");
        let rt: Rt = node.clone();
        let ras = Arc::new(Morgue::default());
        let orb = Orb::new(rt.clone(), PortReq::Fixed(13)).unwrap();
        orb.export_root(Arc::new(RasApiServant(Arc::clone(&ras))));
        orb.start();
        let monitor = RasMonitor::start(rt, Addr::new(node.node(), 13), Duration::from_secs(1));
        let fired = Arc::new(AtomicU32::new(0));
        for settop in [NodeId(7), NodeId(5), NodeId(7)] {
            let fired = Arc::clone(&fired);
            let cb = move || {
                fired.fetch_add(1, Ordering::Relaxed);
            };
            monitor.watch_settop(settop, Box::new(cb));
        }
        sim.run_until(SimTime::from_millis(1500));
        let want = [5, 7].map(|n| EntityId::Settop { node: NodeId(n) });
        assert_eq!(*ras.0.lock(), vec![want.to_vec()]);
        assert_eq!(fired.load(Ordering::Relaxed), 3);
        assert_eq!(monitor.watch_count(), 0);
    }
}
