//! The Resource Audit Service implementation (§7.2).
//!
//! One RAS instance runs on each server. It keeps **no durable state**:
//! after a restart it relearns what to track as clients ask about
//! entities — "the RAS builds up its state over time; after failure it
//! can recover state automatically as clients ask it questions."
//!
//! Monitoring paths, exactly as §7.2 enumerates:
//!
//! 1. settops — poll the Settop Manager;
//! 2. local service objects — a callback registered with the local SSC
//!    (no pinging: "many single-threaded services were not able to
//!    respond to pings in a timely manner");
//! 3. remote service objects — poll the RAS instance on that server
//!    (every 5 s in the deployment).

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

use ocs_name::NsHandle;
use ocs_orb::{Caller, ClientCtx, ObjRef, Orb};
use ocs_sim::{Addr, NetError, NodeId, NodeRtExt, PortReq, Rt};
use parking_lot::Mutex;

use crate::settop_mgr::SETTOP_MGR_PATH;
use crate::types::{
    EntityId, EntityStatus, RasApi, RasApiClient, RasApiServant, RasError, SettopMgrClient,
};

/// Adapter delivering SSC object-liveness callbacks into the RAS.
pub(crate) struct SvcCallbackFace(pub Arc<Ras>);

impl ocs_svcctl::SscCallback for SvcCallbackFace {
    fn objects_up(
        &self,
        _caller: &Caller,
        objects: Vec<ObjRef>,
    ) -> Result<(), ocs_svcctl::SvcError> {
        self.0.objects_up(objects);
        Ok(())
    }

    fn objects_down(
        &self,
        _caller: &Caller,
        objects: Vec<ObjRef>,
    ) -> Result<(), ocs_svcctl::SvcError> {
        self.0.objects_down(objects);
        Ok(())
    }
}

/// Request port of the RAS ORB (the same on every server, so the
/// peer-poll path can construct addresses from node ids).
pub const RAS_PORT: u16 = 13;

/// Consecutive failed peer polls before a remote node's tracked objects
/// are declared dead.
const PEER_POLL_FAILURES: u32 = 2;

/// RAS tuning knobs.
#[derive(Clone, Debug)]
pub struct RasConfig {
    /// How often this instance polls peer RAS instances about remote
    /// objects ("currently, each RAS instance polls the others every
    /// five seconds", §7.2.1), and the Settop Manager about tracked
    /// settops.
    pub poll_interval: Duration,
}

impl Default for RasConfig {
    fn default() -> RasConfig {
        RasConfig {
            poll_interval: Duration::from_secs(5),
        }
    }
}

struct RasState {
    /// Tracked entities and their last known status.
    tracked: BTreeMap<EntityId, EntityStatus>,
    /// Local objects currently registered live with the SSC.
    local_live: HashSet<ObjRef>,
    /// Whether the SSC callback has delivered at least one snapshot (we
    /// cannot call a local object dead before we have ever seen the live
    /// set).
    ssc_seen: bool,
    /// Consecutive failures polling each peer node's RAS.
    peer_failures: HashMap<NodeId, u32>,
}

/// The Resource Audit Service.
pub struct Ras {
    rt: Rt,
    cfg: RasConfig,
    ns: NsHandle,
    state: Mutex<RasState>,
}

impl Ras {
    /// Starts the RAS: opens its ORB, exports the `checkStatus` object
    /// and the SSC callback object, and spawns the poll loops. Returns
    /// the instance and the object references `(ras, ssc_callback)` —
    /// the caller registers the latter with the local SSC.
    pub fn start(
        rt: Rt,
        cfg: RasConfig,
        ns: NsHandle,
    ) -> Result<(Arc<Ras>, ObjRef, ObjRef), NetError> {
        let ras = Arc::new(Ras {
            rt: rt.clone(),
            cfg: cfg.clone(),
            ns,
            state: Mutex::new(RasState {
                tracked: BTreeMap::new(),
                local_live: HashSet::new(),
                ssc_seen: false,
                peer_failures: HashMap::new(),
            }),
        });
        let orb = Orb::new(rt.clone(), PortReq::Fixed(RAS_PORT))?;
        let ras_ref = orb.export_root(Arc::new(RasApiServant(Arc::clone(&ras))));
        let cb_ref = orb.export(Arc::new(ocs_svcctl::SscCallbackServant(Arc::new(
            SvcCallbackFace(Arc::clone(&ras)),
        ))));
        orb.start();
        let r = Arc::clone(&ras);
        rt.spawn_fn("ras-peer-poll", move || r.peer_poll_loop());
        let r = Arc::clone(&ras);
        rt.spawn_fn("ras-settop-poll", move || r.settop_poll_loop());
        Ok((ras, ras_ref, cb_ref))
    }

    /// Number of tracked entities (diagnostics, and the E11 recovery
    /// experiment's measure of relearned state).
    pub fn tracked_count(&self) -> usize {
        self.state.lock().tracked.len()
    }

    /// Local-object status from the SSC-fed live set.
    fn local_status(state: &RasState, obj: &ObjRef) -> EntityStatus {
        if state.local_live.contains(obj) {
            EntityStatus::Alive
        } else if state.ssc_seen {
            // We know the complete live set and this object is not in
            // it: its process is gone.
            EntityStatus::Dead
        } else {
            EntityStatus::Unknown
        }
    }

    /// SSC callback: objects registered by (re)started services.
    pub(crate) fn objects_up(&self, objects: Vec<ObjRef>) {
        let mut st = self.state.lock();
        st.ssc_seen = true;
        for obj in objects {
            st.local_live.insert(obj);
            // Refresh tracked status immediately.
            if let Some(s) = st.tracked.get_mut(&EntityId::Object { obj }) {
                *s = EntityStatus::Alive;
            }
        }
    }

    /// SSC callback: objects whose service instance died.
    pub(crate) fn objects_down(&self, objects: Vec<ObjRef>) {
        let mut st = self.state.lock();
        st.ssc_seen = true;
        for obj in objects {
            st.local_live.remove(&obj);
            if let Some(s) = st.tracked.get_mut(&EntityId::Object { obj }) {
                *s = EntityStatus::Dead;
            }
        }
    }

    /// Polls peer RAS instances about tracked remote objects.
    fn peer_poll_loop(self: Arc<Self>) {
        loop {
            self.rt.sleep(self.cfg.poll_interval);
            // Group tracked remote objects by their home node.
            let by_node: HashMap<NodeId, Vec<EntityId>> = {
                let st = self.state.lock();
                let mut m: HashMap<NodeId, Vec<EntityId>> = HashMap::new();
                for e in st.tracked.keys() {
                    if let EntityId::Object { obj } = e {
                        if obj.addr.node != self.rt.node() {
                            m.entry(obj.addr.node).or_default().push(*e);
                        }
                    }
                }
                m
            };
            // Poll peers in node order so the run's event trace does not
            // depend on the map's random iteration order.
            let mut by_node: Vec<(NodeId, Vec<EntityId>)> = by_node.into_iter().collect();
            by_node.sort_by_key(|(n, _)| n.0);
            for (node, entities) in by_node {
                let peer_ref = ObjRef {
                    addr: Addr::new(node, RAS_PORT),
                    incarnation: ObjRef::STABLE,
                    type_id: RasApiClient::TYPE_ID,
                    object_id: 0,
                };
                let ctx = ClientCtx::new(self.rt.clone()).with_timeout(self.cfg.poll_interval / 2);
                let result = RasApiClient::attach(ctx, peer_ref).and_then(|peer| {
                    peer.check_status(entities.clone()).map_err(|e| match e {
                        RasError::Comm { err } => err,
                    })
                });
                let mut st = self.state.lock();
                match result {
                    Ok(statuses) => {
                        st.peer_failures.remove(&node);
                        for (e, s) in entities.iter().zip(statuses) {
                            if let Some(t) = st.tracked.get_mut(e) {
                                // The home RAS is authoritative for its
                                // own objects: an Alive answer for this
                                // exact incarnation proves the process
                                // survived, so it clears a Dead verdict
                                // derived from mere unreachability (a
                                // partition is not a crash). Anything
                                // weaker never downgrades Dead —
                                // genuinely dead incarnations cannot
                                // reappear in the home live set.
                                if s == EntityStatus::Alive || *t != EntityStatus::Dead {
                                    *t = s;
                                }
                            }
                        }
                    }
                    Err(_) => {
                        let fails = st.peer_failures.entry(node).or_insert(0);
                        *fails += 1;
                        if *fails >= PEER_POLL_FAILURES {
                            // The whole server is unreachable: its
                            // objects are dead (§3.5: server crash).
                            for e in &entities {
                                if let Some(t) = st.tracked.get_mut(e) {
                                    *t = EntityStatus::Dead;
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Polls the Settop Manager about tracked settops.
    fn settop_poll_loop(self: Arc<Self>) {
        loop {
            self.rt.sleep(self.cfg.poll_interval);
            let settops: Vec<NodeId> = {
                let st = self.state.lock();
                st.tracked
                    .keys()
                    .filter_map(|e| match e {
                        EntityId::Settop { node } => Some(*node),
                        _ => None,
                    })
                    .collect()
            };
            if settops.is_empty() {
                continue;
            }
            let Ok(mgr) = self.ns.resolve_as::<SettopMgrClient>(SETTOP_MGR_PATH) else {
                continue;
            };
            let Ok(statuses) = mgr.status(settops.clone()) else {
                continue;
            };
            let mut st = self.state.lock();
            for (node, s) in settops.iter().zip(statuses) {
                if let Some(t) = st.tracked.get_mut(&EntityId::Settop { node: *node }) {
                    // Settop entities are keyed by node, not
                    // incarnation: the manager's Alive answer means the
                    // box is back and overrides an earlier Dead.
                    if s == EntityStatus::Alive || *t != EntityStatus::Dead {
                        *t = s;
                    }
                }
            }
        }
    }
}

impl RasApi for Ras {
    fn check_status(
        &self,
        _caller: &Caller,
        entities: Vec<EntityId>,
    ) -> Result<Vec<EntityStatus>, RasError> {
        let mut st = self.state.lock();
        let my_node = self.rt.node();
        Ok(entities
            .into_iter()
            .map(|e| {
                // Local objects are answered authoritatively from the
                // SSC-fed set; everything else starts Unknown and is
                // refined by the poll loops.
                let fresh = match &e {
                    EntityId::Object { obj } if obj.addr.node == my_node => {
                        Some(Self::local_status(&st, obj))
                    }
                    _ => None,
                };
                match st.tracked.get(&e).copied() {
                    Some(existing) => {
                        // A fresh authoritative Alive may clear a stale
                        // Dead (see peer_poll_loop); otherwise Dead is
                        // final for a given incarnation.
                        let s = match fresh {
                            Some(f)
                                if f == EntityStatus::Alive
                                    || existing != EntityStatus::Dead =>
                            {
                                f
                            }
                            _ => existing,
                        };
                        st.tracked.insert(e, s);
                        s
                    }
                    None => {
                        let s = fresh.unwrap_or(EntityStatus::Unknown);
                        st.tracked.insert(e, s);
                        s
                    }
                }
            })
            .collect())
    }
}
