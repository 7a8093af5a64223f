//! The Server Service Controller (§6.1): one per server; starts, stops,
//! monitors and restarts the services assigned to its node, and tracks
//! the liveness of the objects they export for the Resource Audit
//! Service's callbacks.

use std::collections::HashMap;
use std::sync::{Arc, Weak};
use std::time::Duration;

use ocs_name::{advertise, NsHandle, ADVERTISE_EVERY};
use ocs_orb::{Caller, ClientCtx, ObjRef, Orb};
use ocs_sim::{Journal, NetError, NodeRtExt, PortReq, ProcGroup, Rt, SimTime};
use parking_lot::Mutex;

use crate::types::{ServiceStatus, SscApi, SscApiServant, SscCallbackClient, SvcError};

/// What a service's main function receives from the SSC when started.
pub struct ServiceRunCtx {
    /// The node runtime.
    pub rt: Rt,
    /// The service's registered name.
    pub service: String,
    /// Instance number (increments on every restart).
    pub instance: u32,
    /// Registers the instance's exported objects with the SSC (§6.1
    /// `notifyReady`); call after exporting and binding them.
    pub notify_ready: Arc<dyn Fn(Vec<ObjRef>) + Send + Sync>,
}

/// A service "binary": the entry point the SSC runs in a fresh process
/// group. Should not return while the service is healthy.
pub type ServiceFactory = Arc<dyn Fn(ServiceRunCtx) + Send + Sync>;

/// Registration of one runnable service on a node.
#[derive(Clone)]
pub struct ServiceDef {
    /// Service name (unique per node).
    pub name: String,
    /// Entry point.
    pub factory: ServiceFactory,
    /// Started unconditionally at SSC boot (§6.3's basic services),
    /// outside CSC placement control.
    pub basic: bool,
}

/// Request port of the SSC's ORB.
pub const SSC_PORT: u16 = 14;

/// Context that holds one SSC binding per server, `"<ctx>/<node-id>"`.
pub const SSC_CTX: &str = "svc/ssc";

/// Monitor loop period (service-death detection latency is at most this
/// plus the restart delay).
const MONITOR_INTERVAL: Duration = Duration::from_secs(1);

/// SSC tuning knobs.
#[derive(Clone, Debug)]
pub struct SscConfig {
    /// Grace period before restarting a dead service.
    pub restart_delay: Duration,
}

impl Default for SscConfig {
    fn default() -> SscConfig {
        SscConfig {
            restart_delay: Duration::from_secs(1),
        }
    }
}

struct Managed {
    def: ServiceDef,
    wanted: bool,
    group: Option<Arc<dyn ProcGroup>>,
    restarts: u32,
    instance: u32,
    dead_since: Option<SimTime>,
    objects: Vec<ObjRef>,
}

/// The Server Service Controller.
pub struct Ssc {
    rt: Rt,
    cfg: SscConfig,
    started_at: SimTime,
    services: Mutex<HashMap<String, Managed>>,
    callbacks: Mutex<Vec<ObjRef>>,
    self_ref: Mutex<Option<ObjRef>>,
}

impl Ssc {
    /// Starts the SSC: opens its ORB, spawns the monitor loop, launches
    /// the basic services, and keeps (re)binding itself into the name
    /// service as `svc/ssc/<node-id>`.
    pub fn start(
        rt: Rt,
        cfg: SscConfig,
        ns: NsHandle,
        registry: Vec<ServiceDef>,
    ) -> Result<Arc<Ssc>, NetError> {
        // Zero would leave a crash-looping service no grace period at
        // all; refuse it rather than default silently.
        assert!(
            !cfg.restart_delay.is_zero(),
            "ssc: restart_delay must be nonzero"
        );
        let ssc = Arc::new(Ssc {
            started_at: rt.now(),
            rt: rt.clone(),
            cfg: cfg.clone(),
            services: Mutex::new(
                registry
                    .into_iter()
                    .map(|def| {
                        let wanted = def.basic;
                        (
                            def.name.clone(),
                            Managed {
                                def,
                                wanted,
                                group: None,
                                restarts: 0,
                                instance: 0,
                                dead_since: None,
                                objects: Vec::new(),
                            },
                        )
                    })
                    .collect(),
            ),
            callbacks: Mutex::new(Vec::new()),
            self_ref: Mutex::new(None),
        });
        let orb = Orb::new(rt.clone(), PortReq::Fixed(SSC_PORT))?;
        let self_ref =
            orb.export_root(Arc::new(SscApiServant(Arc::new(SscFace(Arc::clone(&ssc))))));
        *ssc.self_ref.lock() = Some(self_ref);
        orb.start();
        let weak = Arc::downgrade(&ssc);
        rt.spawn_fn("ssc-monitor", move || monitor_loop(weak));
        // The name service may not even be up yet during §6.3 step 2.
        let path = format!("{SSC_CTX}/{}", rt.node().0);
        advertise(&ns, &path, self_ref, ADVERTISE_EVERY, true, || true);
        Ok(ssc)
    }

    /// The SSC's own object reference.
    pub fn self_ref(&self) -> ObjRef {
        self.self_ref.lock().expect("set in start")
    }

    /// Statuses of all registered services (also available remotely).
    pub fn statuses(&self) -> Vec<ServiceStatus> {
        let services = self.services.lock();
        let mut out: Vec<ServiceStatus> = services
            .values()
            .map(|m| ServiceStatus {
                name: m.def.name.clone(),
                running: m.group.as_ref().map(|g| g.alive()).unwrap_or(false),
                restarts: m.restarts,
                basic: m.def.basic,
                objects: m.objects.clone(),
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    fn launch(self: &Arc<Self>, name: &str) -> Result<(), SvcError> {
        let mut services = self.services.lock();
        let m = services
            .get_mut(name)
            .ok_or_else(|| SvcError::UnknownService {
                name: name.to_string(),
            })?;
        m.wanted = true;
        if m.group.as_ref().map(|g| g.alive()).unwrap_or(false) {
            return Ok(());
        }
        m.instance += 1;
        let ctx = ServiceRunCtx {
            rt: self.rt.clone(),
            service: m.def.name.clone(),
            instance: m.instance,
            notify_ready: {
                let weak = Arc::downgrade(self);
                let service = m.def.name.clone();
                Arc::new(move |objs: Vec<ObjRef>| {
                    if let Some(ssc) = weak.upgrade() {
                        ssc.record_ready(&service, objs);
                    }
                })
            },
        };
        let factory = Arc::clone(&m.def.factory);
        let group = self
            .rt
            .spawn_group(&format!("svc-{name}"), Box::new(move || factory(ctx)));
        let line = format!("started {name} (group {})", group.id());
        Journal::note(&*self.rt, "ssc", line);
        m.group = Some(group);
        m.dead_since = None;
        Ok(())
    }

    fn record_ready(self: &Arc<Self>, service: &str, objs: Vec<ObjRef>) {
        {
            let mut services = self.services.lock();
            if let Some(m) = services.get_mut(service) {
                m.objects = objs.clone();
            }
        }
        self.fire_callbacks(true, objs);
    }

    fn fire_callbacks(&self, up: bool, objs: Vec<ObjRef>) {
        if objs.is_empty() {
            return;
        }
        let callbacks = self.callbacks.lock().clone();
        for cb in callbacks {
            let Ok(client) = SscCallbackClient::attach(
                ClientCtx::new(self.rt.clone()).with_timeout(Duration::from_millis(500)),
                cb,
            ) else {
                continue;
            };
            let _ = if up {
                client.objects_up(objs.clone())
            } else {
                client.objects_down(objs.clone())
            };
        }
    }
}

fn monitor_loop(ssc: Weak<Ssc>) {
    let Some(first) = ssc.upgrade() else { return };
    let rt = first.rt.clone();
    let restart_delay = first.cfg.restart_delay;
    // Launch basic services immediately (§6.3 step 2).
    let mut basics: Vec<String> = first
        .services
        .lock()
        .values()
        .filter(|m| m.def.basic)
        .map(|m| m.def.name.clone())
        .collect();
    // Launch in name order: the registry map iterates in random order,
    // and spawn order shapes the whole run's event trace.
    basics.sort();
    for name in basics {
        let _ = first.launch(&name);
    }
    drop(first);
    loop {
        rt.sleep(MONITOR_INTERVAL);
        let Some(ssc) = ssc.upgrade() else { return };
        let now = rt.now();
        // Collect deaths and restarts under the lock; fire callbacks and
        // launches outside it.
        let mut downed: Vec<ObjRef> = Vec::new();
        let mut to_restart: Vec<String> = Vec::new();
        {
            let mut services = ssc.services.lock();
            for m in services.values_mut() {
                let alive = m.group.as_ref().map(|g| g.alive()).unwrap_or(false);
                if !m.wanted {
                    continue;
                }
                if alive {
                    m.dead_since = None;
                    continue;
                }
                if m.group.is_some() && !m.objects.is_empty() {
                    // Newly observed death: report its objects dead.
                    downed.append(&mut m.objects);
                }
                match m.dead_since {
                    None => m.dead_since = Some(now),
                    Some(since) if now.saturating_since(since) >= restart_delay => {
                        m.restarts += 1;
                        to_restart.push(m.def.name.clone());
                    }
                    Some(_) => {}
                }
            }
        }
        // Fixed orders (the service map iterates randomly; both the
        // death report and the relaunch sequence shape the event trace).
        downed.sort_by_key(|o| (o.addr.node.0, o.addr.port, o.object_id));
        to_restart.sort();
        ssc.fire_callbacks(false, downed);
        for name in to_restart {
            let _ = ssc.launch(&name);
        }
    }
}

/// ORB face over the SSC: holds the `Arc` so servant methods can spawn
/// groups and register callbacks that point back at the controller.
struct SscFace(Arc<Ssc>);

impl SscApi for SscFace {
    fn ping(&self, _caller: &Caller) -> Result<u64, SvcError> {
        let s = &self.0;
        Ok(s.rt.now().saturating_since(s.started_at).as_micros() as u64)
    }

    fn start_service(&self, _caller: &Caller, name: String) -> Result<(), SvcError> {
        self.0.launch(&name)
    }

    fn stop_service(&self, _caller: &Caller, name: String) -> Result<(), SvcError> {
        let s = &self.0;
        let mut downed = Vec::new();
        {
            let mut services = s.services.lock();
            let m = services
                .get_mut(&name)
                .ok_or(SvcError::UnknownService { name })?;
            m.wanted = false;
            if let Some(g) = m.group.take() {
                g.kill();
            }
            downed.append(&mut m.objects);
        }
        s.fire_callbacks(false, downed);
        Ok(())
    }

    fn running_services(&self, _caller: &Caller) -> Result<Vec<ServiceStatus>, SvcError> {
        Ok(self.0.statuses())
    }

    fn notify_ready(
        &self,
        _caller: &Caller,
        service: String,
        objects: Vec<ObjRef>,
    ) -> Result<(), SvcError> {
        self.0.record_ready(&service, objects);
        Ok(())
    }

    fn register_callback(&self, _caller: &Caller, cb: ObjRef) -> Result<(), SvcError> {
        let s = &self.0;
        s.callbacks.lock().push(cb);
        // Immediately report all currently live objects (§6.1) — the
        // SSC's own object included, so the audit never reaps the SSC's
        // name-service binding while it lives.
        let mut live: Vec<ObjRef> = s
            .services
            .lock()
            .values()
            .filter(|m| m.group.as_ref().map(|g| g.alive()).unwrap_or(false))
            .flat_map(|m| m.objects.iter().copied())
            .collect();
        live.sort_by_key(|o| (o.addr.node.0, o.addr.port, o.object_id));
        live.push(s.self_ref());
        if !live.is_empty() {
            if let Ok(client) = SscCallbackClient::attach(
                ClientCtx::new(s.rt.clone()).with_timeout(Duration::from_millis(500)),
                cb,
            ) {
                let _ = client.objects_up(live);
            }
        }
        Ok(())
    }
}
