//! Settop boot and the Application Manager (§3.4.1–§3.4.3).

use std::sync::Arc;
use std::time::Duration;

use itv_media::{names, verify_kernel, BootApiClient, KbsApiClient, MediaError, RdsApiClient};
use ocs_name::{NsHandle, RebindPolicy, Rebinding};
use ocs_orb::{BreakerPolicy, CircuitBreaker, ClientCtx, ObjRef, RpcFault};
use ocs_ras::{AgentRunner, SettopMgrClient, SETTOP_AGENT_PORT};
use ocs_sim::{Addr, ProcGroup, Queue, RetryPolicy, Rt};
use parking_lot::Mutex;

use crate::metrics::SettopMetrics;

/// How the Application Manager retries a tune-in that failed (the
/// download, or the application gave up), as a viewer would press the
/// button again: jittered back-off from 1 s, at most 8 s apart, until it
/// works or the viewer tunes elsewhere or powers off. An application
/// that downloaded and then gave up runs again from memory.
const TUNE_RETRY: RetryPolicy = RetryPolicy {
    base: Duration::from_secs(1),
    cap: Duration::from_secs(8),
};

/// What a settop knows before it boots (its "firmware" configuration):
/// where the Boot Broadcast Service answers.
#[derive(Clone, Copy, Debug)]
pub struct SettopBootInfo {
    /// Address of the Boot Broadcast Service.
    pub bbs_addr: Addr,
}

/// Events delivered to the Application Manager (from the remote control).
#[derive(Clone, Debug, PartialEq)]
pub enum SettopEvent {
    /// The subscriber tuned to a channel; the AM downloads and runs the
    /// matching application.
    Channel { number: u32 },
    /// Power off: the AM exits (ends the settop's process group).
    PowerOff,
}

/// An application entry: which channel it answers to and its main
/// function, run inside the settop's group with everything it needs.
pub struct AppSlot {
    /// Channel number.
    pub channel: u32,
    /// Name of the binary downloaded through the RDS.
    pub binary: String,
    /// The app main (receives the settop context; returns when the user
    /// leaves the app). It returns whether the app gave the viewer what
    /// the tune-in asked for; `false` (it gave up on a failure) makes the
    /// Application Manager tune in again.
    pub main: Arc<dyn Fn(&AppCtx) -> bool + Send + Sync>,
}

/// Everything an application gets from the Application Manager.
pub struct AppCtx {
    /// The settop's runtime.
    pub rt: Rt,
    /// Name-service handle (through the boot-assigned replica).
    pub ns: NsHandle,
    /// The settop's metrics.
    pub metrics: Arc<SettopMetrics>,
    /// Event queue, so apps can react to further remote-control input.
    pub events: Arc<Queue<SettopEvent>>,
    /// Last catalog the navigator fetched successfully. When the RDS is
    /// unreachable (or its circuit breaker is open), the navigator keeps
    /// answering from this — stale data beats a blank screen.
    pub catalog_cache: Arc<Mutex<Vec<String>>>,
}

/// Handle to a booted settop.
pub struct SettopHandle {
    /// The software process group (kill = settop crash).
    pub group: Arc<dyn ProcGroup>,
    /// Event injection (the remote control).
    pub events: Arc<Queue<SettopEvent>>,
    /// Live metrics.
    pub metrics: Arc<SettopMetrics>,
}

impl SettopHandle {
    /// Sends a channel-change event.
    pub fn tune(&self, channel: u32) {
        self.events.push(SettopEvent::Channel { number: channel });
    }
}

/// The settop: boots the software stack on a node.
pub struct Settop;

impl Settop {
    /// Boots a settop on `rt` with the given applications. Returns the
    /// handle; the boot sequence runs asynchronously in the settop's
    /// process group (watch `metrics.booted_at_us`).
    pub fn boot(rt: Rt, info: SettopBootInfo, apps: Vec<AppSlot>) -> SettopHandle {
        // Register the settop's counters on the node registry so the
        // on-box `Telemetry` servant and cluster scrapes see them.
        let metrics =
            SettopMetrics::registered(&ocs_telemetry::NodeTelemetry::of(&*rt).registry);
        let events: Arc<Queue<SettopEvent>> = Arc::new(Queue::new(&rt));
        let m = Arc::clone(&metrics);
        let ev = Arc::clone(&events);
        let rt2 = rt.clone();
        let group = rt.spawn_group(
            "settop-sw",
            Box::new(move || {
                settop_main(rt2, info, apps, m, ev);
            }),
        );
        SettopHandle {
            group,
            events,
            metrics,
        }
    }
}

/// §3.4.1's boot sequence, then the Application Manager loop.
fn settop_main(
    rt: Rt,
    info: SettopBootInfo,
    apps: Vec<AppSlot>,
    metrics: Arc<SettopMetrics>,
    events: Arc<Queue<SettopEvent>>,
) {
    // 0. The liveness agent, so the Settop Manager can ping us, and the
    //    telemetry servant, so scrapers can poll our counters and spans.
    let _ = AgentRunner::start(rt.clone());
    let _ = ocs_orb::export_telemetry(rt.clone(), itv_media::ports::TELEMETRY);

    // 1. Boot parameters (retry until the head end answers).
    let ctx = ClientCtx::new(rt.clone()).with_timeout(Duration::from_secs(2));
    let boot_ref = ObjRef {
        addr: info.bbs_addr,
        incarnation: ObjRef::STABLE,
        type_id: BootApiClient::TYPE_ID,
        object_id: 0,
    };
    let boot = BootApiClient::attach(ctx.clone(), boot_ref).expect("type id matches");
    let params = loop {
        match boot.boot_params(rt.node()) {
            Ok(p) => break p,
            Err(_) => rt.sleep(Duration::from_secs(2)),
        }
    };
    let ns = NsHandle::new(ClientCtx::new(rt.clone()), params.ns_addr);

    // 2. Kernel download + secure-boot verification. The kernel is
    //    large; give the call a transfer-sized timeout.
    let kernel_ok = loop {
        let kbs: Result<KbsApiClient, _> = ns.resolve_as(names::KBS);
        if let Ok(kbs) = kbs {
            let kbs = KbsApiClient::attach(
                ClientCtx::new(rt.clone()).with_timeout(Duration::from_secs(60)),
                ocs_orb::Proxy::target_ref(&kbs),
            )
            .expect("same type");
            if let Ok(image) = kbs.kernel() {
                break verify_kernel(&params, &image);
            }
        }
        rt.sleep(Duration::from_secs(2));
    };
    if !kernel_ok {
        metrics.log(rt.now(), "kernel failed verification; boot aborted");
        return;
    }

    // 3. Register with the Settop Manager so the RAS can track us.
    loop {
        if let Ok(mgr) = ns.resolve_as::<SettopMgrClient>(names::SETTOP_MGR) {
            if mgr.register(rt.node(), SETTOP_AGENT_PORT).is_ok() {
                break;
            }
        }
        rt.sleep(Duration::from_secs(2));
    }

    metrics
        .booted_at_us
        .set((rt.now().as_micros().max(1)) as i64);
    metrics.log(rt.now(), "booted");

    // 4. The Application Manager: resolve the RDS once and reuse the
    //    reference; rebind automatically when it dies (§3.4.2).
    // Long-timeout handle for transfer-sized calls (a 2-4 MB binary at
    // 1 MB/s takes seconds; the default 3 s call timeout would cut it).
    let ns_long = NsHandle::new(
        ClientCtx::new(rt.clone()).with_timeout(Duration::from_secs(60)),
        params.ns_addr,
    );
    let rds: Rebinding<RdsApiClient> = Rebinding::new(
        ns_long,
        names::RDS,
        RebindPolicy {
            retry_interval: Duration::from_secs(1),
            backoff_cap: Duration::from_secs(8),
            give_up_after: Duration::from_secs(120),
            jitter: true,
        },
    )
    // Per-settop RDS breaker: after repeated failures the AM stops
    // hammering the RDS and waits for the half-open probe instead —
    // thousands of settops doing this is what keeps a recovering head
    // end from being crushed by its own clients.
    .with_breaker(Arc::new(CircuitBreaker::new(BreakerPolicy {
        failure_threshold: 4,
        open_for: Duration::from_secs(5),
    })))
    .with_breaker_telemetry("rds");
    let app_ctx = AppCtx {
        rt: rt.clone(),
        ns: ns.clone(),
        metrics: Arc::clone(&metrics),
        events: Arc::clone(&events),
        catalog_cache: Arc::new(Mutex::new(Vec::new())),
    };
    let mut retry: Option<Retry> = None;
    loop {
        let backoff = retry.map(|r| TUNE_RETRY.backoff(r.failures - 1, rt.rand_u64()));
        let (number, again) = match events.pop(&rt, backoff) {
            Some(SettopEvent::PowerOff) => {
                metrics.tuned.set(0);
                return;
            }
            Some(SettopEvent::Channel { number }) => (number, None),
            None => match retry {
                Some(r) => (r.channel, Some(r)),
                None => continue,
            },
        };
        retry = None;
        metrics.tuned.set(number as i64);
        let Some(slot) = apps.iter().find(|a| a.channel == number) else {
            metrics.log(rt.now(), format!("channel {number}: nothing there"));
            metrics.tuned.set(0);
            continue;
        };
        let downloaded = again.is_some_and(|r| r.downloaded);
        match tune_in(&rt, &metrics, &rds, slot, &app_ctx, downloaded) {
            TuneIn::Done => metrics.tuned.set(0),
            failed => {
                retry = Some(Retry {
                    channel: number,
                    failures: again.map_or(1, |r| r.failures + 1),
                    downloaded: failed == TuneIn::AppFailed,
                })
            }
        }
    }
}

/// A tune-in the Application Manager will try again.
#[derive(Clone, Copy)]
struct Retry {
    channel: u32,
    /// Times in a row it failed.
    failures: u32,
    /// Its application is in memory: the next try runs it again without
    /// downloading it.
    downloaded: bool,
}

/// How a tune-in ended.
#[derive(PartialEq)]
enum TuneIn {
    /// The application gave the viewer what the tune-in asked for.
    Done,
    /// The application ran and gave up.
    AppFailed,
    /// Its binary did not arrive.
    DownloadFailed,
}

/// One tune-in: shows the cover, downloads the channel's application
/// unless it is `downloaded` already, and runs it.
fn tune_in(
    rt: &Rt,
    metrics: &SettopMetrics,
    rds: &Rebinding<RdsApiClient>,
    slot: &AppSlot,
    app_ctx: &AppCtx,
    downloaded: bool,
) -> TuneIn {
    let t0 = rt.now();
    // Cover (a still image or settop-generated animation) is displayed
    // immediately — this is what makes the user-visible response beat
    // 0.5 s while the download runs (§9.3).
    metrics
        .last_cover_us
        .set(((rt.now() - t0).as_micros() as u64) as i64);
    if !downloaded {
        // Download the application binary via the RDS. The call timeout
        // must cover the transfer (1 MB/s downlink).
        let binary = slot.binary.clone();
        let download: Result<bytes::Bytes, MediaError> =
            rds.call(|c| c.open_data(binary.clone()));
        match download {
            Ok(image) => {
                let elapsed = (rt.now() - t0).as_micros() as u64;
                metrics.app_downloads.inc();
                metrics.app_download_us.add(elapsed);
                metrics.last_app_start_us.set((elapsed) as i64);
                metrics.log(
                    rt.now(),
                    format!("app {} ({} bytes) started", slot.binary, image.len()),
                );
            }
            Err(e) => {
                if e.orb_error().is_some() {
                    metrics.rebinds.inc();
                }
                // Graceful degradation: the cover stays on screen and the
                // AM returns to its event loop instead of wedging — the
                // user can tune elsewhere, or the AM tunes in again.
                metrics.degraded.inc();
                metrics.log(rt.now(), format!("app download failed: {e}"));
                return TuneIn::DownloadFailed;
            }
        }
    }
    if (slot.main)(app_ctx) {
        TuneIn::Done
    } else {
        TuneIn::AppFailed
    }
}
