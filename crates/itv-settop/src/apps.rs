//! The settop applications: navigator, video on demand, home shopping.

use std::time::Duration;

use std::sync::Arc;

use itv_media::{names, ports, MmsApiClient, MovieCtlClient, RdsApiClient, Segment, ShopApiClient};
use ocs_name::{RebindPolicy, Rebinding};
use ocs_orb::{BreakerPolicy, CircuitBreaker, ClientCtx, OrbError, RpcFault};
use ocs_sim::{PortReq, RecvError};
use ocs_wire::Wire;

use crate::am::AppCtx;

/// How long without a segment before the player declares a stall
/// (§3.5.2: "the application detects the failure when it stops
/// receiving data").
const STALL_TIMEOUT: Duration = Duration::from_millis(2500);

/// Result of a VOD viewing session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VodOutcome {
    /// Viewing completed (reached the target position or the end).
    pub completed: bool,
    /// Stalls survived (each one is an MDS/link failure recovered via
    /// re-open on another replica).
    pub stalls: u64,
    /// Final playback position, ms.
    pub position_ms: u64,
}

/// The video-on-demand application (§3.4.4, §3.5): opens `title` through
/// the MMS, consumes the stream, and recovers from delivery failures by
/// closing and re-opening at the remembered position (§10.1.1).
///
/// Returns when `watch_ms` of content has played, the movie ends, or
/// recovery fails for longer than the rebind policy tolerates (then
/// `completed` is false and the Application Manager tunes in again).
pub fn run_vod(ctx: &AppCtx, title: &str, watch_ms: u64) -> VodOutcome {
    let rt = &ctx.rt;
    let metrics = &ctx.metrics;
    let mms: Rebinding<MmsApiClient> = Rebinding::new(
        ctx.ns.clone(),
        names::MMS,
        RebindPolicy {
            retry_interval: Duration::from_secs(1),
            backoff_cap: Duration::from_secs(4),
            give_up_after: Duration::from_secs(60),
            jitter: true,
        },
    )
    .with_breaker(Arc::new(CircuitBreaker::new(BreakerPolicy {
        failure_threshold: 5,
        open_for: Duration::from_secs(5),
    })))
    .with_breaker_telemetry("mms");
    // The stream arrives on the settop's well-known stream port.
    let Ok(stream) = rt.open(PortReq::Fixed(ports::SETTOP_STREAM)) else {
        metrics.log(rt.now(), "vod: stream port busy");
        return VodOutcome {
            completed: false,
            stalls: 0,
            position_ms: 0,
        };
    };
    let mut position_ms: u64 = 0;
    let mut stalls: u64 = 0;
    let mut completed = false;
    'sessions: loop {
        // Open (or re-open after a failure) at the current position.
        let opened = mms.call_counted(|m| m.open(title.to_string(), position_ms));
        let (ticket, rebinds) = match opened {
            Ok(v) => v,
            Err(e) => {
                metrics.movie_failures.inc();
                if matches!(e.orb_error(), Some(OrbError::CircuitOpen)) {
                    // Paused-playback degradation: the MMS circuit is
                    // open, so stop cleanly and let the Application
                    // Manager tune in again later.
                    metrics.degraded.inc();
                    metrics.log(
                        rt.now(),
                        format!("vod: paused at {position_ms}ms (mms circuit open)"),
                    );
                } else {
                    metrics.log(rt.now(), format!("vod: open failed: {e}"));
                }
                break 'sessions;
            }
        };
        metrics.rebinds.add(rebinds);
        metrics.movies_opened.inc();
        let movie = match MovieCtlClient::attach(ClientCtx::new(rt.clone()), ticket.movie) {
            Ok(m) => m,
            Err(_) => break 'sessions,
        };
        if movie.play(position_ms).is_err() {
            // The MDS died between open and play: treat as a stall and
            // re-open.
            stalls += 1;
            metrics.stalls.inc();
            continue 'sessions;
        }
        // Consume segments until done, stalled, or satisfied.
        let mut stall_started: Option<ocs_sim::SimTime> = None;
        loop {
            match stream.recv(Some(STALL_TIMEOUT)) {
                Ok((_, msg)) => {
                    let Ok(seg) = Segment::from_bytes(&msg) else {
                        continue;
                    };
                    if seg.object_id != ticket.movie.object_id {
                        continue; // Stale stream from a closed session.
                    }
                    if let Some(t0) = stall_started.take() {
                        let us = (rt.now() - t0).as_micros() as u64;
                        metrics.interruption_us.add(us);
                    }
                    position_ms = seg.position_ms;
                    metrics.position_ms.set((position_ms) as i64);
                    metrics.segments.inc();
                    metrics.streaming.set(1);
                    if position_ms >= watch_ms || seg.last {
                        completed = true;
                        let _ = mms.call(|m| m.close(ticket.session));
                        break 'sessions;
                    }
                }
                Err(RecvError::TimedOut) => {
                    // Stall: the MDS (or its server) died mid-stream.
                    // Close the broken session and re-open at the
                    // remembered position (§3.5.2 + §10.1.1).
                    stalls += 1;
                    metrics.stalls.inc();
                    metrics.log(
                        rt.now(),
                        format!("vod: stall at {position_ms}ms; re-opening"),
                    );
                    // Attribute the already-elapsed stall timeout to the
                    // interruption, then measure until the next segment.
                    metrics
                        .interruption_us
                        .add(STALL_TIMEOUT.as_micros() as u64);
                    metrics.streaming.set(0);
                    let _ = mms.call(|m| m.close(ticket.session));
                    continue 'sessions;
                }
                Err(RecvError::Unreachable(_)) => continue,
                Err(RecvError::Closed) => break 'sessions,
            }
        }
    }
    metrics.streaming.set(0);
    VodOutcome {
        completed,
        stalls,
        position_ms,
    }
}

/// The navigator (§3.4.2): "provides a convenient way for settop users
/// to find applications of interest" — here it lists what the RDS can
/// deliver and records the catalog in the settop log.
pub fn run_navigator(ctx: &AppCtx) -> Vec<String> {
    let rds: Rebinding<RdsApiClient> =
        Rebinding::new(ctx.ns.clone(), names::RDS, RebindPolicy::default());
    match rds.call(|c| c.list()) {
        Ok(apps) => {
            *ctx.catalog_cache.lock() = apps.clone();
            ctx.metrics
                .log(ctx.rt.now(), format!("navigator: {} apps", apps.len()));
            apps
        }
        Err(e) => {
            // Stale-catalog degradation: show what we knew before the
            // outage rather than an empty screen.
            let cached = ctx.catalog_cache.lock().clone();
            if cached.is_empty() {
                ctx.metrics
                    .log(ctx.rt.now(), format!("navigator failed: {e}"));
            } else {
                ctx.metrics.degraded.inc();
                ctx.metrics.log(
                    ctx.rt.now(),
                    format!("navigator: stale catalog ({} apps; {e})", cached.len()),
                );
            }
            cached
        }
    }
}

/// The home-shopping application: a think-time loop of interactions
/// against the shop service, recovering from service restarts through
/// the rebind library like every other client (§8.2).
pub fn run_shopping(ctx: &AppCtx, interactions: u32, think: Duration) -> u32 {
    let shop: Rebinding<ShopApiClient> = Rebinding::new(
        ctx.ns.clone(),
        names::SHOP,
        RebindPolicy {
            retry_interval: Duration::from_secs(1),
            backoff_cap: Duration::from_secs(4),
            give_up_after: Duration::from_secs(30),
            jitter: true,
        },
    );
    let session = ctx.rt.rand_u64();
    let mut done = 0;
    let inputs = ["home", "browse", "pizza", "browse", "sneakers"];
    for i in 0..interactions {
        let input = inputs[i as usize % inputs.len()].to_string();
        match shop.call(|c| c.interact(session, input.clone())) {
            Ok(_) => {
                done += 1;
                ctx.metrics.interactions.inc();
            }
            Err(e) => {
                if e.orb_error().is_some() {
                    ctx.metrics.rebinds.inc();
                }
                ctx.metrics.shop_failures.inc();
                ctx.metrics
                    .log(ctx.rt.now(), format!("shopping failed: {e}"));
                break;
            }
        }
        ctx.rt.sleep(think);
    }
    done
}
