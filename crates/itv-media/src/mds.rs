//! The Media Delivery Service (§3.3): "delivers constant bit rate data
//! (e.g. MPEG video) to settops."
//!
//! One replica per server; it serves only titles stored locally and
//! creates one dynamically exported *movie object* per open (§9.2: "the
//! only services that dynamically create objects are the Media Delivery
//! Service, which creates one object for every open movie, and the name
//! service"). A delivery process per open movie pushes [`Segment`]s
//! to the settop's stream port at the title's bit rate, one per `TICK`
//! while it plays; it lives from `open` to `close` (or to the end of a
//! stream it abandons) and not a tick longer — `close` wakes it — so
//! its thread and its endpoint are free for the next `open`.
//!
//! Replicated for performance, not availability: "if a server is
//! unavailable, there is no reason to restart its MDS replica on another
//! server" (§8.1) — clients recover by re-opening through the MMS on a
//! surviving replica (§3.5.2).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use ocs_orb::{declare_interface, Caller, ObjRef, Orb};
use ocs_sim::sync::SyncObj;
use ocs_sim::{Addr, Journal, NetError, NodeRtExt, PortReq, RecvError, Rt};
use ocs_wire::Wire;
use parking_lot::Mutex;

use crate::content::Catalog;
use crate::types::{MdsSession, MdsStatus, MediaError, Segment};

declare_interface! {
    /// The Media Delivery Service interface.
    pub interface MdsApi [MdsApiClient, MdsApiServant]: "itv.mds" {
        /// Open a movie for delivery to `dest` (the settop stream port),
        /// starting paused at `resume_ms`. Returns the movie object.
        1 => fn open(&self, title: String, dest: Addr, resume_ms: u64) -> Result<ObjRef, MediaError>;
        /// Close a movie by its object id, reclaiming delivery resources
        /// (invoked by the MMS, §3.4.5).
        2 => fn close(&self, object_id: u64) -> Result<(), MediaError>;
        /// Capacity snapshot.
        3 => fn status(&self) -> Result<MdsStatus, MediaError>;
        /// All open sessions, for MMS state recovery (§10.1.1).
        4 => fn open_sessions(&self) -> Result<Vec<MdsSession>, MediaError>;
    }
}

declare_interface! {
    /// Control interface of one open movie.
    pub interface MovieCtl [MovieCtlClient, MovieCtlServant]: "itv.movie" {
        /// Start (or resume) delivery from `from_ms`.
        1 => fn play(&self, from_ms: u64) -> Result<(), MediaError>;
        /// Pause delivery, keeping the position.
        2 => fn pause(&self) -> Result<(), MediaError>;
        /// Stop delivery (position kept; `play` restarts).
        3 => fn stop(&self) -> Result<(), MediaError>;
        /// Current position in milliseconds.
        4 => fn position(&self) -> Result<u64, MediaError>;
    }
}

/// `MdsApi::status` as [`CallPort::gather`](ocs_orb::CallPort::gather)
/// takes it — wire method id and client span name — for the MMS, which
/// probes every candidate replica at once instead of through the stub.
pub(crate) const STATUS: (u32, &str) = (3, "itv.mds.status");

/// Delivery pacing: one segment per tick.
const TICK: Duration = Duration::from_millis(500);

/// Bounced segments before a playing stream concludes its settop is gone
/// and closes itself (§3.5: delivery-failure detection). Bounces only
/// occur when the destination port is closed on a *live* node — a settop
/// that tore down its stream without a reachable MMS `close` — so a few
/// of them are conclusive; the count guards against a stray bounce from
/// a duplicated frame on a chaotic link.
const ABANDON_BOUNCES: u32 = 6;

struct MovieState {
    title: String,
    dest: Addr,
    bitrate_bps: u64,
    duration_ms: u64,
    object_id: Mutex<u64>,
    position_ms: Mutex<u64>,
    playing: AtomicBool,
    closed: AtomicBool,
}

/// The Media Delivery Service.
pub struct Mds {
    rt: Rt,
    catalog: Catalog,
    max_streams: u32,
    orb: Mutex<Weak<Orb>>,
    me: Mutex<Weak<Mds>>,
    movies: Mutex<HashMap<u64, Arc<MovieState>>>,
    /// Bumped by every `close`: delivery processes wait their tick out
    /// on it, so a closed stream's process ends at once.
    closing: Arc<dyn SyncObj>,
}

impl Mds {
    /// Starts the MDS: opens its ORB on `port` and returns the service
    /// instance plus its root reference (bind it at `svc/mds/<node>`).
    pub fn serve(
        rt: Rt,
        port: u16,
        catalog: Catalog,
        max_streams: u32,
    ) -> Result<(Arc<Mds>, ObjRef), NetError> {
        let mds = Arc::new(Mds {
            rt: rt.clone(),
            catalog,
            max_streams,
            orb: Mutex::new(Weak::new()),
            me: Mutex::new(Weak::new()),
            movies: Mutex::new(HashMap::new()),
            closing: rt.make_sync(),
        });
        *mds.me.lock() = Arc::downgrade(&mds);
        let orb = Orb::new(rt, PortReq::Fixed(port))?;
        *mds.orb.lock() = Arc::downgrade(&orb);
        let obj = orb.export_root(Arc::new(MdsApiServant(Arc::clone(&mds))));
        orb.start();
        Ok((mds, obj))
    }

    /// Streams currently open (the load metric for dynamic selectors).
    pub fn open_count(&self) -> u32 {
        self.movies.lock().len() as u32
    }

    fn delivery_loop(rt: Rt, me: Weak<Mds>, closing: Arc<dyn SyncObj>, movie: Arc<MovieState>) {
        let Ok(ep) = rt.open(PortReq::Ephemeral) else {
            return;
        };
        let bytes_per_tick = (movie.bitrate_bps / 8) as u128 * TICK.as_millis() / 1000;
        let ms_per_tick = TICK.as_millis() as u64;
        let mut bounced = 0u32;
        loop {
            if movie.playing.load(Ordering::Relaxed) {
                let (position_ms, last) = {
                    let mut pos = movie.position_ms.lock();
                    *pos = (*pos + ms_per_tick).min(movie.duration_ms);
                    (*pos, *pos >= movie.duration_ms)
                };
                let seg = Segment {
                    object_id: *movie.object_id.lock(),
                    position_ms,
                    last,
                    data: Catalog::synthesize(bytes_per_tick as usize),
                };
                let _ = ep.send(movie.dest, seg.to_bytes());
                if last {
                    movie.playing.store(false, Ordering::Relaxed);
                }
                // Delivery-failure detection (§3.5): sends are datagrams,
                // but a closed destination port bounces. A playing stream
                // whose settop tore its port down will never be closed by
                // an MMS whose `close` was lost in transit — the stream
                // has to notice and reclaim itself, or it holds a movie
                // object (and through it a session and a neighborhood
                // bandwidth allocation) for the rest of the title.
                loop {
                    match ep.recv(Some(Duration::ZERO)) {
                        Err(RecvError::Unreachable(a)) if a == movie.dest => {
                            bounced += 1;
                            ocs_telemetry::NodeTelemetry::of(&*rt)
                                .registry
                                .counter("mds.stream.bounces")
                                .inc();
                        }
                        Err(RecvError::TimedOut) => break,
                        Err(RecvError::Closed) => return,
                        _ => {}
                    }
                }
                if bounced >= ABANDON_BOUNCES {
                    let id = *movie.object_id.lock();
                    let line = format!("stream {id} bounced {bounced}x; abandoning");
                    Journal::note(&*rt, "mds", line);
                    ocs_telemetry::NodeTelemetry::of(&*rt)
                        .registry
                        .counter("mds.stream.abandoned")
                        .inc();
                    movie.playing.store(false, Ordering::Relaxed);
                    movie.closed.store(true, Ordering::Relaxed);
                    if let Some(mds) = me.upgrade() {
                        mds.reap(id);
                    }
                    return;
                }
            }
            // Wait the tick out, or until this stream is closed. Another
            // stream's close wakes this one too; it goes back to wait for
            // what is left of its tick, so the tick's phase holds.
            let tick_end = rt.now() + TICK;
            loop {
                let seen = closing.generation();
                if movie.closed.load(Ordering::Relaxed) {
                    return;
                }
                let now = rt.now();
                if now >= tick_end {
                    break;
                }
                closing.wait_newer(seen, Some(tick_end - now));
            }
        }
    }

    /// Removes an abandoned stream's movie object, as `close` would.
    fn reap(&self, object_id: u64) {
        if self.movies.lock().remove(&object_id).is_some() {
            if let Some(orb) = self.orb.lock().upgrade() {
                orb.unexport(object_id);
            }
            ocs_telemetry::NodeTelemetry::of(&*self.rt)
                .registry
                .gauge("mds.open_streams")
                .set(self.open_count() as i64);
        }
    }
}

impl MdsApi for Mds {
    /// `status`, probed on every movie open, reads the stream count and
    /// returns; `open` and `open_sessions` stay processes of their own.
    fn runs_inline(&self, method: u32) -> bool {
        method == STATUS.0
    }

    fn open(
        &self,
        _caller: &Caller,
        title: String,
        dest: Addr,
        resume_ms: u64,
    ) -> Result<ObjRef, MediaError> {
        let info = self
            .catalog
            .movie(&title)
            .ok_or_else(|| MediaError::NotFound {
                title: title.clone(),
            })?;
        if !info.replicas.contains(&self.rt.node()) {
            return Err(MediaError::NoReplica);
        }
        let orb = self
            .orb
            .lock()
            .upgrade()
            .ok_or_else(|| MediaError::Dependency {
                what: "orb gone".to_string(),
            })?;
        let movie = {
            let mut movies = self.movies.lock();
            if movies.len() as u32 >= self.max_streams {
                ocs_telemetry::NodeTelemetry::of(&*self.rt)
                    .registry
                    .counter("mds.stream.busy_rejects")
                    .inc();
                return Err(MediaError::Busy);
            }
            let movie = Arc::new(MovieState {
                title,
                dest,
                bitrate_bps: info.bitrate_bps,
                duration_ms: info.duration_ms,
                object_id: Mutex::new(0),
                position_ms: Mutex::new(resume_ms.min(info.duration_ms)),
                playing: AtomicBool::new(false),
                closed: AtomicBool::new(false),
            });
            // Export the movie object and record it under its id.
            let obj = orb.export(Arc::new(MovieCtlServant(Arc::clone(&movie))));
            *movie.object_id.lock() = obj.object_id;
            movies.insert(obj.object_id, Arc::clone(&movie));
            (Arc::clone(&movie), obj)
        };
        let (state, obj) = movie;
        let tel = ocs_telemetry::NodeTelemetry::of(&*self.rt);
        tel.registry.counter("mds.stream.opened").inc();
        tel.registry
            .gauge("mds.open_streams")
            .set(self.open_count() as i64);
        let rt = self.rt.clone();
        let me = self.me.lock().clone();
        let closing = Arc::clone(&self.closing);
        self.rt
            .spawn_fn(&format!("mds-stream-{}", obj.object_id), move || {
                Mds::delivery_loop(rt, me, closing, state)
            });
        Ok(obj)
    }

    fn close(&self, _caller: &Caller, object_id: u64) -> Result<(), MediaError> {
        let movie = self
            .movies
            .lock()
            .remove(&object_id)
            .ok_or(MediaError::UnknownSession { id: object_id })?;
        movie.closed.store(true, Ordering::Relaxed);
        self.closing.bump();
        if let Some(orb) = self.orb.lock().upgrade() {
            orb.unexport(object_id);
        }
        let tel = ocs_telemetry::NodeTelemetry::of(&*self.rt);
        tel.registry.counter("mds.stream.closed").inc();
        tel.registry
            .gauge("mds.open_streams")
            .set(self.open_count() as i64);
        Ok(())
    }

    fn status(&self, _caller: &Caller) -> Result<MdsStatus, MediaError> {
        Ok(MdsStatus {
            open_streams: self.open_count(),
            max_streams: self.max_streams,
        })
    }

    fn open_sessions(&self, _caller: &Caller) -> Result<Vec<MdsSession>, MediaError> {
        Ok(self.sessions())
    }
}

impl Mds {
    /// The open movies, by object id: what `open_sessions` answers, read
    /// in place.
    pub fn sessions(&self) -> Vec<MdsSession> {
        let mut out: Vec<MdsSession> = self
            .movies
            .lock()
            .values()
            .map(|m| MdsSession {
                object_id: *m.object_id.lock(),
                title: m.title.clone(),
                dest: m.dest,
                position_ms: *m.position_ms.lock(),
                playing: m.playing.load(Ordering::Relaxed),
            })
            .collect();
        // Fixed reply order: the map's iteration order is random, and
        // the reply bytes (and the MMS's recovery order) flow from it.
        out.sort_by_key(|s| s.object_id);
        out
    }
}

impl MovieCtl for MovieState {
    fn play(&self, _caller: &Caller, from_ms: u64) -> Result<(), MediaError> {
        *self.position_ms.lock() = from_ms.min(self.duration_ms);
        self.playing.store(true, Ordering::Relaxed);
        Ok(())
    }

    fn pause(&self, _caller: &Caller) -> Result<(), MediaError> {
        self.playing.store(false, Ordering::Relaxed);
        Ok(())
    }

    fn stop(&self, _caller: &Caller) -> Result<(), MediaError> {
        self.playing.store(false, Ordering::Relaxed);
        Ok(())
    }

    fn position(&self, _caller: &Caller) -> Result<u64, MediaError> {
        Ok(*self.position_ms.lock())
    }
}
