//! Client-side naming library: resolution sugar, the §8.2 automatic
//! rebind loop, and the two ways a service holds a name — the §5.2
//! primary-acquisition race and the claim-and-keep [`advertise`].

use std::sync::Arc;
use std::time::Duration;

use ocs_orb::{Admission, CircuitBreaker, ClientCtx, ObjRef, Proxy, RetryPolicy, RpcFault};
use ocs_sim::{Addr, NodeRtExt, Rt};
use ocs_telemetry::NodeTelemetry;
use parking_lot::Mutex;

use crate::cache::{Cached, ResolveCache};
use crate::iface::{NamingContextClient, NAMING_TYPE_ID};
use crate::types::{Binding, NsError, SelectorSpec};

/// A handle on the name space through one replica (the one whose address
/// a settop learns at boot, §3.4.1).
#[derive(Clone)]
pub struct NsHandle {
    ctx: ClientCtx,
    root: NamingContextClient,
    /// The node-wide shared path → answer cache; one remote lookup
    /// serves every client on the node.
    cache: Arc<ResolveCache>,
    /// This node's telemetry bundle (lookup and cache counters).
    tel: Arc<NodeTelemetry>,
}

/// A name-service lookup whose answer the node's [`ResolveCache`] can
/// hold: `resolve` ([`ObjRef`]) and `list_repl` (`Arc<[Binding]>`).
pub trait Lookup: Sized {
    /// Asks the name service.
    fn fetch(ns: &NsHandle, path: &str) -> Result<Self, NsError>;
    /// The answer as the cache holds it; `None` for one not worth
    /// keeping.
    fn to_cached(&self) -> Option<Cached>;
    /// The answer out of the cache; `None` if the slot holds the other
    /// kind of lookup's.
    fn from_cached(cached: Cached) -> Option<Self>;
}

impl Lookup for ObjRef {
    fn fetch(ns: &NsHandle, path: &str) -> Result<ObjRef, NsError> {
        ns.resolve(path)
    }
    fn to_cached(&self) -> Option<Cached> {
        Some(Cached::Ref(*self))
    }
    fn from_cached(cached: Cached) -> Option<ObjRef> {
        match cached {
            Cached::Ref(obj) => Some(obj),
            Cached::Set(_) => None,
        }
    }
}

impl Lookup for Arc<[Binding]> {
    fn fetch(ns: &NsHandle, path: &str) -> Result<Arc<[Binding]>, NsError> {
        ns.list_repl(path).map(Arc::from)
    }
    /// An empty set is never cached: it says only that no replica has
    /// bound *yet*, and the bind that ends that reaches a node without a
    /// name-service replica by no invalidation.
    fn to_cached(&self) -> Option<Cached> {
        (!self.is_empty()).then(|| Cached::Set(Arc::clone(self)))
    }
    fn from_cached(cached: Cached) -> Option<Arc<[Binding]>> {
        match cached {
            Cached::Set(set) => Some(set),
            Cached::Ref(_) => None,
        }
    }
}

/// Where the answer of an [`NsHandle::cached`] lookup came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Origin {
    /// The node's cache, at this generation of the path: the name
    /// service was not asked, and a target that then fails may merely
    /// be out of date.
    Hit(u64),
    /// The name service, just now; the cache took it at this generation.
    Installed(u64),
    /// The name service, just now; the cache did not take it (an
    /// invalidation raced the lookup, or the answer is not worth
    /// keeping). Good for this call only.
    NotKept,
}

impl NsHandle {
    /// Builds the stable root-context reference for a replica address.
    pub fn root_ref(ns_addr: Addr) -> ObjRef {
        ObjRef {
            addr: ns_addr,
            incarnation: ObjRef::STABLE,
            type_id: NAMING_TYPE_ID,
            object_id: 0,
        }
    }

    /// Creates a handle talking to the replica at `ns_addr`.
    pub fn new(ctx: ClientCtx, ns_addr: Addr) -> NsHandle {
        let root = NamingContextClient::attach(ctx.clone(), Self::root_ref(ns_addr))
            .expect("root reference always has the naming type id");
        let tel = NodeTelemetry::of(&**ctx.rt());
        let cache = ResolveCache::of(&**ctx.rt());
        NsHandle {
            ctx,
            root,
            cache,
            tel,
        }
    }

    /// The client context used for calls.
    pub fn ctx(&self) -> &ClientCtx {
        &self.ctx
    }

    /// The root context proxy.
    pub fn root(&self) -> &NamingContextClient {
        &self.root
    }

    /// Resolves a name to a raw object reference.
    pub fn resolve(&self, path: &str) -> Result<ObjRef, NsError> {
        self.counted(self.root.resolve(path.to_string()))
    }

    /// Counts one remote lookup and its outcome.
    fn counted<T>(&self, r: Result<T, NsError>) -> Result<T, NsError> {
        self.tel.registry.counter("ns.client.lookups").inc();
        if r.is_err() {
            self.tel.registry.counter("ns.client.lookup_errors").inc();
        }
        r
    }

    /// `resolve` (for `V` = [`ObjRef`]) or `list_repl` (`Arc<[Binding]>`)
    /// of `path` through the node's shared cache (§8.2: "the client side
    /// of the name service caches resolves"): the cached answer if there
    /// is one, else the name service's, installed for every other client
    /// on the node. The caller that finds a cached target dead says so
    /// with [`NsHandle::invalidate`].
    pub fn cached<V: Lookup>(&self, path: &str) -> Result<(V, Origin), NsError> {
        if let Some((gen, hit)) = self.cache.lookup(path) {
            if let Some(v) = V::from_cached(hit) {
                self.tel.registry.counter("ns.cache.hits").inc();
                return Ok((v, Origin::Hit(gen)));
            }
        }
        // Miss: ask the name service. The generation read *before* the
        // lookup is the install token — if an invalidation lands while
        // the lookup is in flight, the install is refused (the answer
        // may carry the very binding whose death caused the
        // invalidation) and it is used for this call only.
        self.tel.registry.counter("ns.cache.misses").inc();
        let gen_before = self.cache.generation(path);
        let v = V::fetch(self, path)?;
        let Some(value) = v.to_cached() else {
            return Ok((v, Origin::NotKept));
        };
        if self.cache.install(path, gen_before, value) {
            Ok((v, Origin::Installed(gen_before)))
        } else {
            self.tel.registry.counter("ns.cache.stale_installs").inc();
            Ok((v, Origin::NotKept))
        }
    }

    /// Drops the node's cached answer for `path` — for every client on
    /// the node — forcing a fresh lookup on next use. Lookups already in
    /// flight cannot reinstall what was dropped.
    pub fn invalidate(&self, path: &str) {
        self.tel.registry.counter("ns.client.invalidations").inc();
        self.cache.invalidate(path);
    }

    /// Resolves a name and binds it to a typed proxy.
    pub fn resolve_as<C: Proxy>(&self, path: &str) -> Result<C, NsError> {
        let obj = self.resolve(path)?;
        C::bind_ref(self.ctx.clone(), obj).map_err(|err| NsError::Comm { err })
    }

    /// Binds an object at a path.
    pub fn bind(&self, path: &str, obj: ObjRef) -> Result<(), NsError> {
        self.root.bind(path.to_string(), obj)
    }

    /// Removes a binding.
    pub fn unbind(&self, path: &str) -> Result<(), NsError> {
        self.root.unbind(path.to_string())
    }

    /// Creates an ordinary context.
    pub fn bind_new_context(&self, path: &str) -> Result<ObjRef, NsError> {
        self.root.bind_new_context(path.to_string())
    }

    /// Creates a replicated context with a selector (§4.5).
    pub fn bind_repl_context(&self, path: &str, selector: SelectorSpec) -> Result<ObjRef, NsError> {
        self.root.bind_repl_context(path.to_string(), selector)
    }

    /// Lists a context (selected binding only, for replicated contexts).
    pub fn list(&self, path: &str) -> Result<Vec<Binding>, NsError> {
        self.root.list(path.to_string())
    }

    /// Lists all bindings of a replicated context.
    pub fn list_repl(&self, path: &str) -> Result<Vec<Binding>, NsError> {
        self.counted(self.root.list_repl(path.to_string()))
    }

    /// Reports a load hint for a binding (dynamic selectors).
    pub fn report_load(&self, path: &str, load: u32) -> Result<(), NsError> {
        self.root.report_load(path.to_string(), load)
    }
}

/// Retry policy for the automatic rebind loop (§8.2).
#[derive(Clone, Copy, Debug)]
pub struct RebindPolicy {
    /// Base delay between re-resolve attempts (the floor of the backoff
    /// envelope). The paper notes resolve is fast but anticipates adding
    /// back-off against recovery storms; the envelope doubles from this
    /// value up to [`RebindPolicy::backoff_cap`].
    pub retry_interval: Duration,
    /// Ceiling of the exponential backoff envelope. Equal to
    /// `retry_interval` this degenerates to the paper's flat retry timer.
    pub backoff_cap: Duration,
    /// Total time to keep retrying before giving up.
    pub give_up_after: Duration,
    /// Draw each wait uniformly from `[interval, envelope(attempt)]`
    /// (full jitter) to spread recovery storms — §8.2's suggested
    /// mitigation. Without jitter the wait is the envelope itself.
    pub jitter: bool,
}

impl Default for RebindPolicy {
    fn default() -> RebindPolicy {
        RebindPolicy {
            retry_interval: Duration::from_secs(1),
            backoff_cap: Duration::from_secs(4),
            give_up_after: Duration::from_secs(60),
            jitter: false,
        }
    }
}

impl RebindPolicy {
    /// The unified backoff schedule this policy induces.
    pub fn retry_policy(&self) -> RetryPolicy {
        RetryPolicy::new(self.retry_interval, self.backoff_cap.max(self.retry_interval))
    }
}

/// A self-healing typed proxy: resolves through the name service on first
/// use, and on a dead-reference failure re-resolves and retries until the
/// service recovers or the policy gives up — the client-side library
/// behaviour of §8.2.
pub struct Rebinding<C: Proxy + Clone> {
    ns: NsHandle,
    path: String,
    policy: RebindPolicy,
    /// This proxy's typed stub plus the generation of the node's shared
    /// cache it was built at; a generation mismatch means some caller
    /// invalidated the path since, and the stub must be rebuilt.
    cached: Mutex<Option<(u64, C)>>,
    /// Context used for the *service* calls (may differ from the naming
    /// context, e.g. when service calls are ticket-signed but naming
    /// traffic is not).
    service_ctx: Option<ClientCtx>,
    /// Optional per-service circuit breaker. While open, retry rounds
    /// sleep instead of placing calls (shedding load off a struggling
    /// service); the breaker's half-open probe re-admits traffic.
    breaker: Option<Arc<CircuitBreaker>>,
}

impl<C: Proxy + Clone> Rebinding<C> {
    /// Creates a rebinding proxy for `path`.
    pub fn new(ns: NsHandle, path: impl Into<String>, policy: RebindPolicy) -> Rebinding<C> {
        Rebinding {
            ns,
            path: path.into(),
            policy,
            cached: Mutex::new(None),
            service_ctx: None,
            breaker: None,
        }
    }

    /// Attaches the standard breaker telemetry (state gauge named after
    /// `service` plus transition counters) to this proxy's breaker, if
    /// one is configured.
    pub fn with_breaker_telemetry(self, service: &str) -> Rebinding<C> {
        if let Some(b) = &self.breaker {
            ocs_orb::bind_breaker(b, self.ns.ctx().rt(), self.tel(), service);
        }
        self
    }

    /// Uses a distinct client context for the service's calls (e.g. one
    /// carrying authentication), keeping naming traffic on the handle's
    /// own context.
    pub fn with_service_ctx(mut self, ctx: ClientCtx) -> Rebinding<C> {
        self.service_ctx = Some(ctx);
        self
    }

    /// Attaches a circuit breaker, shared by every caller of this proxy
    /// (and possibly by other proxies for the same service).
    pub fn with_breaker(mut self, breaker: Arc<CircuitBreaker>) -> Rebinding<C> {
        self.breaker = Some(breaker);
        self
    }

    /// The attached breaker, if any.
    pub fn breaker(&self) -> Option<&Arc<CircuitBreaker>> {
        self.breaker.as_ref()
    }

    fn rt(&self) -> &Rt {
        self.ns.ctx().rt()
    }

    /// This node's telemetry bundle (retry/rebind/shed counters).
    fn tel(&self) -> &NodeTelemetry {
        &self.ns.tel
    }

    fn service_ctx(&self) -> ClientCtx {
        self.service_ctx
            .clone()
            .unwrap_or_else(|| self.ns.ctx().clone())
    }

    fn get(&self) -> Result<C, NsError> {
        // Fast path: this proxy's stub is still at the path's current
        // generation (no caller has invalidated it since it was built).
        let cur_gen = self.ns.cache.generation(&self.path);
        if let Some((gen, c)) = self.cached.lock().clone() {
            if gen == cur_gen {
                return Ok(c);
            }
        }
        // Next: the node's cache — another proxy may already hold a live
        // binding — and only then the name service.
        let (obj, origin) = self.ns.cached::<ObjRef>(&self.path)?;
        let c = C::bind_ref(self.service_ctx(), obj).map_err(|err| NsError::Comm { err })?;
        if let Origin::Hit(gen) | Origin::Installed(gen) = origin {
            *self.cached.lock() = Some((gen, c.clone()));
        }
        Ok(c)
    }

    /// Drops the cached binding — for this proxy *and*, via the shared
    /// cache generation bump, for every other proxy of this path on the
    /// node — forcing a re-resolve on next use. Resolves already in
    /// flight cannot reinstall the invalidated binding.
    pub fn invalidate(&self) {
        self.ns.invalidate(&self.path);
        *self.cached.lock() = None;
    }

    /// Invokes `f` on the proxy, transparently re-resolving and retrying
    /// on dead references. Application errors return immediately.
    ///
    /// Returns the number of rebinds performed alongside the result via
    /// [`Rebinding::call_counted`]; this plain form discards it.
    pub fn call<R, E: RpcFault>(&self, f: impl Fn(&C) -> Result<R, E>) -> Result<R, E> {
        self.call_counted(f).map(|(r, _)| r)
    }

    /// Like [`Rebinding::call`], also reporting how many rebind rounds
    /// were needed (0 = first try succeeded) — used by the fail-over
    /// experiments to attribute latency.
    pub fn call_counted<R, E: RpcFault>(
        &self,
        f: impl Fn(&C) -> Result<R, E>,
    ) -> Result<(R, u64), E> {
        let rt = self.rt().clone();
        let deadline = rt.now() + self.policy.give_up_after;
        let backoff = self.policy.retry_policy();
        let mut rounds = 0u64;
        loop {
            // Ask the breaker (if any) before touching the network: while
            // it is open, this client backs off without placing calls.
            let admitted = match &self.breaker {
                Some(b) => match b.try_acquire(rt.now()) {
                    Admission::Admit { .. } => true,
                    Admission::Reject => false,
                },
                None => true,
            };
            // Whether this round's obstacle was an open breaker (reported
            // as `CircuitOpen` on give-up, so callers can tell
            // load-shedding from plain unavailability).
            let shed = !admitted;
            if shed {
                self.tel().registry.counter("orb.rebind.breaker_shed").inc();
                self.tel().journal.record(
                    rt.now(),
                    "orb",
                    format!("breaker shed: call to {} held back", self.path),
                );
            }
            if admitted {
                let proxy = match self.get() {
                    Ok(p) => Some(p),
                    Err(NsError::Comm { err }) if !err.is_dead_reference() => {
                        if let Some(b) = &self.breaker {
                            b.on_probe_abandoned();
                        }
                        return Err(E::from_orb(err));
                    }
                    Err(_) => None, // Not (re)bound yet; wait and retry.
                };
                if let Some(proxy) = proxy {
                    match f(&proxy) {
                        Ok(r) => {
                            if let Some(b) = &self.breaker {
                                b.on_success();
                            }
                            return Ok((r, rounds));
                        }
                        Err(e) if e.is_dead_reference() => {
                            // The reference died: discard it and
                            // re-resolve (the §8.2 library path).
                            if let Some(b) = &self.breaker {
                                b.on_failure(rt.now());
                            }
                            self.tel().registry.counter("orb.rebind.rebinds").inc();
                            self.tel().journal.record(
                                rt.now(),
                                "orb",
                                format!("dead reference on {}: rebinding", self.path),
                            );
                            self.invalidate();
                        }
                        Err(e) => {
                            let failed = e.orb_error().is_some_and(|oe| oe.is_retryable());
                            if let Some(b) = &self.breaker {
                                if failed {
                                    b.on_failure(rt.now());
                                } else {
                                    // The service answered (with an
                                    // application error): it is healthy.
                                    b.on_success();
                                }
                            }
                            if failed {
                                // Unified retry: retryable transport
                                // failures stay inside the loop instead
                                // of surfacing to every caller.
                                self.invalidate();
                            } else {
                                return Err(e);
                            }
                        }
                    }
                } else if let Some(b) = &self.breaker {
                    // Resolution failed before any call was placed; the
                    // admission (possibly a probe) had no outcome.
                    b.on_probe_abandoned();
                }
            }
            let attempt = u32::try_from(rounds).unwrap_or(u32::MAX);
            rounds += 1;
            self.tel().registry.counter("orb.rebind.retries").inc();
            let now = rt.now();
            if now >= deadline {
                self.tel().registry.counter("orb.rebind.giveups").inc();
                self.tel().journal.record(
                    now,
                    "orb",
                    format!("retry exhausted on {} after {rounds} rounds", self.path),
                );
                return Err(E::from_orb(if shed {
                    ocs_orb::OrbError::CircuitOpen
                } else {
                    ocs_orb::OrbError::Timeout
                }));
            }
            let wait = if self.policy.jitter {
                backoff.backoff(attempt, rt.rand_u64())
            } else {
                backoff.envelope(attempt)
            };
            rt.sleep(wait.min(deadline - now));
        }
    }
}

/// Blocks until this service instance becomes the primary for `path` by
/// winning the `bind` race (§5.2): the first replica to bind is primary;
/// the rest retry every `retry` until the name service's audit removes a
/// dead primary's binding.
///
/// Returns the number of bind attempts (1 = became primary immediately).
pub fn acquire_primary(ns: &NsHandle, rt: &Rt, path: &str, obj: ObjRef, retry: Duration) -> u64 {
    let mut attempts = 0;
    loop {
        attempts += 1;
        match ns.bind(path, obj) {
            Ok(()) => return attempts,
            Err(NsError::AlreadyBound { .. })
            | Err(NsError::NoMaster)
            | Err(NsError::Comm { .. }) => {
                rt.sleep(retry);
            }
            Err(NsError::NotFound { .. }) => {
                // Parent context missing: create it and retry.
                if let Some((parent, _)) = path.rsplit_once('/') {
                    let _ = ns.bind_new_context(parent);
                }
                rt.sleep(retry);
            }
            Err(_) => rt.sleep(retry),
        }
    }
}

/// How often a per-node service re-checks the name it holds.
pub const ADVERTISE_EVERY: Duration = Duration::from_secs(5);

/// How soon a keeper looks again after a look it could not finish (name
/// service unreachable or between masters, parent context not there
/// yet): a restarted server is back in the name space this long after
/// its name-service replica is, not a whole period later.
const ADVERTISE_RETRY: Duration = Duration::from_secs(1);

/// Claim-and-keep, the other way a service holds a name (the first is
/// [`acquire_primary`]'s race): spawns a keeper process in the caller's
/// group that, while `holds()` is true, makes `path` name `obj`. It
/// displaces whatever is bound there — a previous incarnation's
/// reference, a deposed master's — and looks again every `every`, for
/// the audit may reap a live binding on a stale RAS verdict, and a
/// one-shot bind would then leave the service unreachable for good. The
/// keeper dies with the caller's process group, so a restarted instance
/// is not fought by its predecessor's.
///
/// `holds` is `|| true` for a per-node service and "I am master" for a
/// replicated group, whose binding is a stable reference the audit
/// skips: only the current master can rewrite it. With `create_parents`
/// missing plain contexts on the way are created; leave it off for a
/// child of a replicated context, whose parent the set-up process
/// creates with its selector.
pub fn advertise(
    ns: &NsHandle,
    path: &str,
    obj: ObjRef,
    every: Duration,
    create_parents: bool,
    holds: impl Fn() -> bool + Send + 'static,
) {
    // The keeper advances only by sleeping: zero would spin it at one
    // virtual instant.
    assert!(!every.is_zero(), "advertise: `every` must be nonzero");
    let ns = ns.clone();
    let rt = ns.ctx().rt().clone();
    let path = path.to_string();
    rt.clone().spawn_fn(&format!("advertise-{path}"), move || {
        // The last holder on another node this keeper took the name
        // from: two claimants of one name show once each in the
        // journal, not once per period.
        let mut taken_from = None;
        let mut first = true;
        loop {
            let settled =
                !holds() || claim(&ns, &path, obj, create_parents, first, &mut taken_from).is_ok();
            first = false;
            rt.sleep(if settled {
                every
            } else {
                every.min(ADVERTISE_RETRY)
            });
        }
    });
}

/// One look of an [`advertise`] keeper: `Ok` once `path` names `obj`.
///
/// "Do I hold it?" is asked of the parent's bindings *without
/// selection* (`list_repl`): a selecting `resolve` cannot answer for a
/// child of a replicated context — the selector picks a member and the
/// child's own name is left over. The `first` look does not ask: it
/// binds, so a starting service is in the name space one round trip
/// after it serves, and looks only if the name turns out taken.
fn claim(
    ns: &NsHandle,
    path: &str,
    obj: ObjRef,
    create_parents: bool,
    first: bool,
    taken_from: &mut Option<ObjRef>,
) -> Result<(), NsError> {
    let (parent, leaf) = path.rsplit_once('/').unwrap_or(("", path));
    if first {
        match bind_under(ns, path, obj, create_parents) {
            Err(NsError::AlreadyBound { .. }) => {}
            done => return done,
        }
    }
    let held = match ns.list_repl(parent) {
        Ok(bound) => bound.iter().find(|b| b.name == leaf).map(|b| b.obj),
        Err(NsError::NotFound { .. }) if create_parents => None,
        Err(e) => return Err(e),
    };
    match held {
        Some(cur) if cur == obj => Ok(()),
        Some(cur) => {
            if cur.addr.node != obj.addr.node && *taken_from != Some(cur) {
                *taken_from = Some(cur);
                let now = ns.ctx.rt().now();
                let line = format!("advertise: took {path} from {}", cur.addr);
                ns.tel.journal.record(now, "ns", line);
            }
            let _ = ns.unbind(path);
            ns.bind(path, obj)
        }
        // Free, as far as the replica asked knows; the primary decides.
        // `AlreadyBound` from it means that replica trails — a restarted
        // server's, still catching up: the next look asks again and
        // sees whom it is taking the name from.
        None => bind_under(ns, path, obj, create_parents),
    }
}

/// Binds `path`, creating the plain contexts above it first where the
/// primary says one is missing and `create_parents` allows.
fn bind_under(ns: &NsHandle, path: &str, obj: ObjRef, create_parents: bool) -> Result<(), NsError> {
    match ns.bind(path, obj) {
        Err(NsError::NotFound { .. }) if create_parents => {
            for (i, _) in path.match_indices('/') {
                let _ = ns.bind_new_context(&path[..i]);
            }
            ns.bind(path, obj)
        }
        done => done,
    }
}

/// How a client should configure its name-service access, as handed out
/// by the boot broadcast (§3.4.1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NsBootstrap {
    /// The name-service replica this client should use.
    pub ns_addr: Addr,
}

impl NsBootstrap {
    /// Opens a handle using this bootstrap information.
    pub fn connect(&self, ctx: ClientCtx) -> NsHandle {
        NsHandle::new(ctx, self.ns_addr)
    }
}

ocs_wire::impl_wire_struct!(NsBootstrap { ns_addr });

/// Convenience: an `Arc`-wrapped rebinding proxy (most services hold one
/// per dependency).
pub type SharedRebinding<C> = Arc<Rebinding<C>>;
