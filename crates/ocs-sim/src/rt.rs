//! The runtime abstraction that OCS services are written against.
//!
//! Every service in this system (name service, RAS, MMS, ...) is ordinary
//! blocking Rust code that talks to the outside world only through
//! [`NodeRt`] and [`Endpoint`]. Two implementations exist:
//!
//! * the deterministic discrete-event runtime ([`crate::Sim`]), where time
//!   is virtual and every run is reproducible from a seed, and
//! * the real runtime ([`crate::real::RealNet`]), where processes are
//!   tasks on their node's one loop thread and messages travel over TCP
//!   on the loopback interface.
//!
//! The message model is datagram-like (as the paper's object exchange layer
//! is): a node opens numbered *endpoints* (ports), sends byte messages to
//! `(node, port)` addresses, and receives with optional timeouts. Failure
//! of the destination surfaces either as an [`RecvError::Unreachable`]
//! notification (process died, host alive — the RST-like case) or as
//! silence leading to a timeout (host died).

use std::any::{Any, TypeId};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use parking_lot::Mutex;

use crate::time::SimTime;

/// Identifier of a host in the system.
///
/// Plays the role of the IP address in the paper: selectors derive the
/// *neighborhood* of a caller from it (§5.1), and object references embed
/// it (§3.2.1).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A message endpoint address: host plus port number.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr {
    /// The host.
    pub node: NodeId,
    /// The endpoint number on that host.
    pub port: u16,
}

impl Addr {
    /// Creates an address from raw parts.
    pub const fn new(node: NodeId, port: u16) -> Addr {
        Addr { node, port }
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.node, self.port)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.node, self.port)
    }
}

/// How to choose the port number when opening an endpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PortReq {
    /// A well-known port; fails if already open.
    Fixed(u16),
    /// Any free port (ephemeral range).
    Ephemeral,
}

/// Errors from opening endpoints or sending messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetError {
    /// The requested fixed port is already open on this node.
    PortInUse(u16),
    /// The local node is down (only meaningful in simulation).
    NodeDown,
    /// The transport failed to hand the message off (real runtime only;
    /// the simulated network never fails a send — failures surface at the
    /// receiver).
    SendFailed(String),
    /// The peer actively refused every connection attempt (real runtime
    /// only): nothing is listening at the peer's address, which callers
    /// should treat like a bounce — the destination is gone, not slow.
    PeerRefused(NodeId),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::PortInUse(p) => write!(f, "port {p} already in use"),
            NetError::NodeDown => write!(f, "local node is down"),
            NetError::SendFailed(e) => write!(f, "send failed: {e}"),
            NetError::PeerRefused(n) => write!(f, "peer {n} refused the connection"),
        }
    }
}

impl std::error::Error for NetError {}

/// Errors from [`Endpoint::recv`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecvError {
    /// No message arrived within the timeout.
    TimedOut,
    /// A previously sent message bounced: the destination host was up but
    /// the destination port was closed (the process implementing it died).
    /// Carries the unreachable address.
    Unreachable(Addr),
    /// The endpoint was closed locally.
    Closed,
}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvError::TimedOut => write!(f, "receive timed out"),
            RecvError::Unreachable(a) => write!(f, "destination {a} unreachable"),
            RecvError::Closed => write!(f, "endpoint closed"),
        }
    }
}

impl std::error::Error for RecvError {}

/// A message endpoint: the unit of addressability on a node.
///
/// Endpoints are cheap; the ORB waits for a call's reply on the calling
/// process's [`reply_endpoint`](NodeRt::reply_endpoint) and serves each
/// exported service on one well-known endpoint.
pub trait Endpoint: Send + Sync {
    /// Sends `msg` to `to`. Datagram semantics: delivery is not
    /// acknowledged, and loss surfaces at the receiver as a timeout or an
    /// [`RecvError::Unreachable`] bounce.
    fn send(&self, to: Addr, msg: Bytes) -> Result<(), NetError>;

    /// Receives the next message, blocking up to `timeout` (forever if
    /// `None`). Returns the source address alongside the payload.
    fn recv(&self, timeout: Option<Duration>) -> Result<(Addr, Bytes), RecvError>;

    /// The address of this endpoint.
    fn local(&self) -> Addr;

    /// Closes the endpoint; subsequent receives return
    /// [`RecvError::Closed`], and messages sent to it bounce.
    ///
    /// An endpoint has one lifetime on both runtimes: it closes here,
    /// when its last handle drops, at once when the group of the process
    /// that opened it is killed, and when its node crashes or is shut
    /// down (TCP's `RealNode::stop`, the simulation's end). Closing a
    /// handle whose port has been closed and opened again since leaves
    /// the new endpoint open.
    fn close(&self);

    /// Serves the endpoint: everything that lands on it — a message, or
    /// the bounce of a message sent from it — runs `handler` with what a
    /// [`recv`](Endpoint::recv) would have returned. Returns at once;
    /// the endpoint closes as any other does, and a receive on it waits
    /// for that close.
    ///
    /// A bounce, or a message that `inline` passes, runs where it lands;
    /// any other message starts the handler in a process of its own named
    /// `task_name`, in the endpoint's group, with no serving process
    /// woken first. What reached the endpoint before the call is handled
    /// the same way, in arrival order, on the calling thread.
    ///
    /// `inline` names the messages whose handler *never waits for another
    /// message*: no nested call, no receive, no sleep, no wait on a sync
    /// object — it computes, at most takes a lock nobody holds across
    /// such a wait, and sends. A bounce is held to the same promise. The
    /// simulator runs those with no process of their own, on whichever
    /// thread is stepping the kernel, as the endpoint's node and group,
    /// and panics, naming `task_name`, if one waits after all. TCP's node
    /// loop starts a task for every landing where it read it, which
    /// costs no hand-off there.
    fn serve(&self, task_name: &str, handler: LandingHandler, inline: InlineTest);
}

/// Whether a message's handler may run where it lands; see
/// [`Endpoint::serve`] for what it promises.
pub type InlineTest = Arc<dyn Fn(&[u8]) -> bool + Send + Sync>;

/// What [`Endpoint::serve`] runs per message or bounce.
pub type LandingHandler = Arc<dyn Fn(Result<(Addr, Bytes), RecvError>) + Send + Sync>;

/// A handle on a spawned process group — the unit of service lifetime.
///
/// Mirrors what the paper's Server Service Controller gets from UNIX: it
/// can tell whether the service (all its processes) is still alive, and
/// kill it. A group lives on the node it was spawned on, as a UNIX
/// process tree lives on its host: its members and endpoints are the
/// ones spawned and opened there by its members, so a kill finds them
/// all in that node's own tables. On both runtimes the group's
/// endpoints close immediately, so peers observe bounces rather than
/// silence, and the members unwind afterwards: in the simulation at
/// their next scheduling point, on the real runtime cooperatively —
/// every member task unwinds at its next cancellation point (sleep,
/// receive, sync wait, ORB dispatch entry), the one it is suspended in
/// at once.
pub trait ProcGroup: Send + Sync {
    /// Whether the group is alive: not killed, and a process of it left.
    fn alive(&self) -> bool;

    /// Kills every process in the group and closes the endpoints its
    /// processes opened, in port order, before any of them has unwound.
    /// From then on the group takes no new process, and an endpoint a
    /// member opens is closed at birth; a second kill does nothing.
    fn kill(&self);

    /// An opaque id for logging.
    fn id(&self) -> u64;
}

/// Typed per-node extension storage.
///
/// Cross-cutting substrates (telemetry being the motivating one) need
/// exactly one instance of their state per node without threading a
/// handle through every service constructor. `Extensions` is a small
/// type-keyed map hung off each [`NodeRt`]: the first
/// [`get_or_init`](Extensions::get_or_init) for a type installs it, and
/// every later call — from any handle to the same node — sees the same
/// `Arc`. Storage is tied to the runtime instance, so two simulations in
/// one OS process never share state (which would break same-seed
/// determinism checks).
#[derive(Default)]
pub struct Extensions {
    map: Mutex<BTreeMap<TypeId, Arc<dyn Any + Send + Sync>>>,
}

impl Extensions {
    /// Creates an empty extension map.
    pub fn new() -> Extensions {
        Extensions::default()
    }

    /// Returns the extension of type `T`, installing `init()` on first use.
    pub fn get_or_init<T, F>(&self, init: F) -> Arc<T>
    where
        T: Any + Send + Sync,
        F: FnOnce() -> T,
    {
        let mut map = self.map.lock();
        let slot = map
            .entry(TypeId::of::<T>())
            .or_insert_with(|| Arc::new(init()) as Arc<dyn Any + Send + Sync>);
        Arc::clone(slot)
            .downcast::<T>()
            .expect("extension slot holds the keyed type")
    }

    /// Returns the extension of type `T` if one has been installed.
    pub fn get<T: Any + Send + Sync>(&self) -> Option<Arc<T>> {
        let map = self.map.lock();
        map.get(&TypeId::of::<T>())
            .map(|a| Arc::clone(a).downcast::<T>().expect("keyed type"))
    }
}

/// The per-node runtime handle: clock, scheduling and endpoint factory.
///
/// Object-safe so that services can hold `Arc<dyn NodeRt>` and run
/// unchanged on either runtime.
pub trait NodeRt: Send + Sync {
    /// Current time (virtual in simulation, relative-monotonic for real).
    fn now(&self) -> SimTime;

    /// Blocks the calling process for `d`.
    fn sleep(&self, d: Duration);

    /// Occupies the calling process for `d` of service time.
    ///
    /// Semantically distinct from [`NodeRt::sleep`]: it models CPU work,
    /// so a single-threaded server that is `busy` cannot answer pings —
    /// the phenomenon that led the paper to replace ping-based liveness
    /// with Service-Controller callbacks (§7.2).
    fn busy(&self, d: Duration) {
        self.sleep(d);
    }

    /// Spawns a new process on this node running `f`. The process joins
    /// the calling process's group (like `fork`) if that process lives on
    /// this node, and never starts if that group has been killed; spawned
    /// through another node's runtime, it belongs to no group.
    fn spawn(&self, name: &str, f: Box<dyn FnOnce() + Send>);

    /// Spawns `f` as the root of a *new* process group on this node and
    /// returns its handle. Everything it transitively spawns on this node
    /// joins the group; killing the group kills them all and closes the
    /// endpoints they opened here.
    fn spawn_group(&self, name: &str, f: Box<dyn FnOnce() + Send>) -> Arc<dyn ProcGroup>;

    /// Opens a message endpoint on this node. It belongs to the calling
    /// process's group if that process lives on this node, and to no
    /// group otherwise.
    fn open(&self, port: PortReq) -> Result<Arc<dyn Endpoint>, NetError>;

    /// The endpoint a call from the calling process sends its request
    /// from and waits on for the reply. By default a fresh one, which
    /// closes when its last handle drops. The simulator keeps one per
    /// process: opened at its first call, dropped when the process exits,
    /// and handed out empty. A caller whose call ended without its reply
    /// closes it, so a reply or a bounce still owed to that call reaches
    /// no later one.
    fn reply_endpoint(&self) -> Result<Arc<dyn Endpoint>, NetError> {
        self.open(PortReq::Ephemeral)
    }

    /// This node's identifier.
    fn node(&self) -> NodeId;

    /// Deterministic (in simulation) random 64-bit value.
    fn rand_u64(&self) -> u64;

    /// Whether the calling process's group has been killed and the
    /// process should stop starting new work. Long-running loops (e.g.
    /// the ORB's dispatch path) poll this between units of work. The
    /// simulation always returns `false` — a killed simulated process
    /// never runs again, so it can never observe the flag — and the
    /// real runtime returns the calling task's group-cancellation
    /// token.
    fn cancelled(&self) -> bool {
        false
    }

    /// Creates a wait/notify synchronization object (see
    /// [`crate::sync::SyncObj`]) safe to block on from this runtime.
    fn make_sync(&self) -> Arc<dyn crate::sync::SyncObj>;

    /// Shared per-node extension storage (see [`Extensions`]). Every
    /// handle to the same node returns the same map.
    fn extensions(&self) -> Arc<Extensions>;
}

/// Convenience extensions over [`NodeRt`].
pub trait NodeRtExt: NodeRt {
    /// Spawns a process from a plain closure (sugar over the boxed form).
    fn spawn_fn<F: FnOnce() + Send + 'static>(&self, name: &str, f: F) {
        self.spawn(name, Box::new(f));
    }

    /// A random value in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    fn rand_below(&self, n: u64) -> u64 {
        assert!(n > 0, "rand_below(0)");
        self.rand_u64() % n
    }

    /// A random duration in `[0, d)`, used to jitter periodic timers.
    fn rand_jitter(&self, d: Duration) -> Duration {
        let us = d.as_micros() as u64;
        if us == 0 {
            Duration::ZERO
        } else {
            Duration::from_micros(self.rand_u64() % us)
        }
    }
}

impl<T: NodeRt + ?Sized> NodeRtExt for T {}

/// Shared handle to a node runtime.
pub type Rt = Arc<dyn NodeRt>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_display() {
        let a = Addr::new(NodeId(3), 80);
        assert_eq!(a.to_string(), "n3:80");
        assert_eq!(format!("{a:?}"), "n3:80");
    }

    #[test]
    fn error_display() {
        assert_eq!(NetError::PortInUse(5).to_string(), "port 5 already in use");
        assert_eq!(RecvError::TimedOut.to_string(), "receive timed out");
        let u = RecvError::Unreachable(Addr::new(NodeId(1), 2));
        assert_eq!(u.to_string(), "destination n1:2 unreachable");
    }
}
