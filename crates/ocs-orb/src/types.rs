//! Core wire-visible types of the object exchange layer: object
//! references, callers, errors and the request/reply frames.

use std::fmt;
use std::marker::PhantomData;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use ocs_sim::{Addr, NodeId};
use ocs_wire::{impl_wire_enum, impl_wire_struct, BufPool, Decoder, Encoder, Wire, WireError};
use parking_lot::Mutex;

use crate::server::Answer;

/// A reference to a remote (or local) object, exactly as §3.2.1 of the
/// paper describes it:
///
/// > *the IP address and port number of the server process implementing
/// > the object; a timestamp, used to prevent use of this reference after
/// > the implementing process dies; an object type identifier; and an
/// > object id, which identifies this object amongst those defined by the
/// > implementing process. Typically the object id is null, because most
/// > services export only one object.*
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjRef {
    /// Address of the server process's request endpoint.
    pub addr: Addr,
    /// Incarnation timestamp of the implementing process. A reference
    /// with a stale incarnation is rejected with `InvalidRef`, which the
    /// client surfaces as [`OrbError::ObjectDead`]. The value
    /// [`ObjRef::STABLE`] opts out of the check (used by the name
    /// service, whose references survive restarts).
    pub incarnation: u64,
    /// Interface type identifier (FNV-1a of the interface name).
    pub type_id: u32,
    /// Object id within the implementing process; 0 for the root object.
    pub object_id: u64,
}

impl ObjRef {
    /// Incarnation value meaning "valid across restarts".
    pub const STABLE: u64 = 0;
}

impl fmt::Debug for ObjRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ObjRef({} inc={} ty={:08x} id={})",
            self.addr, self.incarnation, self.type_id, self.object_id
        )
    }
}

impl_wire_struct!(ObjRef {
    addr,
    incarnation,
    type_id,
    object_id
});

/// A principal name: UTF-8 held as the bytes of the request frame it
/// arrived in, so serving a request copies no name. Reads as a `str`.
#[derive(Clone, PartialEq, Eq)]
pub struct Principal(Bytes);

impl Deref for Principal {
    type Target = str;

    fn deref(&self) -> &str {
        std::str::from_utf8(&self.0).expect("a principal is checked UTF-8")
    }
}

impl From<&'static str> for Principal {
    fn from(name: &'static str) -> Principal {
        Principal(Bytes::from_static(name.as_bytes()))
    }
}

impl fmt::Display for Principal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self)
    }
}

impl fmt::Debug for Principal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Encoded as a `String` is.
impl Wire for Principal {
    fn encode_into(&self, e: &mut Encoder) {
        self.0.encode_into(e);
    }

    fn decode_from(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        let name = Bytes::decode_from(d)?;
        std::str::from_utf8(&name).map_err(|_| WireError::BadUtf8)?;
        Ok(Principal(name))
    }
}

/// The authenticated identity of a request's sender, surfaced to every
/// servant method (the paper: "each incoming call on an object contains
/// the caller's identity", §9.2) — and the request's reply, which a
/// method may take to answer later ([`Caller::reply_later`]).
pub struct Caller {
    /// Verified principal name ("anonymous" when authentication is off).
    pub principal: Principal,
    /// The node the request arrived from; selectors use this the way the
    /// paper's selectors use the caller's IP address (§5.1).
    pub node: NodeId,
    /// The reply the ORB sends when the method returns, unless the
    /// method took it. Empty for an in-process call.
    reply: Mutex<Option<Answer>>,
    /// Whether the method took it ([`Caller::reply_later`]).
    taken: AtomicBool,
    /// The serving ORB's buffer pool, for the reply's bytes.
    pool: Option<Arc<BufPool>>,
}

impl Caller {
    /// A caller value for in-process (non-RPC) invocations: there is no
    /// reply to take, so a method answers by returning.
    pub fn local(node: NodeId) -> Caller {
        Caller::serving("local".into(), node, None, None)
    }

    pub(crate) fn serving(
        principal: Principal,
        node: NodeId,
        reply: Option<Answer>,
        pool: Option<Arc<BufPool>>,
    ) -> Caller {
        Caller {
            principal,
            node,
            reply: Mutex::new(reply),
            taken: AtomicBool::new(false),
            pool,
        }
    }

    /// An encoder for the method's result: over a buffer from the
    /// serving ORB's pool, so the reply body it finishes is its one
    /// allocation.
    pub fn encoder(&self) -> Encoder {
        match &self.pool {
            Some(pool) => pool.encoder(128),
            None => Encoder::new(),
        }
    }

    /// Takes the reply of the request being served, so the method can
    /// return now and answer later — from any thread of its node —
    /// through the handle. `R` is the method's declared result, whose
    /// bytes the handle sends (`Result<Ok, Err>` for a
    /// [`declare_interface!`](crate::declare_interface) method). Once the
    /// reply is taken, what the method returns is not sent.
    ///
    /// `None` when there is no reply to take: an in-process call
    /// ([`Caller::local`]), or one already taken.
    pub fn reply_later<R: Wire>(&self) -> Option<ReplyTo<R>> {
        let answer = self.reply.lock().take()?;
        self.taken.store(true, Ordering::Relaxed);
        Some(ReplyTo {
            answer,
            caller: self.clone(),
            _result: PhantomData,
        })
    }

    /// Whether the method took the request's reply — never so for an
    /// in-process call, which answers by returning.
    pub fn replies_later(&self) -> bool {
        self.taken.load(Ordering::Relaxed)
    }

    /// The reply the ORB still owes when the method has returned.
    pub(crate) fn take_answer(&self) -> Option<Answer> {
        self.reply.lock().take()
    }
}

/// A copy is the same identity with no reply to take.
impl Clone for Caller {
    fn clone(&self) -> Caller {
        Caller::serving(self.principal.clone(), self.node, None, self.pool.clone())
    }
}

impl PartialEq for Caller {
    fn eq(&self, other: &Caller) -> bool {
        (&self.principal, self.node) == (&other.principal, other.node)
    }
}

impl Eq for Caller {}

impl fmt::Debug for Caller {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Caller")
            .field("principal", &self.principal)
            .field("node", &self.node)
            .finish()
    }
}

/// A request's reply, taken by its servant ([`Caller::reply_later`]) to
/// be sent when the answer is known. It sends the bytes the generated
/// dispatch would have sent for the same `R`, and ends the request's
/// server span as it leaves. Dropped unsent, it sends nothing: the
/// caller sees what a servant that died mid-request leaves it.
pub struct ReplyTo<R> {
    answer: Answer,
    /// The request's caller, with no reply of its own.
    caller: Caller,
    _result: PhantomData<fn(R)>,
}

impl<R: Wire> ReplyTo<R> {
    /// Sends the answer.
    pub fn send(self, result: R) {
        let mut e = self.caller.encoder();
        result.encode_into(&mut e);
        self.answer.send(&self.caller.principal, Ok(e.finish()));
    }
}

/// System-level errors raised by the object exchange layer itself
/// (as opposed to application errors declared in interfaces).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OrbError {
    /// No reply within the call timeout: the host may be down or
    /// partitioned. The reference may still be valid.
    Timeout,
    /// The implementing process is gone: the transport bounced the
    /// request, or the server rejected a stale incarnation. The client
    /// must re-resolve the service (§8.2).
    ObjectDead,
    /// The reference's type id does not match the target interface.
    WrongType,
    /// The object id is not exported by the target process.
    UnknownObject,
    /// The method id is not defined by the interface.
    UnknownMethod,
    /// Arguments or reply failed to decode.
    Decode { what: String },
    /// The server rejected the caller's credentials.
    AuthFailed,
    /// The local endpoint could not be opened or used.
    Transport { what: String },
    /// The server reported an internal failure.
    Internal { what: String },
    /// The call's deadline budget was exhausted before a reply arrived —
    /// either the client refused to send an already-expired request, or
    /// the server shed the request because its carried deadline had
    /// passed on arrival. Unlike [`OrbError::Timeout`], retrying the same
    /// call is pointless: the budget is gone.
    DeadlineExpired,
    /// A circuit breaker is open for the target service: recent calls
    /// failed consistently and the client is shedding load until the
    /// breaker's probe succeeds.
    CircuitOpen,
}

impl OrbError {
    /// Whether the error indicates the reference is permanently dead and
    /// the client should re-resolve (the §8.2 rebind trigger).
    pub fn is_dead_reference(&self) -> bool {
        matches!(self, OrbError::ObjectDead)
    }

    /// Whether retrying the same reference might succeed.
    ///
    /// Every variant is classified here, on purpose with no `_` arm:
    /// adding an `OrbError` variant must force a decision about its
    /// retry semantics (see the exhaustiveness test below).
    pub fn is_retryable(&self) -> bool {
        match self {
            // The host may be slow, partitioned, or mid-restart; a later
            // attempt on the same reference can succeed.
            OrbError::Timeout | OrbError::Transport { .. } => true,
            // Rebind, don't retry: the reference itself is dead.
            OrbError::ObjectDead => false,
            // Deterministic client/server disagreements: retrying the
            // identical call yields the identical answer.
            OrbError::WrongType
            | OrbError::UnknownObject
            | OrbError::UnknownMethod
            | OrbError::Decode { .. }
            | OrbError::AuthFailed
            | OrbError::Internal { .. } => false,
            // The budget is spent; only a caller with a fresh deadline
            // may try again.
            OrbError::DeadlineExpired => false,
            // The breaker re-admits traffic by itself (half-open probe);
            // hammering it defeats the point.
            OrbError::CircuitOpen => false,
        }
    }
}

impl fmt::Display for OrbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrbError::Timeout => write!(f, "call timed out"),
            OrbError::ObjectDead => write!(f, "object reference is dead"),
            OrbError::WrongType => write!(f, "reference type mismatch"),
            OrbError::UnknownObject => write!(f, "unknown object id"),
            OrbError::UnknownMethod => write!(f, "unknown method id"),
            OrbError::Decode { what } => write!(f, "decode error: {what}"),
            OrbError::AuthFailed => write!(f, "authentication failed"),
            OrbError::Transport { what } => write!(f, "transport error: {what}"),
            OrbError::Internal { what } => write!(f, "server internal error: {what}"),
            OrbError::DeadlineExpired => write!(f, "deadline budget exhausted"),
            OrbError::CircuitOpen => write!(f, "circuit breaker open"),
        }
    }
}

impl std::error::Error for OrbError {}

impl_wire_enum!(OrbError {
    0 => Timeout,
    1 => ObjectDead,
    2 => WrongType,
    3 => UnknownObject,
    4 => UnknownMethod,
    5 => Decode { what },
    6 => AuthFailed,
    7 => Transport { what },
    8 => Internal { what },
    9 => DeadlineExpired,
    10 => CircuitOpen,
});

/// Application error types that can also carry transport failures.
///
/// Every interface error enum provides a variant holding an [`OrbError`]
/// so that client stubs return a single error type; the
/// [`impl_rpc_fault!`](crate::impl_rpc_fault) macro generates this impl.
pub trait RpcFault: Sized {
    /// Wraps a system-level error.
    fn from_orb(e: OrbError) -> Self;
    /// The wrapped system-level error, if this is one.
    fn orb_error(&self) -> Option<&OrbError>;

    /// Whether this failure means the target reference is dead and the
    /// caller should re-resolve and retry (§8.2).
    fn is_dead_reference(&self) -> bool {
        self.orb_error().is_some_and(|e| e.is_dead_reference())
    }
}

impl RpcFault for OrbError {
    fn from_orb(e: OrbError) -> Self {
        e
    }
    fn orb_error(&self) -> Option<&OrbError> {
        Some(self)
    }
}

/// Implements [`RpcFault`] for an interface error enum with a
/// `Comm { err: OrbError }` variant.
///
/// # Examples
///
/// ```
/// use ocs_orb::{impl_rpc_fault, OrbError, RpcFault};
/// use ocs_wire::impl_wire_enum;
///
/// #[derive(Debug, PartialEq)]
/// enum MyError {
///     NotFound,
///     Comm { err: OrbError },
/// }
/// impl_wire_enum!(MyError { 0 => NotFound, 1 => Comm { err } });
/// impl_rpc_fault!(MyError);
///
/// assert!(MyError::from_orb(OrbError::ObjectDead).is_dead_reference());
/// assert!(MyError::NotFound.orb_error().is_none());
/// ```
#[macro_export]
macro_rules! impl_rpc_fault {
    ($name:ident) => {
        impl $crate::RpcFault for $name {
            fn from_orb(err: $crate::OrbError) -> Self {
                $name::Comm { err }
            }
            fn orb_error(&self) -> Option<&$crate::OrbError> {
                // Single-variant error enums make the catch-all arm
                // unreachable; that's fine.
                #[allow(unreachable_patterns)]
                match self {
                    $name::Comm { err } => Some(err),
                    _ => None,
                }
            }
        }
    };
}

/// A generated client proxy type, bindable to an object reference.
///
/// Implemented by every `*Client` type that
/// [`declare_interface!`](crate::declare_interface) generates; lets
/// generic code (like the name-service typed resolver) bind proxies
/// without naming the concrete type.
pub trait Proxy: Sized {
    /// The interface's type identifier.
    const TYPE_ID: u32;

    /// Binds a proxy to a reference, checking its type id.
    fn bind_ref(ctx: crate::ClientCtx, target: ObjRef) -> Result<Self, OrbError>;

    /// The bound object reference.
    fn target_ref(&self) -> ObjRef;
}

/// Frame kind discriminants (first byte of every ORB message).
pub(crate) const FRAME_REQUEST: u8 = 1;
pub(crate) const FRAME_REPLY: u8 = 2;

/// A request frame as carried on the wire. A server decodes one with its
/// principal a slice of the frame; a client writes a `Request<&str>`,
/// borrowing the name from its [`ClientAuth`](crate::ClientAuth).
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Request<P = Principal> {
    pub request_id: u64,
    pub object_id: u64,
    pub incarnation: u64,
    pub type_id: u32,
    pub method: u32,
    /// When set, the server dispatches but sends no reply.
    pub oneway: bool,
    /// Absolute virtual-time deadline in microseconds (0 = none). The
    /// deadline rides in the frame so servers can shed work whose caller
    /// has already given up instead of computing replies nobody reads.
    pub deadline_us: u64,
    /// Trace id of the request tree this call belongs to (0 = untraced).
    /// Together with `span_id` this is the propagated trace context: the
    /// server records its span as a child of the client's span, so a
    /// settop channel-change stitches into one causal tree across the
    /// name service → CM → MMS → MDS fan-out.
    pub trace_id: u64,
    /// The client span this call was made under (0 = none).
    pub span_id: u64,
    pub principal: P,
    pub auth: Bytes,
    pub body: Bytes,
}

impl_wire_struct!(Request {
    request_id,
    object_id,
    incarnation,
    type_id,
    method,
    oneway,
    deadline_us,
    trace_id,
    span_id,
    principal,
    auth,
    body
});

impl Request<&str> {
    /// Writes the bytes the owned `Request` encodes to, so placing a call
    /// copies no principal.
    pub(crate) fn encode_into(&self, e: &mut Encoder) {
        let Request {
            request_id,
            object_id,
            incarnation,
            type_id,
            method,
            oneway,
            deadline_us,
            trace_id,
            span_id,
            principal,
            auth,
            body,
        } = self;
        request_id.encode_into(e);
        object_id.encode_into(e);
        incarnation.encode_into(e);
        type_id.encode_into(e);
        method.encode_into(e);
        oneway.encode_into(e);
        deadline_us.encode_into(e);
        trace_id.encode_into(e);
        span_id.encode_into(e);
        e.put_len(principal.len());
        e.put_raw(principal.as_bytes());
        auth.encode_into(e);
        body.encode_into(e);
    }
}

impl Request {
    /// The `(object_id, method)` a whole request frame — kind byte
    /// included — is addressed to, read off its fixed-width head without
    /// decoding the rest.
    pub(crate) fn peek(frame: &[u8]) -> Option<(u64, u32)> {
        let (&kind, rest) = frame.split_first()?;
        if kind != FRAME_REQUEST {
            return None;
        }
        let d = &mut Decoder::new(rest);
        let _request_id = u64::decode_from(d).ok()?;
        let object_id = u64::decode_from(d).ok()?;
        let _incarnation = u64::decode_from(d).ok()?;
        let _type_id = u32::decode_from(d).ok()?;
        let method = u32::decode_from(d).ok()?;
        Some((object_id, method))
    }
}

/// A reply frame: either an application-level body (itself a
/// wire-encoded `Result<T, E>`) or a system error.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Reply {
    pub request_id: u64,
    pub result: Result<Bytes, OrbError>,
}

impl_wire_struct!(Reply { request_id, result });

#[cfg(test)]
mod tests {
    use super::*;
    use ocs_sim::NodeId;
    use ocs_wire::Wire;

    #[test]
    fn objref_round_trips() {
        let r = ObjRef {
            addr: Addr::new(NodeId(4), 1234),
            incarnation: 99,
            type_id: 0xdead_beef,
            object_id: 7,
        };
        assert_eq!(ObjRef::from_bytes(&r.to_bytes()).unwrap(), r);
    }

    #[test]
    fn frames_round_trip() {
        let req = Request {
            request_id: 1,
            object_id: 0,
            incarnation: 5,
            type_id: 9,
            method: 2,
            oneway: false,
            deadline_us: 7_000_000,
            trace_id: 0x42,
            span_id: 0x43,
            principal: "settop-12".into(),
            auth: Bytes::from_static(b"sig"),
            body: Bytes::from_static(b"args"),
        };
        assert_eq!(Request::from_bytes(&req.to_bytes()).unwrap(), req);
        // What a client writes, from a borrowed principal: the same bytes.
        let mut e = Encoder::new();
        Request {
            request_id: 1,
            object_id: 0,
            incarnation: 5,
            type_id: 9,
            method: 2,
            oneway: false,
            deadline_us: 7_000_000,
            trace_id: 0x42,
            span_id: 0x43,
            principal: "settop-12",
            auth: Bytes::from_static(b"sig"),
            body: Bytes::from_static(b"args"),
        }
        .encode_into(&mut e);
        assert_eq!(e.finish(), req.to_bytes());
        let mut frame = vec![FRAME_REQUEST];
        frame.extend_from_slice(&req.to_bytes());
        assert_eq!(Request::peek(&frame), Some((0, 2)));
        assert_eq!(Request::peek(&frame[..20]), None);
        frame[0] = FRAME_REPLY;
        assert_eq!(Request::peek(&frame), None);
        let rep = Reply {
            request_id: 1,
            result: Err(OrbError::WrongType),
        };
        assert_eq!(Reply::from_bytes(&rep.to_bytes()).unwrap(), rep);
    }

    #[test]
    fn error_classification() {
        assert!(OrbError::ObjectDead.is_dead_reference());
        assert!(!OrbError::Timeout.is_dead_reference());
        assert!(OrbError::Timeout.is_retryable());
        assert!(!OrbError::WrongType.is_retryable());
    }

    /// Every `OrbError` variant, with its expected retry / dead-reference
    /// classification. The match below has no `_` arm: adding a variant
    /// without extending this test is a compile error.
    #[test]
    fn error_classification_is_exhaustive() {
        let all = [
            OrbError::Timeout,
            OrbError::ObjectDead,
            OrbError::WrongType,
            OrbError::UnknownObject,
            OrbError::UnknownMethod,
            OrbError::Decode { what: "x".into() },
            OrbError::AuthFailed,
            OrbError::Transport { what: "x".into() },
            OrbError::Internal { what: "x".into() },
            OrbError::DeadlineExpired,
            OrbError::CircuitOpen,
        ];
        for e in &all {
            let (want_retry, want_dead) = match e {
                OrbError::Timeout => (true, false),
                OrbError::ObjectDead => (false, true),
                OrbError::WrongType => (false, false),
                OrbError::UnknownObject => (false, false),
                OrbError::UnknownMethod => (false, false),
                OrbError::Decode { .. } => (false, false),
                OrbError::AuthFailed => (false, false),
                OrbError::Transport { .. } => (true, false),
                OrbError::Internal { .. } => (false, false),
                OrbError::DeadlineExpired => (false, false),
                OrbError::CircuitOpen => (false, false),
            };
            assert_eq!(e.is_retryable(), want_retry, "is_retryable({e:?})");
            assert_eq!(e.is_dead_reference(), want_dead, "is_dead_reference({e:?})");
            // Wire round-trip must also cover every variant.
            assert_eq!(&OrbError::from_bytes(&e.to_bytes()).unwrap(), e);
        }
    }
}
