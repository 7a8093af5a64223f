//! Marshalling for the OCS object exchange layer.
//!
//! The paper's system defined all client/server interfaces in CORBA IDL
//! and generated C++ stubs that marshalled arguments onto the wire. This
//! crate is the equivalent runtime: a compact little-endian, length-
//! prefixed format (in the spirit of CORBA's CDR) with a [`Wire`] trait
//! implemented for primitives, strings, containers and the runtime's
//! address types, plus [`impl_wire_struct!`]/[`impl_wire_enum!`] macros
//! that stand in for the IDL compiler.
//!
//! # Format
//!
//! * fixed-width integers and floats: little-endian, natural width
//! * `bool`: one byte, `0`/`1` (anything else is a decode error)
//! * `String` / `Vec<T>` / maps: `u32` element count, then elements
//! * `Option<T>`: one tag byte then the payload
//! * enums (via [`impl_wire_enum!`]): one tag byte then the variant fields
//!
//! Decoding is strict: unknown tags, non-UTF-8 strings, truncated input
//! and (optionally) trailing bytes are all errors, never panics, so a
//! malformed message from the network can't take a service down.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use bytes::{Bytes, BytesMut};
use ocs_sim::{Addr, NodeId, SimTime, SpanId, TraceId};

/// A free-list of encoder buffers, shared per node (see
/// [`ocs_sim::Extensions`]) so the RPC hot path reuses a buffer instead
/// of growing a fresh one per message.
///
/// Lifecycle: [`BufPool::encoder`] pops a buffer (or starts an empty
/// one); [`Encoder::finish`] copies the written frame out — the one
/// allocation of a pooled encode — and returns the cleared buffer to
/// the pool. A buffer that grew past [`POOL_BUF_CAP`] is dropped instead.
#[derive(Default)]
pub struct BufPool {
    free: parking_lot::Mutex<Vec<BytesMut>>,
}

/// Free-list depth cap; beyond this, returned buffers are simply dropped.
const POOL_MAX: usize = 64;

/// Largest buffer the pool keeps: a state-transfer frame must not pin
/// its size on every node for the rest of the run.
pub const POOL_BUF_CAP: usize = 4096;

impl BufPool {
    /// Creates an empty pool.
    pub fn new() -> BufPool {
        BufPool::default()
    }

    /// Checks out an encoder backed by this pool with at least `cap`
    /// bytes of capacity.
    pub fn encoder(self: &Arc<Self>, cap: usize) -> Encoder {
        let mut buf = self.free.lock().pop().unwrap_or_default();
        buf.reserve(cap);
        Encoder {
            buf,
            pool: Some(Arc::clone(self)),
        }
    }

    /// Buffers currently parked in the free list (diagnostics).
    pub fn idle(&self) -> usize {
        self.free.lock().len()
    }

    fn put_back(&self, mut buf: BytesMut) {
        if buf.capacity() > POOL_BUF_CAP {
            return;
        }
        buf.clear();
        let mut free = self.free.lock();
        if free.len() < POOL_MAX {
            free.push(buf);
        }
    }
}

/// Errors produced while decoding a wire message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the value was complete.
    UnexpectedEof,
    /// An enum/option tag byte had no corresponding variant.
    InvalidTag(u8),
    /// A string was not valid UTF-8.
    BadUtf8,
    /// A declared length exceeds the remaining input (corrupt or hostile).
    LengthOverrun { declared: usize, remaining: usize },
    /// A `bool` byte was neither 0 nor 1.
    BadBool(u8),
    /// Input remained after the top-level value was decoded.
    TrailingBytes(usize),
    /// A map's keys were not strictly increasing: a duplicate or an
    /// out-of-order key (element `at`, 0-based). A map has one encoding.
    UnorderedKey { at: usize },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof => write!(f, "unexpected end of input"),
            WireError::InvalidTag(t) => write!(f, "invalid tag byte {t}"),
            WireError::BadUtf8 => write!(f, "string is not valid UTF-8"),
            WireError::LengthOverrun {
                declared,
                remaining,
            } => write!(
                f,
                "declared length {declared} exceeds remaining {remaining} bytes"
            ),
            WireError::BadBool(b) => write!(f, "invalid bool byte {b}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
            WireError::UnorderedKey { at } => {
                write!(f, "map key {at} does not follow its predecessor")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// An append-only encoder over a growable buffer, optionally checked out
/// of a [`BufPool`].
pub struct Encoder {
    buf: BytesMut,
    pool: Option<Arc<BufPool>>,
}

/// Room a new encoder starts with: a call's arguments or reply fit, so
/// encoding one writes without growing the buffer.
const SMALL_FRAME: usize = 128;

impl Default for Encoder {
    fn default() -> Encoder {
        Encoder::with_capacity(SMALL_FRAME)
    }
}

impl Encoder {
    /// Creates an empty encoder with room for a typical call's frame.
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// Creates an encoder with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Encoder {
        Encoder {
            buf: BytesMut::with_capacity(cap),
            pool: None,
        }
    }

    /// Appends one raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Appends raw bytes without a length prefix.
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a `u32` element count.
    pub fn put_len(&mut self, n: usize) {
        (n as u32).encode_into(self);
    }

    /// Finishes encoding, returning the frame. A pooled encoder copies
    /// the frame out and parks its buffer for reuse.
    pub fn finish(self) -> Bytes {
        let out = Bytes::copy_from_slice(&self.buf);
        if let Some(pool) = self.pool {
            pool.put_back(self.buf);
        }
        out
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// A cursor-based decoder over a byte slice. When constructed with
/// [`Decoder::over`] a frozen frame, `Bytes` fields decode as zero-copy
/// reference-counted slices of that frame instead of fresh allocations.
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
    owner: Option<&'a Bytes>,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `buf`.
    pub fn new(buf: &'a [u8]) -> Decoder<'a> {
        Decoder {
            buf,
            pos: 0,
            owner: None,
        }
    }

    /// Creates a decoder over a frozen frame; `Bytes` fields become
    /// slices sharing the frame's allocation.
    pub fn over(frame: &'a Bytes) -> Decoder<'a> {
        Decoder {
            buf: frame,
            pos: 0,
            owner: Some(frame),
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Takes one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Takes a `u32` element count, validated against the remaining input
    /// assuming at least `min_elem_size` bytes per element.
    pub fn len_prefix(&mut self, min_elem_size: usize) -> Result<usize, WireError> {
        let n = u32::decode_from(self)? as usize;
        let need = n.saturating_mul(min_elem_size.max(1));
        if need > self.remaining() {
            return Err(WireError::LengthOverrun {
                declared: n,
                remaining: self.remaining(),
            });
        }
        Ok(n)
    }

    /// Returns an error if any input remains.
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            Err(WireError::TrailingBytes(self.remaining()))
        } else {
            Ok(())
        }
    }
}

/// A value that can be marshalled to and from the wire format.
pub trait Wire: Sized {
    /// Appends this value to the encoder.
    fn encode_into(&self, e: &mut Encoder);

    /// Decodes one value from the cursor.
    fn decode_from(d: &mut Decoder<'_>) -> Result<Self, WireError>;

    /// Encodes this value into a fresh buffer.
    fn to_bytes(&self) -> Bytes {
        let mut e = Encoder::new();
        self.encode_into(&mut e);
        e.finish()
    }

    /// Decodes a complete value, rejecting trailing bytes.
    fn from_bytes(b: &[u8]) -> Result<Self, WireError> {
        let mut d = Decoder::new(b);
        let v = Self::decode_from(&mut d)?;
        d.expect_end()?;
        Ok(v)
    }

    /// Decodes a complete value from a frozen frame, rejecting trailing
    /// bytes. `Bytes` fields come out as zero-copy slices of the frame,
    /// so a request/reply body costs a refcount bump instead of a copy.
    fn from_frame(b: &Bytes) -> Result<Self, WireError> {
        let mut d = Decoder::over(b);
        let v = Self::decode_from(&mut d)?;
        d.expect_end()?;
        Ok(v)
    }
}

macro_rules! wire_int {
    ($($ty:ty),*) => {
        $(
            impl Wire for $ty {
                fn encode_into(&self, e: &mut Encoder) {
                    e.put_raw(&self.to_le_bytes());
                }
                fn decode_from(d: &mut Decoder<'_>) -> Result<Self, WireError> {
                    let n = std::mem::size_of::<$ty>();
                    let s = d.take(n)?;
                    let mut a = [0u8; std::mem::size_of::<$ty>()];
                    a.copy_from_slice(s);
                    Ok(<$ty>::from_le_bytes(a))
                }
            }
        )*
    };
}

wire_int!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

impl Wire for bool {
    fn encode_into(&self, e: &mut Encoder) {
        e.put_u8(*self as u8);
    }
    fn decode_from(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        match d.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::BadBool(b)),
        }
    }
}

impl Wire for () {
    fn encode_into(&self, _e: &mut Encoder) {}
    fn decode_from(_d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(())
    }
}

impl Wire for String {
    fn encode_into(&self, e: &mut Encoder) {
        e.put_len(self.len());
        e.put_raw(self.as_bytes());
    }
    fn decode_from(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        let n = d.len_prefix(1)?;
        let s = d.take(n)?;
        String::from_utf8(s.to_vec()).map_err(|_| WireError::BadUtf8)
    }
}

impl Wire for Bytes {
    fn encode_into(&self, e: &mut Encoder) {
        e.put_len(self.len());
        e.put_raw(self);
    }
    fn decode_from(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        let n = d.len_prefix(1)?;
        let start = d.pos;
        d.take(n)?;
        match d.owner {
            Some(frame) => Ok(frame.slice(start..start + n)),
            None => Ok(Bytes::copy_from_slice(&d.buf[start..start + n])),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode_into(&self, e: &mut Encoder) {
        e.put_len(self.len());
        for v in self {
            v.encode_into(e);
        }
    }
    fn decode_from(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        let n = d.len_prefix(1)?;
        let mut out = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            out.push(T::decode_from(d)?);
        }
        Ok(out)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode_into(&self, e: &mut Encoder) {
        match self {
            None => e.put_u8(0),
            Some(v) => {
                e.put_u8(1);
                v.encode_into(e);
            }
        }
    }
    fn decode_from(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        match d.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode_from(d)?)),
            t => Err(WireError::InvalidTag(t)),
        }
    }
}

impl<T: Wire, E: Wire> Wire for Result<T, E> {
    fn encode_into(&self, e: &mut Encoder) {
        match self {
            Ok(v) => {
                e.put_u8(0);
                v.encode_into(e);
            }
            Err(err) => {
                e.put_u8(1);
                err.encode_into(e);
            }
        }
    }
    fn decode_from(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        match d.u8()? {
            0 => Ok(Ok(T::decode_from(d)?)),
            1 => Ok(Err(E::decode_from(d)?)),
            t => Err(WireError::InvalidTag(t)),
        }
    }
}

impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn encode_into(&self, e: &mut Encoder) {
        e.put_len(self.len());
        for (k, v) in self {
            k.encode_into(e);
            v.encode_into(e);
        }
    }
    /// Keys arrive in the order the encoder wrote them, strictly
    /// increasing; the map is built from the sorted pairs in one bulk
    /// pass instead of one descent per insert.
    fn decode_from(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        let n = d.len_prefix(2)?;
        let mut pairs: Vec<(K, V)> = Vec::with_capacity(n.min(4096));
        for at in 0..n {
            let k = K::decode_from(d)?;
            if pairs.last().is_some_and(|(prev, _)| *prev >= k) {
                return Err(WireError::UnorderedKey { at });
            }
            pairs.push((k, V::decode_from(d)?));
        }
        Ok(BTreeMap::from_iter(pairs))
    }
}

macro_rules! wire_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            fn encode_into(&self, e: &mut Encoder) {
                $( self.$idx.encode_into(e); )+
            }
            fn decode_from(d: &mut Decoder<'_>) -> Result<Self, WireError> {
                Ok(($( $name::decode_from(d)?, )+))
            }
        }
    };
}

wire_tuple!(A: 0);
wire_tuple!(A: 0, B: 1);
wire_tuple!(A: 0, B: 1, C: 2);
wire_tuple!(A: 0, B: 1, C: 2, D: 3);
wire_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);

impl Wire for Duration {
    fn encode_into(&self, e: &mut Encoder) {
        (self.as_micros() as u64).encode_into(e);
    }
    fn decode_from(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(Duration::from_micros(u64::decode_from(d)?))
    }
}

impl Wire for SimTime {
    fn encode_into(&self, e: &mut Encoder) {
        self.as_micros().encode_into(e);
    }
    fn decode_from(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(SimTime::from_micros(u64::decode_from(d)?))
    }
}

impl Wire for NodeId {
    fn encode_into(&self, e: &mut Encoder) {
        self.0.encode_into(e);
    }
    fn decode_from(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(NodeId(u32::decode_from(d)?))
    }
}

impl Wire for TraceId {
    fn encode_into(&self, e: &mut Encoder) {
        self.0.encode_into(e);
    }
    fn decode_from(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(TraceId(u64::decode_from(d)?))
    }
}

impl Wire for SpanId {
    fn encode_into(&self, e: &mut Encoder) {
        self.0.encode_into(e);
    }
    fn decode_from(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(SpanId(u64::decode_from(d)?))
    }
}

impl Wire for Addr {
    fn encode_into(&self, e: &mut Encoder) {
        self.node.encode_into(e);
        self.port.encode_into(e);
    }
    fn decode_from(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(Addr {
            node: NodeId::decode_from(d)?,
            port: u16::decode_from(d)?,
        })
    }
}

/// A viewstamp: the `(view, op)` pair that totally orders replicated-log
/// positions across view changes (Viewstamped Replication). Ordering is
/// lexicographic — a later view dominates any op number from an earlier
/// one — which is exactly the rule a new primary uses to pick the most
/// up-to-date log among `DoViewChange` messages.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ViewStamp {
    /// The view the position was assigned in.
    pub view: u64,
    /// The op number within the log.
    pub op: u64,
}

impl ViewStamp {
    /// Builds a viewstamp from its components.
    pub const fn new(view: u64, op: u64) -> ViewStamp {
        ViewStamp { view, op }
    }
}

impl Wire for ViewStamp {
    fn encode_into(&self, e: &mut Encoder) {
        self.view.encode_into(e);
        self.op.encode_into(e);
    }
    fn decode_from(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(ViewStamp {
            view: u64::decode_from(d)?,
            op: u64::decode_from(d)?,
        })
    }
}

impl std::fmt::Display for ViewStamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.view, self.op)
    }
}

/// Implements [`Wire`] for a struct from its field list, in declaration
/// order — the stand-in for IDL-compiled struct marshalling. A generic
/// struct names its type parameters, each of which must be [`Wire`].
///
/// # Examples
///
/// ```
/// use ocs_wire::{impl_wire_struct, Wire};
///
/// #[derive(Debug, PartialEq)]
/// struct Movie { title: String, bitrate: u32 }
/// impl_wire_struct!(Movie { title, bitrate });
///
/// let m = Movie { title: "T2".into(), bitrate: 4_000_000 };
/// assert_eq!(Movie::from_bytes(&m.to_bytes()).unwrap(), m);
///
/// #[derive(Debug, PartialEq)]
/// struct Tagged<T> { tag: u8, value: T }
/// impl_wire_struct!(Tagged<T> { tag, value });
///
/// let t = Tagged { tag: 7, value: m };
/// assert_eq!(Tagged::<Movie>::from_bytes(&t.to_bytes()).unwrap(), t);
/// ```
#[macro_export]
macro_rules! impl_wire_struct {
    ($name:ident $(<$($param:ident),+>)? { $($field:ident),* $(,)? }) => {
        impl $(<$($param: $crate::Wire),+>)? $crate::Wire for $name $(<$($param),+>)? {
            fn encode_into(&self, e: &mut $crate::Encoder) {
                $( $crate::Wire::encode_into(&self.$field, e); )*
            }
            fn decode_from(d: &mut $crate::Decoder<'_>) -> Result<Self, $crate::WireError> {
                Ok($name { $( $field: $crate::Wire::decode_from(d)? ),* })
            }
        }
    };
}

/// Implements [`Wire`] for an enum with unit and struct-style variants,
/// each assigned an explicit tag byte — the stand-in for IDL unions and
/// exception types.
///
/// # Examples
///
/// ```
/// use ocs_wire::{impl_wire_enum, Wire};
///
/// #[derive(Debug, PartialEq)]
/// enum PlayError {
///     NotFound,
///     Busy { retry_after_ms: u64 },
/// }
/// impl_wire_enum!(PlayError {
///     0 => NotFound,
///     1 => Busy { retry_after_ms },
/// });
///
/// let e = PlayError::Busy { retry_after_ms: 250 };
/// assert_eq!(PlayError::from_bytes(&e.to_bytes()).unwrap(), e);
/// ```
#[macro_export]
macro_rules! impl_wire_enum {
    ($name:ident { $($tag:literal => $variant:ident $({ $($f:ident),* $(,)? })? ),* $(,)? }) => {
        impl $crate::Wire for $name {
            fn encode_into(&self, e: &mut $crate::Encoder) {
                match self {
                    $(
                        $name::$variant $({ $($f),* })? => {
                            e.put_u8($tag);
                            $($( $crate::Wire::encode_into($f, e); )*)?
                        }
                    )*
                }
            }
            fn decode_from(d: &mut $crate::Decoder<'_>) -> Result<Self, $crate::WireError> {
                match d.u8()? {
                    $(
                        $tag => Ok($name::$variant $({ $($f: $crate::Wire::decode_from(d)?),* })?),
                    )*
                    other => Err($crate::WireError::InvalidTag(other)),
                }
            }
        }
    };
}

/// FNV-1a hash of a name, used for interface type identifiers.
///
/// Stable across runs and platforms so that object references marshalled
/// by one node verify on another.
pub const fn type_id_of(name: &str) -> u32 {
    let bytes = name.as_bytes();
    let mut hash: u32 = 0x811c9dc5;
    let mut i = 0;
    while i < bytes.len() {
        hash ^= bytes[i] as u32;
        hash = hash.wrapping_mul(0x01000193);
        i += 1;
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let b = v.to_bytes();
        assert_eq!(T::from_bytes(&b).unwrap(), v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(u16::MAX);
        round_trip(u32::MAX);
        round_trip(u64::MAX);
        round_trip(-1i8);
        round_trip(i16::MIN);
        round_trip(i32::MIN);
        round_trip(i64::MIN);
        round_trip(1.5f32);
        round_trip(-2.75f64);
        round_trip(true);
        round_trip(false);
        round_trip(());
    }

    #[test]
    fn strings_and_bytes() {
        round_trip(String::new());
        round_trip("héllo wörld".to_string());
        round_trip(Bytes::from_static(b"raw"));
    }

    #[test]
    fn containers() {
        round_trip(vec![1u32, 2, 3]);
        round_trip(Vec::<String>::new());
        round_trip(Some("x".to_string()));
        round_trip(None::<u64>);
        round_trip(Ok::<u32, String>(7));
        round_trip(Err::<u32, String>("bad".into()));
        let mut m = BTreeMap::new();
        m.insert("a".to_string(), 1u64);
        m.insert("b".to_string(), 2);
        round_trip(m);
        round_trip((1u8, "two".to_string(), 3u64));
    }

    /// A map frame written by hand: `pairs` in the given order.
    fn map_frame(pairs: &[(u32, u8)]) -> Bytes {
        let mut e = Encoder::new();
        e.put_len(pairs.len());
        for (k, v) in pairs {
            k.encode_into(&mut e);
            v.encode_into(&mut e);
        }
        e.finish()
    }

    #[test]
    fn a_map_with_a_duplicate_key_is_refused() {
        let frame = map_frame(&[(1, 10), (2, 20), (2, 21)]);
        assert_eq!(
            BTreeMap::<u32, u8>::from_bytes(&frame),
            Err(WireError::UnorderedKey { at: 2 })
        );
    }

    #[test]
    fn a_map_with_an_out_of_order_key_is_refused() {
        let frame = map_frame(&[(5, 1), (3, 2)]);
        assert_eq!(
            BTreeMap::<u32, u8>::from_bytes(&frame),
            Err(WireError::UnorderedKey { at: 1 })
        );
    }

    #[test]
    fn a_ten_thousand_entry_map_round_trips() {
        let m: BTreeMap<u64, String> = (0..10_000u64).map(|k| (k * 7, format!("v{k}"))).collect();
        round_trip(m);
    }

    #[test]
    fn runtime_types() {
        round_trip(Duration::from_millis(1500));
        round_trip(SimTime::from_secs(42));
        round_trip(NodeId(7));
        round_trip(Addr::new(NodeId(3), 9000));
        round_trip(ViewStamp::new(3, 17));
    }

    #[test]
    fn viewstamps_order_view_first() {
        // A later view dominates any op number from an earlier view; ties
        // break on op number. This is the DoViewChange selection rule.
        assert!(ViewStamp::new(2, 1) > ViewStamp::new(1, 1_000_000));
        assert!(ViewStamp::new(2, 5) > ViewStamp::new(2, 4));
        assert_eq!(ViewStamp::new(4, 9), ViewStamp::new(4, 9));
        let mut v = vec![
            ViewStamp::new(1, 9),
            ViewStamp::new(0, 3),
            ViewStamp::new(1, 2),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                ViewStamp::new(0, 3),
                ViewStamp::new(1, 2),
                ViewStamp::new(1, 9)
            ]
        );
    }

    #[test]
    fn truncated_input_is_an_error() {
        let b = 12345u64.to_bytes();
        assert_eq!(
            u64::from_bytes(&b[..4]).unwrap_err(),
            WireError::UnexpectedEof
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut b = 7u32.to_bytes().to_vec();
        b.push(9);
        assert_eq!(
            u32::from_bytes(&b).unwrap_err(),
            WireError::TrailingBytes(1)
        );
    }

    #[test]
    fn hostile_length_rejected() {
        // Declares 4 billion elements with a 2-byte body.
        let mut e = Encoder::new();
        e.put_len(u32::MAX as usize);
        e.put_raw(b"xx");
        let b = e.finish();
        match Vec::<u8>::from_bytes(&b).unwrap_err() {
            WireError::LengthOverrun { .. } => {}
            other => panic!("expected overrun, got {other:?}"),
        }
    }

    #[test]
    fn bad_bool_rejected() {
        assert_eq!(bool::from_bytes(&[2]).unwrap_err(), WireError::BadBool(2));
    }

    #[test]
    fn bad_utf8_rejected() {
        let mut e = Encoder::new();
        e.put_len(2);
        e.put_raw(&[0xff, 0xfe]);
        assert_eq!(
            String::from_bytes(&e.finish()).unwrap_err(),
            WireError::BadUtf8
        );
    }

    #[test]
    fn bad_option_tag_rejected() {
        assert_eq!(
            Option::<u8>::from_bytes(&[7]).unwrap_err(),
            WireError::InvalidTag(7)
        );
    }

    #[derive(Debug, PartialEq)]
    struct Inner {
        a: u16,
        b: Option<String>,
    }
    impl_wire_struct!(Inner { a, b });

    #[derive(Debug, PartialEq)]
    struct Outer {
        xs: Vec<Inner>,
        tag: String,
    }
    impl_wire_struct!(Outer { xs, tag });

    #[test]
    fn nested_structs_round_trip() {
        round_trip(Outer {
            xs: vec![
                Inner { a: 1, b: None },
                Inner {
                    a: 2,
                    b: Some("x".into()),
                },
            ],
            tag: "t".into(),
        });
    }

    #[derive(Debug, PartialEq)]
    enum Mixed {
        Unit,
        One { v: u32 },
        Two { s: String, n: i64 },
    }
    impl_wire_enum!(Mixed {
        0 => Unit,
        1 => One { v },
        2 => Two { s, n },
    });

    #[test]
    fn enums_round_trip() {
        round_trip(Mixed::Unit);
        round_trip(Mixed::One { v: 9 });
        round_trip(Mixed::Two {
            s: "hi".into(),
            n: -3,
        });
        assert_eq!(
            Mixed::from_bytes(&[9]).unwrap_err(),
            WireError::InvalidTag(9)
        );
    }

    #[test]
    fn pooled_encoder_round_trips_and_reuses_buffers() {
        let pool = Arc::new(BufPool::new());
        let first = {
            let mut e = pool.encoder(64);
            e.put_u8(7);
            42u64.encode_into(&mut e);
            e.finish()
        };
        assert_eq!(pool.idle(), 1);
        assert_eq!(first[0], 7);
        assert_eq!(u64::from_bytes(&first[1..]).unwrap(), 42);
        // Drop the in-flight frame, then encode again: the next checkout
        // must produce correct bytes regardless of reclamation timing.
        drop(first);
        let second = {
            let mut e = pool.encoder(64);
            "hello".to_string().encode_into(&mut e);
            e.finish()
        };
        assert_eq!(String::from_bytes(&second).unwrap(), "hello");
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn pooled_frames_do_not_alias() {
        // Two frames encoded back-to-back from one pool must stay
        // independent even while both are alive.
        let pool = Arc::new(BufPool::new());
        let mut e = pool.encoder(16);
        e.put_raw(b"first");
        let a = e.finish();
        let mut e = pool.encoder(16);
        e.put_raw(b"second");
        let b = e.finish();
        assert_eq!(&a[..], b"first");
        assert_eq!(&b[..], b"second");
    }

    #[test]
    fn from_frame_bytes_are_zero_copy_slices() {
        #[derive(Debug, PartialEq)]
        struct Framed {
            tag: u32,
            body: Bytes,
        }
        impl_wire_struct!(Framed { tag, body });

        let v = Framed {
            tag: 9,
            body: Bytes::from_static(b"payload"),
        };
        let frame = v.to_bytes();
        let out = Framed::from_frame(&frame).unwrap();
        assert_eq!(out, v);
        // Zero-copy: the decoded body points into the frame allocation.
        let frame_range = frame.as_ptr() as usize..frame.as_ptr() as usize + frame.len();
        assert!(frame_range.contains(&(out.body.as_ptr() as usize)));
        // And the plain byte-slice path still copies.
        let copied = Framed::from_bytes(&frame).unwrap();
        assert!(!frame_range.contains(&(copied.body.as_ptr() as usize)));
    }

    #[test]
    fn type_id_is_stable_and_distinct() {
        assert_eq!(type_id_of("itv.mms"), type_id_of("itv.mms"));
        assert_ne!(type_id_of("itv.mms"), type_id_of("itv.mds"));
        assert_ne!(type_id_of(""), type_id_of("a"));
    }
}
