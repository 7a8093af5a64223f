//! What an encode costs in allocator calls: writes into a buffer with
//! room allocate nothing, a pooled frame costs the one copy `finish`
//! hands out, and the pool keeps no oversized buffer.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use ocs_sim::NodeId;
use ocs_wire::{impl_wire_enum, BufPool, Encoder, Wire, POOL_BUF_CAP};

thread_local! {
    /// This thread's allocator calls: tests run on threads of their own,
    /// so each counts only its own.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// [`System`], counting every `alloc`/`realloc`/`alloc_zeroed` call.
struct CountingAlloc;

fn count() {
    CALLS.with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`; the
// counter is a thread-local `Cell` with a constant initialiser, which
// never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` obligations pass through as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via the methods above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `dealloc`; `new_size` passes through as-is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` obligations pass through as-is.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocator calls `f` makes on this thread, and what it returned.
fn allocs<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (CALLS.with(Cell::get) - before, out)
}

/// The fields of a CM `allocate` request: token, settop, server, bps.
fn allocate_args(e: &mut Encoder) {
    0u64.encode_into(e);
    NodeId(100_123).encode_into(e);
    NodeId(3).encode_into(e);
    4_000_000u64.encode_into(e);
}

#[derive(Debug, PartialEq)]
enum AdmitError {
    NoBandwidth { server: NodeId },
    Refused { why: String },
}
impl_wire_enum!(AdmitError {
    0 => NoBandwidth { server },
    1 => Refused { why },
});

#[test]
fn writes_into_a_presized_encoder_allocate_nothing() {
    // A new encoder starts with room for a call's arguments.
    let mut e = Encoder::new();
    let (n, ()) = allocs(|| allocate_args(&mut e));
    assert_eq!(n, 0, "a write into an encoder with room allocated");
    // Room for exactly what is written is enough.
    let mut e = Encoder::with_capacity(24);
    let (n, ()) = allocs(|| allocate_args(&mut e));
    assert_eq!(n, 0, "a write into an encoder with room allocated");
    assert_eq!(e.len(), 24);
}

#[test]
fn a_warm_pooled_finish_allocates_once() {
    let pool = Arc::new(BufPool::new());
    let encode = || {
        let mut e = pool.encoder(64);
        allocate_args(&mut e);
        e.finish()
    };
    let first = encode();
    // The previous frame is still in flight: the next encode does not
    // wait for it or copy around it.
    let (n, second) = allocs(encode);
    assert_eq!(n, 1, "a warm pooled encode is the frame's one copy");
    assert_eq!(first, second);
    assert_eq!(pool.idle(), 1);
}

#[test]
fn a_small_reply_to_bytes_allocates_at_most_twice() {
    let ok: Result<u64, AdmitError> = Ok(123_456);
    let (n, b) = allocs(|| ok.to_bytes());
    assert!(n <= 2, "Result<u64, E>::to_bytes made {n} allocator calls");
    assert_eq!(<Result<u64, AdmitError>>::from_bytes(&b).unwrap(), ok);
    let err: Result<u64, AdmitError> = Err(AdmitError::NoBandwidth { server: NodeId(2) });
    let (n, b) = allocs(|| err.to_bytes());
    assert!(n <= 2, "Result<u64, E>::to_bytes made {n} allocator calls");
    assert_eq!(<Result<u64, AdmitError>>::from_bytes(&b).unwrap(), err);
    let refused: Result<u64, AdmitError> = Err(AdmitError::Refused { why: "full".into() });
    assert_eq!(
        <Result<u64, AdmitError>>::from_bytes(&refused.to_bytes()).unwrap(),
        refused
    );
}

#[test]
fn the_pool_keeps_no_buffer_above_its_cap() {
    let pool = Arc::new(BufPool::new());
    let mut e = pool.encoder(64);
    e.put_raw(&vec![7u8; POOL_BUF_CAP + 1]);
    let big = e.finish();
    assert_eq!(big.len(), POOL_BUF_CAP + 1);
    assert_eq!(pool.idle(), 0, "an oversized buffer went back to the pool");
    let mut e = pool.encoder(64);
    allocate_args(&mut e);
    e.finish();
    assert_eq!(pool.idle(), 1);
}
