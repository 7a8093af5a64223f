//! Runtime substrate for the ITV system reproduction.
//!
//! This crate provides the two execution environments that every OCS
//! service in the workspace runs on:
//!
//! * **The deterministic discrete-event simulation** ([`Sim`]): virtual
//!   time, every simulated process on a stack of its own (taken from a
//!   pool), switched to in user space by the thread stepping its shard,
//!   exactly one running at a time per shard, a network model with per-link latency/bandwidth/loss,
//!   partitions, and node/process crash injection. Runs are reproducible
//!   from a seed, and a "25-second fail-over" completes in microseconds of
//!   wall time — which is what makes the paper's §9.7 experiments
//!   practical to sweep.
//! * **The real runtime** ([`real::RealNet`]): one loop thread per node
//!   running the node's tasks on pooled stacks of their own, as the
//!   simulator runs its processes, the wall clock, and TCP on the
//!   loopback interface.
//!
//! Services are written once against [`NodeRt`]/[`Endpoint`] and run
//! unchanged on both. The message model is datagram-like with two failure
//! signals, mirroring what the paper's object exchange layer observed on
//! IRIX: a *bounce* ([`RecvError::Unreachable`]) when the peer process
//! died but its host is alive, and silence (a timeout) when the host died.

#![deny(unsafe_code)]

#[allow(unsafe_code)]
mod coro;
mod kernel;
#[allow(unsafe_code)]
mod poll;
mod rt;
mod sim;
mod time;

pub mod backoff;
pub mod fault;
pub mod journal;
pub mod real;
pub mod ring;
pub mod sync;
pub mod trace;

pub use backoff::RetryPolicy;
pub use fault::{FaultAction, FaultEvent, FaultPlan, FaultPlanSpec, Nemesis};
pub use journal::{merge_journals, render_timeline, Journal, JournalEvent};
pub use kernel::{KernelStats, LinkImpairment, LinkParams, NetConfig, NetStats, ShardPolicy};
pub use ring::RingLog;
pub use trace::{current_ctx, set_current_ctx, CtxGuard, SpanCtx, SpanId, TraceId};
pub use rt::{
    Addr, Endpoint, Extensions, FrameHandler, InlineTest, LandingHandler, NetError, NodeId, NodeRt,
    NodeRtExt, PortReq, ProcGroup, RecvError, Rt,
};
pub use sim::{Sim, SimChan, SimConfig, SimNode};
pub use sync::{Gate, Queue, Semaphore, SyncObj};
pub use time::SimTime;
