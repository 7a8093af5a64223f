//! Process stacks, and the switch between them.
//!
//! A simulated process runs on a [`Stack`] of its own, not on an OS
//! thread: the thread that steps the process's shard switches to the
//! stack and back in user space, with no system call and no wake-up. A
//! real-runtime task runs the same way on its node's loop thread
//! (`real.rs`). This module and `poll.rs` are the only places in the
//! crate that use `unsafe`; the kernel and the loops see three safe
//! operations:
//!
//! * [`Stack::prime`] writes a closure onto a stack and arranges for the
//!   first switch to the stack to run it;
//! * [`switch`] suspends the running context into one [`Context`] and
//!   resumes another;
//! * [`StackPool`] keeps stacks for re-use, so a spawn maps none once the
//!   pool is warm.
//!
//! What the safe surface cannot check, the kernel's scheduling rules
//! uphold: a context is switched to only while it is suspended and on the
//! thread it last ran on, and a stack is re-primed or unmapped only once
//! the process on it has switched away for the last time.
//!
//! Each stack is [`STACK_BYTES`] of usable memory above one guard page
//! (mapped `PROT_NONE`), so an overflow faults instead of corrupting the
//! stack below. The topmost bytes of the mapping hold the stack's
//! [`Context`] and the primed closure; the process's frames grow down
//! from under them.
//!
//! The switch saves what the SysV x86_64 ABI makes callee-saved — `rbx`,
//! `rbp`, `r12`–`r15`, the MXCSR and the x87 control word — on the
//! running stack, stores the stack pointer, and loads the target's. A
//! fresh stack's first frame returns into a trampoline that calls the
//! entry function with a 16-byte-aligned stack and sits on a zero return
//! address, marked undefined in its unwind info, so unwinders and
//! backtraces stop there. Nothing unwinds past the entry function: it is
//! `extern "C"`, so a panic that escaped the closure would abort.

#![deny(clippy::undocumented_unsafe_blocks)]

use std::cell::Cell;
use std::io;
use std::mem::{align_of, size_of};
use std::ptr::{self, NonNull};

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "ocs-sim switches simulated processes' stacks with x86_64 code and maps them with \
     Linux mmap: only x86_64 Linux is supported (DESIGN.md §8)"
);

/// Usable bytes of one process stack.
const STACK_BYTES: usize = 512 * 1024;

/// The guard page below each stack.
const PAGE: usize = 4096;

/// The whole mapping: guard page plus stack.
const MAP_BYTES: usize = PAGE + STACK_BYTES;

/// Bytes at the top of the mapping reserved for the stack's [`Context`].
const CONTEXT_ROOM: usize = 16;

/// Idle stacks a pool keeps. A burst of concurrent processes maps as
/// many stacks as it needs; once it is over, stacks beyond this many are
/// unmapped, so the burst does not pin its memory for good.
const MAX_IDLE: usize = 256;

/// MXCSR (all exceptions masked, round to nearest) in the low half and
/// the x87 control word (extended precision, all masked) in the high
/// half: the state a new thread starts with.
const FRESH_CONTROL: u64 = 0x1F80 | (0x037F << 32);

const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_NORESERVE: i32 = 0x4000;
const MAP_STACK: i32 = 0x20000;

extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut u8;
    fn mprotect(addr: *mut u8, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut u8, len: usize) -> i32;
}

/// Where a suspended context keeps its stack pointer: a process's, at
/// the top of its stack, or a shard scheduler's. Null while the context
/// runs, and before a stack is primed.
pub(crate) struct Context {
    sp: Cell<*mut u8>,
}

// SAFETY: `sp` is the only field. It is read and written only by
// `switch` and `Stack::prime`, on the thread stepping the context's
// shard or running its node's loop, and the kernel lock orders a prime on
// another thread (a spawn from the driver onto a shard's worker) before
// the worker's first switch to the stack.
unsafe impl Send for Context {}
// SAFETY: as for `Send`: no two threads touch one `sp` without the
// kernel lock ordering them.
unsafe impl Sync for Context {}

impl Context {
    pub(crate) const fn new() -> Context {
        Context {
            sp: Cell::new(ptr::null_mut()),
        }
    }

    /// What [`switch`] takes to name this context.
    pub(crate) fn handle(&self) -> Handle {
        Handle(NonNull::from(self))
    }
}

/// Names a [`Context`] to switch from or to. Copyable, so the scheduler
/// can hand it out of the kernel lock; valid while its context is: a
/// shard's for the life of the simulation, a stack's while it is mapped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Handle(NonNull<Context>);

// SAFETY: a `Handle` is a pointer to a `Context`, which is `Sync`.
unsafe impl Send for Handle {}

/// Suspends the running context into `from` and resumes `to`, on the
/// calling thread. Returns when something switches back to `from`.
///
/// `from` must be the running context's own and `to` a suspended one —
/// a context switched to from the thread it last ran on, or a freshly
/// primed stack. Panics if `to` is not suspended.
pub(crate) fn switch(from: Handle, to: Handle) {
    assert_ne!(from, to, "a context switched to itself");
    // SAFETY: both handles name live contexts (the kernel's rule above),
    // and only this thread touches them now.
    let to_sp = unsafe { to.0.as_ref() }.sp.replace(ptr::null_mut());
    assert!(
        !to_sp.is_null(),
        "switch to a context that is not suspended"
    );
    // SAFETY: `from`'s slot is live and ours to write; `to_sp` is the
    // stack pointer `swap` itself stored for `to` when it suspended, or
    // the first frame `Stack::prime` laid out, so loading it resumes
    // exactly there.
    unsafe { swap(from.0.as_ref().sp.as_ptr(), to_sp) }
}

/// Saves the callee-saved state on the running stack, stores the stack
/// pointer in `*save`, loads `load` and restores the state found there.
#[unsafe(naked)]
unsafe extern "C" fn swap(save: *mut *mut u8, load: *mut u8) {
    core::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "ldmxcsr [rsp]",
        "fldcw [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// Where a fresh stack's first switch lands: calls the entry function
/// (`r12`) on the primed closure (`rbx`). Entered on a 16-byte-aligned
/// stack whose top word, its return address, is zero; the entry
/// function never returns.
#[unsafe(naked)]
unsafe extern "C" fn trampoline() -> ! {
    core::arch::naked_asm!(
        ".cfi_startproc",
        ".cfi_undefined rip",
        "mov rdi, rbx",
        "call r12",
        "ud2",
        ".cfi_endproc",
    )
}

/// The bottom of every process stack: runs the primed closure, then
/// switches to the context it names, for good. The switch comes from
/// this frame, which owns nothing by then: the closure and everything it
/// held were dropped when it returned.
extern "C" fn entry<F: FnOnce() -> Handle>(data: *mut F) -> ! {
    // SAFETY: `Stack::prime` wrote an `F` at `data` and nothing else
    // reads it: this moves it out exactly once.
    let f = unsafe { ptr::read(data) };
    let to = f();
    let gone = Context::new();
    switch(gone.handle(), to);
    // Nothing holds `gone`'s handle, so nothing switches back.
    std::process::abort()
}

/// One mapped process stack; see the module docs for its layout.
pub(crate) struct Stack {
    base: NonNull<u8>,
}

// SAFETY: the mapping is plain memory owned by this value; which thread
// holds the value does not matter to it. What runs on the stack stays
// on one thread by the kernel's rule, whoever owns the `Stack`.
unsafe impl Send for Stack {}

impl Stack {
    /// Maps a stack and its guard page.
    fn map() -> io::Result<Stack> {
        // SAFETY: a fresh anonymous private mapping aliases nothing.
        let base = unsafe {
            mmap(
                ptr::null_mut(),
                MAP_BYTES,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            )
        };
        if base as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        let stack = Stack {
            base: NonNull::new(base).expect("mmap returned null"),
        };
        // SAFETY: the first page of the mapping just made; nothing uses it.
        if unsafe { mprotect(base, PAGE, PROT_NONE) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(stack)
    }

    /// One past the highest byte of the mapping.
    fn top(&self) -> usize {
        self.base.as_ptr() as usize + MAP_BYTES
    }

    fn context(&self) -> &Context {
        const _: () = assert!(size_of::<Context>() <= CONTEXT_ROOM);
        // SAFETY: the top `CONTEXT_ROOM` bytes of the mapping are
        // reserved for the context (nothing primed or pushed reaches
        // them), suitably aligned, and live as long as `self`; a zeroed
        // `Cell<*mut u8>` is a valid null pointer.
        unsafe { &*((self.top() - CONTEXT_ROOM) as *const Context) }
    }

    /// What [`switch`] takes to resume this stack.
    pub(crate) fn handle(&self) -> Handle {
        self.context().handle()
    }

    /// Whether `addr` lies on this stack.
    #[cfg(test)]
    pub(crate) fn holds(&self, addr: usize) -> bool {
        (self.base.as_ptr() as usize + PAGE..self.top()).contains(&addr)
    }

    /// Makes the next switch to this stack run `f` on it, then switch to
    /// the context `f` returns. `f` is kept on the stack itself: priming
    /// allocates nothing. The stack must not be running anything.
    pub(crate) fn prime<F>(&self, f: F)
    where
        F: FnOnce() -> Handle + Send + 'static,
    {
        const { assert!(size_of::<F>() <= 4096 && align_of::<F>() <= 4096) };
        let align = align_of::<F>().max(16);
        let data = (self.top() - CONTEXT_ROOM - size_of::<F>()) & !(align - 1);
        // The first frame, as `swap` expects to find a suspended one:
        // control words, r15, r14, r13, r12, rbx, rbp, return address,
        // then the trampoline's own zero return address and a pad word.
        let frame: [u64; 10] = [
            FRESH_CONTROL,
            0,
            0,
            0,
            entry::<F> as *const () as u64,
            data as u64,
            0,
            trampoline as *const () as u64,
            0,
            0,
        ];
        let sp = data - size_of_val(&frame);
        // SAFETY: `data` and the frame below it lie inside the stack's
        // usable range (`F` is at most a page, asserted above, next to
        // `STACK_BYTES`), aligned for `F` and for `u64`, and no process
        // runs on the stack, so nothing else reads or writes these bytes.
        unsafe {
            ptr::write(data as *mut F, f);
            ptr::write(sp as *mut [u64; 10], frame);
        }
        self.context().sp.set(sp as *mut u8);
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: the mapping is ours and nothing runs on it: a stack is
        // dropped only once its process is gone, or was never started.
        unsafe { munmap(self.base.as_ptr(), MAP_BYTES) };
    }
}

/// Idle stacks, most recently used last: a closed-loop workload keeps
/// re-using one warm stack.
#[derive(Default)]
pub(crate) struct StackPool {
    idle: Vec<Stack>,
}

impl StackPool {
    /// An idle stack, or a newly mapped one; `true` if it was mapped.
    pub(crate) fn take(&mut self) -> io::Result<(Stack, bool)> {
        match self.idle.pop() {
            Some(stack) => Ok((stack, false)),
            None => Ok((Stack::map()?, true)),
        }
    }

    /// Keeps `stack` for re-use, or unmaps it if the pool is full.
    pub(crate) fn give(&mut self, stack: Stack) {
        if self.idle.len() < MAX_IDLE {
            self.idle.push(stack);
        }
    }

    /// Unmaps every idle stack.
    pub(crate) fn clear(&mut self) {
        self.idle.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::cell::RefCell;
    use std::rc::Rc;

    thread_local! {
        static MAIN: Context = const { Context::new() };
    }

    fn main_handle() -> Handle {
        MAIN.with(Context::handle)
    }

    /// Runs `body` on `stack` and switches back.
    fn run_on(stack: &Stack, body: impl FnOnce() + Send + 'static) {
        stack.prime(move || {
            body();
            main_handle()
        });
        switch(main_handle(), stack.handle());
    }

    #[test]
    fn a_primed_stack_runs_its_closure_there_and_comes_back() {
        let (stack, mapped) = StackPool::default().take().unwrap();
        assert!(mapped);
        let seen = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let seen2 = std::sync::Arc::clone(&seen);
        run_on(&stack, move || {
            let local = 0u8;
            seen2.store(
                &local as *const u8 as usize,
                std::sync::atomic::Ordering::Relaxed,
            );
        });
        assert!(stack.holds(seen.load(std::sync::atomic::Ordering::Relaxed)));
    }

    #[test]
    fn two_stacks_take_turns_and_keep_their_registers() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let (a, b) = (Stack::map().unwrap(), Stack::map().unwrap());
        let (ha, hb) = (a.handle(), b.handle());
        // `Rc` is not `Send`; the closures only ever run on this thread.
        struct OnThisThread<T>(T);
        // SAFETY: test only: both stacks run on the thread that made it.
        unsafe impl<T> Send for OnThisThread<T> {}
        for (stack, me, other, name) in [(&a, ha, hb, "a"), (&b, hb, ha, "b")] {
            let log = OnThisThread(Rc::clone(&log));
            stack.prime(move || {
                let log = log;
                let mut x = 1.5f64;
                for round in 0..3u64 {
                    log.0.borrow_mut().push(format!("{name}{round}"));
                    x *= 2.0;
                    if name == "a" || round < 2 {
                        switch(me, other);
                    }
                }
                assert_eq!(x, 12.0);
                main_handle()
            });
        }
        switch(main_handle(), ha);
        assert_eq!(*log.borrow(), ["a0", "b0", "a1", "b1", "a2", "b2"]);
        // `a` switched to `b` after its last round and is still suspended.
        let _ = a;
    }

    #[test]
    fn the_pool_reuses_stacks_and_caps_what_it_keeps() {
        let mut pool = StackPool::default();
        let (s, mapped) = pool.take().unwrap();
        assert!(mapped);
        let first = s.base;
        pool.give(s);
        let (s, mapped) = pool.take().unwrap();
        assert!(!mapped);
        assert_eq!(s.base, first);
        pool.give(s);
        let stacks: Vec<Stack> = (0..MAX_IDLE + 2).map(|_| pool.take().unwrap().0).collect();
        for s in stacks {
            pool.give(s);
        }
        assert_eq!(pool.idle.len(), MAX_IDLE);
    }
}
