//! What a real-runtime node's loop (`real.rs`) waits on: an epoll set of
//! its listener and streams — a stream also for room to write while it
//! holds unsent bytes — and an eventfd other threads ring. Declared
//! `extern "C"` as `coro.rs` declares `mmap`; with `coro.rs`, all of the
//! crate's `unsafe`.

#![deny(clippy::undocumented_unsafe_blocks)]

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::time::Duration;

/// `EPOLLIN`: a connection to accept, or bytes or the end of a stream.
const READABLE: u32 = 0x001;
/// `EPOLLOUT`: room in a stream's send buffer.
const WRITABLE: u32 = 0x004;
const EPOLL_CLOEXEC: i32 = 0o2_000_000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EFD_CLOEXEC: i32 = 0o2_000_000;
const EFD_NONBLOCK: i32 = 0o4_000;

/// The kernel's `struct epoll_event`, packed on x86_64.
#[repr(C, packed)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
}

/// Owns the descriptor a call returned, or takes its error.
fn owned(fd: i32) -> io::Result<OwnedFd> {
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: the call just created `fd` and nothing else holds it.
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

/// What [`Poller::wait`] reports of one ready descriptor: the token it
/// was added with, whether to read it (bytes, its end, an error) and
/// whether it has room to write.
#[derive(Clone, Copy)]
pub(crate) struct Ready {
    pub(crate) token: u64,
    pub(crate) read: bool,
    pub(crate) write: bool,
}

/// One loop's epoll set; [`Poller::wait`] reports up to 64 ready
/// descriptors a wait.
pub(crate) struct Poller {
    epoll: OwnedFd,
    events: [EpollEvent; 64],
}

impl Poller {
    pub(crate) fn new() -> io::Result<Poller> {
        // SAFETY: no pointers; the result is checked by `owned`.
        let epoll = owned(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        let events = [EpollEvent { events: 0, data: 0 }; 64];
        Ok(Poller { epoll, events })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` outlives the call, which only reads it.
        if unsafe { epoll_ctl(self.epoll.as_raw_fd(), op, fd, &mut ev) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Watches `fd` for reading (level-triggered), reported as `token`.
    pub(crate) fn add(&self, fd: RawFd, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, READABLE)
    }

    /// Watches the added `fd` for room to write as well, or no longer.
    pub(crate) fn watch_writable(&self, fd: RawFd, token: u64, on: bool) -> io::Result<()> {
        let events = if on { READABLE | WRITABLE } else { READABLE };
        self.ctl(EPOLL_CTL_MOD, fd, token, events)
    }

    /// Stops watching `fd`.
    pub(crate) fn remove(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks until something registered is ready or `timeout` passes
    /// (`None`: no limit), and fills `ready` with what is ready.
    pub(crate) fn wait(
        &mut self,
        timeout: Option<Duration>,
        ready: &mut Vec<Ready>,
    ) -> io::Result<()> {
        ready.clear();
        // Whole milliseconds, rounded up: a timer never fires early.
        let ms = timeout.map_or(-1, |t| {
            let ms = t.as_micros().div_ceil(1000);
            ms.min(i32::MAX as u128) as i32
        });
        let (fd, room) = (self.epoll.as_raw_fd(), self.events.len() as i32);
        // SAFETY: the kernel fills at most `room` entries of `events`.
        let n = unsafe { epoll_wait(fd, self.events.as_mut_ptr(), room, ms) };
        if n < 0 {
            let e = io::Error::last_os_error();
            // A signal that woke the wait left nothing ready.
            return (e.kind() == io::ErrorKind::Interrupted)
                .then_some(())
                .ok_or(e);
        }
        ready.extend(self.events[..n as usize].iter().map(|e| Ready {
            token: e.data,
            read: e.events & !WRITABLE != 0,
            write: e.events & WRITABLE != 0,
        }));
        Ok(())
    }
}

/// A non-blocking eventfd: [`ring`] makes it readable, [`clear`] reads
/// it back to zero.
pub(crate) fn new_bell() -> io::Result<File> {
    // SAFETY: no pointers; the result is checked by `owned`.
    let fd = owned(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
    Ok(File::from(fd))
}

/// Makes `bell` readable (a failed write means it is already).
pub(crate) fn ring(mut bell: &File) {
    let _ = bell.write(&1u64.to_ne_bytes());
}

pub(crate) fn clear(mut bell: &File) {
    let _ = bell.read(&mut [0u8; 8]);
}
