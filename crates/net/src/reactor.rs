//! The readiness layer under [`NetServer`](crate::NetServer): a thin,
//! dependency-free epoll wrapper plus the two utilities the reactor
//! needs — a cross-thread [`Waker`] and a [`BufPool`] of reusable frame
//! buffers.
//!
//! This module hand-rolls its own `extern "C"` declarations (the same
//! philosophy as beer-wire: `std` only, no vendored `libc`). Only the
//! five syscalls the reactor actually uses are declared — `epoll_create1`,
//! `epoll_ctl`, `epoll_wait`, `eventfd`, and the rlimit pair for raising
//! the fd ceiling in high-connection benches. Everything is Linux-only,
//! like the rest of the epoll family; the blocking [`Client`](crate::Client)
//! remains portable.
//!
//! Design notes:
//!
//! - **Tokens, not pointers.** epoll's per-fd `u64` carries an opaque
//!   token chosen by the caller (the server packs a slab index and a
//!   generation counter into it, so a stale event for a recycled slot is
//!   recognizably stale).
//! - **Level-triggered.** The server re-arms interest explicitly per
//!   connection state; level-triggered wakeups make partial reads/writes
//!   safe by default (no lost-wakeup hazard on a short `read`).
//! - **One reactor thread.** [`Poller`] is deliberately `!Sync`-shaped in
//!   use: only [`Waker::wake`] is called from other threads.

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Syscall shim
// ---------------------------------------------------------------------------

mod sys {
    use std::os::raw::{c_int, c_uint, c_void};

    /// `struct epoll_event`. x86_64 Linux declares it packed (a 12-byte
    /// struct); other architectures use natural alignment.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    /// `struct rlimit` (64-bit `rlim_t` on every Linux target we build).
    #[repr(C)]
    pub struct Rlimit {
        pub cur: u64,
        pub max: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout_ms: c_int,
        ) -> c_int;
        pub fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn close(fd: c_int) -> c_int;
        pub fn getrlimit(resource: c_int, rlim: *mut Rlimit) -> c_int;
        pub fn setrlimit(resource: c_int, rlim: *const Rlimit) -> c_int;
    }
}

/// Readable readiness (`EPOLLIN`).
pub const EPOLLIN: u32 = 0x001;
/// Writable readiness (`EPOLLOUT`).
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (`EPOLLERR`) — always reported, never requested.
pub const EPOLLERR: u32 = 0x008;
/// Hangup (`EPOLLHUP`) — always reported, never requested.
pub const EPOLLHUP: u32 = 0x010;
/// Peer closed its write half (`EPOLLRDHUP`). Requesting this is what
/// replaces the old 2 s zero-consume liveness `peek`: a watcher hanging
/// up becomes a readiness event the moment it happens.
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0o2000000;
const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;
const RLIMIT_NOFILE: i32 = 7;

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

// ---------------------------------------------------------------------------
// Poller
// ---------------------------------------------------------------------------

/// One readiness event out of [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token registered for the fd.
    pub token: u64,
    /// Raw `EPOLL*` bits.
    pub events: u32,
}

impl Event {
    /// The fd has bytes to read (or an error/hangup a read will surface).
    pub fn readable(&self) -> bool {
        self.events & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0
    }

    /// The fd can accept bytes (or an error a write will surface).
    pub fn writable(&self) -> bool {
        self.events & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0
    }

    /// The peer closed (its write half at least) or the fd errored.
    pub fn closed(&self) -> bool {
        self.events & (EPOLLRDHUP | EPOLLERR | EPOLLHUP) != 0
    }
}

/// A level-triggered epoll instance.
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    /// Creates the epoll instance (`CLOEXEC`).
    pub fn new() -> io::Result<Poller> {
        let epfd = cvt(unsafe { sys::epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        let mut ev = sys::EpollEvent {
            events: interest,
            data: token,
        };
        cvt(unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) }).map(drop)
    }

    /// Registers `fd` with the given interest bits; events for it carry
    /// `token`.
    pub fn add(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Changes the interest (and token) of an already-registered fd.
    pub fn modify(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Deregisters `fd`. Harmless to call for an fd the kernel already
    /// dropped from the set (closing an fd deregisters it implicitly).
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        match self.ctl(EPOLL_CTL_DEL, fd, 0, 0) {
            Err(e) if e.raw_os_error() == Some(2) => Ok(()), // ENOENT
            other => other,
        }
    }

    /// Blocks until readiness or `timeout` (`None` = forever), appending
    /// events to `out`. Retries `EINTR` internally; an empty `out` after
    /// return means the timeout elapsed.
    pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        const CAP: usize = 1024;
        let mut buf = [sys::EpollEvent { events: 0, data: 0 }; CAP];
        let timeout_ms: i32 = match timeout {
            None => -1,
            Some(d) => d.as_millis().min(i32::MAX as u128) as i32,
        };
        let n = loop {
            let ret =
                unsafe { sys::epoll_wait(self.epfd, buf.as_mut_ptr(), CAP as i32, timeout_ms) };
            if ret >= 0 {
                break ret as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        out.extend(buf[..n].iter().map(|ev| {
            // Copy out of the (possibly packed) struct before use.
            let events = ev.events;
            let token = ev.data;
            Event { token, events }
        }));
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        unsafe { sys::close(self.epfd) };
    }
}

// ---------------------------------------------------------------------------
// Waker
// ---------------------------------------------------------------------------

/// A cross-thread wakeup for a [`Poller`] blocked in [`Poller::wait`],
/// built on `eventfd`. Register [`Waker::fd`] with a reserved token and
/// call [`Waker::wake`] from any thread; the reactor calls
/// [`Waker::drain`] when the token fires.
///
/// This is the delivery path for job events: the service's fanout
/// notify-hook wakes the reactor, which then drains watcher queues —
/// replacing the 50 ms `recv_timeout` poll loop per watcher.
pub struct Waker {
    fd: RawFd,
}

impl Waker {
    /// Creates the eventfd (`CLOEXEC | NONBLOCK`).
    pub fn new() -> io::Result<Waker> {
        let fd = cvt(unsafe { sys::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(Waker { fd })
    }

    /// The fd to register with the poller (interest: [`EPOLLIN`]).
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Wakes the poller. Async-signal-safe, nonblocking, coalescing:
    /// many wakes before a drain cost one readiness event.
    pub fn wake(&self) {
        let one: u64 = 1;
        // A full counter (EAGAIN) already guarantees a pending wakeup.
        unsafe { sys::write(self.fd, (&one as *const u64).cast(), 8) };
    }

    /// Consumes pending wakeups so level-triggered polling quiesces.
    pub fn drain(&self) {
        let mut buf = 0u64;
        unsafe { sys::read(self.fd, (&mut buf as *mut u64).cast(), 8) };
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        unsafe { sys::close(self.fd) };
    }
}

// Raw-fd wrapper whose only cross-thread operation is write(2).
unsafe impl Send for Waker {}
unsafe impl Sync for Waker {}

// ---------------------------------------------------------------------------
// Buffer pool
// ---------------------------------------------------------------------------

/// A pool of reusable `Vec<u8>` frame buffers, owned by the reactor
/// thread (no locks). Hot frames encode via
/// [`Message::encode_into`](crate::wire::Message::encode_into) into a
/// pooled buffer, ride the connection's write queue, and return here
/// once flushed.
///
/// Two bounds keep it honest: at most `max_pooled` buffers are retained
/// (excess ones just drop), and a buffer that grew past
/// `max_buf_capacity` is dropped rather than pooled, so one giant
/// query page cannot pin its high-water allocation forever.
pub struct BufPool {
    bufs: Vec<Vec<u8>>,
    max_pooled: usize,
    max_buf_capacity: usize,
}

impl BufPool {
    /// An empty pool with the given retention bounds.
    pub fn new(max_pooled: usize, max_buf_capacity: usize) -> BufPool {
        BufPool {
            bufs: Vec::new(),
            max_pooled,
            max_buf_capacity,
        }
    }

    /// A cleared buffer — pooled if one is available, fresh otherwise.
    pub fn take(&mut self) -> Vec<u8> {
        self.bufs.pop().unwrap_or_default()
    }

    /// Returns a buffer to the pool (cleared), subject to the bounds.
    pub fn put(&mut self, mut buf: Vec<u8>) {
        if self.bufs.len() < self.max_pooled && buf.capacity() <= self.max_buf_capacity {
            buf.clear();
            self.bufs.push(buf);
        }
    }

    /// Buffers currently pooled.
    pub fn pooled(&self) -> usize {
        self.bufs.len()
    }
}

// ---------------------------------------------------------------------------
// fd limit
// ---------------------------------------------------------------------------

/// Raises the soft `RLIMIT_NOFILE` to the hard limit and returns the new
/// soft limit. The 4096-connection bench section calls this so loopback
/// sockets do not exhaust the default 1024-fd soft cap.
pub fn raise_nofile_limit() -> io::Result<u64> {
    let mut lim = sys::Rlimit { cur: 0, max: 0 };
    cvt(unsafe { sys::getrlimit(RLIMIT_NOFILE, &mut lim) })?;
    if lim.cur < lim.max {
        let raised = sys::Rlimit {
            cur: lim.max,
            max: lim.max,
        };
        cvt(unsafe { sys::setrlimit(RLIMIT_NOFILE, &raised) })?;
        lim.cur = lim.max;
    }
    Ok(lim.cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;

    #[test]
    fn poller_sees_readable_and_rdhup() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut a = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut b, _) = listener.accept().unwrap();

        let poller = Poller::new().unwrap();
        b.set_nonblocking(true).unwrap();
        poller.add(b.as_raw_fd(), 7, EPOLLIN | EPOLLRDHUP).unwrap();

        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "no readiness before any bytes");

        a.write_all(b"hi").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable());
        assert!(!events[0].closed());
        let mut buf = [0u8; 8];
        assert_eq!(b.read(&mut buf).unwrap(), 2);

        // Peer close is a readiness event, not something to poll for.
        drop(a);
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert!(events[0].closed());
        poller.delete(b.as_raw_fd()).unwrap();
    }

    #[test]
    fn waker_wakes_and_coalesces() {
        let poller = Poller::new().unwrap();
        let waker = Waker::new().unwrap();
        poller.add(waker.fd(), u64::MAX, EPOLLIN).unwrap();

        waker.wake();
        waker.wake();
        waker.wake();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events.len(), 1, "wakes coalesce into one event");
        assert_eq!(events[0].token, u64::MAX);

        waker.drain();
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "drained waker quiesces");
    }

    #[test]
    fn buf_pool_bounds_hold() {
        let mut pool = BufPool::new(2, 64);
        pool.put(vec![1, 2, 3]);
        assert_eq!(pool.pooled(), 1);
        let buf = pool.take();
        assert!(buf.is_empty(), "pooled buffers come back cleared");
        assert!(buf.capacity() >= 3);

        pool.put(Vec::with_capacity(128));
        assert_eq!(pool.pooled(), 0, "oversized buffers are dropped");
        pool.put(Vec::new());
        pool.put(Vec::new());
        pool.put(Vec::new());
        assert_eq!(pool.pooled(), 2, "retention cap holds");
    }
}
