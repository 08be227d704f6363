//! Minimal epoll/eventfd syscall shim for the line frontend.
//!
//! The workspace is std-only (no `libc` crate), so the handful of
//! syscalls the event loop needs — `epoll_create1`, `epoll_ctl`,
//! `epoll_wait`, `eventfd` — are declared here against the C library
//! std already links. Everything socket-shaped stays on std types
//! (`TcpListener`/`TcpStream` in nonblocking mode), so this shim is the
//! *entire* unsafe surface of the frontend: two RAII fd wrappers and
//! one `#[repr(C)]` struct.
//!
//! Linux-only by construction (`lib.rs` gates the module), which is why
//! serving is Linux-only. The module is public so the load generator
//! (`loadgen --connections`) can multiplex its 10k-class open-loop
//! client sockets on the same readiness primitive.

use std::io;
use std::os::unix::io::RawFd;

/// `struct epoll_event` with the kernel's ABI. On x86-64 the kernel
/// (and glibc, via `__attribute__((packed))`) lays the 12-byte struct
/// out unpadded; other architectures use natural alignment.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Readiness bits (`EPOLLIN | …`) — interest on ctl, results on wait.
    pub events: u32,
    /// User data — the connection token, never a pointer.
    pub data: u64,
}

/// Readable (or a pending accept on a listener).
pub const EPOLLIN: u32 = 0x001;
/// Writable without blocking.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported; no need to subscribe).
pub const EPOLLERR: u32 = 0x008;
/// Hangup (always reported; no need to subscribe).
pub const EPOLLHUP: u32 = 0x010;
/// Peer shut down its write half: readable readiness that will EOF.
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;
const EFD_CLOEXEC: i32 = 0o2000000;

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
}

/// An epoll instance. Closes its fd on drop; registered fds are *not*
/// owned — their `TcpStream`s close them.
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Creates a fresh epoll instance (`EPOLL_CLOEXEC`).
    pub fn new() -> io::Result<Epoll> {
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` under `token` with the given interest set.
    pub fn add(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, events)
    }

    /// Replaces the interest set of an already-registered `fd`.
    pub fn modify(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, events)
    }

    /// Deregisters `fd`. Errors are ignored: the kernel drops epoll
    /// registrations automatically when the last fd reference closes.
    pub fn delete(&self, fd: RawFd) {
        let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, 0);
    }

    /// Blocks for readiness, at most `timeout_ms`. Returns the number of
    /// events written into `events`; `EINTR` reports as zero events.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        let n = unsafe {
            epoll_wait(
                self.fd,
                events.as_mut_ptr(),
                events.len().min(i32::MAX as usize) as i32,
                timeout_ms,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(n as usize)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

/// A nonblocking eventfd: the worker → event-loop wakeup. Workers
/// `signal()` after publishing a completion; the loop wakes from
/// `epoll_wait` and `drain()`s the counter.
pub struct EventFd {
    fd: RawFd,
}

impl EventFd {
    /// Creates a nonblocking, cloexec eventfd with a zero counter.
    pub fn new() -> io::Result<EventFd> {
        let fd = unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(EventFd { fd })
    }

    /// The underlying fd, for epoll registration.
    pub fn raw(&self) -> RawFd {
        self.fd
    }

    /// Adds 1 to the counter, waking any `epoll_wait` on it. `EAGAIN`
    /// (counter saturated — the loop is already overdue to wake) is
    /// deliberately ignored.
    pub fn signal(&self) {
        let one: u64 = 1;
        unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
    }

    /// Resets the counter so the readiness edge clears.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        unsafe { read(self.fd, buf.as_mut_ptr(), 8) };
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn eventfd_signal_wakes_epoll() {
        let ep = Epoll::new().unwrap();
        let ev = EventFd::new().unwrap();
        ep.add(ev.raw(), 7, EPOLLIN).unwrap();
        let mut events = [EpollEvent { events: 0, data: 0 }; 4];
        // Nothing signaled: the wait times out empty.
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
        ev.signal();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let (got_events, got_data) = (events[0].events, events[0].data);
        assert_eq!(got_data, 7);
        assert_ne!(got_events & EPOLLIN, 0);
        // Draining clears readiness (level-triggered).
        ev.drain();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn socket_readiness_and_interest_modification() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let ep = Epoll::new().unwrap();
        ep.add(server.as_raw_fd(), 42, EPOLLIN).unwrap();
        let mut events = [EpollEvent { events: 0, data: 0 }; 4];
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "no data yet");

        client.write_all(b"x").unwrap();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!({ events[0].data }, 42);

        // Swap interest to write-only: the pending byte stops reporting,
        // the idle socket reports writable.
        ep.modify(server.as_raw_fd(), 42, EPOLLOUT).unwrap();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let got = events[0].events;
        assert_ne!(got & EPOLLOUT, 0);
        assert_eq!(got & EPOLLIN, 0);

        ep.delete(server.as_raw_fd());
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);

        let mut server_blocking = server;
        server_blocking.set_nonblocking(false).unwrap();
        let mut b = [0u8; 1];
        server_blocking.read_exact(&mut b).unwrap();
        assert_eq!(&b, b"x");
    }
}
