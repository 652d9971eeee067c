//! OS readiness polling behind one tiny interface, with no external
//! crates: std already links libc, so the two syscall families the
//! reactor needs are declared directly.
//!
//! - Linux: `epoll` (level-triggered — simpler invariants than
//!   edge-triggered, and the reactor disarms read interest while a frame
//!   is dispatched so level-triggering cannot busy-loop);
//! - other unix: `poll(2)` over a registration table rebuilt per wait —
//!   O(n) per wake, fine for the connection counts a dev laptop sees.
//!
//! The interface is intentionally minimal: register/modify/deregister an
//! fd with read/write interest and a `u64` token, then `wait` for
//! [`Event`]s. Error and hangup conditions are folded into `readable` so
//! the connection state machine discovers them through an ordinary
//! zero-byte read — one error path, not three. Write readiness needs no
//! flag of its own: any event for a token makes the reactor flush it.

use std::io;
use std::os::fd::RawFd;

/// One readiness notification.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    pub(crate) token: u64,
    pub(crate) readable: bool,
}

/// What a registered fd should be watched for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interest {
    pub(crate) read: bool,
    pub(crate) write: bool,
}

impl Interest {
    pub(crate) const READ: Interest = Interest { read: true, write: false };
}

#[cfg(all(unix, not(target_os = "linux")))]
pub(crate) use fallback::Poller;
#[cfg(target_os = "linux")]
pub(crate) use linux::Poller;

#[cfg(target_os = "linux")]
mod linux {
    use super::{Event, Interest};
    use std::io;
    use std::os::fd::{FromRawFd, OwnedFd, RawFd};
    use std::time::Duration;

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0o2000000;

    /// Mirrors `struct epoll_event`. The kernel ABI packs it on x86-64
    /// (12 bytes); other architectures use natural alignment.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    }

    pub(crate) struct Poller {
        /// Owned so the epoll fd closes on drop without a direct
        /// `close(2)` declaration.
        epfd: OwnedFd,
        buf: Vec<EpollEvent>,
    }

    impl Poller {
        pub(crate) fn new() -> io::Result<Poller> {
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller {
                epfd: unsafe { OwnedFd::from_raw_fd(fd) },
                buf: vec![EpollEvent { events: 0, data: 0 }; 512],
            })
        }

        fn ctl(&mut self, op: i32, fd: RawFd, ev: Option<EpollEvent>) -> io::Result<()> {
            use std::os::fd::AsRawFd;
            let mut ev = ev.unwrap_or(EpollEvent { events: 0, data: 0 });
            let rc = unsafe { epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub(crate) fn register(
            &mut self,
            fd: RawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, Some(Self::event(token, interest)))
        }

        pub(crate) fn modify(
            &mut self,
            fd: RawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, Some(Self::event(token, interest)))
        }

        pub(crate) fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, None)
        }

        pub(crate) fn wait(
            &mut self,
            timeout: Option<Duration>,
            out: &mut Vec<Event>,
        ) -> io::Result<()> {
            use std::os::fd::AsRawFd;
            let ms: i32 = match timeout {
                // Round up so a 200µs hint does not busy-spin at 0ms.
                Some(d) => d
                    .as_millis()
                    .saturating_add(u128::from(d.subsec_nanos() % 1_000_000 != 0))
                    .min(i32::MAX as u128) as i32,
                None => -1,
            };
            let n = loop {
                let rc = unsafe {
                    epoll_wait(
                        self.epfd.as_raw_fd(),
                        self.buf.as_mut_ptr(),
                        self.buf.len() as i32,
                        ms,
                    )
                };
                if rc >= 0 {
                    break rc as usize;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            for ev in &self.buf[..n] {
                // Copy out of the (possibly packed) struct before use;
                // references into packed fields are UB.
                let bits = ev.events;
                let token = ev.data;
                let gone = bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0;
                out.push(Event {
                    token,
                    // Fold errors/hangups into readability so the state
                    // machine discovers them via read() == 0 / Err.
                    readable: bits & EPOLLIN != 0 || gone,
                });
            }
            Ok(())
        }

        fn event(token: u64, interest: Interest) -> EpollEvent {
            let mut bits = 0u32;
            if interest.read {
                bits |= EPOLLIN | EPOLLRDHUP;
            }
            if interest.write {
                bits |= EPOLLOUT;
            }
            EpollEvent { events: bits, data: token }
        }
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod fallback {
    use super::{Event, Interest};
    use std::collections::BTreeMap;
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: usize, timeout: i32) -> i32;
    }

    pub(crate) struct Poller {
        registry: BTreeMap<RawFd, (u64, Interest)>,
    }

    impl Poller {
        pub(crate) fn new() -> io::Result<Poller> {
            Ok(Poller { registry: BTreeMap::new() })
        }

        pub(crate) fn register(
            &mut self,
            fd: RawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            self.registry.insert(fd, (token, interest));
            Ok(())
        }

        pub(crate) fn modify(
            &mut self,
            fd: RawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            self.registry.insert(fd, (token, interest));
            Ok(())
        }

        pub(crate) fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.registry.remove(&fd);
            Ok(())
        }

        pub(crate) fn wait(
            &mut self,
            timeout: Option<Duration>,
            out: &mut Vec<Event>,
        ) -> io::Result<()> {
            let mut fds: Vec<PollFd> = self
                .registry
                .iter()
                .map(|(&fd, &(_, interest))| PollFd {
                    fd,
                    events: if interest.read { POLLIN } else { 0 }
                        | if interest.write { POLLOUT } else { 0 },
                    revents: 0,
                })
                .collect();
            let ms: i32 = match timeout {
                Some(d) => d
                    .as_millis()
                    .saturating_add(u128::from(d.subsec_nanos() % 1_000_000 != 0))
                    .min(i32::MAX as u128) as i32,
                None => -1,
            };
            let n = loop {
                let rc = unsafe { poll(fds.as_mut_ptr(), fds.len(), ms) };
                if rc >= 0 {
                    break rc;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            if n == 0 {
                return Ok(());
            }
            for pfd in &fds {
                if pfd.revents == 0 {
                    continue;
                }
                let (token, _) = self.registry[&pfd.fd];
                let gone = pfd.revents & (POLLERR | POLLHUP) != 0;
                out.push(Event { token, readable: pfd.revents & POLLIN != 0 || gone });
            }
            Ok(())
        }
    }
}

/// Shared helper: the self-pipe waker pair. A `UnixStream` pair stands in
/// for `pipe(2)` (no extra FFI needed); both ends are non-blocking so a
/// full pipe never blocks a waker and the reactor's drain never spins.
pub(crate) fn waker_pair(
) -> io::Result<(std::os::unix::net::UnixStream, std::os::unix::net::UnixStream)> {
    let (a, b) = std::os::unix::net::UnixStream::pair()?;
    a.set_nonblocking(true)?;
    b.set_nonblocking(true)?;
    Ok((a, b))
}

/// Raw-fd view used by the reactor when registering sockets.
pub(crate) fn raw_fd<T: std::os::fd::AsRawFd>(t: &T) -> RawFd {
    t.as_raw_fd()
}

/// Re-issue `listen(2)` on a bound listener with an explicit accept-queue
/// length. std picks its own backlog at bind time; a barrier-synchronized
/// burst of connects beyond it is refused or reset before the reactor
/// ever sees it. Linux accepts `listen` on a listening socket and only
/// updates the queue length (capped by `net.core.somaxconn`).
pub(crate) fn set_listen_backlog(listener: &std::net::TcpListener, backlog: i32) -> io::Result<()> {
    extern "C" {
        fn listen(fd: i32, backlog: i32) -> i32;
    }
    // SAFETY: `listen` takes a plain fd and an int; the fd is owned by
    // `listener`, which outlives the call.
    if unsafe { listen(raw_fd(listener), backlog) } < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::time::Duration;

    #[test]
    fn waker_roundtrip_through_the_poller() {
        let mut p = Poller::new().unwrap();
        let (rx, tx) = waker_pair().unwrap();
        p.register(raw_fd(&rx), 42, Interest::READ).unwrap();

        // Nothing pending: a short wait times out with no events.
        let mut events = Vec::new();
        p.wait(Some(Duration::from_millis(20)), &mut events).unwrap();
        assert!(events.is_empty());

        (&tx).write_all(&[1]).unwrap();
        p.wait(Some(Duration::from_secs(5)), &mut events).unwrap();
        assert!(events.iter().any(|e| e.token == 42 && e.readable), "waker byte must wake");

        // Drain, then dormant interest must silence further wakes.
        let mut sink = [0u8; 8];
        let _ = (&rx).read(&mut sink).unwrap();
        p.modify(raw_fd(&rx), 42, Interest { read: false, write: false }).unwrap();
        (&tx).write_all(&[1]).unwrap();
        events.clear();
        p.wait(Some(Duration::from_millis(20)), &mut events).unwrap();
        assert!(
            events.iter().all(|e| !e.readable || e.token != 42),
            "dormant fd reported readable: {events:?}"
        );

        p.deregister(raw_fd(&rx)).unwrap();
    }

    #[test]
    fn listener_accept_readiness() {
        use std::net::{TcpListener, TcpStream};
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();

        let mut p = Poller::new().unwrap();
        p.register(raw_fd(&listener), 7, Interest::READ).unwrap();

        let _client = TcpStream::connect(addr).unwrap();
        let mut events = Vec::new();
        p.wait(Some(Duration::from_secs(5)), &mut events).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        let (sock, _) = listener.accept().unwrap();
        drop(sock);
    }
}
