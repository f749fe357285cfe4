//! Batched UDP socket I/O — the syscall amortization layer.
//!
//! Per-packet `sendto`/`recvfrom` is the transport plane's dominant
//! cost at scale: one user/kernel crossing per 34-byte datagram. Linux
//! amortizes it with `sendmmsg(2)`/`recvmmsg(2)` — one syscall moves up
//! to [`BATCH`] datagrams. This module hides that behind the
//! [`IoBatcher`] trait:
//!
//! * [`MmsgIo`] (Linux, 64-bit) drives the socket through hand-rolled
//!   `extern "C"` bindings to glibc's `sendmmsg`/`recvmmsg` — the
//!   workspace deliberately has no `libc` crate, and std links glibc
//!   anyway, so the two symbols and three `#[repr(C)]` structs are
//!   declared here (x86-64 layout, pinned by tests);
//! * [`PerPacketIo`] is the portable fallback: the exact same contract
//!   over one-datagram `send_to`/`recv_from` loops, so everything above
//!   this trait runs unchanged off-Linux — and so the batching speedup
//!   can be *measured* as batched-vs-fallback on the same machine.
//!
//! Both implementations count syscalls and datagrams ([`IoCounters`]);
//! syscalls-per-packet is what the tier-1 load test's ≥ 8× batching
//! floor and the benchmark's `transport.syscalls_per_pkt` read.
//! Sockets are switched to non-blocking: pacing sleeps belong to the
//! caller's timer plane, not to read timeouts.
//!
//! The FFI module is the only `unsafe` in the workspace; the crate root
//! is `#![deny(unsafe_code)]` with a scoped `allow` here, and CI's Miri
//! job does not cover it — instead the fallback path provides a
//! behavioural oracle (the tier-1 load test runs both paths and
//! requires identical ledgers and byte-identical deterministic
//! snapshots).

use std::io;
use std::net::{SocketAddr, UdpSocket};

/// Datagrams per batched syscall (`vlen` for `{send,recv}mmsg`, and the
/// fallback's per-call packet budget, so both paths do the same work
/// per [`IoBatcher`] call).
pub const BATCH: usize = 64;

/// Largest datagram the receive path accepts without truncation. Paper
/// packets are 1400-byte payloads + 34-byte headers; 2 KiB leaves room.
pub const MAX_DATAGRAM: usize = 2048;

/// Which I/O backend to drive a socket with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoMode {
    /// `sendmmsg`/`recvmmsg` batches. On platforms without the syscalls
    /// this silently degrades to the fallback ([`IoBatcher::backend`]
    /// reports what actually runs).
    Batched,
    /// One datagram per syscall — the portable baseline.
    PerPacket,
}

impl IoMode {
    /// The best mode this platform supports.
    #[must_use]
    pub fn auto() -> Self {
        if cfg!(all(target_os = "linux", target_pointer_width = "64")) {
            IoMode::Batched
        } else {
            IoMode::PerPacket
        }
    }
}

/// One datagram queued for a batched send.
#[derive(Debug, Clone)]
pub struct OutPacket {
    /// Destination address (batchers drive unconnected sockets).
    pub to: SocketAddr,
    /// Wire bytes.
    pub bytes: Vec<u8>,
}

/// Syscall/datagram accounting, owned by the batcher's thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct IoCounters {
    /// Send-side syscalls issued (`sendmmsg` or `send_to`).
    pub send_calls: u64,
    /// Receive-side syscalls issued, including the final empty poll of
    /// each drain (`recvmmsg` or `recv_from`).
    pub recv_calls: u64,
    /// Datagrams handed to the kernel.
    pub sent_pkts: u64,
    /// Datagrams read from the kernel.
    pub recvd_pkts: u64,
    /// Datagrams the kernel refused (full socket buffer, transient
    /// errors). UDP semantics: indistinguishable from wire loss, so
    /// callers recover through their ordinary retransmission path.
    pub send_failed: u64,
}

impl IoCounters {
    /// Total syscalls across both directions.
    #[must_use]
    pub fn syscalls(&self) -> u64 {
        self.send_calls + self.recv_calls
    }

    /// Total datagrams moved across both directions.
    #[must_use]
    pub fn packets(&self) -> u64 {
        self.sent_pkts + self.recvd_pkts
    }

    /// Syscalls per datagram moved (`NaN`-free: 0 packets → 0.0).
    #[must_use]
    pub fn syscalls_per_packet(&self) -> f64 {
        let pkts = self.packets();
        if pkts == 0 {
            return 0.0;
        }
        self.syscalls() as f64 / pkts as f64
    }

    /// Field-wise sum, for aggregating per-shard counters.
    #[must_use]
    pub fn merged(&self, other: &IoCounters) -> IoCounters {
        IoCounters {
            send_calls: self.send_calls + other.send_calls,
            recv_calls: self.recv_calls + other.recv_calls,
            sent_pkts: self.sent_pkts + other.sent_pkts,
            recvd_pkts: self.recvd_pkts + other.recvd_pkts,
            send_failed: self.send_failed + other.send_failed,
        }
    }
}

/// A socket driver moving datagrams in batches. One instance per
/// socket, owned by one thread.
pub trait IoBatcher: Send {
    /// The driven socket's bound address.
    ///
    /// # Errors
    /// Propagates `getsockname` failures.
    fn local_addr(&self) -> io::Result<SocketAddr>;

    /// Which backend actually runs: `"mmsg"` or `"per-packet"`.
    fn backend(&self) -> &'static str;

    /// Sends every queued packet, draining `out`. Datagrams the kernel
    /// refuses are dropped and counted ([`IoCounters::send_failed`]) —
    /// UDP loss semantics, recovered by retransmission. Returns how
    /// many datagrams were handed to the kernel.
    ///
    /// # Errors
    /// Propagates only hard socket errors (the socket is gone);
    /// `WouldBlock`-class conditions are absorbed into `send_failed`.
    fn send_batch(&mut self, out: &mut Vec<OutPacket>) -> io::Result<usize>;

    /// Drains readable datagrams into `sink`, at most [`BATCH`] of
    /// them, returning how many arrived. Callers loop while the return
    /// value equals [`BATCH`] to drain a deeper backlog.
    ///
    /// # Errors
    /// Propagates only hard socket errors; an empty socket returns 0.
    fn recv_batch(
        &mut self,
        sink: &mut dyn FnMut(&[u8], SocketAddr),
    ) -> io::Result<usize>;

    /// Accounting snapshot.
    fn counters(&self) -> IoCounters;
}

/// Kernel socket buffer request (each direction) for batcher-driven
/// sockets. A shard multiplexing thousands of flows can burst far past
/// the ~208 KiB default before its loop drains; the kernel clamps the
/// request to `net.core.{r,w}mem_max`, and failures are ignored —
/// undersized buffers just surface as recoverable UDP loss.
const SOCKET_BUFFER_BYTES: i32 = 4 << 20;

/// Wraps `socket` in the batcher for `mode`. The socket is switched to
/// non-blocking — pacing belongs to the caller's timer plane. On Linux
/// the kernel buffers are grown (best-effort) to
/// [`SOCKET_BUFFER_BYTES`] for **both** backends, so batched-vs-fallback
/// comparisons isolate syscall batching, not buffer sizing.
///
/// # Errors
/// Propagates `set_nonblocking` failures.
pub fn batcher_for(socket: UdpSocket, mode: IoMode) -> io::Result<Box<dyn IoBatcher>> {
    socket.set_nonblocking(true)?;
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    mmsg::tune_buffers(&socket, SOCKET_BUFFER_BYTES);
    match mode {
        #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
        IoMode::Batched => Ok(Box::new(mmsg::MmsgIo::new(socket))),
        #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
        IoMode::Batched => Ok(Box::new(PerPacketIo::new(socket))),
        IoMode::PerPacket => Ok(Box::new(PerPacketIo::new(socket))),
    }
}

/// Whether an I/O error means "no data / try later" rather than a dead
/// socket.
fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

/// The portable one-datagram-per-syscall fallback.
pub struct PerPacketIo {
    socket: UdpSocket,
    counters: IoCounters,
    buf: Box<[u8; MAX_DATAGRAM]>,
}

impl PerPacketIo {
    /// Wraps a (non-blocking) socket.
    #[must_use]
    pub fn new(socket: UdpSocket) -> Self {
        Self {
            socket,
            counters: IoCounters::default(),
            buf: Box::new([0u8; MAX_DATAGRAM]),
        }
    }
}

impl IoBatcher for PerPacketIo {
    fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    fn backend(&self) -> &'static str {
        "per-packet"
    }

    fn send_batch(&mut self, out: &mut Vec<OutPacket>) -> io::Result<usize> {
        let mut sent = 0usize;
        for pkt in out.drain(..) {
            self.counters.send_calls += 1;
            match self.socket.send_to(&pkt.bytes, pkt.to) {
                Ok(_) => {
                    self.counters.sent_pkts += 1;
                    sent += 1;
                }
                Err(e) if is_transient(&e) => self.counters.send_failed += 1,
                Err(e) => return Err(e),
            }
        }
        Ok(sent)
    }

    fn recv_batch(
        &mut self,
        sink: &mut dyn FnMut(&[u8], SocketAddr),
    ) -> io::Result<usize> {
        let mut got = 0usize;
        while got < BATCH {
            self.counters.recv_calls += 1;
            match self.socket.recv_from(&mut self.buf[..]) {
                Ok((n, src)) => {
                    self.counters.recvd_pkts += 1;
                    got += 1;
                    sink(&self.buf[..n], src);
                }
                Err(e) if is_transient(&e) => break,
                Err(e) => return Err(e),
            }
        }
        Ok(got)
    }

    fn counters(&self) -> IoCounters {
        self.counters
    }
}

/// `sendmmsg`/`recvmmsg` bindings and the batcher built on them.
///
/// The workspace intentionally carries no `libc` dependency; std links
/// glibc, which exports both symbols, so they are declared directly.
/// Struct layouts are the x86-64 Linux ABI (`#[repr(C)]` reproduces
/// glibc's padding); `layout_matches_abi` pins the sizes. IPv4 only —
/// the whole testbed runs on loopback — with a per-packet fallback for
/// any non-IPv4 destination.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[allow(unsafe_code)]
mod mmsg {
    use super::{is_transient, IoBatcher, IoCounters, OutPacket, BATCH, MAX_DATAGRAM};
    use std::io;
    use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
    use std::os::fd::AsRawFd;

    const AF_INET: u16 = 2;
    /// `SOL_SOCKET` on Linux.
    const SOL_SOCKET: i32 = 1;
    /// `SO_SNDBUF` / `SO_RCVBUF` option names (Linux generic ABI).
    const SO_SNDBUF: i32 = 7;
    const SO_RCVBUF: i32 = 8;

    extern "C" {
        fn setsockopt(fd: i32, level: i32, optname: i32, optval: *const u8, optlen: u32) -> i32;
    }

    /// Best-effort kernel buffer sizing, both directions. The kernel
    /// clamps the request to `net.core.{r,w}mem_max`; errors are
    /// swallowed because an undersized buffer is just UDP loss, which
    /// the transport already recovers from.
    pub fn tune_buffers(socket: &UdpSocket, bytes: i32) {
        for opt in [SO_RCVBUF, SO_SNDBUF] {
            // SAFETY: `optval` points at a live i32 for the duration of
            // the call and `optlen` matches its size exactly.
            let _ = unsafe {
                setsockopt(
                    socket.as_raw_fd(),
                    SOL_SOCKET,
                    opt,
                    std::ptr::from_ref(&bytes).cast(),
                    u32::try_from(std::mem::size_of::<i32>()).unwrap_or(4),
                )
            };
        }
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct SockAddrIn {
        family: u16,
        /// Big-endian on the wire, as the kernel expects.
        port_be: u16,
        /// Big-endian IPv4 address.
        addr_be: u32,
        zero: [u8; 8],
    }

    impl SockAddrIn {
        const ZEROED: SockAddrIn = SockAddrIn {
            family: 0,
            port_be: 0,
            addr_be: 0,
            zero: [0; 8],
        };

        fn from_v4(a: &SocketAddrV4) -> Self {
            SockAddrIn {
                family: AF_INET,
                port_be: a.port().to_be(),
                addr_be: u32::from(*a.ip()).to_be(),
                zero: [0; 8],
            }
        }

        fn to_socket_addr(self) -> Option<SocketAddr> {
            (self.family == AF_INET).then(|| {
                SocketAddr::V4(SocketAddrV4::new(
                    Ipv4Addr::from(u32::from_be(self.addr_be)),
                    u16::from_be(self.port_be),
                ))
            })
        }
    }

    #[repr(C)]
    struct IoVec {
        base: *mut u8,
        len: usize,
    }

    #[repr(C)]
    struct MsgHdr {
        name: *mut SockAddrIn,
        namelen: u32,
        iov: *mut IoVec,
        iovlen: usize,
        control: *mut u8,
        controllen: usize,
        flags: i32,
    }

    #[repr(C)]
    struct MMsgHdr {
        hdr: MsgHdr,
        len: u32,
    }

    extern "C" {
        fn sendmmsg(fd: i32, msgvec: *mut MMsgHdr, vlen: u32, flags: i32) -> i32;
        fn recvmmsg(
            fd: i32,
            msgvec: *mut MMsgHdr,
            vlen: u32,
            flags: i32,
            timeout: *mut u8,
        ) -> i32;
    }

    /// The batched driver: reusable address/iovec/header arrays so a
    /// steady-state batch allocates nothing.
    pub struct MmsgIo {
        socket: UdpSocket,
        counters: IoCounters,
        /// Receive payload slots, one [`MAX_DATAGRAM`] buffer each.
        rbufs: Vec<Box<[u8; MAX_DATAGRAM]>>,
        addrs: Vec<SockAddrIn>,
        iovecs: Vec<IoVec>,
        hdrs: Vec<MMsgHdr>,
    }

    // SAFETY: the raw pointers inside `iovecs`/`hdrs` are only ever
    // written and read within a single `send_batch`/`recv_batch` call on
    // the owning thread; between calls they are dangling-but-unused.
    // All pointed-to storage (`rbufs`, `addrs`, caller buffers) moves
    // with the struct or outlives the call.
    unsafe impl Send for MmsgIo {}

    impl MmsgIo {
        pub fn new(socket: UdpSocket) -> Self {
            Self {
                socket,
                counters: IoCounters::default(),
                rbufs: (0..BATCH).map(|_| Box::new([0u8; MAX_DATAGRAM])).collect(),
                addrs: vec![SockAddrIn::ZEROED; BATCH],
                iovecs: Vec::with_capacity(BATCH),
                hdrs: Vec::with_capacity(BATCH),
            }
        }

        /// Issues one `sendmmsg` for `chunk` (all IPv4, ≤ [`BATCH`]).
        fn send_chunk(&mut self, chunk: &mut [(SockAddrIn, &OutPacket)]) -> io::Result<usize> {
            self.iovecs.clear();
            self.hdrs.clear();
            for (addr, pkt) in chunk.iter_mut() {
                self.iovecs.push(IoVec {
                    base: pkt.bytes.as_ptr().cast_mut(),
                    len: pkt.bytes.len(),
                });
                self.hdrs.push(MMsgHdr {
                    hdr: MsgHdr {
                        name: std::ptr::from_mut(addr),
                        namelen: u32::try_from(std::mem::size_of::<SockAddrIn>())
                            .unwrap_or(16),
                        iov: std::ptr::null_mut(),
                        iovlen: 1,
                        control: std::ptr::null_mut(),
                        controllen: 0,
                        flags: 0,
                    },
                    len: 0,
                });
            }
            // Wire the iovec pointers after the pushes: `Vec` growth
            // above would have invalidated earlier elements' addresses.
            for (i, h) in self.hdrs.iter_mut().enumerate() {
                h.hdr.iov = &mut self.iovecs[i];
            }
            let vlen = u32::try_from(self.hdrs.len()).unwrap_or(0);
            self.counters.send_calls += 1;
            // SAFETY: `hdrs` holds `vlen` fully initialized mmsghdr
            // entries; every name/iov pointer targets storage that
            // outlives this call (`chunk` and `self.iovecs`).
            let rc = unsafe {
                sendmmsg(self.socket.as_raw_fd(), self.hdrs.as_mut_ptr(), vlen, 0)
            };
            if rc < 0 {
                let e = io::Error::last_os_error();
                if is_transient(&e) {
                    self.counters.send_failed += chunk.len() as u64;
                    return Ok(0);
                }
                return Err(e);
            }
            let sent = usize::try_from(rc).unwrap_or(0);
            self.counters.sent_pkts += sent as u64;
            // A partial send means the kernel refused the tail (full
            // socket buffer): UDP loss semantics, count and move on.
            self.counters.send_failed += (chunk.len() - sent) as u64;
            Ok(sent)
        }
    }

    impl IoBatcher for MmsgIo {
        fn local_addr(&self) -> io::Result<SocketAddr> {
            self.socket.local_addr()
        }

        fn backend(&self) -> &'static str {
            "mmsg"
        }

        fn send_batch(&mut self, out: &mut Vec<OutPacket>) -> io::Result<usize> {
            let mut sent = 0usize;
            let packets = std::mem::take(out);
            let mut chunk: Vec<(SockAddrIn, &OutPacket)> = Vec::with_capacity(BATCH);
            for pkt in &packets {
                match pkt.to {
                    SocketAddr::V4(v4) => chunk.push((SockAddrIn::from_v4(&v4), pkt)),
                    SocketAddr::V6(_) => {
                        // Off the fast path; the testbed is IPv4-only.
                        self.counters.send_calls += 1;
                        match self.socket.send_to(&pkt.bytes, pkt.to) {
                            Ok(_) => {
                                self.counters.sent_pkts += 1;
                                sent += 1;
                            }
                            Err(e) if is_transient(&e) => self.counters.send_failed += 1,
                            Err(e) => return Err(e),
                        }
                        continue;
                    }
                }
                if chunk.len() == BATCH {
                    sent += self.send_chunk(&mut chunk)?;
                    chunk.clear();
                }
            }
            if !chunk.is_empty() {
                sent += self.send_chunk(&mut chunk)?;
            }
            *out = packets;
            out.clear();
            Ok(sent)
        }

        fn recv_batch(
            &mut self,
            sink: &mut dyn FnMut(&[u8], SocketAddr),
        ) -> io::Result<usize> {
            self.iovecs.clear();
            self.hdrs.clear();
            for i in 0..BATCH {
                self.addrs[i] = SockAddrIn::ZEROED;
                self.iovecs.push(IoVec {
                    base: self.rbufs[i].as_mut_ptr(),
                    len: MAX_DATAGRAM,
                });
            }
            for i in 0..BATCH {
                self.hdrs.push(MMsgHdr {
                    hdr: MsgHdr {
                        name: &mut self.addrs[i],
                        namelen: u32::try_from(std::mem::size_of::<SockAddrIn>())
                            .unwrap_or(16),
                        iov: &mut self.iovecs[i],
                        iovlen: 1,
                        control: std::ptr::null_mut(),
                        controllen: 0,
                        flags: 0,
                    },
                    len: 0,
                });
            }
            let vlen = u32::try_from(BATCH).unwrap_or(0);
            self.counters.recv_calls += 1;
            // SAFETY: `hdrs` holds `vlen` initialized entries whose
            // name/iov pointers target `self.addrs`/`self.rbufs`, both
            // alive for the whole call; the socket is non-blocking so
            // a null timeout cannot hang.
            let rc = unsafe {
                recvmmsg(
                    self.socket.as_raw_fd(),
                    self.hdrs.as_mut_ptr(),
                    vlen,
                    0,
                    std::ptr::null_mut(),
                )
            };
            if rc < 0 {
                let e = io::Error::last_os_error();
                if is_transient(&e) {
                    return Ok(0);
                }
                return Err(e);
            }
            let got = usize::try_from(rc).unwrap_or(0);
            self.counters.recvd_pkts += got as u64;
            for i in 0..got {
                let n = usize::try_from(self.hdrs[i].len)
                    .unwrap_or(0)
                    .min(MAX_DATAGRAM);
                if let Some(src) = self.addrs[i].to_socket_addr() {
                    sink(&self.rbufs[i][..n], src);
                }
            }
            Ok(got)
        }

        fn counters(&self) -> IoCounters {
            self.counters
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn layout_matches_abi() {
            // glibc x86-64: sockaddr_in 16, iovec 16, msghdr 56,
            // mmsghdr 64. A drift here corrupts every batch.
            assert_eq!(std::mem::size_of::<SockAddrIn>(), 16);
            assert_eq!(std::mem::size_of::<IoVec>(), 16);
            assert_eq!(std::mem::size_of::<MsgHdr>(), 56);
            assert_eq!(std::mem::size_of::<MMsgHdr>(), 64);
        }

        #[test]
        fn sockaddr_round_trips() {
            let v4 = SocketAddrV4::new(Ipv4Addr::new(127, 0, 0, 1), 47_123);
            let raw = SockAddrIn::from_v4(&v4);
            assert_eq!(raw.to_socket_addr(), Some(SocketAddr::V4(v4)));
            assert_eq!(SockAddrIn::ZEROED.to_socket_addr(), None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (UdpSocket, UdpSocket) {
        let a = UdpSocket::bind("127.0.0.1:0").expect("bind a");
        let b = UdpSocket::bind("127.0.0.1:0").expect("bind b");
        (a, b)
    }

    fn roundtrip(mode_tx: IoMode, mode_rx: IoMode) {
        let (a, b) = pair();
        let b_addr = b.local_addr().expect("addr");
        let mut tx = batcher_for(a, mode_tx).expect("tx batcher");
        let mut rx = batcher_for(b, mode_rx).expect("rx batcher");

        let n = 150usize; // > 2 full batches
        let mut out: Vec<OutPacket> = (0..n)
            .map(|i| OutPacket {
                to: b_addr,
                bytes: vec![u8::try_from(i % 251).unwrap_or(0); 64],
            })
            .collect();
        let sent = tx.send_batch(&mut out).expect("send");
        assert!(out.is_empty(), "send_batch must drain the queue");
        assert_eq!(sent, n, "loopback should take the whole burst");

        // Drain with retries: loopback delivery is fast but not instant.
        let mut got = Vec::new();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        while got.len() < n && std::time::Instant::now() < deadline {
            let before = got.len();
            rx.recv_batch(&mut |bytes, src| {
                assert_eq!(bytes.len(), 64);
                got.push((bytes[0], src));
            })
            .expect("recv");
            if got.len() == before {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        assert_eq!(got.len(), n, "lost datagrams on loopback");
        let tx_local = tx.local_addr().expect("local");
        assert!(got.iter().all(|(_, src)| *src == tx_local), "src addr wrong");

        let tc = tx.counters();
        let rc = rx.counters();
        assert_eq!(tc.sent_pkts, n as u64);
        assert_eq!(rc.recvd_pkts, n as u64);
        assert_eq!(tc.send_failed, 0);
        match mode_tx {
            IoMode::Batched if cfg!(all(target_os = "linux", target_pointer_width = "64")) => {
                assert_eq!(tx.backend(), "mmsg");
                assert_eq!(tc.send_calls, 3, "150 pkts = 64+64+22 → 3 sendmmsg");
            }
            _ => assert_eq!(tc.send_calls, n as u64),
        }
        if rx.backend() == "mmsg" {
            assert!(
                rc.recv_calls < n as u64 / 4,
                "batched recv used {} syscalls for {n} packets",
                rc.recv_calls
            );
        }
    }

    #[test]
    fn batched_roundtrip_moves_every_datagram() {
        roundtrip(IoMode::Batched, IoMode::Batched);
    }

    #[test]
    fn fallback_roundtrip_moves_every_datagram() {
        roundtrip(IoMode::PerPacket, IoMode::PerPacket);
    }

    #[test]
    fn mixed_modes_interoperate() {
        roundtrip(IoMode::Batched, IoMode::PerPacket);
        roundtrip(IoMode::PerPacket, IoMode::Batched);
    }

    #[test]
    fn empty_socket_recv_returns_zero() {
        let (a, _b) = pair();
        let mut rx = batcher_for(a, IoMode::auto()).expect("batcher");
        let got = rx
            .recv_batch(&mut |_, _| panic!("nothing was sent"))
            .expect("recv");
        assert_eq!(got, 0);
        assert_eq!(rx.counters().recv_calls, 1, "the empty poll still counts");
    }

    #[test]
    fn auto_mode_picks_the_platform_best() {
        let (a, _b) = pair();
        let tx = batcher_for(a, IoMode::auto()).expect("batcher");
        if cfg!(all(target_os = "linux", target_pointer_width = "64")) {
            assert_eq!(tx.backend(), "mmsg");
        } else {
            assert_eq!(tx.backend(), "per-packet");
        }
    }

    #[test]
    fn syscalls_per_packet_is_nan_free() {
        assert_eq!(IoCounters::default().syscalls_per_packet(), 0.0);
        let c = IoCounters {
            send_calls: 2,
            recv_calls: 2,
            sent_pkts: 64,
            recvd_pkts: 64,
            send_failed: 0,
        };
        assert!((c.syscalls_per_packet() - 4.0 / 128.0).abs() < 1e-12);
        let m = c.merged(&c);
        assert_eq!(m.packets(), 256);
        assert_eq!(m.syscalls(), 8);
    }
}
