//! Socket transport for the fabric: endpoint addressing, the
//! coordinator-side listener, the worker-side connector, and length-prefixed
//! frame I/O with byte/frame accounting.
//!
//! Two backends share one [`ShardTransport`]: TCP (with `TCP_NODELAY`,
//! for cross-host pools) and Unix domain sockets (for co-located worker
//! processes, Unix only). Workers dial **in** to the coordinator's listener
//! — the coordinator binds first (`tcp://127.0.0.1:0` works: the resolved
//! port is in [`FabricListener::local_endpoint`]) and spawns or announces
//! the endpoint to its workers, so worker processes never need a
//! pre-agreed port.
//!
//! A transport optionally carries a [`FaultInjector`]
//! ([`ShardTransport::inject_faults`]): the frame-level entry points
//! [`ShardTransport::send_frame`] / [`ShardTransport::recv_frame`] consult
//! it to kill, corrupt, drop, delay, or stall deterministically — the
//! chaos harness behind the fabric's recovery tests. Without an injector
//! they are exactly [`write_frame`] / [`read_frame`].

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::faults::{FaultInjector, RecvAction, SendAction};
use crate::wire::FRAME_MAX;
use crate::FabricCounters;

/// A fabric address: `tcp://host:port` or `uds:///path/to/socket`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// TCP, `host:port` as accepted by [`std::net::ToSocketAddrs`].
    Tcp(String),
    /// Unix domain socket path (Unix only).
    Uds(PathBuf),
}

impl Endpoint {
    /// Parses `tcp://host:port` or `uds:///path`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description when the scheme is unknown or
    /// the address part is empty.
    pub fn parse(s: &str) -> Result<Self, String> {
        if let Some(addr) = s.strip_prefix("tcp://") {
            if addr.is_empty() {
                return Err(format!("empty tcp address in {s:?}"));
            }
            Ok(Endpoint::Tcp(addr.to_string()))
        } else if let Some(path) = s.strip_prefix("uds://") {
            if path.is_empty() {
                return Err(format!("empty uds path in {s:?}"));
            }
            Ok(Endpoint::Uds(PathBuf::from(path)))
        } else {
            Err(format!("endpoint {s:?} must start with tcp:// or uds://"))
        }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp://{addr}"),
            Endpoint::Uds(path) => write!(f, "uds://{}", path.display()),
        }
    }
}

/// The coordinator's accept socket, one per pool.
#[derive(Debug)]
pub enum FabricListener {
    /// TCP listener.
    Tcp(TcpListener),
    /// Unix-domain listener (Unix only).
    #[cfg(unix)]
    Uds(UnixListener, PathBuf),
}

impl FabricListener {
    /// Binds the listener. For TCP, port `0` asks the OS for an ephemeral
    /// port — read the result back with [`FabricListener::local_endpoint`].
    ///
    /// # Errors
    ///
    /// I/O errors from `bind`, or `Unsupported` for `uds://` off Unix.
    pub fn bind(endpoint: &Endpoint) -> io::Result<Self> {
        match endpoint {
            Endpoint::Tcp(addr) => Ok(FabricListener::Tcp(TcpListener::bind(addr.as_str())?)),
            #[cfg(unix)]
            Endpoint::Uds(path) => {
                // A previous run's socket file would make bind fail with
                // AddrInUse even though nobody is listening.
                let _ = std::fs::remove_file(path);
                Ok(FabricListener::Uds(UnixListener::bind(path)?, path.clone()))
            }
            #[cfg(not(unix))]
            Endpoint::Uds(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix domain sockets are unavailable on this platform",
            )),
        }
    }

    /// The bound address — for TCP this reflects the OS-assigned port.
    ///
    /// # Errors
    ///
    /// I/O errors from `local_addr`.
    pub fn local_endpoint(&self) -> io::Result<Endpoint> {
        match self {
            FabricListener::Tcp(listener) => Ok(Endpoint::Tcp(listener.local_addr()?.to_string())),
            #[cfg(unix)]
            FabricListener::Uds(_, path) => Ok(Endpoint::Uds(path.clone())),
        }
    }

    /// Accepts one worker connection (blocking).
    ///
    /// # Errors
    ///
    /// I/O errors from `accept` or socket-option setup.
    pub fn accept(&self) -> io::Result<ShardTransport> {
        match self {
            FabricListener::Tcp(listener) => {
                let (stream, _) = listener.accept()?;
                // Accepted streams can inherit non-blocking mode from a
                // listener mid `accept_timeout` on some platforms.
                stream.set_nonblocking(false)?;
                stream.set_nodelay(true)?;
                Ok(ShardTransport::from_inner(TransportInner::Tcp(stream)))
            }
            #[cfg(unix)]
            FabricListener::Uds(listener, _) => {
                let (stream, _) = listener.accept()?;
                stream.set_nonblocking(false)?;
                Ok(ShardTransport::from_inner(TransportInner::Uds(stream)))
            }
        }
    }

    /// Accepts one worker connection, giving up after `timeout`.
    ///
    /// # Errors
    ///
    /// `TimedOut` when no worker dialed in before the deadline, otherwise
    /// the same errors as [`FabricListener::accept`].
    pub fn accept_timeout(&self, timeout: std::time::Duration) -> io::Result<ShardTransport> {
        let deadline = std::time::Instant::now() + timeout;
        self.set_nonblocking(true)?;
        let accepted = loop {
            match self.accept() {
                Ok(transport) => break Ok(transport),
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => {
                    if std::time::Instant::now() >= deadline {
                        break Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "no worker connected before the accept deadline",
                        ));
                    }
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                Err(err) => break Err(err),
            }
        };
        self.set_nonblocking(false)?;
        accepted
    }

    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            FabricListener::Tcp(listener) => listener.set_nonblocking(nonblocking),
            #[cfg(unix)]
            FabricListener::Uds(listener, _) => listener.set_nonblocking(nonblocking),
        }
    }
}

#[cfg(unix)]
impl Drop for FabricListener {
    fn drop(&mut self) {
        if let FabricListener::Uds(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Connect attempts [`ShardTransport::connect_retry`] makes at most.
const RETRY_ATTEMPTS: u32 = 40;
/// First backoff sleep; doubles each failed attempt.
const RETRY_BASE: Duration = Duration::from_millis(25);
/// Ceiling on a single backoff sleep (pre-jitter).
const RETRY_MAX_BACKOFF: Duration = Duration::from_millis(500);
/// Hard ceiling on total elapsed time: once past it, no further attempts
/// are made even if some remain.
const RETRY_MAX_ELAPSED: Duration = Duration::from_secs(10);

/// The jittered sleep before connect attempt `attempt` (1-based; attempt 0
/// never sleeps): exponential from [`RETRY_BASE`], capped at
/// [`RETRY_MAX_BACKOFF`], scaled by a factor in `[0.5, 1.5)`.
///
/// The jitter spreads simultaneous worker (re)starts across the backoff
/// window — without it a pool of restarting workers would hammer the
/// coordinator's listener in lockstep. The factor derives deterministically
/// from the process id and the attempt index, so two workers still dial at
/// different times.
fn backoff(attempt: u32) -> Duration {
    let exp = RETRY_BASE.saturating_mul(1u32 << attempt.saturating_sub(1).min(16));
    let capped = exp.min(RETRY_MAX_BACKOFF);
    let mix = crate::faults::splitmix64(u64::from(std::process::id()) ^ u64::from(attempt));
    // Scale by [0.5, 1.5): keep half the backoff as a floor, spread the
    // rest uniformly.
    let factor = 0.5 + (mix >> 11) as f64 / (1u64 << 53) as f64;
    capped.mul_f64(factor)
}

/// The raw socket under a [`ShardTransport`].
#[derive(Debug)]
pub(crate) enum TransportInner {
    /// TCP stream with `TCP_NODELAY` set.
    Tcp(TcpStream),
    /// Unix-domain stream (Unix only).
    #[cfg(unix)]
    Uds(UnixStream),
}

/// One connected coordinator↔worker socket, with an optional fault
/// injector evaluated at the frame layer.
#[derive(Debug)]
pub struct ShardTransport {
    inner: TransportInner,
    faults: Option<FaultInjector>,
}

/// The error a kill fault surfaces: indistinguishable in kind from a real
/// peer reset.
fn killed_error() -> io::Error {
    io::Error::new(io::ErrorKind::ConnectionReset, "fault injection: transport killed")
}

impl ShardTransport {
    pub(crate) fn from_inner(inner: TransportInner) -> Self {
        ShardTransport { inner, faults: None }
    }

    /// Connects to a coordinator endpoint.
    ///
    /// # Errors
    ///
    /// I/O errors from `connect`, or `Unsupported` for `uds://` off Unix.
    pub fn connect(endpoint: &Endpoint) -> io::Result<Self> {
        match endpoint {
            Endpoint::Tcp(addr) => {
                let stream = TcpStream::connect(addr.as_str())?;
                stream.set_nodelay(true)?;
                Ok(ShardTransport::from_inner(TransportInner::Tcp(stream)))
            }
            #[cfg(unix)]
            Endpoint::Uds(path) => {
                Ok(ShardTransport::from_inner(TransportInner::Uds(UnixStream::connect(path)?)))
            }
            #[cfg(not(unix))]
            Endpoint::Uds(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix domain sockets are unavailable on this platform",
            )),
        }
    }

    /// Connects with capped, jittered exponential backoff (40 attempts, 25 ms
    /// doubling to at most 500 ms per sleep, giving up after 10 s) — a
    /// worker process typically races the coordinator's bind, so the first
    /// attempts may be refused. Every attempt after the first counts as a
    /// reconnect in `counters`.
    ///
    /// # Errors
    ///
    /// The last connect error once the attempts or the elapsed-time budget
    /// is exhausted.
    pub fn connect_retry(
        endpoint: &Endpoint,
        counters: Option<&FabricCounters>,
    ) -> io::Result<Self> {
        let started = Instant::now();
        let mut last = None;
        for attempt in 0..RETRY_ATTEMPTS {
            if attempt > 0 {
                if started.elapsed() >= RETRY_MAX_ELAPSED {
                    break;
                }
                if let Some(counters) = counters {
                    counters.reconnects.inc();
                }
                std::thread::sleep(backoff(attempt));
            }
            match ShardTransport::connect(endpoint) {
                Ok(transport) => return Ok(transport),
                Err(err) => last = Some(err),
            }
        }
        Err(last.expect("at least one connect attempt"))
    }

    /// Arms a fault plan on this transport. Frames already exchanged are
    /// not re-counted: the injector's frame indices start at the *next*
    /// frame in each direction.
    pub fn inject_faults(&mut self, injector: FaultInjector) {
        self.faults = Some(injector);
    }

    /// Applies a read+write timeout to the socket (`None` blocks forever).
    /// On the coordinator this bounds how long one peer can stall the pool.
    ///
    /// # Errors
    ///
    /// I/O errors from the socket-option calls.
    pub fn set_io_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match &self.inner {
            TransportInner::Tcp(stream) => {
                stream.set_read_timeout(timeout)?;
                stream.set_write_timeout(timeout)
            }
            #[cfg(unix)]
            TransportInner::Uds(stream) => {
                stream.set_read_timeout(timeout)?;
                stream.set_write_timeout(timeout)
            }
        }
    }

    /// Shuts the socket down in both directions — the peer observes a
    /// reset/EOF exactly as if this process had died.
    pub(crate) fn shutdown(&self) {
        let _ = match &self.inner {
            TransportInner::Tcp(stream) => stream.shutdown(Shutdown::Both),
            #[cfg(unix)]
            TransportInner::Uds(stream) => stream.shutdown(Shutdown::Both),
        };
    }

    /// Writes one frame through the fault injector (when armed). Exactly
    /// [`write_frame`] on a fault-free transport.
    ///
    /// # Errors
    ///
    /// Socket errors, [`write_frame`]'s `InvalidInput`, or a synthetic
    /// `ConnectionReset` when a kill fault fires (the socket is then really
    /// shut down, so the peer sees the crash too).
    pub fn send_frame(&mut self, body: &[u8], counters: Option<&FabricCounters>) -> io::Result<()> {
        let Some(faults) = &mut self.faults else {
            return write_frame(&mut self.inner, body, counters);
        };
        if faults.killed() {
            return Err(killed_error());
        }
        let mut owned = body.to_vec();
        match faults.on_send(&mut owned) {
            SendAction::Deliver => write_frame(&mut self.inner, &owned, counters),
            SendAction::Drop => Ok(()),
            SendAction::Truncate(keep) => {
                // Claim the full length, deliver only a prefix, die: the
                // peer reads an unexpected EOF mid-frame.
                let _ = self.inner.write_all(&(owned.len() as u32).to_le_bytes());
                let _ = self.inner.write_all(&owned[..keep]);
                let _ = self.inner.flush();
                self.shutdown();
                Err(killed_error())
            }
        }
    }

    /// Reads one frame through the fault injector (when armed). Exactly
    /// [`read_frame`] on a fault-free transport.
    ///
    /// # Errors
    ///
    /// Socket errors, [`read_frame`]'s `InvalidData`, a synthetic
    /// `ConnectionReset` on a kill fault, or `TimedOut` when a stall fault
    /// expires.
    pub fn recv_frame(&mut self, counters: Option<&FabricCounters>) -> io::Result<Option<Vec<u8>>> {
        if self.faults.is_none() {
            return read_frame(&mut self.inner, counters);
        }
        if self.faults.as_ref().is_some_and(FaultInjector::killed) {
            return Err(killed_error());
        }
        let Some(mut body) = read_frame(&mut self.inner, counters)? else {
            return Ok(None);
        };
        match self.faults.as_mut().expect("checked above").on_recv(&mut body) {
            RecvAction::Deliver => Ok(Some(body)),
            RecvAction::Kill => {
                self.shutdown();
                Err(killed_error())
            }
            RecvAction::Stall => {
                self.shutdown();
                Err(io::Error::new(io::ErrorKind::TimedOut, "fault injection: peer stalled"))
            }
        }
    }
}

impl Read for TransportInner {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            TransportInner::Tcp(stream) => stream.read(buf),
            #[cfg(unix)]
            TransportInner::Uds(stream) => stream.read(buf),
        }
    }
}

impl Write for TransportInner {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            TransportInner::Tcp(stream) => stream.write(buf),
            #[cfg(unix)]
            TransportInner::Uds(stream) => stream.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            TransportInner::Tcp(stream) => stream.flush(),
            #[cfg(unix)]
            TransportInner::Uds(stream) => stream.flush(),
        }
    }
}

/// Raw byte access bypasses the fault injector (faults are frame-level).
impl Read for ShardTransport {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.inner.read(buf)
    }
}

/// Raw byte access bypasses the fault injector (faults are frame-level).
impl Write for ShardTransport {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Writes one `[u32 LE length][body]` frame.
///
/// # Errors
///
/// `InvalidInput` when the body exceeds [`FRAME_MAX`], otherwise socket
/// errors.
pub fn write_frame(
    w: &mut impl Write,
    body: &[u8],
    counters: Option<&FabricCounters>,
) -> io::Result<()> {
    if body.len() > FRAME_MAX {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame body of {} bytes exceeds FRAME_MAX", body.len()),
        ));
    }
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body)?;
    w.flush()?;
    if let Some(counters) = counters {
        counters.frames.inc();
        counters.bytes.add(4 + body.len() as u64);
    }
    Ok(())
}

/// Reads one frame body. A clean EOF *before any length byte* returns
/// `Ok(None)` (peer closed between messages); EOF mid-frame is
/// `UnexpectedEof`.
///
/// # Errors
///
/// `InvalidData` when the length prefix exceeds [`FRAME_MAX`], otherwise
/// socket errors.
pub fn read_frame(
    r: &mut impl Read,
    counters: Option<&FabricCounters>,
) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    let mut filled = 0;
    while filled < len.len() {
        match r.read(&mut len[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed mid frame header",
                ))
            }
            Ok(n) => filled += n,
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(err) => return Err(err),
        }
    }
    let body_len = u32::from_le_bytes(len) as usize;
    if body_len > FRAME_MAX {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {body_len} exceeds FRAME_MAX"),
        ));
    }
    let mut body = vec![0u8; body_len];
    r.read_exact(&mut body)?;
    if let Some(counters) = counters {
        counters.frames.inc();
        counters.bytes.add(4 + body_len as u64);
    }
    Ok(Some(body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_parse_and_display_roundtrip() {
        for text in ["tcp://127.0.0.1:4000", "uds:///tmp/fabric.sock"] {
            assert_eq!(Endpoint::parse(text).unwrap().to_string(), text);
        }
        assert!(Endpoint::parse("http://x").is_err());
        assert!(Endpoint::parse("tcp://").is_err());
        assert!(Endpoint::parse("uds://").is_err());
    }

    #[test]
    fn tcp_frame_roundtrip_over_localhost() {
        let listener = FabricListener::bind(&Endpoint::parse("tcp://127.0.0.1:0").unwrap())
            .expect("bind ephemeral");
        let endpoint = listener.local_endpoint().unwrap();
        let client = std::thread::spawn(move || {
            let mut transport = ShardTransport::connect(&endpoint).expect("connect");
            write_frame(&mut transport, b"ping", None).unwrap();
            let body = read_frame(&mut transport, None).unwrap().expect("reply");
            assert_eq!(body, b"pong");
            assert!(read_frame(&mut transport, None).unwrap().is_none(), "clean EOF");
        });
        let mut server = listener.accept().expect("accept");
        let body = read_frame(&mut server, None).unwrap().expect("request");
        assert_eq!(body, b"ping");
        write_frame(&mut server, b"pong", None).unwrap();
        drop(server);
        client.join().unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn uds_frame_roundtrip() {
        let path =
            std::env::temp_dir().join(format!("idsbench-fabric-test-{}.sock", std::process::id()));
        let listener = FabricListener::bind(&Endpoint::Uds(path.clone())).expect("bind uds");
        let endpoint = listener.local_endpoint().unwrap();
        let client = std::thread::spawn(move || {
            let mut transport = ShardTransport::connect(&endpoint).expect("connect uds");
            write_frame(&mut transport, &[7u8; 100_000], None).unwrap();
        });
        let mut server = listener.accept().expect("accept uds");
        let body = read_frame(&mut server, None).unwrap().expect("frame");
        assert_eq!(body.len(), 100_000);
        client.join().unwrap();
        drop(listener);
        assert!(!path.exists(), "listener drop removes the socket file");
    }

    #[test]
    fn oversize_frames_are_rejected_both_ways() {
        let mut sink = Vec::new();
        let huge = vec![0u8; FRAME_MAX + 1];
        assert!(write_frame(&mut sink, &huge, None).is_err());

        let mut wire = Vec::new();
        wire.extend_from_slice(&((FRAME_MAX as u32) + 1).to_le_bytes());
        let err = read_frame(&mut wire.as_slice(), None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_header_is_unexpected_eof() {
        let mut wire: &[u8] = &[5, 0];
        let err = read_frame(&mut wire, None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let mut wire: &[u8] = &[5, 0, 0, 0, 1, 2];
        let err = read_frame(&mut wire, None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn reconnect_backoff_is_jittered_around_a_capped_doubling() {
        for attempt in 1..=RETRY_ATTEMPTS {
            let nominal = (RETRY_BASE * 2u32.saturating_pow(attempt - 1)).min(RETRY_MAX_BACKOFF);
            let sleep = backoff(attempt);
            assert!(
                sleep >= nominal / 2 && sleep < nominal * 3 / 2,
                "attempt {attempt}: {sleep:?} outside [0.5, 1.5) x {nominal:?}"
            );
        }
    }
}
