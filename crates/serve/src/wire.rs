//! The wire transport: newline-delimited JSON over a Unix socket or TCP.
//!
//! Both endpoints speak the same framing through the same code: one
//! [`crate::proto`] message per line, lines capped at [`MAX_FRAME`]
//! bytes (not counting the newline). An encoded message never contains
//! a raw newline — the JSON writer escapes it — so the newline is an
//! unambiguous frame boundary. Blank lines are skipped.
//!
//! One connection = one [`Session`] (so remote clients get the same
//! isolation as in-process ones): each request line is answered with
//! one *or more* response lines, in order — a `stream: true` request
//! interleaves `race_event` lines while the launch runs and always ends
//! with exactly one terminal line, so a client reads lines until
//! [`Response::is_terminal`]. A `{"op":"shutdown"}` line asks the
//! server to stop: the accept loop closes, in-flight work drains per
//! [`Server::shutdown`]'s contract, and the serve call returns the
//! final stats.
//!
//! # Backpressure
//!
//! Three mechanisms, each explicit:
//!
//! 1. **Admission**: a session's queue is bounded; overflow is answered
//!    `rejected` with a retry hint, not buffered.
//! 2. **Line cap**: a line longer than [`MAX_FRAME`] is refused with
//!    one `error` line before more of it is buffered, and that
//!    connection is closed (the stream cannot be resynchronised): the
//!    handler half-closes it and discards what the peer already sent
//!    (up to 4 MiB, until a read times out), so the peer reads the error
//!    line and then the end of the stream, not a TCP reset. No other session is touched,
//!    and read-side memory per connection is bounded.
//! 3. **Blocking writes**: event lines are written synchronously to the
//!    connection; a client that stops reading eventually fills the
//!    kernel's send buffer and stalls only *its own* handler thread —
//!    the engine keeps running (events queue in the reply channel) and
//!    no other connection is affected.

use crate::client::Transport;
use crate::proto::{self, CheckRequest, Request, Response};
use crate::server::{Server, ServerConfig, ServerStats, Session};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Longest accepted line (16 MiB, not counting the newline) — comfortably
/// above any real PTX module, far below anything that could pressure
/// server memory.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Longest accepted line, newline included.
const MAX_LINE: usize = MAX_FRAME as usize + 1;

/// Read timeout of a connection handler: how often an idle handler
/// looks at the stop flag.
const READ_POLL: Duration = Duration::from_millis(50);

/// Most bytes a handler discards from a refused connection before it
/// closes it. Closing a TCP stream with unread bytes queued sends a
/// reset, which the peer may see before the error line; past this cap
/// (or the first read that times out) the handler closes anyway.
const DRAIN_CAP: u64 = 4 * 1024 * 1024;

/// Appends to `line` up to and including the next newline, stopping at
/// EOF or a read error; bytes read before an error (a read timeout)
/// stay in `line` for the next call. A line that reaches [`MAX_LINE`]
/// bytes without a newline is refused with `InvalidData` before any
/// more of it is buffered.
fn read_capped_line(reader: &mut impl BufRead, line: &mut Vec<u8>) -> std::io::Result<usize> {
    let room = MAX_LINE.saturating_sub(line.len()) as u64;
    let n = reader.take(room).read_until(b'\n', line)?;
    if line.len() >= MAX_LINE && !line.ends_with(b"\n") {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("line exceeds cap of {MAX_FRAME} bytes"),
        ));
    }
    Ok(n)
}

/// Writes one encoded message and its newline in a single write.
fn send_line(w: &mut impl Write, mut json: String) -> std::io::Result<()> {
    json.push('\n');
    w.write_all(json.as_bytes())?;
    w.flush()
}

/// A connected stream of either transport.
trait Stream: Read + Write + Send + Sized + 'static {
    fn try_clone(&self) -> std::io::Result<Self>;
    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()>;
    fn shutdown(&self, how: Shutdown) -> std::io::Result<()>;
    /// Sends each line as soon as it is written (`TCP_NODELAY`), so a
    /// line never waits on the acknowledgement of the one before it; a
    /// Unix socket has nothing to set.
    fn set_nodelay(&self) -> std::io::Result<()>;
}

/// A bound listener of either transport.
trait Listener {
    type Stream: Stream;
    fn accept(&self) -> std::io::Result<Self::Stream>;
    /// The endpoint a client connects to to reach this listener.
    fn endpoint(&self) -> std::io::Result<Endpoint>;
}

macro_rules! wire_stream {
    ($stream:ty, $listener:ty, $set_nodelay:expr, $endpoint:expr) => {
        impl Stream for $stream {
            fn try_clone(&self) -> std::io::Result<Self> {
                <$stream>::try_clone(self)
            }
            fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
                <$stream>::set_read_timeout(self, timeout)
            }
            fn shutdown(&self, how: Shutdown) -> std::io::Result<()> {
                <$stream>::shutdown(self, how)
            }
            fn set_nodelay(&self) -> std::io::Result<()> {
                $set_nodelay(self)
            }
        }

        impl Listener for $listener {
            type Stream = $stream;
            fn accept(&self) -> std::io::Result<$stream> {
                <$listener>::accept(self).map(|(stream, _)| stream)
            }
            fn endpoint(&self) -> std::io::Result<Endpoint> {
                $endpoint(self)
            }
        }
    };
}

wire_stream!(UnixStream, UnixListener, |_| Ok(()), |l: &UnixListener| {
    l.local_addr()?
        .as_pathname()
        .map(|p| Endpoint::Unix(p.to_path_buf()))
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "unnamed socket"))
});
wire_stream!(
    TcpStream,
    TcpListener,
    |s: &TcpStream| s.set_nodelay(true),
    |l: &TcpListener| {
        // A listener on the unspecified address is reached on loopback.
        let mut addr = l.local_addr()?;
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr.ip() {
                IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        Ok(Endpoint::Tcp(addr))
    }
);

/// Serves one connection until the peer hangs up or the server stops.
/// A `{"op":"shutdown"}` line sets `stop` and connects once to
/// `listener`, which wakes the accept loop blocked on it.
fn handle_connection(
    stream: impl Stream,
    session: &Session,
    stop: &AtomicBool,
    listener: &Endpoint,
) -> std::io::Result<()> {
    // Reads block with a timeout so an idle handler notices a shutdown
    // initiated on another connection instead of blocking in read
    // forever. A timeout mid-line leaves the partial line accumulated in
    // `line`; the next read appends the rest.
    stream.set_read_timeout(Some(READ_POLL))?;
    stream.set_nodelay()?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut line = Vec::new();
    loop {
        match read_capped_line(&mut reader, &mut line) {
            Ok(0) => return Ok(()), // client hung up
            Ok(_) if line.ends_with(b"\n") => {}
            Ok(_) => continue, // partial line before EOF; next read settles it
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if stop.load(Ordering::Acquire) {
                    return Ok(());
                }
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                // Oversized line: refuse explicitly, then close the
                // connection (the stream cannot be resynchronised). The
                // peer's pending bytes are read first, so the close is
                // an end of stream and not a reset.
                let resp = Response::Error {
                    message: e.to_string(),
                };
                let _ = send_line(&mut writer, proto::encode_response(&resp));
                let _ = writer.shutdown(Shutdown::Write);
                let _ = std::io::copy(&mut reader.take(DRAIN_CAP), &mut std::io::sink());
                return Ok(());
            }
            Err(e) => return Err(e),
        }
        let text = String::from_utf8_lossy(&line);
        let trimmed = text.trim();
        if !trimmed.is_empty() {
            let resp = match proto::decode_request(trimmed) {
                Ok(Request::Shutdown) => {
                    stop.store(true, Ordering::Release);
                    let _ = listener.poke();
                    Response::ShuttingDown
                }
                Ok(Request::Check(req)) if req.stream => {
                    // Stream events as they arrive; a write failure here
                    // only loses preview lines — the terminal still
                    // carries the complete verdict (and is cached by
                    // launch id server-side for a reconnecting client).
                    session.submit_streamed(req, &mut |ev| {
                        let _ = send_line(&mut writer, proto::encode_response(ev));
                    })
                }
                Ok(Request::Check(req)) => session.submit(req),
                Err(e) => Response::Error {
                    message: format!("bad request: {e}"),
                },
            };
            send_line(&mut writer, proto::encode_response(&resp))?;
            if stop.load(Ordering::Acquire) {
                return Ok(());
            }
        }
        line.clear();
    }
}

/// Serves connections on `listener` until a client sends
/// `{"op":"shutdown"}`, then shuts the server down gracefully.
fn serve_listener(listener: impl Listener, config: ServerConfig) -> std::io::Result<ServerStats> {
    // The handler that receives a shutdown connects here once, so the
    // blocking accept below returns and sees the stop flag.
    let endpoint = Arc::new(listener.endpoint()?);
    let server = Server::new(config);
    let stop = Arc::new(AtomicBool::new(false));
    let mut handlers = Vec::new();
    loop {
        let stream = listener.accept()?;
        if stop.load(Ordering::Acquire) {
            break;
        }
        let Some(session) = server.session() else {
            break;
        };
        let stop = Arc::clone(&stop);
        let endpoint = Arc::clone(&endpoint);
        handlers.push(std::thread::spawn(move || {
            let _ = handle_connection(stream, &session, &stop, &endpoint);
        }));
    }
    for h in handlers {
        let _ = h.join();
    }
    Ok(server.shutdown())
}

/// Serves connections on an already-bound TCP listener per
/// [`Endpoint::serve`]. Binding first lets callers serve on an ephemeral
/// port (`127.0.0.1:0`) and read [`TcpListener::local_addr`] before
/// serving.
///
/// # Errors
///
/// Returns an I/O error if the listener cannot be configured or accept
/// fails.
pub fn serve_tcp_listener(
    listener: TcpListener,
    config: ServerConfig,
) -> std::io::Result<ServerStats> {
    serve_listener(listener, config)
}

/// Where a server listens and a client connects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix socket at this path.
    Unix(PathBuf),
    /// A TCP address.
    Tcp(SocketAddr),
}

impl Endpoint {
    /// A TCP endpoint at the first address `addr` resolves to.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if `addr` does not resolve.
    pub fn tcp(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        addr.to_socket_addrs()?
            .next()
            .map(Endpoint::Tcp)
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address"))
    }

    /// Serves connections on this endpoint until a client sends
    /// `{"op":"shutdown"}`, then shuts the server down gracefully and
    /// returns its final stats. A Unix socket file is created fresh (an
    /// existing one is removed first) and unlinked on return.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the endpoint cannot be bound or accept
    /// fails.
    pub fn serve(&self, config: ServerConfig) -> std::io::Result<ServerStats> {
        match self {
            Endpoint::Unix(path) => {
                let _ = std::fs::remove_file(path);
                let served = serve_listener(UnixListener::bind(path)?, config);
                let _ = std::fs::remove_file(path);
                served
            }
            Endpoint::Tcp(addr) => serve_listener(TcpListener::bind(addr)?, config),
        }
    }

    /// Opens a plain connection to this endpoint and closes it again.
    fn poke(&self) -> std::io::Result<()> {
        match self {
            Endpoint::Unix(path) => UnixStream::connect(path).map(drop),
            Endpoint::Tcp(addr) => TcpStream::connect(addr).map(drop),
        }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(path) => write!(f, "{}", path.display()),
            Endpoint::Tcp(addr) => write!(f, "{addr}"),
        }
    }
}

/// A client connection: one connection, one session on the server side.
/// Remembers its endpoint so a broken connection can be re-established
/// ([`Transport::reconnect`]) — a reconnect lands in a *new* server
/// session, which is sound because requests are self-contained:
/// re-running a launch in a fresh session yields the same verdict.
pub struct Connection {
    endpoint: Endpoint,
    reader: BufReader<Box<dyn Read + Send>>,
    writer: Box<dyn Write + Send>,
}

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connection")
            .field("endpoint", &self.endpoint)
            .finish_non_exhaustive()
    }
}

impl Connection {
    /// Connects to the server at `endpoint`.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the endpoint is absent or refuses.
    pub fn connect(endpoint: &Endpoint) -> std::io::Result<Self> {
        fn split(
            stream: impl Stream,
        ) -> std::io::Result<(Box<dyn Read + Send>, Box<dyn Write + Send>)> {
            stream.set_nodelay()?;
            Ok((Box::new(stream.try_clone()?), Box::new(stream)))
        }
        let (reader, writer) = match endpoint {
            Endpoint::Unix(path) => split(UnixStream::connect(path)?)?,
            Endpoint::Tcp(addr) => split(TcpStream::connect(addr)?)?,
        };
        Ok(Connection {
            endpoint: endpoint.clone(),
            reader: BufReader::new(reader),
            writer,
        })
    }

    /// Sends one request and blocks for the first response line: an I/O
    /// error on a broken connection, `InvalidData` for an undecodable
    /// response.
    fn roundtrip(&mut self, req: &Request) -> std::io::Result<Response> {
        send_line(&mut self.writer, proto::encode_request(req))?;
        self.read_response()
    }

    fn read_response(&mut self) -> std::io::Result<Response> {
        let mut line = Vec::new();
        if read_capped_line(&mut self.reader, &mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        proto::decode_response(String::from_utf8_lossy(&line).trim())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

impl Transport for Connection {
    fn submit(&mut self, req: &CheckRequest) -> Response {
        match self.roundtrip(&Request::Check(req.clone())) {
            Ok(resp) => resp,
            Err(e) => Response::Error {
                message: format!("transport: {e}"),
            },
        }
    }

    fn submit_streamed(
        &mut self,
        req: &CheckRequest,
        on_event: &mut dyn FnMut(&Response),
    ) -> std::io::Result<Response> {
        let mut resp = self.roundtrip(&Request::Check(req.clone()))?;
        while !resp.is_terminal() {
            on_event(&resp);
            resp = self.read_response()?;
        }
        Ok(resp)
    }

    fn reconnect(&mut self) -> bool {
        match Self::connect(&self.endpoint) {
            Ok(fresh) => {
                *self = fresh;
                true
            }
            Err(_) => false,
        }
    }

    fn shutdown_server(&mut self) -> std::io::Result<()> {
        self.roundtrip(&Request::Shutdown).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reads `data` in pieces that never cross a cut, and times out
    /// (`WouldBlock`) once at each cut: what a handler sees when a line
    /// trickles in slower than its read poll.
    struct Trickle {
        data: Vec<u8>,
        pos: usize,
        cuts: Vec<usize>,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.cuts.first() == Some(&self.pos) {
                self.cuts.remove(0);
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let end = self.cuts.first().copied().unwrap_or(self.data.len());
            let n = (end - self.pos).min(buf.len());
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn a_line_split_across_read_timeouts_arrives_whole() {
        let message = proto::encode_request(&Request::Shutdown);
        let data = format!("{message}\n\n{message}\n").into_bytes();
        // Time out at every byte boundary, and again 7 bytes later.
        for a in 0..=data.len() {
            let cuts = vec![a, (a + 7).min(data.len())];
            let trickle = Trickle {
                data: data.clone(),
                pos: 0,
                cuts,
            };
            let mut reader = BufReader::with_capacity(4, trickle);
            let mut got = Vec::new();
            let mut line = Vec::new();
            loop {
                match read_capped_line(&mut reader, &mut line) {
                    Ok(0) => break,
                    Ok(_) if line.ends_with(b"\n") => got.push(std::mem::take(&mut line)),
                    Ok(_) => {}
                    Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::WouldBlock, "cut {a}"),
                }
            }
            let whole = format!("{message}\n").into_bytes();
            assert_eq!(got, [whole.clone(), b"\n".to_vec(), whole], "cut {a}");
            assert!(line.is_empty(), "cut {a}: no bytes left over");
        }
    }

    #[test]
    fn a_line_past_the_cap_is_refused_before_it_is_buffered() {
        let mut line = Vec::new();
        let mut endless = std::io::repeat(b'x');
        let mut reader = BufReader::new(&mut endless);
        let err = read_capped_line(&mut reader, &mut line).expect_err("refused");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(line.len(), MAX_LINE, "buffered exactly up to the cap");
    }
}
