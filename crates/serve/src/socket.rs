//! Unix-socket transport: newline-delimited JSON over a local socket.
//!
//! One connection = one [`Session`] (so socket clients get the same
//! isolation as in-process ones): each request line is answered with
//! one *or more* response lines, in order — a `stream: true` request
//! interleaves `race_event` lines while the launch runs and always ends
//! with exactly one terminal line, so a client reads lines until
//! [`Response::is_terminal`]. A `{"op":"shutdown"}` line asks the
//! server to stop: the accept loop closes, in-flight work drains per
//! [`Server::shutdown`]'s contract, and the serve call returns the
//! final stats.
//!
//! Lines are capped at the TCP transport's [`MAX_FRAME`] (16 MiB, not
//! counting the newline) on both ends. The server answers an oversized
//! line with one `error` line and closes that connection only: the
//! stream cannot be resynchronised, and no other session is touched.

use crate::proto::{self, Request, Response};
use crate::server::{Server, ServerConfig, ServerStats, Session};
use crate::tcp::MAX_FRAME;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Longest accepted line, newline included.
const MAX_LINE: usize = MAX_FRAME as usize + 1;

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

fn handle_connection(
    stream: UnixStream,
    session: &Session,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    // Timed reads so an idle handler notices a shutdown initiated on
    // another connection instead of blocking in read forever. A timeout
    // mid-line leaves the partial line accumulated in `line`; the next
    // read appends the rest.
    stream.set_read_timeout(Some(Duration::from_millis(50)))?;
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
                // Oversized line: refuse explicitly, then drop the
                // connection (the stream cannot be resynchronised).
                let resp = Response::Error {
                    message: e.to_string(),
                };
                let _ = writeln!(writer, "{}", proto::encode_response(&resp));
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
                    Response::ShuttingDown
                }
                Ok(Request::Check(req)) if req.stream => {
                    // Stream events as they arrive; a write failure here
                    // only loses preview frames — the terminal still
                    // carries the complete verdict (and is cached by
                    // launch id server-side for a reconnecting client).
                    let mut sink = writer.try_clone()?;
                    session.submit_streamed(req, &mut |ev| {
                        let _ = writeln!(sink, "{}", proto::encode_response(ev));
                        let _ = sink.flush();
                    })
                }
                Ok(Request::Check(req)) => session.submit(req),
                Err(e) => Response::Error {
                    message: format!("bad request: {e}"),
                },
            };
            writeln!(writer, "{}", proto::encode_response(&resp))?;
            writer.flush()?;
            if stop.load(Ordering::Acquire) {
                return Ok(());
            }
        }
        line.clear();
    }
}

/// Serves connections on a Unix socket at `path` until a client sends
/// `{"op":"shutdown"}`, then shuts the server down gracefully and
/// returns its final stats. The socket file is created fresh (an
/// existing one is removed first) and unlinked on return.
///
/// # Errors
///
/// Returns an I/O error if the socket cannot be bound.
pub fn serve_socket(path: &Path, config: ServerConfig) -> std::io::Result<ServerStats> {
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    // Poll-accept so the loop notices the stop flag set by a handler
    // thread; a blocking accept would wait for a connection that may
    // never come.
    listener.set_nonblocking(true)?;
    let server = Server::new(config);
    let stop = Arc::new(AtomicBool::new(false));
    let mut handlers = Vec::new();
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                let Some(session) = server.session() else {
                    break;
                };
                let stop = Arc::clone(&stop);
                handlers.push(std::thread::spawn(move || {
                    let _ = handle_connection(stream, &session, &stop);
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(e),
        }
    }
    for h in handlers {
        let _ = h.join();
    }
    let stats = server.shutdown();
    let _ = std::fs::remove_file(path);
    Ok(stats)
}

/// A socket client: one connection, one session on the server side.
/// Remembers its path so a broken connection can be re-established
/// ([`crate::client::Transport::reconnect`]) — note a reconnect lands
/// in a *new* server session, which is sound because the launch-id
/// replay that resume relies on is scoped per session on the server
/// but re-running a launch in a fresh session yields the same verdict
/// (requests are self-contained).
#[derive(Debug)]
pub struct SocketClient {
    path: std::path::PathBuf,
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl SocketClient {
    /// Connects to the server at `path`.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the socket is absent or refuses.
    pub fn connect(path: &Path) -> std::io::Result<Self> {
        let stream = UnixStream::connect(path)?;
        Ok(SocketClient {
            path: path.to_path_buf(),
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request and blocks for the first response line.
    ///
    /// # Errors
    ///
    /// Returns an I/O error on a broken connection, and `InvalidData`
    /// for an undecodable response.
    pub fn roundtrip(&mut self, req: &Request) -> std::io::Result<Response> {
        writeln!(self.writer, "{}", proto::encode_request(req))?;
        self.writer.flush()?;
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

impl crate::client::Transport for SocketClient {
    fn submit(&mut self, req: &crate::proto::CheckRequest) -> Response {
        match self.roundtrip(&Request::Check(req.clone())) {
            Ok(resp) => resp,
            Err(e) => Response::Error {
                message: format!("transport: {e}"),
            },
        }
    }

    fn submit_streamed(
        &mut self,
        req: &crate::proto::CheckRequest,
        on_event: &mut dyn FnMut(&Response),
    ) -> std::io::Result<Response> {
        writeln!(
            self.writer,
            "{}",
            proto::encode_request(&Request::Check(req.clone()))
        )?;
        self.writer.flush()?;
        loop {
            let resp = self.read_response()?;
            if resp.is_terminal() {
                return Ok(resp);
            }
            on_event(&resp);
        }
    }

    fn reconnect(&mut self) -> bool {
        match Self::connect(&self.path) {
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
