//! The socket daemon: an accept loop over Unix or TCP, one frame in →
//! one frame out (DESIGN.md §15).
//!
//! Connections are handled sequentially — the parallelism lives
//! *inside* a batch (jobs spread over scoped threads), not across
//! connections, which keeps cache insertion order, and therefore the
//! daemon's entire observable behavior, a deterministic function of
//! the submission sequence. So that one client cannot hold the others
//! off, every accepted stream gets an [`IO_TIMEOUT`] on both reads and
//! writes: a connection that stalls mid-frame, sits idle, or stops
//! reading its replies that long is dropped and logged, and the next
//! connection is served. A `shutdown` request ends the accept loop
//! after its connection closes.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use linarb_trace::frame::{read_frame, write_frame};

use crate::engine::{JobInput, JobOutcome, ServeCore};
use crate::proto::{parse_request, render_error, Request};

/// How long one read or write on a connection may wait before the
/// daemon drops that connection.
pub const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Where the daemon listens.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BindAddr {
    /// A Unix domain socket at this path.
    Unix(PathBuf),
    /// A TCP `host:port`.
    Tcp(String),
}

/// Parses `unix:<path>` or `tcp:<host:port>`.
///
/// # Errors
///
/// A usage message for any other shape.
pub fn parse_addr(s: &str) -> Result<BindAddr, String> {
    if let Some(path) = s.strip_prefix("unix:") {
        if path.is_empty() {
            return Err("unix: needs a socket path".to_string());
        }
        Ok(BindAddr::Unix(PathBuf::from(path)))
    } else if let Some(hostport) = s.strip_prefix("tcp:") {
        if !hostport.contains(':') {
            return Err("tcp: needs host:port".to_string());
        }
        Ok(BindAddr::Tcp(hostport.to_string()))
    } else {
        Err(format!("bad address `{s}` (want unix:<path> or tcp:<host:port>)"))
    }
}

impl std::fmt::Display for BindAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BindAddr::Unix(path) => write!(f, "unix:{}", path.display()),
            BindAddr::Tcp(hostport) => write!(f, "tcp:{hostport}"),
        }
    }
}

/// An accepted stream whose reads and writes can be bounded.
trait Conn: Read + Write {
    fn set_io_timeout(&self, t: Duration) -> io::Result<()>;
}

impl Conn for UnixStream {
    fn set_io_timeout(&self, t: Duration) -> io::Result<()> {
        self.set_read_timeout(Some(t))?;
        self.set_write_timeout(Some(t))
    }
}

impl Conn for TcpStream {
    fn set_io_timeout(&self, t: Duration) -> io::Result<()> {
        self.set_read_timeout(Some(t))?;
        self.set_write_timeout(Some(t))
    }
}

enum Control {
    Continue,
    Shutdown,
}

enum Socket {
    Unix(UnixListener),
    Tcp(TcpListener),
}

/// A bound daemon socket, not yet accepting.
pub struct Listener {
    socket: Socket,
    addr: BindAddr,
}

impl Listener {
    /// Binds `addr`. A stale socket file from a dead daemon is removed
    /// first, because it blocks a Unix bind.
    ///
    /// # Errors
    ///
    /// Socket bind failures.
    pub fn bind(addr: &BindAddr) -> io::Result<Listener> {
        let (socket, addr) = match addr {
            BindAddr::Unix(path) => {
                let _ = std::fs::remove_file(path);
                (Socket::Unix(UnixListener::bind(path)?), addr.clone())
            }
            BindAddr::Tcp(hostport) => {
                let listener = TcpListener::bind(hostport.as_str())?;
                let bound = BindAddr::Tcp(listener.local_addr()?.to_string());
                (Socket::Tcp(listener), bound)
            }
        };
        Ok(Listener { socket, addr })
    }

    /// The address clients reach: for `tcp:HOST:0`, the port the OS
    /// chose.
    pub fn addr(&self) -> &BindAddr {
        &self.addr
    }

    /// Accepts connections one at a time until a `shutdown` request,
    /// then removes a Unix socket file. Per-connection I/O errors,
    /// [`IO_TIMEOUT`] included, are logged to stderr and end only
    /// that connection.
    pub fn run(self, core: &ServeCore) {
        match self.socket {
            Socket::Unix(l) => accept_loop(l.incoming(), core),
            Socket::Tcp(l) => accept_loop(l.incoming(), core),
        }
        if let BindAddr::Unix(path) = &self.addr {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Runs the daemon until a `shutdown` request arrives. Prints one
/// `ready` line with the bound address to stdout once listening
/// (scripts wait on it).
///
/// # Errors
///
/// Socket bind failures.
pub fn serve(addr: &BindAddr, core: Arc<ServeCore>) -> io::Result<()> {
    let listener = Listener::bind(addr)?;
    println!("linarb-serve: ready on {}", listener.addr());
    listener.run(&core);
    Ok(())
}

fn accept_loop<S: Conn>(incoming: impl Iterator<Item = io::Result<S>>, core: &ServeCore) {
    for conn in incoming {
        match conn {
            Ok(mut stream) => match stream
                .set_io_timeout(IO_TIMEOUT)
                .and_then(|()| handle_conn(&mut stream, core))
            {
                Ok(Control::Shutdown) => break,
                Ok(Control::Continue) => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    eprintln!("linarb-serve: dropped a connection stalled for {IO_TIMEOUT:?}")
                }
                Err(e) => eprintln!("linarb-serve: connection error: {e}"),
            },
            Err(e) => eprintln!("linarb-serve: accept error: {e}"),
        }
    }
}

/// Serves one connection: a request/response loop until the peer
/// closes or asks for shutdown.
fn handle_conn<S: Read + Write>(stream: &mut S, core: &ServeCore) -> io::Result<Control> {
    loop {
        let Some(text) = read_frame(stream)? else {
            return Ok(Control::Continue);
        };
        let t = Instant::now();
        let request = parse_request(&text);
        let parse_us = t.elapsed().as_micros();
        match request {
            Err(msg) => write_frame(stream, &render_error(&msg))?,
            Ok(Request::Ping) => write_frame(stream, "{\"op\":\"ping\",\"ok\":true}")?,
            Ok(Request::Stats) => {
                let body = core.stats().render(core.cache_len());
                write_frame(stream, &format!("{{\"op\":\"stats\",\"stats\":{body}}}"))?;
            }
            Ok(Request::Shutdown) => {
                write_frame(stream, "{\"op\":\"shutdown\",\"ok\":true}")?;
                return Ok(Control::Shutdown);
            }
            Ok(Request::Batch(jobs)) => {
                let inputs: Vec<JobInput> = jobs.into_iter().map(JobInput::from_spec).collect();
                let outcomes = core.submit_batch(inputs);
                let body: Vec<String> = outcomes.iter().map(JobOutcome::render).collect();
                write_frame(
                    stream,
                    &format!(
                        "{{\"op\":\"batch\",\"parse_us\":{parse_us},\"results\":[{}]}}",
                        body.join(",")
                    ),
                )?;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_parsing() {
        assert_eq!(parse_addr("unix:/tmp/s.sock").unwrap(), BindAddr::Unix("/tmp/s.sock".into()));
        assert_eq!(parse_addr("tcp:127.0.0.1:0").unwrap(), BindAddr::Tcp("127.0.0.1:0".into()));
        assert!(parse_addr("unix:").is_err());
        assert!(parse_addr("tcp:nohostport").is_err());
        assert!(parse_addr("/tmp/s.sock").is_err());
        for s in ["unix:/tmp/s.sock", "tcp:127.0.0.1:0"] {
            assert_eq!(parse_addr(s).unwrap().to_string(), s);
        }
    }
}
