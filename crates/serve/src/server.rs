//! The socket daemon: an accept loop over Unix or TCP, one frame in →
//! one frame out (DESIGN.md §15).
//!
//! Connections are handled sequentially — the parallelism lives
//! *inside* a batch (jobs spread over scoped threads), not across
//! connections, which keeps cache insertion order, and therefore the
//! daemon's entire observable behavior, a deterministic function of
//! the submission sequence. A `shutdown` request ends the accept loop
//! after its connection closes.

use std::io::{self, Read, Write};
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::Arc;

use linarb_trace::frame::{read_frame, write_frame};

use crate::engine::{JobInput, JobOutcome, ServeCore};
use crate::proto::{parse_request, render_error, Request};

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

enum Control {
    Continue,
    Shutdown,
}

/// Runs the daemon until a `shutdown` request arrives. Prints one
/// `ready` line to stdout once listening (scripts wait on it).
///
/// # Errors
///
/// Socket bind failures. Per-connection I/O errors are logged to
/// stderr and end only that connection.
pub fn serve(addr: &BindAddr, core: Arc<ServeCore>) -> io::Result<()> {
    match addr {
        BindAddr::Unix(path) => {
            // A stale socket file from a dead daemon blocks bind.
            let _ = std::fs::remove_file(path);
            let listener = UnixListener::bind(path)?;
            println!("linarb-serve: ready on unix:{}", path.display());
            for conn in listener.incoming() {
                match conn {
                    Ok(mut stream) => match handle_conn(&mut stream, &core) {
                        Ok(Control::Shutdown) => break,
                        Ok(Control::Continue) => {}
                        Err(e) => eprintln!("linarb-serve: connection error: {e}"),
                    },
                    Err(e) => eprintln!("linarb-serve: accept error: {e}"),
                }
            }
            let _ = std::fs::remove_file(path);
            Ok(())
        }
        BindAddr::Tcp(hostport) => {
            let listener = TcpListener::bind(hostport.as_str())?;
            println!("linarb-serve: ready on tcp:{hostport}");
            for conn in listener.incoming() {
                match conn {
                    Ok(mut stream) => match handle_conn(&mut stream, &core) {
                        Ok(Control::Shutdown) => break,
                        Ok(Control::Continue) => {}
                        Err(e) => eprintln!("linarb-serve: connection error: {e}"),
                    },
                    Err(e) => eprintln!("linarb-serve: accept error: {e}"),
                }
            }
            Ok(())
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
        match parse_request(&text) {
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
                    &format!("{{\"op\":\"batch\",\"results\":[{}]}}", body.join(",")),
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
    }
}
