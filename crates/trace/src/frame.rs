//! Length-prefixed framing for the serve daemon's socket protocol
//! (DESIGN.md §15).
//!
//! A frame is a 4-byte big-endian payload length followed by that
//! many bytes of UTF-8 (in practice JSON for the [`crate::json`]
//! parser). Framing lives here, next to the JSON layer it carries,
//! so both ends of the wire — the daemon, the CLI client, the bench
//! replay driver — share one codec.
//!
//! [`write_frame`] hands the prefix and the payload to the stream in
//! one write. Written separately, they made TCP hold the payload back
//! until the peer's delayed ACK of the 4-byte prefix (Nagle's
//! algorithm): 87 ms per `ping` round trip instead of 0.032 ms. With
//! one write per frame `TCP_NODELAY` buys nothing, so it is not set.

use std::io::{self, Read, Write};

/// Hard cap on a single frame's payload (64 MiB). Large enough for
/// any realistic CHC batch, small enough to stop a corrupt or hostile
/// length prefix from forcing an absurd allocation.
pub const MAX_FRAME: usize = 64 << 20;

/// Writes one frame, prefix and payload in one `write_all`, and
/// flushes the stream.
///
/// # Errors
///
/// `InvalidData` when the payload exceeds [`MAX_FRAME`]; otherwise
/// whatever the underlying writer reports.
pub fn write_frame<W: Write>(w: &mut W, payload: &str) -> io::Result<()> {
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {} bytes exceeds MAX_FRAME", bytes.len()),
        ));
    }
    let mut frame = Vec::with_capacity(4 + bytes.len());
    frame.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    frame.extend_from_slice(bytes);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame. Returns `Ok(None)` on a clean end-of-stream (EOF
/// before the first length byte) — the peer closing between frames is
/// the normal way a connection ends.
///
/// # Errors
///
/// `UnexpectedEof` on EOF inside a frame, `InvalidData` on an
/// oversized length prefix or non-UTF-8 payload, otherwise whatever
/// the underlying reader reports.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<String>> {
    let mut len = [0u8; 4];
    // The first byte distinguishes clean EOF from a truncated frame.
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    len[0] = first[0];
    r.read_exact(&mut len[1..])?;
    let n = u32::from_be_bytes(len) as usize;
    if n > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {n} exceeds MAX_FRAME"),
        ));
    }
    let mut buf = vec![0u8; n];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_and_clean_eof() {
        let mut wire = Vec::new();
        write_frame(&mut wire, "{\"op\":\"ping\"}").unwrap();
        write_frame(&mut wire, "").unwrap();
        let mut r = wire.as_slice();
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("{\"op\":\"ping\"}"));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn one_write_per_frame() {
        struct Writes(Vec<usize>);
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.len());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = Writes(Vec::new());
        write_frame(&mut w, "{\"op\":\"ping\"}").unwrap();
        assert_eq!(w.0, [4 + 13]);
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, "hello").unwrap();
        wire.truncate(wire.len() - 2);
        let mut r = wire.as_slice();
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let wire = (MAX_FRAME as u32 + 1).to_be_bytes();
        let mut r = wire.as_slice();
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }
}
