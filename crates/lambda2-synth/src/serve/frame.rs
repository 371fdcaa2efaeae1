//! Length-prefixed wire framing for the serve protocol.
//!
//! A frame is a 4-byte big-endian payload length followed by that many
//! payload bytes (UTF-8 JSON at the protocol layer; the framing itself is
//! byte-agnostic). The reader is built to survive hostile input: garbage
//! bytes, truncated frames, and absurd length prefixes all surface as
//! structured [`FrameError`]s — never a panic, never unbounded buffering
//! (the length cap is checked *before* any payload allocation).
//!
//! [`FrameReader`] is an incremental state machine: a read timeout
//! mid-frame returns [`FrameError::TimedOut`] with the partial bytes
//! retained, so a server can poll its shutdown flag between socket
//! timeouts and resume the same frame afterwards.

use std::fmt;
use std::io::{ErrorKind, Read, Write};

/// Default cap on a single frame's payload (4 MiB) — generous for any
/// real problem file, small enough that a hostile length prefix cannot
/// balloon memory.
pub const MAX_FRAME_BYTES: usize = 4 << 20;

/// Read-side failure of the framing layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The peer announced a payload larger than the configured cap. The
    /// connection cannot be resynchronized and should be closed.
    Oversized {
        /// Announced payload length.
        len: usize,
        /// Configured cap.
        max: usize,
    },
    /// The stream ended mid-frame (`got` bytes buffered).
    Truncated {
        /// Bytes received before EOF.
        got: usize,
    },
    /// The underlying read timed out (`WouldBlock`/`TimedOut`); frame
    /// state is retained and the read can be resumed.
    TimedOut,
    /// Any other I/O failure, rendered.
    Io(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
            FrameError::Truncated { got } => {
                write!(f, "stream ended mid-frame ({got} bytes buffered)")
            }
            FrameError::TimedOut => write!(f, "read timed out"),
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Writes one frame: 4-byte big-endian length, then the payload, then a
/// flush. Length and payload leave in a single `write_all`, so a TCP
/// stream never sends a 4-byte segment that Nagle's algorithm would hold
/// back until the peer's delayed ACK.
///
/// # Errors
///
/// Any I/O error from the writer; a payload over `u32::MAX` bytes is
/// reported as [`ErrorKind::InvalidInput`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(ErrorKind::InvalidInput, "frame payload exceeds u32::MAX")
    })?;
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Incremental frame reader with a payload-length cap.
#[derive(Debug)]
pub struct FrameReader {
    max_len: usize,
    buf: Vec<u8>,
}

impl FrameReader {
    /// A reader rejecting payloads over `max_len` bytes.
    pub fn new(max_len: usize) -> FrameReader {
        FrameReader {
            max_len,
            buf: Vec::new(),
        }
    }

    /// Pulls bytes from `r` until one full frame is buffered, returning
    /// its payload. Returns `Ok(None)` on a clean EOF at a frame
    /// boundary. On [`FrameError::TimedOut`] the partially read frame is
    /// retained and the next call resumes it; every other error is
    /// terminal for the connection.
    ///
    /// # Errors
    ///
    /// See [`FrameError`].
    pub fn read_frame(&mut self, r: &mut impl Read) -> Result<Option<Vec<u8>>, FrameError> {
        let mut chunk = [0u8; 8192];
        loop {
            if self.buf.len() >= 4 {
                let len = u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]])
                    as usize;
                if len > self.max_len {
                    return Err(FrameError::Oversized {
                        len,
                        max: self.max_len,
                    });
                }
                if self.buf.len() >= 4 + len {
                    let payload = self.buf[4..4 + len].to_vec();
                    self.buf.drain(..4 + len);
                    return Ok(Some(payload));
                }
            }
            match r.read(&mut chunk) {
                Ok(0) => {
                    return if self.buf.is_empty() {
                        Ok(None)
                    } else {
                        Err(FrameError::Truncated {
                            got: self.buf.len(),
                        })
                    };
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return Err(FrameError::TimedOut)
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(FrameError::Io(e.to_string())),
            }
        }
    }

    /// Bytes currently buffered toward an incomplete frame.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// A reader that hands out its bytes one at a time — the worst-case
    /// fragmentation a socket can produce.
    struct TrickleReader {
        bytes: Vec<u8>,
        pos: usize,
    }

    impl Read for TrickleReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos >= self.bytes.len() || buf.is_empty() {
                return Ok(0);
            }
            buf[0] = self.bytes[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    fn frame_bytes(payloads: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for p in payloads {
            write_frame(&mut out, p).unwrap();
        }
        out
    }

    #[test]
    fn round_trips_frames_in_order() {
        let wire = frame_bytes(&[b"hello", b"", b"{\"op\":\"ping\"}"]);
        let mut r = Cursor::new(wire);
        let mut reader = FrameReader::new(MAX_FRAME_BYTES);
        assert_eq!(reader.read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(reader.read_frame(&mut r).unwrap().unwrap(), b"");
        assert_eq!(
            reader.read_frame(&mut r).unwrap().unwrap(),
            b"{\"op\":\"ping\"}"
        );
        assert_eq!(reader.read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn survives_byte_at_a_time_delivery() {
        let wire = frame_bytes(&[b"fragmented payload", b"x"]);
        let mut r = TrickleReader {
            bytes: wire,
            pos: 0,
        };
        let mut reader = FrameReader::new(MAX_FRAME_BYTES);
        assert_eq!(
            reader.read_frame(&mut r).unwrap().unwrap(),
            b"fragmented payload"
        );
        assert_eq!(reader.read_frame(&mut r).unwrap().unwrap(), b"x");
        assert_eq!(reader.read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_be_bytes());
        wire.extend_from_slice(b"whatever");
        let mut reader = FrameReader::new(1024);
        let err = reader.read_frame(&mut Cursor::new(wire)).unwrap_err();
        assert_eq!(
            err,
            FrameError::Oversized {
                len: u32::MAX as usize,
                max: 1024
            }
        );
    }

    #[test]
    fn truncated_frames_are_reported_not_hung() {
        // A frame announcing 100 bytes but delivering 3.
        let mut wire = Vec::new();
        wire.extend_from_slice(&100u32.to_be_bytes());
        wire.extend_from_slice(b"abc");
        let mut reader = FrameReader::new(MAX_FRAME_BYTES);
        let err = reader.read_frame(&mut Cursor::new(wire)).unwrap_err();
        assert_eq!(err, FrameError::Truncated { got: 7 });
    }

    #[test]
    fn timeout_retains_state_and_resumes() {
        struct OneShot {
            bytes: Vec<u8>,
            served: bool,
        }
        impl Read for OneShot {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.served {
                    return Err(std::io::Error::new(ErrorKind::WouldBlock, "later"));
                }
                self.served = true;
                let n = self.bytes.len().min(buf.len());
                buf[..n].copy_from_slice(&self.bytes[..n]);
                Ok(n)
            }
        }
        let wire = frame_bytes(&[b"split across timeouts"]);
        let (first, rest) = wire.split_at(7);
        let mut reader = FrameReader::new(MAX_FRAME_BYTES);
        let mut r1 = OneShot {
            bytes: first.to_vec(),
            served: false,
        };
        assert_eq!(
            reader.read_frame(&mut r1).unwrap_err(),
            FrameError::TimedOut
        );
        assert_eq!(reader.pending(), 7);
        let mut r2 = Cursor::new(rest.to_vec());
        assert_eq!(
            reader.read_frame(&mut r2).unwrap().unwrap(),
            b"split across timeouts"
        );
    }

    /// Fuzz-style property test: feed deterministic pseudo-random garbage
    /// to the reader under a small cap. Whatever happens — frames, errors,
    /// EOF — the reader must return (no panic, no hang, no runaway
    /// buffering past cap + header + one chunk).
    #[test]
    fn garbage_bytes_never_panic_or_balloon() {
        let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            // xorshift64* — deterministic, dependency-free.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        for round in 0..200 {
            let len = (next() % 512) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| (next() & 0xff) as u8).collect();
            let cap = 64;
            let mut reader = FrameReader::new(cap);
            let mut cursor = Cursor::new(bytes);
            // Drain until EOF or a terminal error; count iterations so a
            // hypothetical infinite loop fails the test instead of hanging.
            for _ in 0..1024 {
                match reader.read_frame(&mut cursor) {
                    Ok(Some(payload)) => assert!(payload.len() <= cap, "round {round}"),
                    Ok(None) => break,
                    Err(FrameError::TimedOut) => unreachable!("cursor never times out"),
                    Err(_) => break,
                }
            }
            assert!(reader.pending() <= cap + 4 + 8192, "round {round}");
        }
    }

    #[test]
    fn write_frame_rejects_oversized_payloads_gracefully() {
        // Can't allocate 4 GiB in a test; exercise the error path by
        // checking the guard is reachable only via try_from — a zero-len
        // payload round-trips.
        let mut out = Vec::new();
        write_frame(&mut out, b"").unwrap();
        assert_eq!(out, vec![0, 0, 0, 0]);
    }

    /// A writer that records every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_frame_is_one_write() {
        let mut w = CountingWriter::default();
        for (i, payload) in [&b"{}"[..], b"", &[7u8; 9000][..]].into_iter().enumerate() {
            write_frame(&mut w, payload).unwrap();
            assert_eq!(w.writes, i + 1, "frame {i} took more than one write");
        }
        assert_eq!(w.bytes.len(), (4 + 2) + 4 + (4 + 9000));
    }
}
