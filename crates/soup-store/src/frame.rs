//! Length-prefixed frames: the wire codec under the serve protocol.
//!
//! A frame is a `u32` little-endian payload length, then the payload. The
//! serve protocol (`soup-serve::proto`) keeps only an opcode table and a
//! cap on top of this module: [`FrameBuf`] is the only code that parses a
//! length prefix, and [`write_frame`] the only writer.
//!
//! Errors: a length over the cap is [`SoupError::Corrupt`] (the stream
//! cannot be resynchronised); end of stream inside a frame, prefix
//! included, is an `UnexpectedEof` I/O error; a frame that starts but
//! misses its deadline is a `TimedOut` I/O error.

use soup_error::SoupError;
use std::io::{ErrorKind, Read, Write};
use std::time::{Duration, Instant};

type Result<T> = std::result::Result<T, SoupError>;

/// Smallest read a blocking reader issues, so a short frame and its
/// prefix usually arrive in one system call.
const READ_AHEAD: usize = 4096;

/// A byte stream whose blocking reads can be bounded in time.
pub trait TimedRead: Read {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()>;
}

impl TimedRead for std::net::TcpStream {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        std::net::TcpStream::set_read_timeout(self, timeout)
    }
}

/// In-memory streams never block.
impl TimedRead for &[u8] {
    fn set_read_timeout(&self, _: Option<Duration>) -> std::io::Result<()> {
        Ok(())
    }
}

/// What one blocking read produced.
#[derive(Debug, PartialEq, Eq)]
pub enum Next<'a> {
    /// A complete frame's payload.
    Frame(&'a [u8]),
    /// No byte of a new frame arrived within the idle budget.
    Idle,
    /// The peer closed the stream at a frame boundary.
    Closed,
}

/// Frame accumulator for one connection. The length prefix is checked against `cap` before storage
/// grows for the payload. Bytes `start..end` of `buf` are received but not
/// yet handed out; a popped payload is borrowed until the next call.
#[derive(Default)]
pub struct FrameBuf {
    cap: usize,
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameBuf {
    /// An empty accumulator admitting payloads of at most `cap` bytes.
    pub fn new(cap: usize) -> Self {
        Self {
            cap,
            ..Self::default()
        }
    }

    /// Block for the next frame. A length over the cap poisons the stream:
    /// every later call reports it again. With an `idle` budget, a stream that
    /// stays silent that long before a frame starts yields [`Next::Idle`],
    /// and a frame that has started must complete within one more budget
    /// or the read fails with `TimedOut` — a drip-feeding peer holds the
    /// reader for at most about twice `idle`. Without one, reads block.
    pub fn read_frame(
        &mut self,
        r: &mut impl TimedRead,
        idle: Option<Duration>,
    ) -> Result<Next<'_>> {
        let stalled = || io_error(ErrorKind::TimedOut, "peer stalled mid-frame");
        let mut deadline = None;
        let len = loop {
            if let Some(len) = self.ready()? {
                break len;
            }
            let started = self.end > self.start;
            let timeout = match idle {
                Some(budget) if started => {
                    let at = *deadline.get_or_insert_with(|| Instant::now() + budget);
                    let left = at.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Err(stalled());
                    }
                    Some(left)
                }
                budget => budget,
            };
            r.set_read_timeout(timeout)?;
            match r.read(self.spare(self.needed().max(READ_AHEAD))) {
                Ok(0) if started => {
                    return Err(io_error(
                        ErrorKind::UnexpectedEof,
                        "stream closed mid-frame",
                    ))
                }
                Ok(0) => return Ok(Next::Closed),
                Ok(n) => self.end += n,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return if started {
                        Err(stalled())
                    } else {
                        Ok(Next::Idle)
                    };
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        };
        Ok(Next::Frame(self.take(len)))
    }

    /// Payload length of the complete frame at the front, if there is one.
    fn ready(&self) -> Result<Option<usize>> {
        let [a, b, c, d, ..] = self.buf[self.start..self.end] else {
            return Ok(None);
        };
        let (len, cap) = (u32::from_le_bytes([a, b, c, d]) as usize, self.cap);
        if len > cap {
            return Err(SoupError::corrupt(format!(
                "frame length {len} exceeds cap {cap}"
            )));
        }
        Ok((self.end - self.start >= 4 + len).then_some(len))
    }

    /// Bytes still missing from the front frame (from its prefix while
    /// the length is unknown); only called after `ready` checked the cap.
    fn needed(&self) -> usize {
        match self.buf[self.start..self.end] {
            [a, b, c, d, ..] => 4 + u32::from_le_bytes([a, b, c, d]) as usize,
            _ => 4,
        }
        .saturating_sub(self.end - self.start)
    }

    fn take(&mut self, len: usize) -> &[u8] {
        let at = self.start + 4;
        self.start = at + len;
        &self.buf[at..self.start]
    }

    /// Writable space of at least `n` bytes after the buffered ones;
    /// handed-out frames are compacted away first.
    fn spare(&mut self, n: usize) -> &mut [u8] {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.buf.len() < self.end + n {
            self.buf.resize(self.end + n, 0);
        }
        &mut self.buf[self.end..]
    }
}

/// Write one frame whose payload is the concatenation of `parts` (so an
/// opcode byte needs no copy of its body) through one write loop. A
/// payload over `cap` is rejected as [`SoupError::Corrupt`] before a byte
/// is written; `WouldBlock` means the socket's own write timeout expired,
/// and fails as `TimedOut`.
pub fn write_frame(w: &mut impl Write, cap: usize, parts: &[&[u8]]) -> Result<()> {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    let prefix = match u32::try_from(len) {
        Ok(prefix) if len <= cap => prefix,
        _ => {
            return Err(SoupError::corrupt(format!(
                "frame of {len} bytes exceeds cap {cap}"
            )))
        }
    };
    let mut frame = Vec::with_capacity(4 + len);
    frame.extend_from_slice(&prefix.to_le_bytes());
    parts.iter().for_each(|p| frame.extend_from_slice(p));
    let mut off = 0;
    while off < frame.len() {
        match w.write(&frame[off..]) {
            Ok(0) => {
                return Err(io_error(
                    ErrorKind::WriteZero,
                    "peer stopped accepting bytes",
                ))
            }
            Ok(n) => off += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                return Err(io_error(ErrorKind::TimedOut, "write stalled"))
            }
            Err(e) => return Err(e.into()),
        }
    }
    w.flush().map_err(SoupError::from)
}

/// Whether `e` is a frame that started but missed its deadline (or a
/// write the peer stopped draining).
pub fn is_stall(e: &SoupError) -> bool {
    matches!(e, SoupError::Io { source, .. } if source.kind() == ErrorKind::TimedOut)
}

fn io_error(kind: ErrorKind, msg: &str) -> SoupError {
    std::io::Error::new(kind, msg).into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Both ends of a loopback connection (the serve protocol's transport).
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        (a, listener.accept().unwrap().0)
    }

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut wire = Vec::new();
        write_frame(&mut wire, 64, &[payload]).unwrap();
        wire
    }

    #[test]
    fn frames_round_trip_through_the_blocking_reader() {
        let mut wire = frame(b"abc");
        wire.extend(frame(b""));
        write_frame(&mut wire, 64, &[&[7], b"xy"]).unwrap();
        let (mut r, mut buf) = (&wire[..], FrameBuf::new(64));
        assert_eq!(buf.read_frame(&mut r, None).unwrap(), Next::Frame(b"abc"));
        assert_eq!(buf.read_frame(&mut r, None).unwrap(), Next::Frame(b""));
        assert_eq!(
            buf.read_frame(&mut r, None).unwrap(),
            Next::Frame(b"\x07xy")
        );
        assert_eq!(buf.read_frame(&mut r, None).unwrap(), Next::Closed);
    }

    #[test]
    fn oversized_frame_is_rejected_before_allocation() {
        let wire = (1u32 << 31).to_le_bytes();
        let mut buf = FrameBuf::new(1 << 20);
        let err = buf.read_frame(&mut &wire[..], None).unwrap_err();
        assert_eq!(err.kind(), "corrupt");
        assert!(buf.buf.len() < 1 << 20, "grew {} bytes", buf.buf.len());
        // The stream is poisoned for good.
        let err = buf.read_frame(&mut &[][..], None).unwrap_err();
        assert_eq!(err.kind(), "corrupt");
        let err = write_frame(&mut Vec::new(), 2, &[b"ab", b"c"]).unwrap_err();
        assert_eq!(err.kind(), "corrupt");
    }

    #[test]
    fn truncated_frame_is_a_clean_io_error() {
        // Declares 100 bytes, carries 3; and a torn length prefix.
        let mut wire = 100u32.to_le_bytes().to_vec();
        wire.extend_from_slice(b"abc");
        for torn in [&wire[..], &wire[..2]] {
            let err = FrameBuf::new(128)
                .read_frame(&mut &torn[..], None)
                .unwrap_err();
            match err {
                SoupError::Io { source, .. } => assert_eq!(source.kind(), ErrorKind::UnexpectedEof),
                other => panic!("{other}"),
            }
        }
    }

    #[test]
    fn idle_stall_and_close_are_told_apart() {
        let idle = Duration::from_millis(50);
        let (mut a, mut b) = pair();
        let mut buf = FrameBuf::new(64);
        assert_eq!(buf.read_frame(&mut b, Some(idle)).unwrap(), Next::Idle);
        // Half a frame, then silence: cut after about one more budget.
        std::io::Write::write_all(&mut a, &frame(b"abcd")[..5]).unwrap();
        let t0 = Instant::now();
        let err = buf.read_frame(&mut b, Some(idle)).unwrap_err();
        assert!(
            matches!(&err, SoupError::Io { source, .. } if source.kind() == ErrorKind::TimedOut)
        );
        assert!(t0.elapsed() < Duration::from_secs(2), "{:?}", t0.elapsed());
        let (mut a, mut b) = pair();
        std::io::Write::write_all(&mut a, &frame(b"ok")).unwrap();
        drop(a);
        let mut buf = FrameBuf::new(64);
        assert_eq!(
            buf.read_frame(&mut b, Some(idle)).unwrap(),
            Next::Frame(b"ok")
        );
        assert_eq!(buf.read_frame(&mut b, Some(idle)).unwrap(), Next::Closed);
    }
}
