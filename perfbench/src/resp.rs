//! A minimal pipelining RESP2 client: renders command frames, parses and
//! counts reply frames, and counts the `recv` calls a window needs.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One parsed reply frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply<'a> {
    Simple(&'a [u8]),
    Error(&'a [u8]),
    Int(i64),
    /// `None` is the nil bulk string (`$-1`).
    Bulk(Option<&'a [u8]>),
}

impl std::fmt::Display for Reply<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Reply::Simple(s) => write!(f, "+{}", String::from_utf8_lossy(s)),
            Reply::Error(s) => write!(f, "-{}", String::from_utf8_lossy(s)),
            Reply::Int(n) => write!(f, ":{n}"),
            Reply::Bulk(Some(b)) => write!(f, "${:?}", String::from_utf8_lossy(b)),
            Reply::Bulk(None) => write!(f, "$nil"),
        }
    }
}

fn parse_i64(digits: &[u8]) -> Result<i64, String> {
    std::str::from_utf8(digits)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad integer {:?}", String::from_utf8_lossy(digits)))
}

/// Parses one reply frame at the start of `buf`: `Ok(None)` when the frame
/// is not complete yet, otherwise the reply and the bytes it spans.
pub fn parse_reply(buf: &[u8]) -> Result<Option<(Reply<'_>, usize)>, String> {
    let Some(nl) = buf.windows(2).position(|w| w == b"\r\n") else {
        return Ok(None);
    };
    let (head, line) = (buf[0], &buf[1..nl]);
    let after = nl + 2;
    let reply = match head {
        b'+' => Reply::Simple(line),
        b'-' => Reply::Error(line),
        b':' => Reply::Int(parse_i64(line)?),
        b'$' => {
            let len = parse_i64(line)?;
            if len < 0 {
                Reply::Bulk(None)
            } else {
                let end = after + len as usize;
                if buf.len() < end + 2 {
                    return Ok(None);
                }
                if &buf[end..end + 2] != b"\r\n" {
                    return Err("bulk string not terminated by CRLF".into());
                }
                return Ok(Some((Reply::Bulk(Some(&buf[after..end])), end + 2)));
            }
        }
        other => return Err(format!("unexpected reply type byte {other:#04x}")),
    };
    Ok(Some((reply, after)))
}

/// Counts the complete reply frames at the start of `buf`; returns the
/// count and the bytes they span. `Conn::recv` runs the same loop.
#[cfg(test)]
fn count_frames(buf: &[u8]) -> Result<(usize, usize), String> {
    let (mut n, mut pos) = (0, 0);
    while let Some((_, used)) = parse_reply(&buf[pos..])? {
        n += 1;
        pos += used;
    }
    Ok((n, pos))
}

fn bulk(out: &mut Vec<u8>, arg: &[u8]) {
    out.push(b'$');
    out.extend_from_slice(arg.len().to_string().as_bytes());
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(arg);
    out.extend_from_slice(b"\r\n");
}

/// Appends `GET key` as a RESP array frame.
pub fn render_get(out: &mut Vec<u8>, key: u64) {
    out.extend_from_slice(b"*2\r\n$3\r\nGET\r\n");
    bulk(out, key.to_string().as_bytes());
}

/// Appends `SET key value` as a RESP array frame.
pub fn render_set(out: &mut Vec<u8>, key: u64, value: u64) {
    out.extend_from_slice(b"*3\r\n$3\r\nSET\r\n");
    bulk(out, key.to_string().as_bytes());
    bulk(out, value.to_string().as_bytes());
}

/// One client connection with its receive buffer.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    pos: usize,
    /// `read` calls made so far.
    pub recv_calls: u64,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
            pos: 0,
            recv_calls: 0,
        })
    }

    pub fn send(&mut self, frames: &[u8]) -> io::Result<()> {
        self.stream.write_all(frames)
    }

    /// Reads until `n` replies have been parsed, handing each to `on_reply`
    /// with its index and the instant its bytes arrived.
    pub fn recv(
        &mut self,
        n: usize,
        mut on_reply: impl FnMut(usize, Reply<'_>, Instant),
    ) -> io::Result<()> {
        let mut got = 0;
        let mut arrived = Instant::now();
        let mut chunk = [0u8; 64 * 1024];
        while got < n {
            while got < n {
                let parsed = parse_reply(&self.buf[self.pos..])
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                let Some((reply, used)) = parsed else { break };
                on_reply(got, reply, arrived);
                self.pos += used;
                got += 1;
            }
            if self.pos == self.buf.len() {
                self.buf.clear();
                self.pos = 0;
            }
            if got == n {
                break;
            }
            self.recv_calls += 1;
            let read = self.stream.read(&mut chunk)?;
            if read == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            arrived = Instant::now();
            self.buf.extend_from_slice(&chunk[..read]);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPLIES: &[u8] = b"+OK\r\n$3\r\n123\r\n$-1\r\n:42\r\n-ERR bad\r\n$0\r\n\r\n";

    #[test]
    fn counts_every_reply_type() {
        assert_eq!(count_frames(REPLIES), Ok((6, REPLIES.len())));
    }

    #[test]
    fn counts_only_complete_frames_at_every_split() {
        // Frame boundaries of REPLIES.
        let ends = [5usize, 14, 19, 24, 34, 40];
        for cut in 0..=REPLIES.len() {
            let whole = ends.iter().filter(|&&e| e <= cut).count();
            let used = ends
                .iter()
                .copied()
                .filter(|&e| e <= cut)
                .max()
                .unwrap_or(0);
            assert_eq!(
                count_frames(&REPLIES[..cut]),
                Ok((whole, used)),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn parses_values() {
        assert_eq!(
            parse_reply(b"$3\r\n123\r\n"),
            Ok(Some((Reply::Bulk(Some(b"123")), 9)))
        );
        assert_eq!(parse_reply(b":-7\r\n"), Ok(Some((Reply::Int(-7), 5))));
        assert_eq!(parse_reply(b"$-1\r\n"), Ok(Some((Reply::Bulk(None), 5))));
        assert!(parse_reply(b"?\r\n").is_err());
        assert!(parse_reply(b"$3\r\n123xx").is_err());
    }

    #[test]
    fn renders_array_frames() {
        let mut out = Vec::new();
        render_get(&mut out, 17);
        render_set(&mut out, 5, 1000);
        assert_eq!(
            out,
            b"*2\r\n$3\r\nGET\r\n$2\r\n17\r\n*3\r\n$3\r\nSET\r\n$1\r\n5\r\n$4\r\n1000\r\n".to_vec()
        );
    }
}
