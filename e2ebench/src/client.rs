//! A minimal HTTP/1.1 client for the serving edge: one request, one
//! `Content-Length`-framed response, over a caller-owned connection.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// How long a read may block before the request counts as failed.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// One parsed response.
#[derive(Debug)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Handler time from the edge's `X-Evorec-Timing: …;total=<n>ns`
    /// header (0 when absent).
    pub handler_ns: u64,
    /// Response body.
    pub body: Vec<u8>,
}

/// Open a connection to the edge, configured like every benchmark
/// connection.
pub fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// The raw bytes of a request: `POST` when `body` is `Some`, `GET`
/// otherwise; `keep_alive = false` asks the edge to close after
/// answering.
pub fn encode(path: &str, body: Option<&str>, keep_alive: bool) -> Vec<u8> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let (method, body) = match body {
        Some(b) => ("POST", b),
        None => ("GET", ""),
    };
    format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: {connection}\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Write `request` (from [`encode`]) and read one response off `stream`.
pub fn exchange(stream: &mut TcpStream, request: &[u8]) -> io::Result<Reply> {
    stream.write_all(request)?;
    read_reply(stream)
}

fn read_reply(stream: &mut TcpStream) -> io::Result<Reply> {
    let mut buf = Vec::with_capacity(4096);
    let mut chunk = [0u8; 8192];
    let head_end = loop {
        if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break p;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "closed before head",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-utf8 head"))?;
    let (status, content_length, handler_ns) = parse_head(head)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed head"))?;
    let total = head_end + 4 + content_length;
    while buf.len() < total {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "closed mid-body",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    Ok(Reply {
        status,
        handler_ns,
        body: buf[head_end + 4..total].to_vec(),
    })
}

/// `(status, content length, handler nanos)` of a response head.
fn parse_head(head: &str) -> Option<(u16, usize, u64)> {
    let mut lines = head.split("\r\n");
    let status = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let mut content_length = None;
    let mut handler_ns = 0;
    for line in lines {
        let (key, value) = line.split_once(':')?;
        let value = value.trim();
        if key.eq_ignore_ascii_case("content-length") {
            content_length = value.parse().ok();
        } else if key.eq_ignore_ascii_case("x-evorec-timing") {
            handler_ns = value
                .split(';')
                .find_map(|part| part.strip_prefix("total="))
                .and_then(|t| t.strip_suffix("ns"))
                .and_then(|t| t.parse().ok())
                .unwrap_or(0);
        }
    }
    Some((status, content_length?, handler_ns))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_parsing_reads_status_length_and_timing() {
        let head = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                    Content-Length: 17\r\nX-Evorec-Timing: endpoint=recommend;total=48213ns";
        assert_eq!(parse_head(head), Some((200, 17, 48213)));
        assert_eq!(
            parse_head("HTTP/1.1 429 Too Many\r\ncontent-length: 0"),
            Some((429, 0, 0))
        );
        assert_eq!(parse_head("HTTP/1.1 200 OK"), None, "no length, no framing");
    }

    #[test]
    fn requests_carry_their_framing() {
        let raw = String::from_utf8(encode("/v1/recommend", Some("{}"), false)).unwrap();
        assert!(raw.starts_with("POST /v1/recommend HTTP/1.1\r\n"));
        assert!(raw.contains("Connection: close\r\n"));
        assert!(raw.ends_with("Content-Length: 2\r\n\r\n{}"));
        let raw = String::from_utf8(encode("/metrics", None, true)).unwrap();
        assert!(raw.starts_with("GET /metrics HTTP/1.1\r\n"));
    }
}
