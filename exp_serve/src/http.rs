//! The client side of the server's HTTP/1.1 subset: one request per
//! connection, the reply read until the server closes it.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Longest a single request may take before it counts as a transport
/// failure (the server's own reply timeout is 10 s).
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One answered request, timed from the client.
#[derive(Debug, Clone)]
pub struct Reply {
    pub status: u16,
    pub body: String,
    /// Time to establish the connection.
    pub connect_ns: u64,
    /// Time from the start of the connect until the reply was fully read.
    pub total_ns: u64,
}

impl Reply {
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// Sends `method target` with `body` and reads the whole reply.
pub fn call(addr: SocketAddr, method: &str, target: &str, body: &str) -> Result<Reply, String> {
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let connect_ns = started.elapsed().as_nanos() as u64;
    let io = |e: std::io::Error| format!("{method} {target}: {e}");
    stream.set_nodelay(true).map_err(io)?;
    stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(io)?;
    stream.set_write_timeout(Some(IO_TIMEOUT)).map_err(io)?;
    let mut request = format!(
        "{method} {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n",
        body.len()
    );
    request.push_str(body);
    stream.write_all(request.as_bytes()).map_err(io)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(io)?;
    let total_ns = started.elapsed().as_nanos() as u64;
    let (status, body) = parse_reply(&raw).map_err(|e| format!("{method} {target}: {e}"))?;
    Ok(Reply {
        status,
        body,
        connect_ns,
        total_ns,
    })
}

/// A `GET` with no body.
pub fn get(addr: SocketAddr, target: &str) -> Result<Reply, String> {
    call(addr, "GET", target, "")
}

fn parse_reply(raw: &[u8]) -> Result<(u16, String), String> {
    let text = std::str::from_utf8(raw).map_err(|_| "reply is not UTF-8".to_string())?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("reply without a header terminator ({} bytes)", raw.len()))?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    Ok((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_parse() {
        let raw = b"HTTP/1.1 202 Accepted\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}";
        assert_eq!(parse_reply(raw).unwrap(), (202, "{}".to_string()));
        assert!(parse_reply(b"HTTP/1.1 200 OK\r\n").is_err());
        assert!(parse_reply(b"garbage\r\n\r\n").is_err());
    }
}
