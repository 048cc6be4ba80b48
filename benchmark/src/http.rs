//! A minimal HTTP/1.1 client for the analysis server.
//!
//! The server answers one request per connection and closes it, so a
//! response is read to end of stream: a `Content-Length` body must be
//! complete, and the progress stream, which has no length, is delimited
//! by the close.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use icicle::obs::Json;

/// No single exchange may take longer than this; a wedged server fails
/// the operation instead of the whole run.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// A parsed response.
#[derive(Clone, PartialEq, Debug)]
pub struct Response {
    pub status: u16,
    /// Header names are lowercased.
    pub headers: Vec<(String, String)>,
    pub body: String,
}

/// Parses a whole response as read up to the connection close.
pub fn parse_response(raw: &[u8]) -> Result<Response, String> {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response head is not terminated")?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| "response head is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let mut parts = status_line.splitn(3, ' ');
    if !parts.next().unwrap_or_default().starts_with("HTTP/1.") {
        return Err(format!("bad status line `{status_line}`"));
    }
    let status = parts
        .next()
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status code in `{status_line}`"))?;
    let mut headers = Vec::new();
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| format!("bad header line `{line}`"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let mut body = &raw[split + 4..];
    let length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| format!("bad content-length `{v}`"))
        })
        .transpose()?;
    if let Some(length) = length {
        if body.len() < length {
            return Err(format!("body truncated: {} of {length} bytes", body.len()));
        }
        body = &body[..length];
    }
    let body = String::from_utf8(body.to_vec()).map_err(|_| "response body is not UTF-8")?;
    Ok(Response {
        status,
        headers,
        body,
    })
}

/// Sends one request and reads the whole response.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<Response, String> {
    let io = |e: std::io::Error| format!("{method} {path}: {e}");
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT).map_err(io)?;
    stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(io)?;
    stream.set_write_timeout(Some(IO_TIMEOUT)).map_err(io)?;
    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).map_err(io)?;
    stream.write_all(body.as_bytes()).map_err(io)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(io)?;
    parse_response(&raw).map_err(|e| format!("{method} {path}: {e}"))
}

/// Parses a JSONL body (the progress stream) into its documents.
pub fn jsonl(body: &str) -> Result<Vec<Json>, String> {
    body.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Json::parse(l).map_err(|e| format!("bad progress line `{l}`: {e}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_length_delimited_response() {
        let raw = b"HTTP/1.1 202 Accepted\r\nContent-Type: application/json\r\n\
                    Content-Length: 9\r\nX-Icicle-Trace: 00ab\r\nConnection: close\r\n\r\n{\"id\": 7}";
        let r = parse_response(raw).unwrap();
        assert_eq!(r.status, 202);
        assert!(r
            .headers
            .contains(&("x-icicle-trace".into(), "00ab".into())));
        assert_eq!(r.body, "{\"id\": 7}");
        // Bytes past the declared length are not body.
        let mut longer = raw.to_vec();
        longer.extend_from_slice(b"junk");
        assert_eq!(parse_response(&longer).unwrap().body, "{\"id\": 7}");
    }

    #[test]
    fn reads_a_close_delimited_progress_stream() {
        let raw =
            b"HTTP/1.1 200 OK\r\nContent-Type: application/jsonl\r\nConnection: close\r\n\r\n\
                    {\"id\":1,\"state\":\"queued\"}\n{\"id\":1,\"state\":\"running\",\"done\":2}\n\
                    {\"id\":1,\"state\":\"done\",\"cached\":3}\n";
        let r = parse_response(raw).unwrap();
        assert_eq!(r.status, 200);
        let lines = jsonl(&r.body).unwrap();
        assert_eq!(lines.len(), 3);
        let last = lines.last().unwrap();
        assert_eq!(last.get("state").and_then(Json::as_str), Some("done"));
        assert_eq!(last.get("cached").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn rejects_broken_responses() {
        assert!(parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n").is_err());
        assert!(parse_response(b"SPDY 200 OK\r\n\r\n").is_err());
        assert!(parse_response(b"HTTP/1.1 abc OK\r\n\r\n").is_err());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort").is_err());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\nno colon\r\n\r\n").is_err());
        assert!(jsonl("{\"ok\": true}\n{broken\n").is_err());
    }
}
