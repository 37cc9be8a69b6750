//! Dependency-free HTTP/1.1 plumbing shared by the metrics exporter and
//! the policy-serving daemon (`hero-serve`).
//!
//! One [`serve_http`] call owns a nonblocking listener on a background
//! accept thread; each accepted connection is handled on its own short-
//! lived thread so slow readers and long-polling handlers (the serving
//! daemon parks `/act` requests until their micro-batch completes) never
//! block the accept loop or each other. The request parser reads the
//! head, honours `Content-Length` for bodies (capped), and hands the
//! router a [`Request`]; the router returns a [`Response`] which is
//! written with `Connection: close` framing.
//!
//! The client half ([`http_get`], [`http_request`]) is a minimal
//! blocking HTTP/1.1 implementation used by `hero-inspect watch`,
//! `hero-load`, and tests.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Largest request head accepted before answering 400.
const MAX_HEAD: usize = 8192;
/// Largest request body accepted before answering 413.
const MAX_BODY: usize = 1 << 20;

/// One parsed HTTP request, as handed to a [`serve_http`] router.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...), as sent.
    pub method: String,
    /// Request path with any `?query` suffix stripped.
    pub path: String,
    /// Request body (empty when the request carried none).
    pub body: Vec<u8>,
}

/// The response a router returns for a [`Request`].
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code (200, 404, ...).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl Response {
    /// A `200 OK` plain-text response.
    pub fn ok(body: impl Into<String>) -> Self {
        Self::with_status(200, body)
    }

    /// A plain-text response with an explicit status code.
    pub fn with_status(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
        }
    }

    /// Overrides the `Content-Type` header.
    #[must_use]
    pub fn content_type(mut self, ct: &'static str) -> Self {
        self.content_type = ct;
        self
    }
}

/// The standard reason phrase for the status codes this stack emits.
fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "",
    }
}

/// A router: maps each parsed request to a response. Shared across
/// connection threads, so it must be `Send + Sync`.
pub type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

/// Handle to a running HTTP server; shuts the listener down on drop.
///
/// Dropping stops the accept loop and joins it. Connection threads
/// already handling a request are left to finish on their own (they
/// carry short socket timeouts), so an in-flight response is never cut
/// off mid-write by shutdown.
pub struct HttpServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// The bound address (resolves port `0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Binds `addr` (e.g. `127.0.0.1:9464`, port `0` for ephemeral) and
/// serves `handler` from background threads until the returned handle
/// drops. `thread_name` names the accept thread in process listings.
///
/// # Errors
///
/// Returns the bind error (address in use, permission, malformed addr).
pub fn serve_http(addr: &str, thread_name: &str, handler: Handler) -> io::Result<HttpServer> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let stop = Arc::clone(&shutdown);
    let handle = std::thread::Builder::new()
        .name(thread_name.to_string())
        .spawn(move || {
            // Poll backoff: connections often arrive in bursts (a served
            // micro-batch completing releases many clients at once), so
            // an empty accept right after traffic re-polls in 200us; only
            // a listener that stays idle escalates to the 10ms cadence.
            let mut idle_polls: u32 = 0;
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        idle_polls = 0;
                        let h = Arc::clone(&handler);
                        let spawned = std::thread::Builder::new()
                            .name("hero-http-conn".into())
                            .spawn(move || {
                                let _ = handle_connection(stream, &h);
                            });
                        if spawned.is_err() {
                            // Spawn failure (fd/thread exhaustion): drop the
                            // connection rather than the whole server.
                            std::thread::sleep(Duration::from_millis(10));
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        if stop.load(Ordering::Relaxed) {
                            return;
                        }
                        idle_polls = idle_polls.saturating_add(1);
                        let us = (200u64 << (idle_polls / 8).min(6)).min(10_000);
                        std::thread::sleep(Duration::from_micros(us));
                    }
                    Err(_) => {
                        if stop.load(Ordering::Relaxed) {
                            return;
                        }
                        std::thread::sleep(Duration::from_millis(10));
                    }
                }
            }
        })?;
    Ok(HttpServer {
        addr,
        shutdown,
        handle: Some(handle),
    })
}

/// Reads one request off `stream`, routes it, writes the response.
fn handle_connection(mut stream: TcpStream, handler: &Handler) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    // Read until the end of the request head.
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD {
            return respond(&mut stream, &Response::with_status(400, "request head too large\n"));
        }
        match stream.read(&mut chunk) {
            Ok(0) => break buf.len(),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                break buf.len()
            }
            Err(e) => return Err(e),
        }
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("");
    let path = path.split('?').next().unwrap_or(path).to_string();

    // Body: everything after the head terminator, up to Content-Length.
    // The value must be a decimal integer; one that is not (`abc`, `-1`,
    // empty) is refused rather than read as 0, which would drop the body.
    let declared = head.lines().skip(1).find_map(|line| {
        let (name, value) = line.split_once(':')?;
        name.trim()
            .eq_ignore_ascii_case("content-length")
            .then(|| value.trim())
    });
    let content_length = match declared {
        None => 0,
        Some(v) if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) => {
            return respond(
                &mut stream,
                &Response::with_status(400, "bad content-length\n"),
            );
        }
        // Digits that overflow `usize` are over the cap too.
        Some(v) => v.parse::<usize>().unwrap_or(usize::MAX),
    };
    if content_length > MAX_BODY {
        return respond(&mut stream, &Response::with_status(413, "request body too large\n"));
    }
    let body_start = (head_end + 4).min(buf.len());
    let mut body = buf[body_start..].to_vec();
    while body.len() < content_length {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                break
            }
            Err(e) => return Err(e),
        }
    }
    body.truncate(content_length);

    let request = Request { method, path, body };
    let response = handler(&request);
    respond(&mut stream, &response)
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn respond(stream: &mut TcpStream, response: &Response) -> io::Result<()> {
    let wire = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        response.status,
        status_text(response.status),
        response.content_type,
        response.body.len(),
        response.body
    );
    stream.write_all(wire.as_bytes())?;
    stream.flush()
}

/// A minimal blocking HTTP/1.1 GET, used by `hero-inspect watch` and by
/// tests. Accepts `http://HOST:PORT/path`, `HOST:PORT/path`, or bare
/// `HOST:PORT` (which defaults to `/snapshot`). Returns the response body.
///
/// # Errors
///
/// Returns connection errors and non-200 statuses as `io::Error`.
pub fn http_get(url: &str) -> io::Result<String> {
    let (status, body) = http_request("GET", url, "")?;
    if status != 200 {
        return Err(io::Error::other(format!("HTTP error from {url}: status {status}")));
    }
    Ok(body)
}

/// A minimal blocking HTTP/1.1 request with a body, returning
/// `(status, body)` without treating non-200 statuses as errors — the
/// serving daemon's clients need to observe 409s from `/reload`.
/// Accepts the same URL forms as [`http_get`].
///
/// # Errors
///
/// Returns connection and protocol errors as `io::Error`.
pub fn http_request(method: &str, url: &str, body: &str) -> io::Result<(u16, String)> {
    let rest = url.strip_prefix("http://").unwrap_or(url);
    let (host, path) = match rest.find('/') {
        Some(i) => (&rest[..i], &rest[i..]),
        None => (rest, "/snapshot"),
    };
    let mut stream = TcpStream::connect(host)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {host}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let Some((head, body)) = text.split_once("\r\n\r\n") else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "malformed HTTP response (no header terminator)",
        ));
    };
    let status_line = head.lines().next().unwrap_or("");
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed HTTP status line: {status_line:?}"),
            )
        })?;
    Ok((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_server() -> HttpServer {
        let handler: Handler = Arc::new(|req: &Request| match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/echo") => {
                Response::ok(String::from_utf8_lossy(&req.body).into_owned())
            }
            ("GET", "/hello") => Response::ok("hi\n"),
            _ => Response::with_status(404, "no route\n"),
        });
        serve_http("127.0.0.1:0", "http-test", handler).expect("bind")
    }

    #[test]
    fn post_bodies_reach_the_handler() {
        let server = echo_server();
        let base = server.local_addr();
        let (status, body) =
            http_request("POST", &format!("http://{base}/echo"), "round trip").expect("post");
        assert_eq!(status, 200);
        assert_eq!(body, "round trip");
    }

    /// Sends `head` plus a 3-byte body over a raw socket and returns the
    /// response's status code.
    fn raw_status(addr: std::net::SocketAddr, head: &str) -> u16 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(format!("{head}\r\n\r\nabc").as_bytes()).expect("send");
        let mut reply = String::new();
        stream.read_to_string(&mut reply).expect("read reply");
        reply
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("no status in {reply:?}"))
    }

    #[test]
    fn unparseable_content_length_is_refused() {
        let server = echo_server();
        let addr = server.local_addr();
        for (value, want) in [("abc", 400), ("-1", 400), ("99999999999999999999999", 413)] {
            let head = format!("POST /echo HTTP/1.1\r\nContent-Length: {value}");
            assert_eq!(raw_status(addr, &head), want, "Content-Length: {value}");
        }
        assert_eq!(raw_status(addr, "POST /echo HTTP/1.1\r\nContent-Length: 3"), 200);
    }

    #[test]
    fn non_200_statuses_are_reported_not_errored() {
        let server = echo_server();
        let base = server.local_addr();
        let (status, _) = http_request("GET", &format!("http://{base}/nope"), "").expect("request");
        assert_eq!(status, 404);
        assert!(http_get(&format!("http://{base}/nope")).is_err());
    }

    #[test]
    fn concurrent_requests_are_served_in_parallel() {
        // Two in-flight requests must both complete even though the
        // second arrives while the first is still being handled — the
        // serving daemon's micro-batcher depends on this.
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let b = Arc::clone(&barrier);
        let handler: Handler = Arc::new(move |_req: &Request| {
            b.wait();
            Response::ok("both\n")
        });
        let server = serve_http("127.0.0.1:0", "http-test", handler).expect("bind");
        let base = server.local_addr();
        let t1 = std::thread::spawn(move || http_get(&format!("http://{base}/hello")));
        let t2 = std::thread::spawn(move || http_get(&format!("http://{base}/hello")));
        assert_eq!(t1.join().unwrap().expect("first"), "both\n");
        assert_eq!(t2.join().unwrap().expect("second"), "both\n");
    }
}
