//! Client side of the serve protocol: a persistent, pipelining-capable
//! connection handle.
//!
//! [`ServeClient`] owns one connection for its whole lifetime, so
//! repeated requests pay no connect, handshake or accept, and exposes
//! two tiers of API:
//!
//! 1. **One-shot**: [`ServeClient::request`] (send one line, wait for one
//!    line) and the [`ServeClient::run`] / [`ServeClient::stats`] /
//!    [`ServeClient::shutdown`] conveniences.
//! 2. **Pipelined**: [`ServeClient::send`] enqueues a request without
//!    waiting; [`ServeClient::recv`] collects responses later. The
//!    protocol is line-delimited and the daemon answers each
//!    connection's requests strictly in order, so the k-th response
//!    always belongs to the k-th outstanding request.
//!    [`ServeClient::pipeline`] batches the common send-all-then-recv-all
//!    shape.
//!
//! Any transport error (I/O failure, malformed line, timeout inside
//! `recv`) marks the client *broken*: request/response framing can no
//! longer be trusted, so the handle refuses further use; reconnect
//! instead. Dropping a `ServeClient` closes the connection cleanly (the
//! daemon sees EOF and releases its handler).

use crate::protocol::{LineBuffer, Request, Response};
use std::error::Error;
use std::fmt;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

/// Why a request failed before a well-formed response arrived (connect,
/// I/O, timeout, or parse trouble — a daemon-side `error` status is NOT a
/// `ClientError`; it comes back as a normal [`Response`]).
///
/// [`ClientError::Timeout`] is its own variant because callers react
/// differently to it: a stalled daemon is worth retrying elsewhere,
/// while a framing or protocol error usually means a bug. Both poison
/// the connection either way.
#[derive(Debug)]
pub enum ClientError {
    /// The read budget elapsed with the response still outstanding.
    Timeout(String),
    /// Connect, I/O, framing, or protocol-misuse trouble.
    Transport(String),
}

impl ClientError {
    fn new(message: String) -> ClientError {
        ClientError::Transport(message)
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Timeout(msg) | ClientError::Transport(msg) => f.write_str(msg),
        }
    }
}

impl Error for ClientError {}

/// A persistent connection to the serve daemon.
#[derive(Debug)]
pub struct ServeClient {
    addr: String,
    stream: TcpStream,
    /// Connect/write budget, and how long a blocking
    /// [`ServeClient::recv`] waits before declaring the daemon stalled.
    timeout: Duration,
    /// Bytes read off the socket but not yet consumed as a line.
    rbuf: LineBuffer,
    /// Requests sent whose responses have not been received yet.
    in_flight: usize,
    /// Set on any transport error; the connection's framing is suspect.
    broken: bool,
}

impl ServeClient {
    /// Connect to the daemon at `addr` (trying every resolved address)
    /// with `timeout` as the connect/read/write budget per operation.
    pub fn connect(addr: &str, timeout: Duration) -> Result<ServeClient, ClientError> {
        let stream = humnet_resilience::remote::connect(addr, timeout)
            .map_err(|e| ClientError::new(format!("cannot connect to {addr}: {e}")))?;
        stream
            .set_read_timeout(Some(timeout))
            .and_then(|()| stream.set_write_timeout(Some(timeout)))
            .and_then(|()| stream.set_nodelay(true))
            .map_err(|e| ClientError::new(format!("socket setup: {e}")))?;
        Ok(ServeClient {
            addr: addr.to_owned(),
            stream,
            timeout,
            rbuf: LineBuffer::new(),
            in_flight: 0,
            broken: false,
        })
    }

    fn check_usable(&self) -> Result<(), ClientError> {
        if self.broken {
            return Err(ClientError::new(format!(
                "connection to {} is broken; reconnect",
                self.addr
            )));
        }
        Ok(())
    }

    fn poison<T>(&mut self, message: String) -> Result<T, ClientError> {
        self.broken = true;
        Err(ClientError::new(message))
    }

    /// Send one request line without waiting for the response
    /// (pipelining). Pair each `send` with exactly one successful `recv`.
    pub fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        self.check_usable()?;
        let line = request
            .to_line()
            .map_err(|e| ClientError::new(format!("request serialization: {e}")))?;
        let mut bytes = line.into_bytes();
        bytes.push(b'\n');
        if let Err(e) = self
            .stream
            .write_all(&bytes)
            .and_then(|()| self.stream.flush())
        {
            return self.poison(format!("send to {}: {e}", self.addr));
        }
        self.in_flight += 1;
        Ok(())
    }

    /// Pop the next complete response line out of the read buffer, if one
    /// has fully arrived.
    fn take_buffered_line(&mut self) -> Result<Option<Response>, ClientError> {
        let Some(text) = self.rbuf.next_line() else {
            return Ok(None);
        };
        match Response::from_line(&text) {
            Ok(resp) => {
                self.in_flight = self.in_flight.saturating_sub(1);
                Ok(Some(resp))
            }
            Err(e) => {
                let msg = format!("malformed response from {}: {e}", self.addr);
                self.poison(msg)
            }
        }
    }

    /// Wait (up to the connect timeout) for the next pipelined response;
    /// timing out is a [`ClientError::Timeout`] and breaks the
    /// connection, because the response may still arrive later and
    /// desynchronize the framing.
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        self.check_usable()?;
        if let Some(resp) = self.take_buffered_line()? {
            return Ok(resp);
        }
        if self.in_flight == 0 {
            return Err(ClientError::new(format!(
                "recv from {} with no request in flight",
                self.addr
            )));
        }
        let deadline = Instant::now() + self.timeout;
        let mut chunk = [0u8; 4096];
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                self.broken = true;
                return Err(ClientError::Timeout(format!(
                    "timed out after {:?} waiting for {} response(s) from {}",
                    self.timeout, self.in_flight, self.addr
                )));
            }
            // Read timeouts of zero mean "blocking" to the OS; clamp up.
            if let Err(e) = self
                .stream
                .set_read_timeout(Some(remaining.max(Duration::from_millis(1))))
            {
                return self.poison(format!("socket setup: {e}"));
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    let msg = format!(
                        "{} closed with {} request(s) in flight",
                        self.addr, self.in_flight
                    );
                    return self.poison(msg);
                }
                Ok(n) => {
                    self.rbuf.push(&chunk[..n]);
                    if let Some(resp) = self.take_buffered_line()? {
                        return Ok(resp);
                    }
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut
                        || e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    let msg = format!("read from {}: {e}", self.addr);
                    return self.poison(msg);
                }
            }
        }
    }

    /// Send one request and wait for its response — the one-shot shape
    /// `experiments query` uses.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        if self.in_flight != 0 {
            return Err(ClientError::new(format!(
                "request() with {} response(s) still in flight; drain first",
                self.in_flight
            )));
        }
        self.send(request)?;
        self.recv()
    }

    /// Send every request back-to-back, then collect the responses in
    /// order: one round of N-deep pipelining.
    pub fn pipeline(&mut self, requests: &[Request]) -> Result<Vec<Response>, ClientError> {
        for req in requests {
            self.send(req)?;
        }
        let mut responses = Vec::with_capacity(requests.len());
        for _ in requests {
            responses.push(self.recv()?);
        }
        Ok(responses)
    }

    /// Run one experiment tuple (a `run` request).
    pub fn run(
        &mut self,
        experiment: &str,
        seed: u64,
        profile: &str,
        intensity: f64,
    ) -> Result<Response, ClientError> {
        self.request(&Request::run(experiment, seed, profile, intensity))
    }

    /// Fetch the daemon's telemetry snapshot (a `stats` request).
    pub fn stats(&mut self) -> Result<Response, ClientError> {
        self.request(&Request::stats())
    }

    /// Ask the daemon to drain and exit (a `shutdown` request).
    pub fn shutdown(&mut self) -> Result<Response, ClientError> {
        self.request(&Request::shutdown())
    }
}

impl Drop for ServeClient {
    fn drop(&mut self) {
        // Close both directions now rather than whenever the handle is
        // finally deallocated: the daemon's handler sees EOF and frees
        // its slot immediately.
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Response;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;
    use std::thread;

    const TIMEOUT: Duration = Duration::from_secs(10);

    /// A minimal line server echoing each request's experiment+seed back
    /// as an `ok` message, so tests can verify ordering without the full
    /// daemon. Handles exactly one connection, then exits.
    fn toy_line_server(delay: Duration) -> (String, thread::JoinHandle<usize>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind toy server");
        let addr = listener.local_addr().unwrap().to_string();
        let handle = thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut writer = stream.try_clone().expect("clone");
            let reader = BufReader::new(stream);
            let mut served = 0usize;
            for line in reader.lines() {
                let Ok(line) = line else { break };
                if line.trim().is_empty() {
                    continue;
                }
                let req = Request::from_line(&line).expect("request parses");
                if !delay.is_zero() {
                    thread::sleep(delay);
                }
                let tag = format!(
                    "{}#{}",
                    req.experiment.as_deref().unwrap_or("?"),
                    req.seed.unwrap_or(0)
                );
                let resp = Response::ok(&tag).to_line().unwrap();
                writer.write_all(resp.as_bytes()).unwrap();
                writer.write_all(b"\n").unwrap();
                served += 1;
                if req.cmd == crate::protocol::CMD_SHUTDOWN {
                    break;
                }
            }
            served
        });
        (addr, handle)
    }

    #[test]
    fn pipelined_responses_come_back_in_request_order() {
        let (addr, server) = toy_line_server(Duration::ZERO);
        let mut client = ServeClient::connect(&addr, TIMEOUT).unwrap();
        let requests: Vec<Request> = (0..16u64)
            .map(|s| Request::run("exp", s, "none", 1.0))
            .collect();
        for req in &requests {
            client.send(req).unwrap();
        }
        assert_eq!(client.in_flight, 16);
        for (i, _) in requests.iter().enumerate() {
            let resp = client.recv().unwrap();
            assert_eq!(resp.message.as_deref(), Some(format!("exp#{i}").as_str()));
        }
        assert_eq!(client.in_flight, 0);

        // And the batched helper does the same in one call.
        let responses = client.pipeline(&requests).unwrap();
        assert_eq!(responses.len(), 16);
        for (i, resp) in responses.iter().enumerate() {
            assert_eq!(resp.message.as_deref(), Some(format!("exp#{i}").as_str()));
        }
        drop(client); // EOF lets the toy server exit
        assert_eq!(server.join().unwrap(), 32);
    }

    #[test]
    fn a_closed_peer_breaks_the_client() {
        let (addr, server) = toy_line_server(Duration::ZERO);
        let mut client = ServeClient::connect(&addr, TIMEOUT).unwrap();
        // `shutdown` makes the toy server answer once then close.
        client.send(&Request::shutdown()).unwrap();
        assert_eq!(client.recv().unwrap().status, crate::protocol::STATUS_OK);
        let _ = server.join();
        // The next round trip hits the closed socket and poisons the
        // client (either on send or on recv, depending on the OS).
        client
            .send(&Request::run("exp", 1, "none", 1.0))
            .and_then(|()| client.recv().map(drop))
            .unwrap_err();
        assert!(client.broken);
        client.request(&Request::stats()).unwrap_err();

        // Nothing is listening on the dead address: a fresh dial fails
        // with a transport (not timeout) error.
        let err = ServeClient::connect(&addr, TIMEOUT).unwrap_err();
        assert!(matches!(err, ClientError::Transport(_)), "{err}");
        assert!(err.to_string().contains("cannot connect"), "{err}");
    }

    #[test]
    fn a_stalled_daemon_times_out_with_a_typed_error() {
        // The toy server sleeps 10x the read budget before answering.
        let (addr, server) = toy_line_server(Duration::from_millis(500));
        let mut client = ServeClient::connect(&addr, Duration::from_millis(50)).unwrap();

        let t0 = Instant::now();
        let err = client.run("exp", 1, "none", 1.0).unwrap_err();
        assert!(t0.elapsed() < TIMEOUT / 2, "timed out on the read budget");
        assert!(matches!(err, ClientError::Timeout(_)), "{err}");
        assert!(err.to_string().contains("timed out"), "{err}");
        // The response may still arrive later and desynchronize framing,
        // so the client is poisoned.
        assert!(client.broken);
        client.request(&Request::stats()).unwrap_err();
        drop(server); // toy server thread parks in its sleep; process exit reaps it
    }

    #[test]
    fn non_timeout_errors_report_as_transport() {
        let err = ClientError::new("cannot resolve 'nowhere'".to_owned());
        assert!(matches!(err, ClientError::Transport(_)));
        assert_eq!(err.to_string(), "cannot resolve 'nowhere'");
        let timeout = ClientError::Timeout("timed out after 1s".to_owned());
        assert!(matches!(timeout, ClientError::Timeout(_)));
        assert_eq!(timeout.to_string(), "timed out after 1s");
    }
}
