//! Client helpers for the NDJSON protocol — what `repro submit` /
//! `status` / `stats` / `cancel` / `watch` are built on.

use crate::json::{parse, Json};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;

/// A client-side protocol failure.
#[derive(Debug)]
pub enum ClientError {
    /// Could not reach or talk to the server.
    Io(std::io::Error),
    /// The server replied `ok:false`; `(kind, error)` from the reply.
    Rejected(String, String),
    /// The server's reply was not understood.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "cannot reach server: {e}"),
            ClientError::Rejected(kind, error) => write!(f, "rejected ({kind}): {error}"),
            ClientError::Protocol(e) => write!(f, "bad server reply: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Sends one request line, returns the first response line (raw JSON).
///
/// # Errors
///
/// [`ClientError::Io`] when the socket is unreachable or closed early.
pub(crate) fn request_line(socket: &Path, line: &str) -> Result<String, ClientError> {
    let mut stream = UnixStream::connect(socket)?;
    writeln!(stream, "{line}")?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader.read_line(&mut reply)?;
    if reply.is_empty() {
        return Err(ClientError::Protocol("server closed the connection".into()));
    }
    Ok(reply.trim_end().to_string())
}

/// Checks an `ok`-shaped reply, surfacing the server's typed rejection.
///
/// # Errors
///
/// [`ClientError::Rejected`] for `ok:false`, [`ClientError::Protocol`]
/// for anything unparseable.
pub(crate) fn expect_ok(reply: &str) -> Result<Json, ClientError> {
    let doc = parse(reply).map_err(|e| ClientError::Protocol(e.to_string()))?;
    match doc.get("ok").and_then(Json::as_bool) {
        Some(true) => Ok(doc),
        Some(false) => {
            let kind = doc.get("kind").and_then(Json::as_str).unwrap_or("unknown").to_string();
            let error = doc.get("error").and_then(Json::as_str).unwrap_or(reply).to_string();
            Err(ClientError::Rejected(kind, error))
        }
        None => Err(ClientError::Protocol(format!("no 'ok' member in: {reply}"))),
    }
}

/// Submits a spec (raw JSON object text); returns the job id.
///
/// # Errors
///
/// The transport error or the server's typed rejection.
pub fn submit(socket: &Path, spec_json: &str) -> Result<u64, ClientError> {
    let reply = request_line(socket, &format!("{{\"cmd\":\"submit\",\"spec\":{spec_json}}}"))?;
    let doc = expect_ok(&reply)?;
    doc.get("job")
        .and_then(Json::as_u64)
        .ok_or_else(|| ClientError::Protocol(format!("no 'job' in: {reply}")))
}

/// Cancels a job.
///
/// # Errors
///
/// The transport error or the server's rejection.
pub fn cancel(socket: &Path, job: u64) -> Result<(), ClientError> {
    let reply = request_line(socket, &format!("{{\"cmd\":\"cancel\",\"job\":{job}}}"))?;
    expect_ok(&reply).map(|_| ())
}

/// Fetches the status reply (raw JSON line).
///
/// # Errors
///
/// The transport error or the server's rejection.
pub fn status(socket: &Path) -> Result<String, ClientError> {
    let reply = request_line(socket, "{\"cmd\":\"status\"}")?;
    expect_ok(&reply)?;
    Ok(reply)
}

/// Fetches the service-metrics reply (raw JSON line): queue depth,
/// per-state job counts, latency quantiles, and the dropped-event
/// ledger.
///
/// # Errors
///
/// The transport error or the server's rejection.
pub fn stats(socket: &Path) -> Result<String, ClientError> {
    let reply = request_line(socket, "{\"cmd\":\"stats\"}")?;
    expect_ok(&reply)?;
    Ok(reply)
}

/// Asks the server to drain and exit.
///
/// # Errors
///
/// The transport error or the server's rejection.
pub fn shutdown(socket: &Path) -> Result<(), ClientError> {
    let reply = request_line(socket, "{\"cmd\":\"shutdown\"}")?;
    expect_ok(&reply).map(|_| ())
}

/// Streams a job's events (history then live) into `out` until the job
/// reaches a terminal state or the server parks it for shutdown.
/// Returns the final status line.
///
/// # Errors
///
/// [`ClientError::Io`] when the socket drops mid-stream.
pub fn watch(socket: &Path, job: u64, out: &mut dyn std::io::Write) -> Result<String, ClientError> {
    let mut stream = UnixStream::connect(socket)?;
    writeln!(stream, "{{\"cmd\":\"watch\",\"job\":{job}}}")?;
    stream.flush()?;
    let reader = BufReader::new(stream);
    let mut last = String::new();
    for line in reader.lines() {
        let line = line?;
        if line.starts_with("{\"ok\":") {
            last = line;
            break;
        }
        writeln!(out, "{line}").map_err(ClientError::Io)?;
    }
    if last.is_empty() {
        return Err(ClientError::Protocol("stream ended without a status line".into()));
    }
    expect_ok(&last)?;
    Ok(last)
}
