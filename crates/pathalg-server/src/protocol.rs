//! The typed request/response protocol and the unix-socket server.
//!
//! The wire format is line-oriented text — one request and one response per
//! line group, no framing beyond `\n` — but inside the process every request
//! is a typed [`Request`] and every answer a typed [`Response`], parsed and
//! rendered once at the socket boundary ([`Request::parse`] /
//! [`Response::render`]). A query answer is the exception that carries the
//! load: its `PATH` lines are rendered once, by the evaluating request,
//! into the shared [`crate::service::QueryOutcome::body`], and the socket loop
//! writes those bytes unchanged after the `OK` header. One dispatch,
//! `respond`, answers every request line for the socket loop and for
//! [`handle_line`], the collecting view tests and embedders drive directly,
//! which cuts its paths from the same body.
//!
//! A request line longer than [`MAX_REQUEST_LINE_BYTES`] is answered with
//! `ERR protocol` and closes the connection.
//!
//! | request                         | response                             |
//! |---------------------------------|--------------------------------------|
//! | `QUERY <gql>`                   | `OK <n> cache=<hit\|miss> dedup=<leader\|waiter> epoch=<e> trace=<id>` then `PATH <ids>` × n, then `END` — or `ERR <kind>: <message>` |
//! | `QUERY GQL\|RPQ\|IR <payload>`  | same — the tag picks the query surface ([`QuerySurface`]) |
//! | `QUERY [tag] DEADLINE <ms> <payload>` | same — the request fails with `ERR timeout: …` once `<ms>` milliseconds have elapsed |
//! | `STATS`                         | `STATS <counters>` (single-line [`crate::MetricsSnapshot`] display form) |
//! | `METRICS`                       | `METRICS`, then the Prometheus-style exposition lines ([`crate::Metrics::expose`]), then `END` |
//! | `TRACE <id>`                    | `TRACE <id>`, then the per-request report lines ([`crate::trace::QueryTrace`] display form), then `END` — or `ERR protocol: …` when the id fell out of the ring |
//! | `EPOCH`                         | `EPOCH <n>`                          |
//! | `BUMP`                          | `EPOCH <n>` (after advancing the epoch and purging every cached plan; nothing is recomputed) |
//! | `PING`                          | `PONG`                               |
//! | `QUIT`                          | connection closed                    |
//!
//! A bare `QUERY <text>` defaults to the GQL surface, so pre-redesign
//! clients keep working unchanged. Because every surface lowers through the
//! same checked IR, `QUERY GQL …`, `QUERY RPQ …` and `QUERY IR …` spelling
//! the same logical query share one cached plan and one in-flight
//! evaluation — the `cache=`/`dedup=` fields make that observable.
//!
//! The server ([`serve`]) runs one OS thread per connection: connections are
//! long-lived and few (this is an experiment harness, not a C10K server),
//! and a blocked connection thread costs nothing while the engine threads do
//! the real work. [`Client`] is the matching blocking client used by the
//! `repro serve` demo, the benches, and the tests; [`Client::query`] returns
//! the typed [`Response`], whose query answer keeps its `PATH` lines in the
//! one buffer they were read into ([`PathLines`]).

use crate::metrics::Metrics;
use crate::service::{CacheStatus, DedupRole, QueryOutcome, QueryService, PATH_PREFIX};
use pathalg_parser::QuerySurface;
use std::fmt;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The longest request line the server reads, in bytes, newline excluded.
/// A longer line is answered with `ERR protocol` and the connection is
/// closed, so no client can make the server buffer without bound.
pub const MAX_REQUEST_LINE_BYTES: usize = 1 << 20;

/// The buffer size of both socket ends: a connection writes a rendered
/// answer in writes of at least this many bytes, and the client reads
/// through a buffer this large.
const IO_CHUNK_BYTES: usize = 64 * 1024;

/// One parsed protocol request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// `QUERY [GQL|RPQ|IR] [DEADLINE <ms>] <payload>` — run a query on the
    /// tagged surface, optionally under a wire-settable deadline.
    Query {
        /// The surface the payload is written in.
        surface: QuerySurface,
        /// Per-request deadline in milliseconds (min-combined with the
        /// service's default); `None` runs under the default alone.
        deadline_ms: Option<u64>,
        /// The query text (GQL, an RPQ rule, or a JSON IR document).
        text: String,
    },
    /// `STATS` — the service counters (single line).
    Stats,
    /// `METRICS` — the multi-line Prometheus-style exposition.
    Metrics,
    /// `TRACE <id>` — the per-request report of one retained trace.
    Trace(u64),
    /// `EPOCH` — the current epoch.
    Epoch,
    /// `BUMP` — advance the epoch and purge every cached plan.
    Bump,
    /// `PING` — liveness check.
    Ping,
    /// `QUIT` — close the connection.
    Quit,
    /// An empty line (ignored; yields [`Response::Empty`]).
    Empty,
}

impl Request {
    /// Parses one wire line. Errors are protocol-level (unknown command,
    /// missing payload) and carry the message the server echoes back.
    pub fn parse(line: &str) -> Result<Request, String> {
        let line = line.trim_end_matches(['\r', '\n']);
        let (command, rest) = match line.split_once(' ') {
            Some((c, r)) => (c, r.trim()),
            None => (line, ""),
        };
        match command {
            "" => Ok(Request::Empty),
            "PING" => Ok(Request::Ping),
            "EPOCH" => Ok(Request::Epoch),
            "BUMP" => Ok(Request::Bump),
            "STATS" => Ok(Request::Stats),
            "METRICS" => Ok(Request::Metrics),
            "TRACE" if !rest.is_empty() => rest
                .parse()
                .map(Request::Trace)
                .map_err(|_| format!("TRACE needs a numeric trace id, got {rest}")),
            "TRACE" => Err("TRACE needs a trace id".to_string()),
            "QUIT" => Ok(Request::Quit),
            "QUERY" if !rest.is_empty() => {
                // An optional surface tag before the payload; bare text is GQL.
                let (surface, rest) = match rest.split_once(' ') {
                    Some((tag, payload)) => match QuerySurface::from_tag(tag) {
                        Some(surface) => (surface, payload.trim()),
                        None => (QuerySurface::Gql, rest),
                    },
                    None => match QuerySurface::from_tag(rest) {
                        Some(_) => {
                            return Err(format!("QUERY {rest} needs a query text"));
                        }
                        None => (QuerySurface::Gql, rest),
                    },
                };
                // An optional `DEADLINE <ms>` field before the payload.
                let (deadline_ms, text) = match rest.strip_prefix("DEADLINE ") {
                    Some(tail) => {
                        let (ms, payload) = tail.trim_start().split_once(' ').ok_or_else(|| {
                            "DEADLINE needs milliseconds and a query text".to_string()
                        })?;
                        let ms = ms.parse().map_err(|_| {
                            format!("DEADLINE needs numeric milliseconds, got {ms}")
                        })?;
                        (Some(ms), payload.trim())
                    }
                    None => (None, rest),
                };
                Ok(Request::Query {
                    surface,
                    deadline_ms,
                    text: text.to_string(),
                })
            }
            "QUERY" => Err("QUERY needs a query text".to_string()),
            other => Err(format!("unknown command {other}")),
        }
    }

    /// Renders the request as its wire line (the inverse of
    /// [`Request::parse`]; queries always carry the explicit surface tag).
    pub fn render(&self) -> String {
        match self {
            Request::Query {
                surface,
                deadline_ms,
                text,
            } => match deadline_ms {
                Some(ms) => format!("QUERY {} DEADLINE {} {}", surface.tag(), ms, text),
                None => format!("QUERY {} {}", surface.tag(), text),
            },
            Request::Stats => "STATS".to_string(),
            Request::Metrics => "METRICS".to_string(),
            Request::Trace(id) => format!("TRACE {id}"),
            Request::Epoch => "EPOCH".to_string(),
            Request::Bump => "BUMP".to_string(),
            Request::Ping => "PING".to_string(),
            Request::Quit => "QUIT".to_string(),
            Request::Empty => String::new(),
        }
    }
}

/// The typed payload of a successful query response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryReply {
    /// Whether planning came from the plan cache.
    pub cache: CacheStatus,
    /// Whether this request evaluated (leader) or coalesced (waiter).
    pub dedup: DedupRole,
    /// The epoch the request ran under.
    pub epoch: u64,
    /// The id of the request's retained trace (`TRACE <id>` reads it back).
    /// `None` only when talking to a pre-trace server.
    pub trace: Option<u64>,
    /// The canonical result lines, one per path, in result order.
    pub paths: PathLines,
}

/// The result lines of a query answer, kept as the text the wire carries
/// between the `OK` header and `END`: one `PATH <ids>\n` line per path, in
/// one buffer. Every line is checked to carry the `PATH ` prefix when the
/// value is built; [`PathLines::iter`] cuts it off.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PathLines {
    text: String,
    len: usize,
}

impl PathLines {
    /// The number of paths.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the answer holds no path.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The canonical line of each path (its `display_ids` form), in result
    /// order.
    pub fn iter(&self) -> PathLineIter<'_> {
        PathLineIter(self.text.lines())
    }
}

impl<S: AsRef<str>> FromIterator<S> for PathLines {
    /// Builds the lines of the paths whose canonical lines are `paths`.
    fn from_iter<I: IntoIterator<Item = S>>(paths: I) -> Self {
        let mut lines = Self::default();
        for path in paths {
            lines.text.push_str(PATH_PREFIX);
            lines.text.push_str(path.as_ref());
            lines.text.push('\n');
            lines.len += 1;
        }
        lines
    }
}

impl<'a> IntoIterator for &'a PathLines {
    type Item = &'a str;
    type IntoIter = PathLineIter<'a>;

    fn into_iter(self) -> PathLineIter<'a> {
        self.iter()
    }
}

/// The iterator of [`PathLines::iter`].
#[derive(Clone, Debug)]
pub struct PathLineIter<'a>(std::str::Lines<'a>);

impl<'a> Iterator for PathLineIter<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        self.0.next().map(|line| &line[PATH_PREFIX.len()..])
    }
}

/// One typed protocol response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// A successful query (`OK …` / `PATH …` × n / `END`).
    Query(QueryReply),
    /// `PONG`.
    Pong,
    /// `EPOCH <n>`.
    Epoch(u64),
    /// `STATS <counters>`.
    Stats(String),
    /// `METRICS` / exposition lines / `END` — the multi-line Prometheus-
    /// style text (stored without the framing lines).
    Metrics(String),
    /// `TRACE <id>` / report lines / `END` — one retained trace's report
    /// (stored without the framing lines).
    Trace {
        /// The trace id the report describes.
        id: u64,
        /// The report body ([`crate::trace::QueryTrace`] display form).
        report: String,
    },
    /// The empty response to an empty request line.
    Empty,
    /// `ERR <kind>: <message>` — `kind` is `parse`, `admission`,
    /// `evaluation` ([`crate::ServiceError::kind`]) or `protocol`.
    Error {
        /// The error category.
        kind: String,
        /// The single-line message.
        message: String,
    },
}

/// The `OK …` header line of a query answer.
fn query_header(
    paths: usize,
    cache: CacheStatus,
    dedup: DedupRole,
    epoch: u64,
    trace: Option<u64>,
) -> String {
    let mut header = format!("OK {paths} cache={cache} dedup={dedup} epoch={epoch}");
    if let Some(trace) = trace {
        header.push_str(&format!(" trace={trace}"));
    }
    header
}

impl Response {
    /// Renders the response as its wire lines (the server side of the
    /// boundary).
    pub fn render(&self) -> Vec<String> {
        match self {
            Response::Query(reply) => {
                let mut out = Vec::with_capacity(reply.paths.len() + 2);
                out.push(query_header(
                    reply.paths.len(),
                    reply.cache,
                    reply.dedup,
                    reply.epoch,
                    reply.trace,
                ));
                out.extend(reply.paths.text.lines().map(str::to_string));
                out.push("END".to_string());
                out
            }
            Response::Pong => vec!["PONG".to_string()],
            Response::Epoch(n) => vec![format!("EPOCH {n}")],
            Response::Stats(counters) => vec![format!("STATS {counters}")],
            Response::Metrics(text) => {
                let mut out = vec!["METRICS".to_string()];
                out.extend(text.lines().map(str::to_string));
                out.push("END".to_string());
                out
            }
            Response::Trace { id, report } => {
                let mut out = vec![format!("TRACE {id}")];
                out.extend(report.lines().map(str::to_string));
                out.push("END".to_string());
                out
            }
            Response::Empty => Vec::new(),
            Response::Error { kind, message } => vec![format!("ERR {kind}: {message}")],
        }
    }

    /// Parses response lines back into the typed form (the client side of
    /// the boundary). Errors mean the peer violated the protocol.
    pub fn parse(lines: &[String]) -> Result<Response, String> {
        let Some(first) = lines.first() else {
            return Ok(Response::Empty);
        };
        if first == "PONG" {
            return Ok(Response::Pong);
        }
        if let Some(n) = first.strip_prefix("EPOCH ") {
            return n
                .parse()
                .map(Response::Epoch)
                .map_err(|_| format!("malformed epoch line: {first}"));
        }
        if let Some(counters) = first.strip_prefix("STATS ") {
            return Ok(Response::Stats(counters.to_string()));
        }
        if first == "METRICS" {
            let body = framed_body(lines)?;
            return Ok(Response::Metrics(body));
        }
        if let Some(id) = first.strip_prefix("TRACE ") {
            let id = id
                .parse()
                .map_err(|_| format!("malformed trace header: {first}"))?;
            let report = framed_body(lines)?;
            return Ok(Response::Trace { id, report });
        }
        if let Some(error) = first.strip_prefix("ERR ") {
            let (kind, message) = error
                .split_once(": ")
                .ok_or_else(|| format!("malformed error line: {first}"))?;
            return Ok(Response::Error {
                kind: kind.to_string(),
                message: message.to_string(),
            });
        }
        if first.starts_with("OK ") {
            if lines.len() < 2 || lines.last().map(String::as_str) != Some("END") {
                return Err("query response not terminated by END".to_string());
            }
            let body = &lines[1..lines.len() - 1];
            let mut text = String::with_capacity(body.iter().map(|l| l.len() + 1).sum());
            for line in body {
                if !line.starts_with(PATH_PREFIX) {
                    return Err(format!("malformed path line: {line}"));
                }
                text.push_str(line);
                text.push('\n');
            }
            let len = body.len();
            return query_reply(first, PathLines { text, len });
        }
        Err(format!("unrecognised response line: {first}"))
    }
}

/// The typed query response of an `OK …` header line and its checked path
/// lines.
fn query_reply(header: &str, paths: PathLines) -> Result<Response, String> {
    let (mut cache, mut dedup, mut epoch, mut trace) = (None, None, None, None);
    for field in header.split(' ').skip(2) {
        match field.split_once('=') {
            Some(("cache", "hit")) => cache = Some(CacheStatus::Hit),
            Some(("cache", "miss")) => cache = Some(CacheStatus::Miss),
            Some(("dedup", "leader")) => dedup = Some(DedupRole::Leader),
            Some(("dedup", "waiter")) => dedup = Some(DedupRole::Waiter),
            Some(("epoch", e)) => epoch = e.parse().ok(),
            Some(("trace", t)) => trace = t.parse().ok(),
            _ => {}
        }
    }
    let (Some(cache), Some(dedup), Some(epoch)) = (cache, dedup, epoch) else {
        return Err(format!("malformed OK header: {header}"));
    };
    Ok(Response::Query(QueryReply {
        cache,
        dedup,
        epoch,
        trace,
        paths,
    }))
}

/// The body of a header / body / `END` framed response: the lines between
/// the first and the terminating `END`, re-joined with newlines.
fn framed_body(lines: &[String]) -> Result<String, String> {
    if lines.len() < 2 || lines.last().map(String::as_str) != Some("END") {
        return Err(format!(
            "framed response not terminated by END: {:?}",
            lines.first()
        ));
    }
    Ok(lines[1..lines.len() - 1].join("\n"))
}

impl fmt::Display for Response {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, line) in self.render().iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            f.write_str(line)?;
        }
        Ok(())
    }
}

fn protocol_error(message: String) -> Response {
    Response::Error {
        kind: "protocol".to_string(),
        message,
    }
}

/// One response on its way to the wire: typed lines, or a query answer
/// whose body the service has already rendered.
enum Outgoing {
    Lines(Vec<String>),
    Answer {
        header: String,
        outcome: Arc<QueryOutcome>,
        trace: u64,
    },
}

/// Parses and answers one wire line: the whole server logic, for every
/// command. `None` for `QUIT`. A `QUERY` answer keeps the outcome's
/// rendered body as it is — shared with every request that coalesced onto
/// the same evaluation; every other response is typed until
/// [`Response::render`].
fn respond(service: &QueryService, line: &str) -> Option<Outgoing> {
    let response = match Request::parse(line) {
        Err(message) => protocol_error(message),
        Ok(Request::Quit) => return None,
        Ok(Request::Empty) => Response::Empty,
        Ok(Request::Ping) => Response::Pong,
        Ok(Request::Epoch) => Response::Epoch(service.epoch()),
        Ok(Request::Bump) => Response::Epoch(service.bump_epoch()),
        Ok(Request::Stats) => Response::Stats(service.metrics().snapshot().to_string()),
        Ok(Request::Metrics) => {
            Response::Metrics(service.metrics().expose().trim_end().to_string())
        }
        Ok(Request::Trace(id)) => match service.trace(id) {
            Some(trace) => Response::Trace {
                id,
                report: trace.to_string().trim_end().to_string(),
            },
            None => protocol_error(format!("no retained trace with id {id}")),
        },
        Ok(Request::Query {
            surface,
            deadline_ms,
            text,
        }) => {
            let deadline = deadline_ms.map(Duration::from_millis);
            match service.submit_on_deadline(surface, &text, deadline) {
                Ok(answer) => {
                    return Some(Outgoing::Answer {
                        header: query_header(
                            answer.outcome.path_count,
                            answer.cache,
                            answer.dedup,
                            answer.epoch,
                            Some(answer.trace.id),
                        ),
                        trace: answer.trace.id,
                        outcome: answer.outcome,
                    })
                }
                Err(e) => Response::Error {
                    kind: e.kind().to_string(),
                    message: e.to_string().replace('\n', " "),
                },
            }
        }
    };
    Some(Outgoing::Lines(response.render()))
}

/// Records the render span of a query answer — the protocol boundary
/// putting the already rendered body on the wire — in the service-wide
/// render histogram and the request's retained trace.
fn record_render(service: &QueryService, trace: u64, span: Duration) {
    service
        .metrics()
        .record_stage(pathalg_core::obs::Stage::Render, span);
    service.traces().set_render(trace, span);
}

/// Handles one wire line: parse → dispatch → the response's wire lines.
/// Returns `None` for `QUIT` (close the connection). The collecting form of
/// what the socket loop sends: a query answer's lines are cut from the same
/// rendered body the socket writes, so the two are byte-identical. The
/// split is timed as the request's render span.
pub fn handle_line(service: &QueryService, line: &str) -> Option<Vec<String>> {
    match respond(service, line)? {
        Outgoing::Lines(lines) => Some(lines),
        Outgoing::Answer {
            header,
            outcome,
            trace,
        } => {
            let started = Instant::now();
            let mut lines = Vec::with_capacity(outcome.path_count + 2);
            lines.push(header);
            lines.extend(outcome.path_lines().map(str::to_string));
            lines.push("END".to_string());
            record_render(service, trace, started.elapsed());
            Some(lines)
        }
    }
}

/// The connections not yet reaped: each one's thread, and a clone of its
/// stream that shuts the connection down when the server stops. Finished
/// ones are joined whenever a new connection arrives, the rest when the
/// accept loop ends.
type Connections = Arc<Mutex<Vec<(JoinHandle<()>, UnixStream)>>>;

/// A handle on a running server: shuts it down and cleans up the socket on
/// [`ServerHandle::shutdown`] (or on drop, best-effort).
pub struct ServerHandle {
    path: PathBuf,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    #[cfg(test)]
    connections: Connections,
}

impl ServerHandle {
    /// The connection threads the server still holds: the open connections
    /// plus finished ones not yet reaped by the next accept.
    #[cfg(test)]
    fn connection_threads(&self) -> usize {
        self.connections
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// Stops accepting, shuts down every open connection, joins the accept
    /// loop and every connection thread, and removes the socket file. A
    /// connected client, idle or not reading its answer, does not hold it up.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = UnixStream::connect(&self.path);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.stop_and_join();
        }
    }
}

/// Binds `socket_path` and serves `service` until the handle is shut down,
/// one thread per connection. An existing socket file at the path is
/// replaced (stale sockets of crashed runs would otherwise block rebinding).
/// The threads of finished connections are reaped as new ones arrive, and
/// the open connections are the `pathalg_connections` gauge.
pub fn serve(
    service: Arc<QueryService>,
    socket_path: impl Into<PathBuf>,
) -> io::Result<ServerHandle> {
    let path: PathBuf = socket_path.into();
    let _ = std::fs::remove_file(&path);
    let listener = UnixListener::bind(&path)?;
    let stop = Arc::new(AtomicBool::new(false));
    let connections: Connections = Arc::default();
    let accept = {
        let stop = stop.clone();
        let connections = connections.clone();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let Ok(control) = stream.try_clone() else {
                    continue;
                };
                let service = service.clone();
                let mut live = connections.lock().unwrap_or_else(|e| e.into_inner());
                let (finished, running): (Vec<_>, Vec<_>) = std::mem::take(&mut *live)
                    .into_iter()
                    .partition(|(thread, _)| thread.is_finished());
                *live = running;
                for (thread, _) in finished {
                    let _ = thread.join();
                }
                let thread = std::thread::spawn(move || {
                    let _open = OpenConnection::new(service.metrics());
                    let _ = handle_connection(&service, &stream);
                    // The clone in `connections` keeps the socket open until
                    // this thread is reaped; the client sees the end now.
                    let _ = stream.shutdown(Shutdown::Both);
                });
                live.push((thread, control));
            }
            // A connection thread blocks in `read` while its client is idle,
            // and in `write` while its client does not read; shutting the
            // socket down ends both. The connection threads end before the
            // accept thread does. A thread's malloc arena is handed to the
            // next thread that starts, last exited first; in the other order
            // a later server's connection thread gets the accept thread's
            // small arena and grows it afresh, raising the process's peak RSS.
            let live = std::mem::take(&mut *connections.lock().unwrap_or_else(|e| e.into_inner()));
            for (_, stream) in &live {
                let _ = stream.shutdown(Shutdown::Both);
            }
            for (thread, _) in live {
                let _ = thread.join();
            }
        })
    };
    Ok(ServerHandle {
        path,
        stop,
        accept: Some(accept),
        #[cfg(test)]
        connections,
    })
}

/// One open connection on the `pathalg_connections` gauge, for as long as
/// the guard lives.
struct OpenConnection<'a>(&'a Metrics);

impl<'a> OpenConnection<'a> {
    fn new(metrics: &'a Metrics) -> Self {
        metrics.connection_opened();
        Self(metrics)
    }
}

impl Drop for OpenConnection<'_> {
    fn drop(&mut self) {
        self.0.connection_closed();
    }
}

fn handle_connection(service: &QueryService, stream: &UnixStream) -> io::Result<()> {
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::with_capacity(IO_CHUNK_BYTES, stream);
    let mut line = Vec::new();
    loop {
        line.clear();
        // At most one byte past the limit: enough to tell an over-long line
        // from one that ends exactly at it.
        let read = (&mut reader)
            .take(MAX_REQUEST_LINE_BYTES as u64 + 1)
            .read_until(b'\n', &mut line)?;
        if read == 0 {
            break;
        }
        if line.last() == Some(&b'\n') {
            line.pop();
            // A CRLF line ends without its `\r`, as `BufRead::lines` has it.
            if line.last() == Some(&b'\r') {
                line.pop();
            }
        } else if line.len() > MAX_REQUEST_LINE_BYTES {
            let refusal = protocol_error(format!(
                "request line longer than {MAX_REQUEST_LINE_BYTES} bytes"
            ));
            write_lines(&mut writer, &refusal.render())?;
            writer.flush()?;
            break;
        }
        let outgoing = match std::str::from_utf8(&line) {
            Ok(text) => respond(service, text),
            Err(_) => Some(Outgoing::Lines(
                protocol_error("request line is not UTF-8".to_string()).render(),
            )),
        };
        match outgoing {
            None => break,
            Some(Outgoing::Lines(lines)) => {
                write_lines(&mut writer, &lines)?;
                writer.flush()?;
            }
            Some(Outgoing::Answer {
                header,
                outcome,
                trace,
            }) => {
                let started = Instant::now();
                writer.write_all(header.as_bytes())?;
                writer.write_all(b"\n")?;
                // A body past the buffer size goes to the socket in one
                // `write_all`, uncopied.
                writer.write_all(&outcome.body)?;
                writer.write_all(b"END\n")?;
                writer.flush()?;
                record_render(service, trace, started.elapsed());
            }
        }
    }
    Ok(())
}

fn write_lines(writer: &mut impl Write, lines: &[String]) -> io::Result<()> {
    for line in lines {
        writer.write_all(line.as_bytes())?;
        writer.write_all(b"\n")?;
    }
    Ok(())
}

/// A blocking protocol client.
pub struct Client {
    reader: BufReader<UnixStream>,
    writer: BufWriter<UnixStream>,
    /// The line being read, reused across lines: each returned `String` is
    /// allocated once, at its final size.
    line: Vec<u8>,
}

impl Client {
    /// Connects to a server socket.
    pub fn connect(socket_path: impl AsRef<Path>) -> io::Result<Self> {
        let stream = UnixStream::connect(socket_path)?;
        Ok(Self {
            reader: BufReader::with_capacity(IO_CHUNK_BYTES, stream.try_clone()?),
            writer: BufWriter::new(stream),
            line: Vec::new(),
        })
    }

    /// Sends one request line and reads the full response: multi-line for
    /// the `END`-framed forms (`OK …`, `METRICS`, `TRACE <id>`), none for a
    /// line [`Request::parse`] reads as [`Request::Empty`] (the server
    /// answers it with nothing), a single line for everything else.
    pub fn request(&mut self, line: &str) -> io::Result<Vec<String>> {
        self.write_line(line)?;
        if Request::parse(line) == Ok(Request::Empty) {
            return Ok(Vec::new());
        }
        let first = self.read_line()?;
        self.read_response(first)
    }

    /// Sends a typed request and parses the typed response. `Ok(None)`
    /// means the request was [`Request::Quit`] (no response follows);
    /// [`Request::Empty`] gets [`Response::Empty`] without a read, as the
    /// server answers it with nothing.
    /// Protocol violations by the peer surface as `InvalidData` errors.
    ///
    /// A query answer is read into one buffer: the `PATH` lines are
    /// appended as they arrive, checked line by line, and become the
    /// reply's [`PathLines`] without a copy.
    pub fn send(&mut self, request: &Request) -> io::Result<Option<Response>> {
        let invalid = |e: String| io::Error::new(io::ErrorKind::InvalidData, e);
        if matches!(request, Request::Quit) {
            self.write_line("QUIT")?;
            return Ok(None);
        }
        self.write_line(&request.render())?;
        if matches!(request, Request::Empty) {
            return Ok(Some(Response::Empty));
        }
        let first = self.read_line()?;
        if first.starts_with("OK ") {
            let paths = self.read_path_lines()?;
            return query_reply(&first, paths).map(Some).map_err(invalid);
        }
        let lines = self.read_response(first)?;
        Response::parse(&lines).map(Some).map_err(invalid)
    }

    /// Sends `QUERY GQL <text>` and returns the typed [`Response`] — a
    /// [`Response::Query`] with the cache/dedup/epoch metadata and the
    /// canonical path lines, or a [`Response::Error`].
    pub fn query(&mut self, text: &str) -> io::Result<Response> {
        self.query_on(QuerySurface::Gql, text)
    }

    /// [`Client::query`] for any query surface.
    pub fn query_on(&mut self, surface: QuerySurface, text: &str) -> io::Result<Response> {
        self.query_deadline(surface, text, None)
    }

    /// [`Client::query_on`] with an optional wire-carried deadline in
    /// milliseconds (`QUERY <tag> DEADLINE <ms> <text>`).
    pub(crate) fn query_deadline(
        &mut self,
        surface: QuerySurface,
        text: &str,
        deadline_ms: Option<u64>,
    ) -> io::Result<Response> {
        let response = self.send(&Request::Query {
            surface,
            deadline_ms,
            text: text.to_string(),
        })?;
        Ok(response.expect("query requests always get a response"))
    }

    fn write_line(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// The lines of the response that begins with `first`: up to and
    /// including `END` for the framed forms, `first` alone otherwise.
    fn read_response(&mut self, first: String) -> io::Result<Vec<String>> {
        let framed = first.starts_with("OK ") || first == "METRICS" || first.starts_with("TRACE ");
        let mut lines = vec![first];
        while framed && lines.last().is_none_or(|line| line != "END") {
            lines.push(self.read_line()?);
        }
        Ok(lines)
    }

    fn read_line(&mut self) -> io::Result<String> {
        self.line.clear();
        if self.reader.read_until(b'\n', &mut self.line)? == 0 {
            return Err(closed());
        }
        let end = trimmed_len(&self.line);
        String::from_utf8(self.line[..end].to_vec())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Reads a query answer's body up to its `END` line, appending each
    /// line to one buffer with its end normalised to `\n`. A line without
    /// the `PATH ` prefix, or a body that is not UTF-8, is `InvalidData`
    /// once the whole body is read, so the connection stays in step.
    fn read_path_lines(&mut self) -> io::Result<PathLines> {
        let mut text = Vec::new();
        let (mut len, mut malformed) = (0, None);
        loop {
            let start = text.len();
            if self.reader.read_until(b'\n', &mut text)? == 0 {
                return Err(closed());
            }
            let end = start + trimmed_len(&text[start..]);
            let line = &text[start..end];
            if line == b"END" {
                text.truncate(start);
                break;
            }
            if !line.starts_with(PATH_PREFIX.as_bytes()) {
                malformed.get_or_insert_with(|| {
                    format!("malformed path line: {}", String::from_utf8_lossy(line))
                });
                text.truncate(start);
                continue;
            }
            text.truncate(end);
            text.push(b'\n');
            len += 1;
        }
        if let Some(message) = malformed {
            return Err(io::Error::new(io::ErrorKind::InvalidData, message));
        }
        let text =
            String::from_utf8(text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        Ok(PathLines { text, len })
    }
}

/// The error of a connection the server closed mid-response.
fn closed() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
}

/// The length of `line` without its trailing `\n` / `\r` bytes.
fn trimmed_len(line: &[u8]) -> usize {
    line.iter()
        .rposition(|&b| !matches!(b, b'\n' | b'\r'))
        .map_or(0, |at| at + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathalg_graph::fixtures::figure1::figure1_graph;

    fn service() -> Arc<QueryService> {
        Arc::new(QueryService::with_defaults(Arc::new(figure1_graph())))
    }

    const SHORTEST: &str = "MATCH ANY SHORTEST TRAIL p = (?x)-[(:Knows)+]->(?y)";

    #[test]
    fn requests_parse_into_typed_variants() {
        assert_eq!(Request::parse("PING"), Ok(Request::Ping));
        assert_eq!(Request::parse("EPOCH"), Ok(Request::Epoch));
        assert_eq!(Request::parse("BUMP"), Ok(Request::Bump));
        assert_eq!(Request::parse("STATS"), Ok(Request::Stats));
        assert_eq!(Request::parse("METRICS"), Ok(Request::Metrics));
        assert_eq!(Request::parse("TRACE 12"), Ok(Request::Trace(12)));
        assert!(Request::parse("TRACE").is_err(), "TRACE needs an id");
        assert!(Request::parse("TRACE abc").is_err(), "id must be numeric");
        assert_eq!(Request::parse("QUIT"), Ok(Request::Quit));
        assert_eq!(Request::parse(""), Ok(Request::Empty));
        assert_eq!(
            Request::parse("QUERY MATCH ALL WALK p = (?x)-[:Knows]->(?y)"),
            Ok(Request::Query {
                surface: QuerySurface::Gql,
                deadline_ms: None,
                text: "MATCH ALL WALK p = (?x)-[:Knows]->(?y)".to_string(),
            }),
            "bare QUERY defaults to the GQL surface"
        );
        assert_eq!(
            Request::parse("QUERY RPQ reach(x, y) :- :Knows+, trail."),
            Ok(Request::Query {
                surface: QuerySurface::Rpq,
                deadline_ms: None,
                text: "reach(x, y) :- :Knows+, trail.".to_string(),
            })
        );
        assert_eq!(
            Request::parse("QUERY IR {\"version\":\"query_ir_v1\"}"),
            Ok(Request::Query {
                surface: QuerySurface::Ir,
                deadline_ms: None,
                text: "{\"version\":\"query_ir_v1\"}".to_string(),
            })
        );
        assert!(Request::parse("QUERY").is_err());
        assert!(Request::parse("QUERY RPQ").is_err(), "tag without payload");
        assert!(Request::parse("NONSENSE").is_err());
        assert_eq!(
            Request::parse("QUERY GQL DEADLINE 250 MATCH ALL WALK p = (?x)-[:Knows]->(?y)"),
            Ok(Request::Query {
                surface: QuerySurface::Gql,
                deadline_ms: Some(250),
                text: "MATCH ALL WALK p = (?x)-[:Knows]->(?y)".to_string(),
            })
        );
        assert_eq!(
            Request::parse("QUERY DEADLINE 10 MATCH ALL WALK p = (?x)-[:Knows]->(?y)"),
            Ok(Request::Query {
                surface: QuerySurface::Gql,
                deadline_ms: Some(10),
                text: "MATCH ALL WALK p = (?x)-[:Knows]->(?y)".to_string(),
            }),
            "DEADLINE works without a surface tag"
        );
        assert!(
            Request::parse("QUERY GQL DEADLINE abc MATCH…").is_err(),
            "milliseconds must be numeric"
        );
        assert!(
            Request::parse("QUERY GQL DEADLINE 100").is_err(),
            "DEADLINE without a payload"
        );
    }

    #[test]
    fn deadline_requests_round_trip_and_time_out_on_the_wire() {
        let query = Request::parse("QUERY RPQ DEADLINE 75 reach(x, y) :- :Knows+.").unwrap();
        assert_eq!(
            query.render(),
            "QUERY RPQ DEADLINE 75 reach(x, y) :- :Knows+."
        );
        assert_eq!(Request::parse(&query.render()), Ok(query));
        // A zero deadline fails with the typed timeout kind end-to-end.
        let svc = service();
        let lines = handle_line(&svc, &format!("QUERY GQL DEADLINE 0 {SHORTEST}")).unwrap();
        assert!(lines[0].starts_with("ERR timeout:"), "{}", lines[0]);
        // And the same service still answers the same query afterwards.
        let ok = handle_line(&svc, &format!("QUERY {SHORTEST}")).unwrap();
        assert!(ok[0].starts_with("OK "), "{}", ok[0]);
    }

    #[test]
    fn requests_render_back_to_wire_lines() {
        for line in [
            "PING", "EPOCH", "BUMP", "STATS", "METRICS", "TRACE 3", "QUIT", "",
        ] {
            assert_eq!(Request::parse(line).unwrap().render(), line);
        }
        let query = Request::parse("QUERY RPQ reach(x, y) :- :Knows+.").unwrap();
        assert_eq!(query.render(), "QUERY RPQ reach(x, y) :- :Knows+.");
        assert_eq!(Request::parse(&query.render()), Ok(query));
    }

    #[test]
    fn handle_request_covers_the_whole_command_table() {
        let svc = service();
        let ask = |svc: &QueryService, request: &Request| {
            handle_line(svc, &request.render()).map(|lines| Response::parse(&lines).unwrap())
        };
        assert_eq!(ask(&svc, &Request::Ping), Some(Response::Pong));
        assert_eq!(ask(&svc, &Request::Epoch), Some(Response::Epoch(0)));
        assert_eq!(ask(&svc, &Request::Bump), Some(Response::Epoch(1)));
        assert!(matches!(
            ask(&svc, &Request::Stats),
            Some(Response::Stats(_))
        ));
        assert!(matches!(
            ask(&svc, &Request::Metrics),
            Some(Response::Metrics(_))
        ));
        assert!(
            matches!(
                ask(&svc, &Request::Trace(99)),
                Some(Response::Error { ref kind, .. }) if kind == "protocol"
            ),
            "unknown trace id is a protocol error"
        );
        assert_eq!(ask(&svc, &Request::Quit), None);
        assert_eq!(ask(&svc, &Request::Empty), Some(Response::Empty));

        let ok = ask(
            &svc,
            &Request::Query {
                surface: QuerySurface::Gql,
                deadline_ms: None,
                text: SHORTEST.to_string(),
            },
        )
        .unwrap();
        let Response::Query(reply) = &ok else {
            panic!("expected a query reply, got {ok:?}");
        };
        assert_eq!(reply.cache, CacheStatus::Miss);
        assert_eq!(reply.dedup, DedupRole::Leader);
        assert!(!reply.paths.is_empty());

        let bad = ask(
            &svc,
            &Request::Query {
                surface: QuerySurface::Gql,
                deadline_ms: None,
                text: "THIS IS NOT GQL".to_string(),
            },
        )
        .unwrap();
        assert!(matches!(bad, Response::Error { ref kind, .. } if kind == "parse"));
    }

    #[test]
    fn responses_round_trip_through_the_wire_form() {
        let cases = [
            Response::Pong,
            Response::Epoch(42),
            Response::Stats("served=1".to_string()),
            Response::Empty,
            Response::Error {
                kind: "parse".to_string(),
                message: "bad query".to_string(),
            },
            Response::Metrics("# TYPE x counter\nx 1".to_string()),
            Response::Trace {
                id: 7,
                report: "trace 7 surface=GQL epoch=0 paths=2\n  query: x".to_string(),
            },
            Response::Query(QueryReply {
                cache: CacheStatus::Hit,
                dedup: DedupRole::Waiter,
                epoch: 3,
                trace: Some(9),
                paths: ["n1-e1-n2", "n2-e2-n3"].into_iter().collect(),
            }),
            Response::Query(QueryReply {
                cache: CacheStatus::Miss,
                dedup: DedupRole::Leader,
                epoch: 0,
                trace: None,
                paths: PathLines::default(),
            }),
        ];
        for response in cases {
            let parsed = Response::parse(&response.render()).unwrap();
            assert_eq!(parsed, response);
        }
        assert!(Response::parse(&["WHAT".to_string()]).is_err());
    }

    #[test]
    fn handle_line_parses_dispatches_and_renders() {
        let svc = service();
        assert_eq!(handle_line(&svc, "PING"), Some(vec!["PONG".into()]));
        assert_eq!(handle_line(&svc, "QUIT"), None);
        assert_eq!(handle_line(&svc, ""), Some(Vec::new()));
        assert!(handle_line(&svc, "NONSENSE").unwrap()[0].starts_with("ERR protocol"));
        assert!(handle_line(&svc, "QUERY").unwrap()[0].starts_with("ERR protocol"));
        let response = handle_line(&svc, &format!("QUERY {SHORTEST}")).unwrap();
        assert!(response[0].starts_with("OK "));
        assert!(response[0].contains("cache=miss"));
        assert!(response[0].contains("dedup=leader"));
        assert_eq!(response.last().unwrap(), "END");
    }

    #[test]
    fn every_surface_works_over_the_wire_and_shares_the_plan_cache() {
        let svc = service();
        let gql = handle_line(&svc, &format!("QUERY GQL {SHORTEST}")).unwrap();
        assert!(gql[0].contains("cache=miss"), "{}", gql[0]);
        let rpq = handle_line(
            &svc,
            "QUERY RPQ reach(x, y) :- (:Knows)+, trail, any_shortest.",
        )
        .unwrap();
        assert!(rpq[0].contains("cache=hit"), "{}", rpq[0]);
        let ir_doc = pathalg_parser::parse_surface(QuerySurface::Gql, SHORTEST)
            .unwrap()
            .to_json_string();
        let ir = handle_line(&svc, &format!("QUERY IR {ir_doc}")).unwrap();
        assert!(ir[0].contains("cache=hit"), "{}", ir[0]);
        // Byte-identical result lines across all three surfaces.
        assert_eq!(gql[1..], rpq[1..]);
        assert_eq!(gql[1..], ir[1..]);
    }

    #[test]
    fn metrics_and_trace_commands_read_back_observability() {
        let svc = service();
        let ok = handle_line(&svc, &format!("QUERY {SHORTEST}")).unwrap();
        let trace_id: u64 = ok[0]
            .split(' ')
            .find_map(|f| f.strip_prefix("trace="))
            .expect("OK header carries the trace id")
            .parse()
            .unwrap();

        let metrics = handle_line(&svc, "METRICS").unwrap();
        assert_eq!(metrics[0], "METRICS");
        assert_eq!(metrics.last().unwrap(), "END");
        let body = metrics[1..metrics.len() - 1].join("\n");
        assert!(
            body.contains("pathalg_requests_total{surface=\"gql\"} 1"),
            "{body}"
        );
        assert!(
            body.contains("pathalg_stage_latency_ns_count{stage=\"execute\"} 1"),
            "{body}"
        );

        let trace = handle_line(&svc, &format!("TRACE {trace_id}")).unwrap();
        assert_eq!(trace[0], format!("TRACE {trace_id}"));
        assert_eq!(trace.last().unwrap(), "END");
        let report = trace.join("\n");
        assert!(report.contains("dedup=leader"), "{report}");
        // handle_line timed the response rendering and patched it in.
        assert!(!report.contains("render=-"), "{report}");
        assert!(report.contains("render="), "{report}");
    }

    #[test]
    fn unix_socket_round_trip() {
        let svc = service();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("pathalg-test-{}.sock", std::process::id()));
        let handle = serve(svc, path.clone()).unwrap();
        let mut client = Client::connect(&path).unwrap();
        assert_eq!(client.send(&Request::Ping).unwrap(), Some(Response::Pong));
        let Response::Query(reply) = client.query(SHORTEST).unwrap() else {
            panic!("expected a query reply");
        };
        assert!(!reply.paths.is_empty());
        assert_eq!(reply.cache, CacheStatus::Miss);
        // Second run on a second connection, over the RPQ surface: the plan
        // cache is shared across connections *and* surfaces.
        let mut second = Client::connect(&path).unwrap();
        let response = second
            .query_on(
                QuerySurface::Rpq,
                "reach(x, y) :- (:Knows)+, trail, any_shortest.",
            )
            .unwrap();
        let Response::Query(rpq_reply) = response else {
            panic!("expected a query reply");
        };
        assert_eq!(rpq_reply.cache, CacheStatus::Hit);
        assert_eq!(rpq_reply.paths, reply.paths, "byte-identical answers");
        drop(client);
        drop(second);
        handle.shutdown();
        assert!(!path.exists(), "socket file removed on shutdown");
    }

    /// An empty request line gets no response, so the client reads none:
    /// `Empty` then `Ping` on one connection, and a blank raw line, return
    /// at once (a client reading a reply to the empty line would block).
    #[test]
    fn an_empty_request_line_returns_without_a_read() {
        let path = std::env::temp_dir().join(format!("pathalg-empty-{}.sock", std::process::id()));
        let handle = serve(service(), path.clone()).unwrap();
        let (done, finished) = std::sync::mpsc::channel();
        let client_path = path.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&client_path).unwrap();
            let empty = client.send(&Request::Empty).unwrap();
            let blank = client.request("").unwrap();
            let pong = client.send(&Request::Ping).unwrap();
            done.send((empty, blank, pong)).unwrap();
        });
        let (empty, blank, pong) = finished
            .recv_timeout(Duration::from_secs(10))
            .expect("the client blocked on a reply to the empty line");
        assert_eq!(empty, Some(Response::Empty));
        assert!(blank.is_empty());
        assert_eq!(pong, Some(Response::Pong));
        handle.shutdown();
    }

    /// Sends `line` on a raw socket and returns the response bytes up to and
    /// including the first line `stop` accepts.
    fn raw_exchange(path: &Path, line: &str, stop: impl Fn(&[u8]) -> bool) -> Vec<u8> {
        let mut stream = UnixStream::connect(path).unwrap();
        stream.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut reader = BufReader::new(stream);
        let mut out = Vec::new();
        loop {
            let start = out.len();
            assert!(reader.read_until(b'\n', &mut out).unwrap() > 0, "EOF");
            if stop(&out[start..]) {
                return out;
            }
        }
    }

    #[test]
    fn socket_bytes_equal_the_collected_lines_and_err_lines_are_unchanged() {
        let svc = service();
        let path = std::env::temp_dir().join(format!("pathalg-bytes-{}.sock", std::process::id()));
        let handle = serve(svc.clone(), path.clone()).unwrap();
        let query = format!("QUERY {SHORTEST}");
        let raw = raw_exchange(&path, &query, |l| l == b"END\n");
        let lines = handle_line(&svc, &query).unwrap();
        // Everything after the header (whose trace id differs per request).
        let body_at = raw.iter().position(|&b| b == b'\n').unwrap() + 1;
        let mut collected = lines[1..].join("\n").into_bytes();
        collected.push(b'\n');
        assert_eq!(raw[body_at..], collected[..]);
        assert_eq!(
            lines[1..lines.len() - 1].to_vec(),
            svc.submit(SHORTEST)
                .unwrap()
                .outcome
                .path_lines()
                .map(str::to_string)
                .collect::<Vec<_>>()
        );
        // A CRLF request line reads as the line without its `\r`.
        assert_eq!(raw_exchange(&path, "PING\r", |_| true), b"PONG\n");

        // ERR lines: the same text on the socket and from handle_line, in
        // the `ERR <kind>: <message>` form.
        for (line, expected) in [
            ("NONSENSE", "ERR protocol: unknown command NONSENSE"),
            ("QUERY", "ERR protocol: QUERY needs a query text"),
            (
                "TRACE abc",
                "ERR protocol: TRACE needs a numeric trace id, got abc",
            ),
            ("TRACE 999", "ERR protocol: no retained trace with id 999"),
        ] {
            assert_eq!(handle_line(&svc, line), Some(vec![expected.to_string()]));
            let raw = raw_exchange(&path, line, |_| true);
            assert_eq!(raw, format!("{expected}\n").into_bytes(), "{line}");
        }
        let bad = "QUERY THIS IS NOT GQL";
        let err = svc.submit("THIS IS NOT GQL").unwrap_err();
        let expected = format!("ERR {}: {}", err.kind(), err.to_string().replace('\n', " "));
        assert!(expected.starts_with("ERR parse: "), "{expected}");
        assert_eq!(handle_line(&svc, bad), Some(vec![expected.clone()]));
        assert_eq!(
            raw_exchange(&path, bad, |_| true),
            format!("{expected}\n").into_bytes()
        );
        handle.shutdown();
    }

    #[test]
    fn send_reads_what_request_and_parse_read() {
        use pathalg_graph::generator::structured::cycle_graph;

        let svc = Arc::new(QueryService::with_defaults(Arc::new(cycle_graph(
            3_000, "k",
        ))));
        let path = std::env::temp_dir().join(format!("pathalg-send-{}.sock", std::process::id()));
        let handle = serve(svc, path.clone()).unwrap();
        let mut client = Client::connect(&path).unwrap();
        let mut both = |request: &Request| {
            let sent = client.send(request).unwrap().unwrap();
            let lines = client.request(&request.render()).unwrap();
            (sent, Response::parse(&lines).unwrap())
        };
        let query = |text: &str| Request::Query {
            surface: QuerySurface::Gql,
            deadline_ms: None,
            text: text.to_string(),
        };
        let mut trace = None;
        for (text, paths) in [
            ("MATCH ALL WALK p = (?x {name:\"nobody\"})-[:k]->(?y)", 0),
            ("MATCH ALL WALK p = (?x {name:\"p7\"})-[:k]->(?y)", 1),
            ("MATCH ALL WALK p = (?x)-[:k]->(?y)", 3_000),
        ] {
            let (Response::Query(mut sent), Response::Query(mut parsed)) = both(&query(text))
            else {
                panic!("expected two query replies to {text}");
            };
            assert_eq!(sent.paths.len(), paths, "{text}");
            assert_eq!(sent.paths.iter().count(), paths, "{text}");
            // Each request has a trace of its own, and the second one finds
            // the plan the first one cached.
            assert!(sent.trace < parsed.trace, "{text}");
            assert_eq!(parsed.cache, CacheStatus::Hit, "{text}");
            trace = sent.trace;
            (sent.trace, parsed.trace, sent.cache) = (None, None, CacheStatus::Hit);
            assert_eq!(sent, parsed, "{text}");
        }
        let (sent, parsed) = both(&query("THIS IS NOT GQL"));
        assert!(matches!(sent, Response::Error { ref kind, .. } if kind == "parse"));
        assert_eq!(sent, parsed);
        for request in [Request::Metrics, Request::Trace(trace.unwrap())] {
            let (sent, parsed) = both(&request);
            assert!(
                matches!(sent, Response::Metrics(_) | Response::Trace { .. }),
                "{sent:?}"
            );
            assert_eq!(sent, parsed);
        }
        drop(client);
        handle.shutdown();
    }

    /// A one-connection peer that answers the first request line with
    /// `bytes`, then closes its sending side and reads until the client
    /// hangs up.
    fn canned_peer(name: &str, bytes: &'static [u8]) -> (PathBuf, JoinHandle<()>) {
        let path =
            std::env::temp_dir().join(format!("pathalg-canned-{name}-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).unwrap();
        let peer = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(&stream);
            reader.read_line(&mut String::new()).unwrap();
            (&stream).write_all(bytes).unwrap();
            stream.shutdown(Shutdown::Write).unwrap();
            io::copy(&mut reader, &mut io::sink()).unwrap();
        });
        (path, peer)
    }

    #[test]
    fn broken_query_bodies_are_errors_not_panics() {
        const HEADER: &str = "OK 2 cache=hit dedup=leader epoch=0 trace=1\n";
        let cases: [(&str, &[u8], io::ErrorKind); 4] = [
            (
                "prefix",
                b"OK 2 cache=hit dedup=leader epoch=0 trace=1\nPATH (n0)\nROUTE (n1)\nEND\nPONG\n",
                io::ErrorKind::InvalidData,
            ),
            (
                "eof",
                b"OK 2 cache=hit dedup=leader epoch=0 trace=1\nPATH (n0)\nPATH (n1)\n",
                io::ErrorKind::UnexpectedEof,
            ),
            (
                "utf8",
                b"OK 2 cache=hit dedup=leader epoch=0 trace=1\nPATH (n0)\nPATH (n\xff)\nEND\nPONG\n",
                io::ErrorKind::InvalidData,
            ),
            (
                "header",
                b"OK 2 cache=hit epoch=0\nPATH (n0)\nPATH (n1)\nEND\nPONG\n",
                io::ErrorKind::InvalidData,
            ),
        ];
        for (name, bytes, kind) in cases {
            let (path, peer) = canned_peer(name, bytes);
            let mut client = Client::connect(&path).unwrap();
            let error = client
                .query("MATCH ALL WALK p = (?x)-[:k]->(?y)")
                .unwrap_err();
            assert_eq!(error.kind(), kind, "{name}: {error}");
            if kind == io::ErrorKind::InvalidData {
                // The whole body was read: the connection is still in step.
                assert_eq!(client.send(&Request::Ping).unwrap(), Some(Response::Pong));
            }
            drop(client);
            peer.join().unwrap();
            let _ = std::fs::remove_file(&path);
        }
        // The same bodies as collected lines.
        let lines = |body: &[&str]| -> Vec<String> {
            std::iter::once(HEADER.trim_end())
                .chain(body.iter().copied())
                .map(str::to_string)
                .collect()
        };
        assert!(Response::parse(&lines(&["PATH (n0)", "ROUTE (n1)", "END"])).is_err());
        assert!(Response::parse(&lines(&["PATH (n0)", "PATH (n1)"])).is_err());
        let Ok(Response::Query(reply)) =
            Response::parse(&lines(&["PATH (n0)", "PATH (n1)", "END"]))
        else {
            panic!("a well-formed body parses");
        };
        assert_eq!(reply.paths.iter().collect::<Vec<_>>(), ["(n0)", "(n1)"]);
    }

    #[test]
    fn finished_connections_are_reaped_and_leave_the_gauge() {
        let svc = service();
        let path = std::env::temp_dir().join(format!("pathalg-reap-{}.sock", std::process::id()));
        let handle = serve(svc.clone(), path.clone()).unwrap();
        for _ in 0..200 {
            let mut client = Client::connect(&path).unwrap();
            assert_eq!(client.send(&Request::Ping).unwrap(), Some(Response::Pong));
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while svc.metrics().snapshot().connections > 0 {
            assert!(Instant::now() < deadline, "connections never closed");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(handle_line(&svc, "METRICS")
            .unwrap()
            .contains(&"pathalg_connections 0".to_string()));
        let live = handle.connection_threads();
        assert!(
            live <= 16,
            "{live} connection threads retained after 200 hang-ups"
        );
        handle.shutdown();
    }
}
