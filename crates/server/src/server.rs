//! The thread-per-connection TCP server.
//!
//! Every accepted connection gets its own [`Session`] borrowing the
//! shared [`EngineCore`], so queries run under concurrent read locks
//! and DML serializes on the write lock — the same statement-level
//! isolation the embedded API provides, now across sockets.

use crate::protocol;
use prefsql::Session;
use prefsql_engine::EngineCore;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Instant;

/// Default cap on concurrent connections (`--max-connections`):
/// generous for a thread-per-connection design, but finite, so a
/// misbehaving client pool degrades into polite refusals instead of
/// unbounded thread growth.
pub const DEFAULT_MAX_CONNECTIONS: usize = 256;

/// The longest request line a connection reads, in bytes, newline
/// excluded. A longer line is answered with `ERROR:` and skipped to its
/// newline without being buffered, so no client can make its connection
/// hold more than this much of a request.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// A connection worker's stack: the deepest statement the parser accepts
/// (1 000 chained operators) needs 5–6 MiB in a debug build, either mode.
const WORKER_STACK_BYTES: usize = 16 << 20;

/// One request line as read off the wire ([`read_request`]).
#[derive(Debug, PartialEq, Eq)]
enum Request<'b> {
    /// The client closed its end.
    Eof,
    /// A line of at most the cap, valid UTF-8, newline stripped.
    Line(&'b str),
    /// A line the server will not run: the `ERROR:` text to answer.
    Refused(String),
}

/// Read the next `\n`-terminated request line into `buf`: at most `max`
/// bytes of it are kept, and the rest of an oversized line is consumed
/// and dropped. A last line without a newline counts as a line. Invalid
/// UTF-8 and oversized lines are [`Request::Refused`], not I/O errors, so
/// the connection stays usable.
fn read_request<'b>(
    reader: &mut impl BufRead,
    buf: &'b mut Vec<u8>,
    max: usize,
) -> io::Result<Request<'b>> {
    buf.clear();
    let (mut oversized, mut read_any) = (false, false);
    loop {
        let available = match reader.fill_buf() {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            read => read?,
        };
        if available.is_empty() {
            if !read_any {
                return Ok(Request::Eof);
            }
            break;
        }
        read_any = true;
        let newline = available.iter().position(|&b| b == b'\n');
        let chunk = &available[..newline.unwrap_or(available.len())];
        if buf.len() + chunk.len() > max {
            oversized = true;
            buf.clear();
        } else if !oversized {
            buf.extend_from_slice(chunk);
        }
        let used = newline.map_or(chunk.len(), |i| i + 1);
        reader.consume(used);
        if newline.is_some() {
            break;
        }
    }
    if oversized {
        return Ok(Request::Refused(format!("request exceeds {max} bytes")));
    }
    Ok(match std::str::from_utf8(buf) {
        Ok(line) => Request::Line(line),
        Err(_) => Request::Refused("request is not valid UTF-8".into()),
    })
}

/// A bound-but-not-yet-running server: the listener plus the shared
/// engine core every connection's session will borrow.
pub struct Server {
    listener: TcpListener,
    core: Arc<EngineCore>,
    shutdown: Arc<AtomicBool>,
    max_connections: usize,
    /// `--slow-query-ms`: statements at or over this many milliseconds
    /// are logged to stderr with their analyzed plan. `None` = off.
    slow_query_ms: Option<u64>,
}

/// Decrements the live-connection gauge when a connection thread exits,
/// however it exits (EOF, protocol error, or unwinding panic).
struct ConnectionGuard(Arc<AtomicUsize>);

impl Drop for ConnectionGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Handle to a server running on a background thread (see
/// [`Server::spawn`]): exposes the bound address and a [`stop`]
/// switch.
///
/// [`stop`]: ServerHandle::stop
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// The address the server accepts connections on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signal shutdown, wake the accept loop, and join the server
    /// thread. Connections still open finish their current request
    /// loop; callers should disconnect clients first.
    pub fn stop(self) -> io::Result<()> {
        self.shutdown.store(true, Ordering::SeqCst);
        // The accept loop blocks in `accept`; a throwaway connection
        // wakes it so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        self.thread
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?
    }
}

impl Server {
    /// Bind a listener on `addr` (use port 0 to let the OS pick) over
    /// the given shared core.
    pub fn bind(addr: impl ToSocketAddrs, core: Arc<EngineCore>) -> io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            core,
            shutdown: Arc::new(AtomicBool::new(false)),
            max_connections: DEFAULT_MAX_CONNECTIONS,
            slow_query_ms: None,
        })
    }

    /// Cap the number of concurrently served connections (clamped to at
    /// least 1). Connections accepted at capacity are refused with a
    /// single `ERROR:` line and closed — backpressure the line client
    /// surfaces as a failed connect instead of a hang.
    pub fn with_max_connections(mut self, max: usize) -> Server {
        self.max_connections = max.max(1);
        self
    }

    /// Log every statement taking at least `ms` milliseconds to stderr,
    /// together with its analyzed execution plan (sessions run with
    /// always-on profiling when this is set). `None` disables the log.
    pub fn with_slow_query_ms(mut self, ms: Option<u64>) -> Server {
        self.slow_query_ms = ms;
        self
    }

    /// The address the listener is bound to.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Run the accept loop on the current thread: one spawned thread
    /// per accepted connection, until [`ServerHandle::stop`] (or a
    /// fatal listener error). Finished connection threads are reaped
    /// each iteration.
    pub fn run(self) -> io::Result<()> {
        let mut workers: Vec<JoinHandle<()>> = Vec::new();
        let active = Arc::new(AtomicUsize::new(0));
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(_) if self.shutdown.load(Ordering::SeqCst) => break,
                Err(e) => return Err(e),
            };
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            // At capacity the connection is refused, not queued: one
            // terminator line tells the client why, then the socket
            // closes and the accept loop is immediately free again.
            if active.load(Ordering::SeqCst) >= self.max_connections {
                let mut refused = BufWriter::new(stream);
                let _ = writeln!(
                    refused,
                    "ERROR: server at capacity ({} connections); try again later",
                    self.max_connections
                );
                let _ = refused.flush();
                continue;
            }
            active.fetch_add(1, Ordering::SeqCst);
            let guard = ConnectionGuard(Arc::clone(&active));
            let core = Arc::clone(&self.core);
            let slow_query_ms = self.slow_query_ms;
            // A failed spawn drops `stream`; its clone answers the refusal.
            let refusal = stream.try_clone();
            let spawned = thread::Builder::new()
                .stack_size(WORKER_STACK_BYTES)
                .spawn(move || {
                    let _guard = guard;
                    // Connection I/O errors just end that connection.
                    let _ = serve_connection(stream, core, slow_query_ms);
                });
            match (spawned, refusal) {
                (Ok(worker), _) => workers.push(worker),
                (Err(e), Ok(mut refused)) => {
                    let _ = writeln!(refused, "ERROR: cannot start a connection worker: {e}");
                }
                (Err(_), Err(_)) => {}
            }
            workers.retain(|w| !w.is_finished());
        }
        for w in workers {
            let _ = w.join();
        }
        Ok(())
    }

    /// Run the accept loop on a background thread, returning a handle
    /// for the bound address and shutdown.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let shutdown = Arc::clone(&self.shutdown);
        let thread = thread::spawn(move || self.run());
        Ok(ServerHandle {
            addr,
            shutdown,
            thread,
        })
    }
}

/// Serve one connection: greet, then answer request lines until `\q`
/// or EOF. Each connection owns a private [`Session`] over the shared
/// core. A line that is not UTF-8 or is longer than
/// [`MAX_REQUEST_BYTES`] is answered with `ERROR:` and the connection
/// reads on.
fn serve_connection(
    stream: TcpStream,
    core: Arc<EngineCore>,
    slow_query_ms: Option<u64>,
) -> io::Result<()> {
    // A reply larger than the `BufWriter` goes out as several writes;
    // with Nagle on, the last one waits for the peer's delayed ACK
    // (~40 ms on loopback). Best effort: a socket that refuses the
    // option still works.
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    writeln!(writer, "{}", protocol::GREETING)?;
    writer.flush()?;

    let mut session = Session::with_core(Arc::clone(&core));
    // The slow-query log needs every statement's analyzed plan, so
    // threshold-bearing servers run their sessions with always-on
    // profiling.
    if slow_query_ms.is_some() {
        session.set_profile_all(true);
    }
    let mut line = Vec::new();
    loop {
        let request = match read_request(&mut reader, &mut line, MAX_REQUEST_BYTES)? {
            Request::Eof => return Ok(()), // client went away
            Request::Refused(why) => {
                writeln!(writer, "ERROR: {why}")?;
                writer.flush()?;
                continue;
            }
            Request::Line(line) => line.trim(),
        };
        let mut out: Vec<String> = Vec::new();
        if let Some(meta) = request.strip_prefix('\\') {
            let mut parts = meta.splitn(2, char::is_whitespace);
            let head = format!("\\{}", parts.next().unwrap_or(""));
            let arg = parts.next().map(str::trim).unwrap_or("");
            if head == "\\q" || head == "\\quit" {
                writeln!(writer, "{}", protocol::BYE)?;
                writer.flush()?;
                return Ok(());
            }
            match session.command(&head, arg) {
                Some(text) => protocol::render_text(&text, &mut out),
                None => out.push(format!(
                    "ERROR: unknown command '{}' (\\mode \\algo \\threads \\window \\pool \\backend \\metrics \\rewrite \\d \\q)",
                    protocol::escape(&head)
                )),
            }
        } else if request == protocol::METRICS_VERB {
            // Engine-wide counters as machine-parseable key/value pairs:
            // one `| key<TAB>value` payload line each, then `OK`.
            for (k, v) in core.metrics_report() {
                out.push(format!(
                    "{}{}\t{}",
                    protocol::PAYLOAD_PREFIX,
                    protocol::escape(&k),
                    protocol::escape(&v)
                ));
            }
            out.push("OK".into());
        } else {
            let sql = request.trim_end_matches(';').trim();
            if sql.is_empty() {
                out.push("OK".into());
            } else {
                // A panicking statement must cost at most this statement
                // (and, if it held the write lock, poison the catalog into
                // Error::Concurrency for everyone) — never the whole
                // server or even this connection. No legitimate SQL input
                // panics, so the regression suite injects one through
                // PREFSQL_PANIC_SQL: a request matching the variable's
                // value panics mid-execution instead of executing.
                let started = Instant::now();
                let result = catch_unwind(AssertUnwindSafe(|| {
                    if std::env::var("PREFSQL_PANIC_SQL").is_ok_and(|p| p == sql) {
                        panic!("injected test panic");
                    }
                    session.execute(sql)
                }));
                let elapsed = started.elapsed();
                match result {
                    Ok(result) => protocol::render_result(&result, &mut out),
                    Err(_) => out.push("ERROR: exec error: statement panicked".into()),
                }
                if let Some(threshold) = slow_query_ms {
                    // Drain the analyzed plan on every statement so a
                    // fast statement's plan can never masquerade as a
                    // later slow one's.
                    let analyzed = session.take_analyzed();
                    if elapsed.as_millis() as u64 >= threshold {
                        core.metrics().note_slow_statement();
                        eprintln!(
                            "[slow query] {:.3} ms: {}",
                            elapsed.as_secs_f64() * 1e3,
                            sql
                        );
                        if let Some(plan) = analyzed {
                            for l in plan.lines() {
                                eprintln!("  {l}");
                            }
                        }
                    }
                }
            }
        }
        for l in &out {
            writeln!(writer, "{l}")?;
        }
        writer.flush()?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;

    #[test]
    fn serves_a_basic_session() {
        let server = Server::bind("127.0.0.1:0", EngineCore::shared()).unwrap();
        let handle = server.spawn().unwrap();
        let mut c = Client::connect(handle.addr()).unwrap();

        let r = c.request("CREATE TABLE t (x INTEGER)").unwrap();
        assert!(r.is_ok(), "{r:?}");
        let r = c.request("INSERT INTO t VALUES (3), (1), (2);").unwrap();
        assert_eq!(r.status, "OK INSERT 3");
        let r = c.request("SELECT x FROM t PREFERRING LOWEST(x)").unwrap();
        assert_eq!(r.header.as_deref(), Some(&["x".to_string()][..]));
        assert_eq!(r.rows(), vec![vec!["1".to_string()]]);
        assert_eq!(r.status, "OK 1 rows");

        // Errors keep the session usable.
        let r = c.request("SELECT nope FROM nothing").unwrap();
        assert!(r.is_err(), "{r:?}");
        let r = c.request("SELECT x FROM t ORDER BY x").unwrap();
        assert_eq!(r.rows().len(), 3);

        // Knobs speak the shared session command set.
        let r = c.request("\\threads 2").unwrap();
        assert_eq!(r.payload, vec!["threads: 2"]);
        let r = c.request("\\mode native").unwrap();
        assert_eq!(r.payload, vec!["mode: native (auto)"]);
        // So do the storage knobs (answers independent of PREFSQL_*:
        // the pool is set, and the catalog already holds a table).
        let r = c.request("\\pool 64k").unwrap();
        assert_eq!(r.payload, vec!["pool: 64 KiB"]);
        let r = c.request("\\backend mem").unwrap();
        assert!(
            r.payload[0].contains("cannot switch storage backend"),
            "{r:?}"
        );
        let r = c.request("\\nosuch").unwrap();
        assert!(r.is_err(), "{r:?}");
        assert!(r.status.contains("\\pool \\backend"), "{r:?}");

        c.quit().unwrap();
        handle.stop().unwrap();
    }

    #[test]
    fn metrics_verb_reports_engine_totals() {
        let server = Server::bind("127.0.0.1:0", EngineCore::shared()).unwrap();
        let handle = server.spawn().unwrap();
        let mut c = Client::connect(handle.addr()).unwrap();

        c.request("CREATE TABLE t (x INTEGER, y INTEGER)").unwrap();
        c.request("INSERT INTO t VALUES (1, 2), (2, 1), (3, 3)")
            .unwrap();
        c.request("\\mode native").unwrap();
        let r = c
            .request("SELECT x FROM t PREFERRING LOWEST(x) AND LOWEST(y)")
            .unwrap();
        assert_eq!(r.rows().len(), 2);

        let r = c.request("METRICS").unwrap();
        assert_eq!(r.status, "OK");
        let kv: std::collections::HashMap<String, String> = r
            .rows()
            .into_iter()
            .map(|row| {
                assert_eq!(row.len(), 2, "every METRICS line is key\\tvalue: {row:?}");
                (row[0].clone(), row[1].clone())
            })
            .collect();
        // The registry saw every statement this connection ran (meta
        // commands are not statements).
        let statements: u64 = kv["statements.total"].parse().unwrap();
        assert!(statements >= 3, "{kv:?}");
        assert_eq!(kv["statements.errored"], "0");
        let returned: u64 = kv["rows.returned"].parse().unwrap();
        assert!(returned >= 2, "{kv:?}");
        assert_eq!(kv["rows.affected"], "3");
        // The native skyline charged its dominance comparisons.
        let dominance: u64 = kv["exec.dominance_tests"].parse().unwrap();
        assert!(dominance >= 1, "{kv:?}");
        // This connection's session is open right now.
        let open: u64 = kv["sessions.open"].parse().unwrap();
        assert!(open >= 1, "{kv:?}");

        // Another statement moves the totals — the registry is live.
        c.request("SELECT x FROM t ORDER BY x").unwrap();
        let r2 = c.request("METRICS").unwrap();
        let statements_after: u64 = r2
            .rows()
            .into_iter()
            .find(|row| row[0] == "statements.total")
            .map(|row| row[1].parse().unwrap())
            .unwrap();
        assert!(statements_after > statements, "{statements_after}");

        c.quit().unwrap();
        handle.stop().unwrap();
    }

    #[test]
    fn slow_query_threshold_counts_statements() {
        let server = Server::bind("127.0.0.1:0", EngineCore::shared())
            .unwrap()
            .with_slow_query_ms(Some(0)); // everything is "slow"
        let handle = server.spawn().unwrap();
        let mut c = Client::connect(handle.addr()).unwrap();

        c.request("CREATE TABLE t (x INTEGER)").unwrap();
        c.request("INSERT INTO t VALUES (2), (1)").unwrap();
        let r = c.request("SELECT x FROM t ORDER BY x").unwrap();
        assert_eq!(r.rows().len(), 2);

        let r = c.request("METRICS").unwrap();
        let slow: u64 = r
            .rows()
            .into_iter()
            .find(|row| row[0] == "statements.slow")
            .map(|row| row[1].parse().unwrap())
            .unwrap();
        assert!(slow >= 3, "every statement crossed the 0 ms bar: {slow}");

        c.quit().unwrap();
        handle.stop().unwrap();
    }

    #[test]
    fn at_capacity_connections_are_refused_politely() {
        let server = Server::bind("127.0.0.1:0", EngineCore::shared())
            .unwrap()
            .with_max_connections(2);
        let handle = server.spawn().unwrap();
        let a = Client::connect(handle.addr()).unwrap();
        let b = Client::connect(handle.addr()).unwrap();

        // The third connection gets one ERROR line instead of the
        // greeting — the client surfaces it as a failed connect.
        let msg = match Client::connect(handle.addr()) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("third connection must be refused"),
        };
        assert!(msg.contains("server at capacity (2 connections)"), "{msg}");

        // A slot frees as soon as a connection finishes.
        a.quit().unwrap();
        let c = (0..100)
            .find_map(|_| {
                std::thread::sleep(std::time::Duration::from_millis(10));
                Client::connect(handle.addr()).ok()
            })
            .expect("slot frees after quit");
        drop(c); // EOF teardown (no \q) must release the slot too
        let d = (0..100)
            .find_map(|_| {
                std::thread::sleep(std::time::Duration::from_millis(10));
                Client::connect(handle.addr()).ok()
            })
            .expect("slot frees after EOF");
        drop(d);
        b.quit().unwrap();
        handle.stop().unwrap();
    }

    #[test]
    fn sessions_are_isolated_but_share_the_catalog() {
        let server = Server::bind("127.0.0.1:0", EngineCore::shared()).unwrap();
        let handle = server.spawn().unwrap();
        let mut a = Client::connect(handle.addr()).unwrap();
        let mut b = Client::connect(handle.addr()).unwrap();

        a.request("CREATE TABLE t (x INTEGER)").unwrap();
        a.request("INSERT INTO t VALUES (2), (1)").unwrap();
        // B sees A's data through the shared core...
        let r = b.request("SELECT x FROM t ORDER BY x").unwrap();
        assert_eq!(r.rows().len(), 2);
        // ...but knob state is per connection.
        a.request("\\threads 7").unwrap();
        let r = b.request("\\threads").unwrap();
        assert_ne!(r.payload, vec!["threads: 7"]);

        a.quit().unwrap();
        b.quit().unwrap();
        handle.stop().unwrap();
    }

    /// The outcomes a request reader must produce for `stream`: one per
    /// `\n`-terminated segment, and one for a last segment without a
    /// newline unless it is empty.
    fn model(stream: &[u8], max: usize) -> Vec<Request<'_>> {
        let mut segments: Vec<&[u8]> = stream.split(|&b| b == b'\n').collect();
        if segments.last().is_some_and(|last| last.is_empty()) {
            segments.pop();
        }
        let mut out: Vec<Request<'_>> = (segments.into_iter())
            .map(|seg| match std::str::from_utf8(seg) {
                _ if seg.len() > max => Request::Refused(format!("request exceeds {max} bytes")),
                Ok(line) => Request::Line(line),
                Err(_) => Request::Refused("request is not valid UTF-8".into()),
            })
            .collect();
        out.push(Request::Eof);
        out
    }

    proptest::proptest! {
        /// Any byte stream — cut into arbitrary read sizes, with lines
        /// under and over a small cap — reads as the model says: no
        /// panic, no I/O error, one outcome per line, then the end.
        #[test]
        fn any_byte_stream_reads_as_its_lines(
            stream in proptest::collection::vec(
                proptest::prop_oneof![
                    proptest::prelude::Just(b'\n'),
                    proptest::prelude::Just(b'a'),
                    proptest::prelude::any::<u8>(),
                ],
                0..200,
            ),
            max in 1usize..24,
            capacity in 1usize..16,
        ) {
            let mut reader = std::io::BufReader::with_capacity(capacity, &stream[..]);
            let mut buf = Vec::new();
            let expected = model(&stream, max);
            for want in expected {
                let got = read_request(&mut reader, &mut buf, max).unwrap();
                proptest::prop_assert_eq!(got, want);
            }
            let again = read_request(&mut reader, &mut buf, max).unwrap();
            proptest::prop_assert_eq!(again, Request::Eof);
        }
    }

    #[test]
    fn an_oversized_line_is_refused_and_the_next_one_read() {
        let mut stream = vec![b'x'; MAX_REQUEST_BYTES + 1];
        stream.extend_from_slice(b"\nSELECT 1\n");
        let mut reader = BufReader::new(&stream[..]);
        let mut buf = Vec::new();
        let first = read_request(&mut reader, &mut buf, MAX_REQUEST_BYTES).unwrap();
        assert!(matches!(first, Request::Refused(_)), "{first:?}");
        assert!(
            buf.len() <= MAX_REQUEST_BYTES,
            "the line was buffered whole"
        );
        let next = read_request(&mut reader, &mut buf, MAX_REQUEST_BYTES).unwrap();
        assert_eq!(next, Request::Line("SELECT 1"));
    }
}
