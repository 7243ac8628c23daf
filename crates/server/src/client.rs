//! A small blocking client for the wire protocol — used by the e2e
//! tests, the `concurrent_queries` bench and the `prefsql-client`
//! binary.

use crate::protocol;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// One server response: optional column header, payload lines, and the
/// terminator line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Column names of a row result (unescaped), when present.
    pub header: Option<Vec<String>>,
    /// Payload lines with their `| ` prefix stripped, still escaped —
    /// rows stay one line each, so responses compare byte-for-byte.
    pub payload: Vec<String>,
    /// The terminator: `OK …`, `ERROR: …`, or `BYE`.
    pub status: String,
}

impl Response {
    /// True iff the terminator reports success.
    pub fn is_ok(&self) -> bool {
        self.status.starts_with("OK")
    }

    /// True iff the terminator reports an error.
    pub fn is_err(&self) -> bool {
        self.status.starts_with("ERROR:")
    }

    /// The error message, when [`Response::is_err`].
    pub fn error(&self) -> Option<String> {
        self.status.strip_prefix("ERROR: ").map(protocol::unescape)
    }

    /// Rows of a row result: payload lines split on tabs, cells
    /// unescaped.
    pub fn rows(&self) -> Vec<Vec<String>> {
        self.payload
            .iter()
            .map(|l| l.split('\t').map(protocol::unescape).collect())
            .collect()
    }

    /// The full response re-joined, for byte-identical comparisons
    /// across connections.
    pub fn transcript(&self) -> String {
        let mut out = String::new();
        if let Some(h) = &self.header {
            out.push_str(protocol::HEADER_PREFIX);
            out.push_str(&h.join("\t"));
            out.push('\n');
        }
        for l in &self.payload {
            out.push_str(protocol::PAYLOAD_PREFIX);
            out.push_str(l);
            out.push('\n');
        }
        out.push_str(&self.status);
        out.push('\n');
        out
    }
}

/// A blocking protocol client over one TCP connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connect and consume the server greeting.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // Requests are single small writes, but see the server side: no
        // write of this protocol should wait on a delayed ACK.
        let _ = stream.set_nodelay(true);
        let mut client = Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        };
        let greeting = client.read_trimmed_line()?;
        if greeting != protocol::GREETING {
            return Err(io::Error::other(format!(
                "unexpected greeting: {greeting:?}"
            )));
        }
        Ok(client)
    }

    /// Send one request line and collect the full response block.
    pub fn request(&mut self, line: &str) -> io::Result<Response> {
        if line.contains('\n') || line.contains('\r') {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "requests are single lines",
            ));
        }
        writeln!(self.writer, "{line}")?;
        self.writer.flush()?;
        let mut header = None;
        let mut payload = Vec::new();
        loop {
            let l = self.read_trimmed_line()?;
            if protocol::is_terminator(&l) {
                return Ok(Response {
                    header,
                    payload,
                    status: l,
                });
            } else if let Some(h) = l.strip_prefix(protocol::HEADER_PREFIX) {
                header = Some(h.split('\t').map(protocol::unescape).collect());
            } else if let Some(p) = l.strip_prefix(protocol::PAYLOAD_PREFIX) {
                payload.push(p.to_string());
            } else {
                return Err(io::Error::other(format!("malformed protocol line: {l:?}")));
            }
        }
    }

    /// Send `\q`, expect `BYE`, and drop the connection.
    pub fn quit(mut self) -> io::Result<()> {
        let r = self.request("\\q")?;
        if r.status != protocol::BYE {
            return Err(io::Error::other(format!(
                "expected BYE, got {:?}",
                r.status
            )));
        }
        Ok(())
    }

    fn read_trimmed_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }
}
