//! End-to-end acceptance for the TCP front end: one `prefsql-server`
//! instance serving 64 concurrent connections, every response
//! byte-identical to the single-session baseline captured before the
//! flood; and hostile request lines over a raw socket.

use prefsql::Session;
use prefsql_engine::EngineCore;
use prefsql_server::{Client, Server, MAX_REQUEST_BYTES};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;

/// A shared core preloaded with the workload tables the query mix
/// touches.
fn loaded_core() -> Arc<EngineCore> {
    let core = EngineCore::shared();
    let mut session = Session::with_core(Arc::clone(&core));
    session
        .engine_mut()
        .catalog_mut()
        .create_table(prefsql_workload::cars::market(400, 7))
        .expect("fresh catalog");
    session
        .engine_mut()
        .catalog_mut()
        .create_table(prefsql_workload::hotels::table(150, 8))
        .expect("fresh catalog");
    core
}

/// The per-connection script: knob setup plus a mixed read workload
/// (rewrite + native, plain SQL + preference queries + EXPLAIN).
const SCRIPT: &[&str] = &[
    "\\threads 2",
    "SELECT COUNT(*) FROM car",
    "SELECT id, price, make FROM car WHERE price < 20000 ORDER BY price LIMIT 5",
    prefsql_workload::cars::OPEL_QUERY,
    "\\mode native",
    prefsql_workload::cars::OPEL_QUERY,
    prefsql_workload::hotels::NEG_QUERY,
    "EXPLAIN SELECT id FROM hotels PREFERRING LOWEST(price)",
    "\\mode rewrite",
    prefsql_workload::hotels::NEG_QUERY,
];

#[test]
fn sixty_four_connections_match_single_session_baseline() {
    let server = Server::bind("127.0.0.1:0", loaded_core()).unwrap();
    let handle = server.spawn().unwrap();
    let addr = handle.addr();

    // Single-session baseline: the transcript of one quiet connection.
    let baseline: Vec<String> = {
        let mut c = Client::connect(addr).unwrap();
        let out = SCRIPT
            .iter()
            .map(|q| c.request(q).unwrap().transcript())
            .collect();
        c.quit().unwrap();
        out
    };
    for (q, t) in SCRIPT.iter().zip(&baseline) {
        assert!(
            !t.starts_with("ERROR") && !t.contains("\nERROR"),
            "baseline failed on {q}: {t}"
        );
    }

    // 64 concurrent connections replay the script; every transcript
    // must be byte-identical to the baseline.
    let workers: Vec<_> = (0..64)
        .map(|conn| {
            let baseline = baseline.clone();
            thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for (i, q) in SCRIPT.iter().enumerate() {
                    let got = c.request(q).unwrap().transcript();
                    assert_eq!(
                        got, baseline[i],
                        "connection {conn} diverged from the baseline on: {q}"
                    );
                }
                c.quit().unwrap();
            })
        })
        .collect();
    for w in workers {
        w.join().expect("connection thread panicked");
    }

    handle.stop().unwrap();
}

/// Read one reply off a raw connection: payload lines up to and
/// including the terminator line.
fn raw_reply(reader: &mut impl BufRead) -> Vec<String> {
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "server hung up");
        let line = line.trim_end_matches('\n').to_string();
        let payload = line.starts_with("# ") || line.starts_with("| ");
        lines.push(line);
        if !payload {
            return lines;
        }
    }
}

/// Bytes no client library would send: a request that is not UTF-8 and
/// one longer than `MAX_REQUEST_BYTES` are each answered `ERROR:`, and
/// the same connection then runs the next statement.
#[test]
fn hostile_request_lines_are_refused_on_a_usable_connection() {
    let server = Server::bind("127.0.0.1:0", loaded_core()).unwrap();
    let handle = server.spawn().unwrap();
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut greeting = String::new();
    reader.read_line(&mut greeting).unwrap();
    assert!(greeting.starts_with("PREFSQL"), "{greeting}");

    let count = |reader: &mut BufReader<TcpStream>, writer: &mut TcpStream| {
        writer.write_all(b"SELECT COUNT(*) FROM car\n").unwrap();
        raw_reply(reader)
    };
    assert_eq!(count(&mut reader, &mut writer).last().unwrap(), "OK 1 rows");

    writer.write_all(b"SELECT \xff\xfe FROM car\n").unwrap();
    let reply = raw_reply(&mut reader);
    assert_eq!(reply, ["ERROR: request is not valid UTF-8"]);
    assert_eq!(count(&mut reader, &mut writer).last().unwrap(), "OK 1 rows");

    let mut oversized = vec![b' '; MAX_REQUEST_BYTES];
    oversized.extend_from_slice(b"SELECT 1\n");
    writer.write_all(&oversized).unwrap();
    let reply = raw_reply(&mut reader);
    assert_eq!(reply.len(), 1, "{reply:?}");
    assert!(reply[0].starts_with("ERROR: request exceeds"), "{reply:?}");
    assert_eq!(count(&mut reader, &mut writer).last().unwrap(), "OK 1 rows");

    writer.write_all(b"\\q\n").unwrap();
    assert_eq!(raw_reply(&mut reader), ["BYE"]);
    handle.stop().unwrap();
}

/// A statement of 5 000 chained conjuncts — 55 KB, far under
/// `MAX_REQUEST_BYTES` — once overflowed a worker's stack, which aborts
/// the whole server. It is answered `ERROR:` now, and the connection and
/// the server go on serving.
#[test]
fn a_hostile_operator_chain_is_refused_and_the_server_keeps_serving() {
    let server = Server::bind("127.0.0.1:0", loaded_core()).unwrap();
    let handle = server.spawn().unwrap();
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut greeting = String::new();
    reader.read_line(&mut greeting).unwrap();

    let hostile = format!(
        "SELECT id FROM car WHERE id = 1{}\n",
        " AND id = 1".repeat(5_000)
    );
    assert!(hostile.len() < MAX_REQUEST_BYTES);
    writer.write_all(hostile.as_bytes()).unwrap();
    let reply = raw_reply(&mut reader);
    assert_eq!(reply.len(), 1, "{reply:?}");
    assert!(reply[0].starts_with("ERROR: "), "{reply:?}");
    assert!(reply[0].contains("chained operators"), "{reply:?}");

    writer.write_all(b"SELECT COUNT(*) FROM car\n").unwrap();
    assert_eq!(raw_reply(&mut reader).last().unwrap(), "OK 1 rows");
    writer.write_all(b"\\q\n").unwrap();
    assert_eq!(raw_reply(&mut reader), ["BYE"]);

    // A fresh connection is served too.
    let mut client = Client::connect(handle.addr()).unwrap();
    assert!(client.request("SELECT COUNT(*) FROM car").unwrap().is_ok());
    client.quit().unwrap();
    handle.stop().unwrap();
}

/// The longest operator chain the parser accepts — 1 000 chained
/// conjuncts — is answered with its rows in rewrite and in native mode,
/// and the connection goes on serving. On a worker with a 2 MiB stack it
/// aborted a debug-built server from about 500 conjuncts.
#[test]
fn the_longest_accepted_operator_chain_runs_in_both_modes() {
    let server = Server::bind("127.0.0.1:0", loaded_core()).unwrap();
    let handle = server.spawn().unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let chain = format!(
        "SELECT id FROM car WHERE id = 1{}",
        " AND id = 1".repeat(1_000)
    );
    for mode in ["\\mode rewrite", "\\mode native"] {
        assert!(client.request(mode).unwrap().is_ok());
        let reply = client.request(&chain).unwrap();
        assert_eq!(reply.rows(), [["1"]], "{}", reply.transcript());
        let count = client.request("SELECT COUNT(*) FROM car").unwrap();
        assert_eq!(count.rows(), [["400"]], "{}", count.transcript());
    }
    client.quit().unwrap();
    handle.stop().unwrap();
}
