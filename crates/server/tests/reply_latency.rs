//! Wire latency of large replies. Alone in its test binary on purpose:
//! the bound is wall-clock, and cargo runs test binaries one at a time,
//! so no sibling test competes for the cores while it is measured.

use prefsql_engine::EngineCore;
use prefsql_server::{Client, Server};

/// A reply larger than the server's 8 KB write buffer leaves in more
/// than one write; without `TCP_NODELAY` the last one sits out the
/// peer's delayed ACK (~44 ms on loopback, 2.2 s over these 50 round
/// trips — measured before both sides set the option).
#[test]
fn replies_larger_than_the_write_buffer_do_not_stall() {
    let server = Server::bind("127.0.0.1:0", EngineCore::shared()).unwrap();
    let handle = server.spawn().unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    assert!(c
        .request("CREATE TABLE t (id INTEGER, name VARCHAR)")
        .unwrap()
        .is_ok());
    let rows: Vec<String> = (0..400)
        .map(|i| format!("({i}, 'a fairly long name for row {i:04}')"))
        .collect();
    let insert = format!("INSERT INTO t VALUES {}", rows.join(", "));
    assert!(c.request(&insert).unwrap().is_ok());

    let sql = "SELECT * FROM t";
    let reply = c.request(sql).unwrap();
    assert!(reply.is_ok(), "{reply:?}");
    let bytes = reply.transcript().len();
    assert!(bytes > 8192, "a {bytes} B reply fits the write buffer");

    let started = std::time::Instant::now();
    for _ in 0..50 {
        assert_eq!(c.request(sql).unwrap().payload.len(), 400);
    }
    let elapsed = started.elapsed();
    eprintln!("50 round trips of a {bytes} B reply: {elapsed:?}");
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "50 large replies took {elapsed:?}; is TCP_NODELAY set on both ends?"
    );

    c.quit().unwrap();
    handle.stop().unwrap();
}
