//! `wire_short` — two persistent TCP connections to an in-process
//! `Server`, each replaying sub-millisecond statements in a closed loop:
//! 60 % plain SQL the preference layer must pass through (§3.1's
//! "no noticeable overhead" claim), 40 % small preference queries.
//!
//! Chosen because scan and dominance work are negligible here, so wire,
//! lex/parse, the passthrough decision, planning, the catalog lock and
//! result rendering dominate: instrumentation overhead and protocol
//! changes show on this workload or nowhere. It is also the only
//! workload with contention (2 clients, one `RwLock<Catalog>`).

use super::{mem_session, must, Conn, Cycle, Env, Scale, Source, Stmt, Workload};
use crate::util::{ms, Rng};
use prefsql_server::{Client, Server};
use prefsql_workload::{cars, hotels, products};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

/// The workload.
pub struct WireShort;

/// Persistent connections (= client threads): the host's two cores.
pub const CONNECTIONS: usize = 2;
/// Connect samples taken during set-up.
const CONNECT_SAMPLES: usize = 20;
/// Distinct statements per connection.
const LIST_LEN: usize = 200;

fn product_rows(scale: Scale) -> usize {
    scale.pick(5_000, 500)
}

fn connect_native(addr: SocketAddr) -> Result<Client, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mode = client
        .request("\\mode native")
        .map_err(|e| format!("mode switch: {e}"))?;
    if !mode.is_ok() {
        return Err(format!("mode switch refused: {}", mode.status));
    }
    Ok(client)
}

impl Workload for WireShort {
    fn name(&self) -> &'static str {
        "wire_short"
    }

    fn setup(&self, seed: u64, scale: Scale) -> Result<Env, String> {
        let product_rows = product_rows(scale);
        let (core, mut session) = mem_session();
        for table in [
            cars::market(1_000, seed),
            hotels::table(300, seed),
            products::table(product_rows, seed),
        ] {
            session
                .engine_mut()
                .catalog_mut()
                .create_table(table)
                .map_err(|e| e.to_string())?;
        }
        must(
            &mut session,
            "CREATE INDEX idx_pid ON products (id) USING hash",
        )?;
        must(&mut session, "CREATE INDEX idx_pprice ON products (price)")?;
        must(
            &mut session,
            "CREATE INDEX idx_pmanu ON products (manufacturer) USING hash",
        )?;
        drop(session);

        let server = Server::bind("127.0.0.1:0", Arc::clone(&core))
            .and_then(Server::spawn)
            .map_err(|e| format!("server: {e}"))?;
        let addr = server.addr();
        let mut connect_ms = Vec::with_capacity(CONNECT_SAMPLES);
        for _ in 0..CONNECT_SAMPLES {
            let started = Instant::now();
            let client = connect_native(addr)?;
            connect_ms.push(ms(started, Instant::now()));
            client.quit().map_err(|e| format!("quit: {e}"))?;
        }
        let conns = (0..CONNECTIONS)
            .map(|_| connect_native(addr).map(Conn::Wire))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Env {
            core,
            conns,
            server: Some(server),
            connect_ms,
            largest_table: "products",
            facts: vec![
                ("products_rows", product_rows as f64),
                ("car_rows", 1_000.0),
                ("hotels_rows", 300.0),
                ("connections", CONNECTIONS as f64),
            ],
        })
    }

    fn sources(&self, seed: u64, scale: Scale, _env: &Env) -> Result<Vec<Box<dyn Source>>, String> {
        let product_rows = product_rows(scale) as i64;
        Ok((0..CONNECTIONS)
            .map(|client| {
                let mut rng = Rng::new(seed, 0x3172E + client as u64);
                let list = (0..scale.pick(LIST_LEN, 40))
                    .map(|i| statement(i, product_rows, &mut rng))
                    .collect();
                Box::new(Cycle::new(list, LIST_LEN)) as Box<dyn Source>
            })
            .collect())
    }

    fn traced_count(&self, scale: Scale) -> usize {
        // Whole passes of the list, so byte counters repeat exactly.
        scale.pick(40 * LIST_LEN, 2 * 40)
    }

    fn predicted_share(&self) -> Option<(&'static str, f64)> {
        Some(("share.frontend", 0.70))
    }
}

/// Statement `i` of a connection's list: positions 0–5 of every ten are
/// plain-SQL passthrough (point select, range + ORDER BY + LIMIT,
/// COUNT(*), each through an index), positions 6–9 the four small
/// preference queries of the `concurrent_queries` bench. Numeric
/// constants are seeded so candidate sets differ; categorical ones
/// (manufacturer, location, stars) rotate, so every seed's list holds
/// each value equally often — one of them can cost 30x another.
fn statement(i: usize, product_rows: i64, rng: &mut Rng) -> Stmt {
    let round = i / 10;
    let (class, sql) = match i % 10 {
        0 | 3 => (
            "sql_point",
            format!(
                "SELECT * FROM products WHERE id = {}",
                rng.range(0, product_rows)
            ),
        ),
        1 | 4 => {
            let lo = rng.range(1_300, 2_500);
            (
                "sql_range_limit",
                format!(
                    "SELECT id, price FROM products WHERE price BETWEEN {lo} AND {} \
                     ORDER BY price LIMIT 10",
                    lo + 200
                ),
            )
        }
        slot @ (2 | 5) => (
            "sql_count",
            format!(
                "SELECT COUNT(*) FROM products WHERE manufacturer = '{}'",
                products::MANUFACTURERS[(2 * round + slot / 5) % products::MANUFACTURERS.len()]
            ),
        ),
        6 => (
            "pref_opel",
            cars::OPEL_QUERY.replace("40000", &rng.range(20_000, 60_000).to_string()),
        ),
        7 => (
            "pref_lowest",
            format!(
                "SELECT id, price FROM car WHERE price < {} PREFERRING LOWEST(price)",
                rng.range(20_000, 60_000)
            ),
        ),
        // `hotels::NEG_QUERY` with a narrow select list: its `SELECT *`
        // reply is ~8 KB, right at the server's `BufWriter` capacity, and a
        // reply over it goes out as two writes, the second of which waits
        // 40 ms for the client's delayed ACK (Nagle; the server sets no
        // TCP_NODELAY). Whether that happened depended on the seed's data;
        // a 40 ms cliff has no place in a sub-millisecond workload.
        8 => (
            "pref_neg",
            format!(
                "SELECT id, price FROM hotels PREFERRING location <> '{}'",
                hotels::LOCATIONS[round % hotels::LOCATIONS.len()]
            ),
        ),
        _ => (
            "pref_grouping",
            format!(
                "SELECT id, location, price FROM hotels WHERE stars >= {} \
                 PREFERRING LOWEST(price) GROUPING location",
                1 + round % 3
            ),
        ),
    };
    Stmt::read(i, class, sql)
}
