//! `skyline_native` — batch BMO in `\mode native`, algorithm `Auto`,
//! default threads, over the [BKS01] point sets, the computers shop and
//! the used-car market.
//!
//! Chosen as the mirror image of `jobsearch_rewrite`: time sits in `pref`
//! (dominance tests) and `core::native` slot evaluation while `rewrite`
//! is bypassed; the BNL-vs-SFS and parallel-degree heuristics are
//! decided on these candidate-set sizes.

use super::{mem_session, Conn, Cycle, Env, Scale, Source, Stmt, Workload};
use crate::util::Rng;
use prefsql::ExecutionMode;
use prefsql_storage::Table;
use prefsql_types::{Column, DataType, Schema, Tuple, Value};
use prefsql_workload::bks01::{self, Distribution};
use prefsql_workload::{cars, computers};

/// The workload.
pub struct Skyline;

/// One statement class: its table, the table's size per scale, and the
/// SQL with `{RANGE}` standing for the seeded id window.
struct Class {
    name: &'static str,
    table: &'static str,
    rows: (usize, usize),
    sql: String,
}

/// Table sizes tuned once (seed 1, this host) so the five classes'
/// median latencies lie within 2x of each other; see README.
fn classes() -> Vec<Class> {
    let pareto = |d: usize| -> String {
        let prefs: Vec<String> = (0..d).map(|i| format!("LOWEST(d{i})")).collect();
        prefs.join(" AND ")
    };
    let computers_sql =
        computers::CASCADE_QUERY.replace(" PREFERRING", " WHERE {RANGE} PREFERRING");
    let cars_sql = cars::OPEL_QUERY.replace("make = 'Opel'", "make = 'Opel' AND {RANGE}");
    assert!(computers_sql.contains("{RANGE}") && cars_sql.contains("{RANGE}"));
    vec![
        Class {
            name: "independent_d4",
            table: "pts_ind",
            rows: (24_000, 1_500),
            sql: format!(
                "SELECT * FROM pts_ind WHERE {{RANGE}} PREFERRING {}",
                pareto(4)
            ),
        },
        Class {
            name: "correlated_d4",
            table: "pts_cor",
            rows: (60_000, 3_000),
            sql: format!(
                "SELECT * FROM pts_cor WHERE {{RANGE}} PREFERRING {}",
                pareto(4)
            ),
        },
        Class {
            name: "anticorrelated_d3",
            table: "pts_anti",
            rows: (2_200, 400),
            sql: format!(
                "SELECT * FROM pts_anti WHERE {{RANGE}} PREFERRING {}",
                pareto(3)
            ),
        },
        Class {
            name: "computers_cascade",
            table: "computers",
            rows: (8_000, 600),
            sql: computers_sql,
        },
        Class {
            name: "cars_opel",
            table: "car",
            rows: (80_000, 3_000),
            sql: cars_sql,
        },
    ]
}

/// `bks01::table` under a name of our choosing (its own is always
/// `points`, and this workload needs three of them side by side).
fn points_table(
    name: &str,
    n: usize,
    d: usize,
    dist: Distribution,
    seed: u64,
) -> Result<Table, String> {
    let mut cols = vec![Column::new("id", DataType::Int).not_null()];
    cols.extend((0..d).map(|i| Column::new(format!("d{i}"), DataType::Float)));
    let mut table = Table::new(name, Schema::new(cols).map_err(|e| e.to_string())?);
    for (id, p) in bks01::points(n, d, dist, seed).into_iter().enumerate() {
        let mut values = vec![Value::Int(id as i64)];
        values.extend(p.into_iter().map(Value::Float));
        table
            .insert(Tuple::new(values))
            .map_err(|e| e.to_string())?;
    }
    Ok(table)
}

impl Workload for Skyline {
    fn name(&self) -> &'static str {
        "skyline_native"
    }

    fn setup(&self, seed: u64, scale: Scale) -> Result<Env, String> {
        let (core, mut session) = mem_session();
        let mut facts = Vec::new();
        for class in classes() {
            let n = scale.pick(class.rows.0, class.rows.1);
            let table = match class.table {
                "pts_ind" => points_table("pts_ind", n, 4, Distribution::Independent, seed)?,
                "pts_cor" => points_table("pts_cor", n, 4, Distribution::Correlated, seed)?,
                "pts_anti" => points_table("pts_anti", n, 3, Distribution::AntiCorrelated, seed)?,
                "computers" => computers::table(n, seed),
                _ => cars::market(n, seed),
            };
            session
                .engine_mut()
                .catalog_mut()
                .create_table(table)
                .map_err(|e| e.to_string())?;
            facts.push((class.table, n as f64));
        }
        session.set_mode(ExecutionMode::native());
        Ok(Env {
            core,
            conns: vec![Conn::InProc(Box::new(session))],
            server: None,
            connect_ms: Vec::new(),
            largest_table: "car",
            facts,
        })
    }

    fn sources(&self, seed: u64, scale: Scale, _env: &Env) -> Result<Vec<Box<dyn Source>>, String> {
        let mut rng = Rng::new(seed, 0x5C1);
        let windows = scale.pick(16, 2);
        let classes = classes();
        let mut list = Vec::new();
        for _ in 0..windows {
            for class in &classes {
                // A contiguous three-quarter slice of the table at a
                // seeded offset: ids are independent of the attributes,
                // so every window is a fresh sample of the distribution
                // with the same candidate count.
                let n = scale.pick(class.rows.0, class.rows.1) as i64;
                let span = n * 3 / 4;
                let lo = rng.range(0, n - span + 1);
                let range = format!("id >= {lo} AND id < {}", lo + span);
                list.push(Stmt::read(
                    list.len(),
                    class.name,
                    class.sql.replace("{RANGE}", &range),
                ));
            }
        }
        // Two windows of every class warm the allocator and the tables.
        Ok(vec![Box::new(Cycle::new(list, 10))])
    }

    fn traced_count(&self, scale: Scale) -> usize {
        scale.pick(80, 10)
    }

    fn predicted_share(&self) -> Option<(&'static str, f64)> {
        Some(("share.pref_tail", 0.60))
    }
}
