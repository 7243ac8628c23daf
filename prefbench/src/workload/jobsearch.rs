//! `jobsearch_rewrite` — the paper's §3.3 experiment: four-way Pareto
//! `PREFERRING` over 300/600/1000-row pre-selections of the 74-attribute
//! profile relation, answered in the default **rewrite** mode.
//!
//! Chosen because it is the paper's headline measurement and this
//! repository's oracle path: time sits in `rewrite` and `engine` (the
//! correlated `NOT EXISTS` anti-join, name resolution in `eval.rs`)
//! while `pref` and `server` do nothing.

use super::{mem_session, must, Conn, Cycle, Env, Scale, Source, Stmt, Workload};
use crate::util::Rng;
use prefsql_workload::jobs;

/// The workload.
pub struct JobSearch;

/// Candidate-set sizes of the pre-selection (paper: 300/600/1000).
fn sizes(scale: Scale) -> [usize; 3] {
    scale.pick([300, 600, 1000], [40, 80, 120])
}

const CLASSES: [&str; 3] = ["pre_small", "pre_medium", "pre_large"];

/// A `region = r AND salary BETWEEN lo AND hi` predicate selecting about
/// `target` rows of region `r`, the window starting at a seeded rank.
/// (`jobs::preselection_for_size` pins region 0 and the median window;
/// this varies both so candidate sets differ between statements.)
fn preselection(salaries_by_region: &[Vec<i64>], target: usize, rng: &mut Rng) -> String {
    let region = rng.below(salaries_by_region.len() as u64) as usize;
    let salaries = &salaries_by_region[region];
    let take = target.min(salaries.len()).max(1);
    let start = rng.below((salaries.len() - take + 1) as u64) as usize;
    let (lo, hi) = (salaries[start], salaries[start + take - 1]);
    format!("region = {region} AND salary BETWEEN {lo} AND {hi}")
}

impl Workload for JobSearch {
    fn name(&self) -> &'static str {
        "jobsearch_rewrite"
    }

    fn setup(&self, seed: u64, scale: Scale) -> Result<Env, String> {
        let rows = scale.pick(20_000, 2_000);
        let (core, mut session) = mem_session();
        session
            .engine_mut()
            .catalog_mut()
            .create_table(jobs::table(rows, seed))
            .map_err(|e| e.to_string())?;
        must(
            &mut session,
            "CREATE INDEX idx_region ON profiles (region) USING hash",
        )?;
        must(&mut session, "CREATE INDEX idx_salary ON profiles (salary)")?;
        Ok(Env {
            core,
            conns: vec![Conn::InProc(Box::new(session))],
            server: None,
            connect_ms: Vec::new(),
            largest_table: "profiles",
            facts: vec![("profiles_rows", rows as f64)],
        })
    }

    fn sources(&self, seed: u64, scale: Scale, env: &Env) -> Result<Vec<Box<dyn Source>>, String> {
        // The pre-selection windows are cut from the generated data, the
        // way the paper tuned its search masks to 300/600/1000 hits.
        let mut salaries_by_region = vec![Vec::new(); jobs::REGIONS];
        {
            let engine = prefsql_engine::Engine::with_core(env.core.clone());
            let catalog = engine.catalog();
            let table = catalog.table("profiles").map_err(|e| e.to_string())?;
            let schema = table.schema();
            let region = schema.resolve(None, "region").map_err(|e| e.to_string())?;
            let salary = schema.resolve(None, "salary").map_err(|e| e.to_string())?;
            for row in table.rows() {
                if let (Some(r), Some(s)) = (row[region].as_int(), row[salary].as_int()) {
                    salaries_by_region[r as usize].push(s);
                }
            }
        }
        for s in &mut salaries_by_region {
            s.sort_unstable();
        }
        let mut rng = Rng::new(seed, 0x10B5);
        let windows = scale.pick(16, 2);
        let mut list = Vec::new();
        // Interleave the three sizes so any prefix of the list holds them
        // in equal parts; both §3.3 condition sets per window.
        for _ in 0..windows {
            for condition_set in 0..2 {
                for (class, target) in CLASSES.iter().zip(sizes(scale)) {
                    let pre = preselection(&salaries_by_region, target, &mut rng);
                    let soft: Vec<&str> = jobs::second_selection(condition_set)
                        .iter()
                        .map(|(_, soft)| *soft)
                        .collect();
                    list.push(Stmt::read(
                        list.len(),
                        class,
                        format!(
                            "SELECT id FROM profiles WHERE {pre} PREFERRING {}",
                            soft.join(" AND ")
                        ),
                    ));
                }
            }
        }
        // The first six statements are one of each (size, condition set).
        Ok(vec![Box::new(Cycle::new(list, 6))])
    }

    fn traced_count(&self, scale: Scale) -> usize {
        // A quarter pass of the list: 8 statements per size.
        scale.pick(24, 6)
    }

    fn predicted_share(&self) -> Option<(&'static str, f64)> {
        Some(("share.engine", 0.90))
    }
}
