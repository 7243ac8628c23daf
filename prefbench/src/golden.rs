//! Recorded replies: what the correctness gate compares against.
//!
//! For seed 1 at full scale the expectations come from
//! `golden/<workload>.seed1.txt` (written by `--bless`), so a change in
//! *what* a statement returns is caught across commits. For any other
//! seed a statement's first execution records them, which still catches
//! a reply that changes from one execution to the next.

use crate::run::RunArgs;
use crate::workload::Scale;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The seed the committed golden files were blessed with.
pub const GOLDEN_SEED: u64 = 1;

/// Per client: statement key → (row count, order-insensitive checksum).
#[derive(Debug, Default, Clone)]
pub struct Expectations {
    /// One map per client, indexed like the connections.
    pub per_client: Vec<HashMap<u32, (u64, u64)>>,
    /// True when the maps were pre-loaded from a golden file.
    pub from_golden: bool,
}

fn golden_path(dir: &Path, workload: &str) -> PathBuf {
    dir.join(format!("{workload}.seed{GOLDEN_SEED}.txt"))
}

impl Expectations {
    /// Empty maps for `clients` clients.
    pub fn empty(clients: usize) -> Self {
        Expectations {
            per_client: vec![HashMap::new(); clients],
            from_golden: false,
        }
    }

    /// The golden expectations when this run is the blessed
    /// configuration (seed 1, full scale) and the file exists; empty
    /// maps otherwise.
    pub fn load(
        dir: &Path,
        workload: &str,
        args: &RunArgs,
        clients: usize,
    ) -> Result<Self, String> {
        let mut out = Expectations::empty(clients);
        let path = golden_path(dir, workload);
        if args.seed != GOLDEN_SEED || args.scale != Scale::Full || !path.exists() {
            return Ok(out);
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let bad = || format!("{}: malformed line '{line}'", path.display());
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [client, key, rows, sum] = fields.as_slice() else {
                return Err(bad());
            };
            let client: usize = client.parse().map_err(|_| bad())?;
            let entry = (
                rows.parse().map_err(|_| bad())?,
                u64::from_str_radix(sum, 16).map_err(|_| bad())?,
            );
            out.per_client
                .get_mut(client)
                .ok_or_else(bad)?
                .insert(key.parse().map_err(|_| bad())?, entry);
        }
        out.from_golden = true;
        Ok(out)
    }

    /// Write the maps as the golden file of `workload`.
    pub fn bless(&self, dir: &Path, workload: &str) -> Result<PathBuf, String> {
        let mut text = format!(
            "# prefbench golden replies: {workload}, seed {GOLDEN_SEED}, full scale\n\
             # client key rows checksum(order-insensitive, hex)\n"
        );
        for (client, map) in self.per_client.iter().enumerate() {
            let mut keys: Vec<_> = map.keys().copied().collect();
            keys.sort_unstable();
            for key in keys {
                let (rows, sum) = map[&key];
                let _ = writeln!(text, "{client} {key} {rows} {sum:016x}");
            }
        }
        let path = golden_path(dir, workload);
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(path)
    }
}
