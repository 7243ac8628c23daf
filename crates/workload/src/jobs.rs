//! The E1 workload: a synthetic stand-in for the proprietary job-portal
//! relation of paper §3.3 (Informix, 1.4 M tuples, 74 attributes
//! describing professional skill profiles).
//!
//! The substitution: experiment E1 of the `experiments` binary (README,
//! *Build & test*) and `prefbench`'s `jobsearch_rewrite` measure the cost
//! structure of the rewritten query — an indexable *pre-selection*
//! producing a candidate set of a controlled size (300/600/1000 in the
//! paper), followed by a second selection evaluated as hard conjunctive
//! WHERE, hard disjunctive WHERE, or four Pareto-accumulated soft
//! preferences. That structure depends on candidate-set size and attribute
//! shapes, not on the confidential profile contents, so a schema-faithful
//! synthetic relation preserves the experiment.

use prefsql_storage::Table;
use prefsql_types::{Column, DataType, Date, Schema, Tuple, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of attributes in the profile relation (as in the paper).
pub const ATTRIBUTES: usize = 74;
/// Number of distinct regions (pre-selection attribute).
pub const REGIONS: usize = 20;
/// Number of distinct profession codes.
pub const PROFESSIONS: usize = 50;

/// The named (non-filler) attributes, in schema order.
const NAMED: [(&str, DataType); 14] = [
    ("id", DataType::Int),
    ("region", DataType::Int),
    ("profession", DataType::Int),
    ("salary", DataType::Int),
    ("experience_years", DataType::Int),
    ("education", DataType::Int),
    ("availability", DataType::Date),
    ("english_level", DataType::Int),
    ("german_level", DataType::Int),
    ("skill_java", DataType::Int),
    ("skill_sql", DataType::Int),
    ("skill_admin", DataType::Int),
    ("mobility_km", DataType::Int),
    ("drivers_license", DataType::Bool),
];

/// The profile schema: 14 named attributes plus filler columns up to
/// [`ATTRIBUTES`] (`extra_00` ... — portals carry many rarely-queried
/// fields; they matter for tuple width, which the benchmark preserves).
pub fn schema() -> Schema {
    let mut cols: Vec<Column> = NAMED.iter().map(|(n, t)| Column::new(*n, *t)).collect();
    for i in 0..(ATTRIBUTES - NAMED.len()) {
        cols.push(Column::new(format!("extra_{i:02}"), DataType::Int));
    }
    Schema::new(cols).expect("static schema is valid")
}

/// Generate the `profiles` relation with `n` rows.
///
/// Distributions: region roughly uniform; profession Zipf-ish (popular
/// codes dominate, as real portals show); salary log-normal-ish around
/// 45 000; experience 0–40 years correlated with salary; skills 0–5 with
/// most mass at low values; availability dates within a year of
/// 2001-10-01 (the report's date).
pub fn table(n: usize, seed: u64) -> Table {
    let mut t = Table::new("profiles", schema());
    let epoch = Date::from_ymd(2001, 10, 1).expect("valid date").days();
    let mut rng = StdRng::seed_from_u64(seed);
    for id in 0..n {
        let mut values = Vec::with_capacity(ATTRIBUTES);
        let region = rng.gen_range(0..REGIONS as i64);
        // Zipf-ish profession: square a uniform draw.
        let u: f64 = rng.gen();
        let profession = ((u * u) * PROFESSIONS as f64) as i64;
        let experience = rng.gen_range(0..41i64);
        let salary_base = 25_000.0 + 1_200.0 * experience as f64;
        let salary = (salary_base * (0.6 + 1.2 * rng.gen::<f64>())) as i64;
        let skill = |rng: &mut StdRng| {
            let u: f64 = rng.gen();
            (u * u * 6.0) as i64 // 0..=5, skewed low
        };
        values.push(Value::Int(id as i64));
        values.push(Value::Int(region));
        values.push(Value::Int(profession));
        values.push(Value::Int(salary));
        values.push(Value::Int(experience));
        values.push(Value::Int(rng.gen_range(0..6)));
        values.push(Value::Date(Date::from_days(
            epoch + rng.gen_range(-30..335i64),
        )));
        values.push(Value::Int(rng.gen_range(0..4)));
        values.push(Value::Int(rng.gen_range(0..4)));
        values.push(Value::Int(skill(&mut rng)));
        values.push(Value::Int(skill(&mut rng)));
        values.push(Value::Int(skill(&mut rng)));
        values.push(Value::Int(rng.gen_range(0..200i64) * 5));
        values.push(Value::Bool(rng.gen_bool(0.8)));
        for _ in 0..(ATTRIBUTES - NAMED.len()) {
            values.push(Value::Int(rng.gen_range(0..1000)));
        }
        t.insert(Tuple::new(values)).expect("generated row valid");
    }
    t
}

/// Find a pre-selection predicate (`region = r AND salary BETWEEN lo AND
/// hi`) whose candidate-set size is as close as possible to `target`,
/// mirroring how the paper tuned its pre-selection masks to 300/600/1000
/// hits. Returns `(region, salary_lo, salary_hi, actual_size)`.
pub fn preselection_for_size(t: &Table, target: usize) -> (i64, i64, i64, usize) {
    let region_idx = t.schema().resolve(None, "region").expect("region exists");
    let salary_idx = t.schema().resolve(None, "salary").expect("salary exists");
    // Use region 0 and widen a salary band around the median until the
    // count reaches the target.
    let region = 0i64;
    let mut salaries: Vec<i64> = t
        .rows()
        .iter()
        .filter(|r| r[region_idx].as_int() == Some(region))
        .map(|r| r[salary_idx].as_int().expect("salary is int"))
        .collect();
    salaries.sort_unstable();
    if salaries.is_empty() {
        return (region, 0, 0, 0);
    }
    let mid = salaries.len() / 2;
    let take = target.min(salaries.len());
    // Window of `take` salaries centred on the median.
    let lo_idx = mid.saturating_sub(take / 2);
    let hi_idx = (lo_idx + take).min(salaries.len()) - 1;
    let (lo, hi) = (salaries[lo_idx], salaries[hi_idx]);
    let actual = salaries.iter().filter(|&&s| s >= lo && s <= hi).count();
    (region, lo, hi, actual)
}

/// The two second-selection condition sets of the benchmark (§3.3 ran "two
/// different conditions chosen for the second selection"; each is four
/// criteria, turned into conjunctive WHERE, disjunctive WHERE, or four
/// Pareto-accumulated preferences).
///
/// Returned as `(hard_atom, preference_atom)` pairs so the harness can
/// assemble all three query styles from one source of truth.
pub fn second_selection(condition_set: usize) -> Vec<(&'static str, &'static str)> {
    match condition_set {
        0 => vec![
            ("experience_years >= 10", "HIGHEST(experience_years)"),
            ("skill_java >= 4", "HIGHEST(skill_java)"),
            ("english_level >= 2", "HIGHEST(english_level)"),
            ("mobility_km >= 500", "HIGHEST(mobility_km)"),
        ],
        _ => vec![
            ("salary <= 40000", "LOWEST(salary)"),
            ("skill_sql >= 4", "HIGHEST(skill_sql)"),
            ("education >= 4", "HIGHEST(education)"),
            (
                "experience_years BETWEEN 5 AND 15",
                "experience_years AROUND 10",
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_has_74_attributes() {
        assert_eq!(schema().len(), ATTRIBUTES);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = table(200, 42);
        let b = table(200, 42);
        assert_eq!(a.rows(), b.rows());
        assert_eq!(a.len(), 200);
    }

    #[test]
    fn value_domains() {
        let t = table(500, 1);
        let s = t.schema();
        let region = s.resolve(None, "region").unwrap();
        let skill = s.resolve(None, "skill_java").unwrap();
        for row in t.rows() {
            assert!((0..REGIONS as i64).contains(&row[region].as_int().unwrap()));
            assert!((0..=5).contains(&row[skill].as_int().unwrap()));
        }
    }

    #[test]
    fn preselection_hits_target_size() {
        let t = table(20_000, 3);
        for target in [300, 600, 1000] {
            let (_, lo, hi, actual) = preselection_for_size(&t, target);
            assert!(lo <= hi);
            // Ties at the window edges can add a few rows; stay within 5%.
            let tolerance = target / 20 + 2;
            assert!(
                actual.abs_diff(target) <= tolerance,
                "target {target}, got {actual}"
            );
        }
    }

    #[test]
    fn second_selection_sets_have_four_criteria() {
        assert_eq!(second_selection(0).len(), 4);
        assert_eq!(second_selection(1).len(), 4);
        assert_ne!(second_selection(0), second_selection(1));
    }
}
