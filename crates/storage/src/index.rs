//! Secondary indexes over heap tables.
//!
//! Two kinds, mirroring what "having the right indices available" (§3.2 of
//! the paper) means for a host DBMS:
//!
//! * [`HashIndex`] — equality lookups (`WHERE region = 'south'`);
//! * [`BTreeIndex`] — ordered lookups and range scans
//!   (`WHERE salary BETWEEN 40000 AND 60000`).
//!
//! Both map a key (one or more column values) to the row ids holding it.
//! Keys are stored and looked up [canonical](Value::canonical), so the
//! two zeros SQL calls equal are one key.

use prefsql_types::{Tuple, Value};
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};

/// Which physical structure an index uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Hash index: equality only.
    Hash,
    /// Ordered index: equality and ranges.
    BTree,
}

/// Key wrapper giving `Vec<Value>` the total order of
/// [`Value::total_cmp`], so it can live in a `BTreeMap` — and the
/// equality of that order ([`Value::key_eq`]: INT 1 equals FLOAT 1.0),
/// so a hash lookup finds what SQL `=` finds. [`Value`]'s hash agrees
/// with `key_eq`.
#[derive(Debug, Clone)]
pub struct IndexKey(pub Vec<Value>);

impl IndexKey {
    fn canonical<'v>(values: impl IntoIterator<Item = &'v Value>) -> IndexKey {
        IndexKey(values.into_iter().cloned().map(Value::canonical).collect())
    }
}

impl PartialEq for IndexKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for IndexKey {}

impl Hash for IndexKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl PartialOrd for IndexKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IndexKey {
    fn cmp(&self, other: &Self) -> Ordering {
        let n = self.0.len().min(other.0.len());
        for i in 0..n {
            match self.0[i].total_cmp(&other.0[i]) {
                Ordering::Equal => continue,
                o => return o,
            }
        }
        self.0.len().cmp(&other.0.len())
    }
}

/// Hash index on one or more columns.
#[derive(Debug, Clone, Default)]
pub struct HashIndex {
    /// Indices of the key columns within the table schema.
    key_columns: Vec<usize>,
    map: HashMap<IndexKey, Vec<usize>>,
}

impl HashIndex {
    /// New empty index over the given key columns.
    pub fn new(key_columns: Vec<usize>) -> Self {
        HashIndex {
            key_columns,
            map: HashMap::new(),
        }
    }

    /// The key column positions.
    pub fn key_columns(&self) -> &[usize] {
        &self.key_columns
    }

    fn key_of(&self, row: &Tuple) -> IndexKey {
        IndexKey::canonical(self.key_columns.iter().map(|&i| &row[i]))
    }

    /// Index `row` stored at `row_id`.
    pub fn insert(&mut self, row_id: usize, row: &Tuple) {
        self.map.entry(self.key_of(row)).or_default().push(row_id);
    }

    /// Row ids whose key equals `key`.
    pub fn lookup(&self, key: &[Value]) -> &[usize] {
        self.map
            .get(&IndexKey::canonical(key))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }
}

/// Ordered index on one or more columns, supporting range scans.
#[derive(Debug, Clone, Default)]
pub struct BTreeIndex {
    key_columns: Vec<usize>,
    map: BTreeMap<IndexKey, Vec<usize>>,
}

impl BTreeIndex {
    /// New empty index over the given key columns.
    pub fn new(key_columns: Vec<usize>) -> Self {
        BTreeIndex {
            key_columns,
            map: BTreeMap::new(),
        }
    }

    /// The key column positions.
    pub fn key_columns(&self) -> &[usize] {
        &self.key_columns
    }

    fn key_of(&self, row: &Tuple) -> IndexKey {
        IndexKey::canonical(self.key_columns.iter().map(|&i| &row[i]))
    }

    /// Index `row` stored at `row_id`.
    pub fn insert(&mut self, row_id: usize, row: &Tuple) {
        self.map.entry(self.key_of(row)).or_default().push(row_id);
    }

    /// Row ids whose key equals `key`.
    pub fn lookup(&self, key: &[Value]) -> &[usize] {
        self.map
            .get(&IndexKey::canonical(key))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Row ids whose key's *first component* lies in `[low, high]`;
    /// `None` bounds are unbounded. Results come back in key order.
    ///
    /// Bounds apply to the leading key column only, which is what the
    /// engine's single-column range predicates need; composite keys whose
    /// leading component falls inside the bounds all qualify.
    pub fn range(&self, low: Option<&Value>, high: Option<&Value>) -> Vec<usize> {
        use std::ops::Bound;
        // IndexKey compares prefixes as smaller, so [v] is <= every key
        // whose first component is v — a correct inclusive lower bound.
        let lo = match low {
            Some(v) => Bound::Included(IndexKey::canonical([v])),
            None => Bound::Unbounded,
        };
        let high = high.map(|h| h.clone().canonical());
        self.map
            .range((lo, Bound::<IndexKey>::Unbounded))
            .take_while(|(key, _)| match (&high, key.0.first()) {
                (Some(h), Some(f)) => f.total_cmp(h) != Ordering::Greater,
                _ => true,
            })
            .flat_map(|(_, ids)| ids.iter().copied())
            .collect()
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prefsql_types::tuple;

    #[test]
    fn hash_index_lookup() {
        let mut idx = HashIndex::new(vec![1]);
        idx.insert(0, &tuple![1, "audi"]);
        idx.insert(1, &tuple![2, "bmw"]);
        idx.insert(2, &tuple![3, "audi"]);
        assert_eq!(idx.lookup(&[Value::str("audi")]), &[0, 2]);
        assert_eq!(idx.lookup(&[Value::str("vw")]), &[] as &[usize]);
        assert_eq!(idx.distinct_keys(), 2);
    }

    #[test]
    fn hash_index_composite_key() {
        let mut idx = HashIndex::new(vec![0, 1]);
        idx.insert(0, &tuple![1, "a"]);
        idx.insert(1, &tuple![1, "b"]);
        assert_eq!(idx.lookup(&[Value::Int(1), Value::str("a")]), &[0]);
        assert_eq!(idx.lookup(&[Value::Int(1)]), &[] as &[usize]);
    }

    #[test]
    fn btree_range_scan() {
        let mut idx = BTreeIndex::new(vec![0]);
        for (rid, price) in [(0, 100), (1, 250), (2, 400), (3, 250), (4, 50)] {
            idx.insert(rid, &tuple![price]);
        }
        let in_range = idx.range(Some(&Value::Int(100)), Some(&Value::Int(250)));
        assert_eq!(in_range, vec![0, 1, 3]);
        let open_low = idx.range(None, Some(&Value::Int(100)));
        assert_eq!(open_low, vec![4, 0]);
        let open_high = idx.range(Some(&Value::Int(300)), None);
        assert_eq!(open_high, vec![2]);
        let all = idx.range(None, None);
        assert_eq!(all.len(), 5);
    }

    #[test]
    fn btree_orders_mixed_numerics() {
        let mut idx = BTreeIndex::new(vec![0]);
        idx.insert(0, &tuple![2.5]);
        idx.insert(1, &tuple![2]);
        idx.insert(2, &tuple![3]);
        let r = idx.range(Some(&Value::Int(2)), Some(&Value::Int(3)));
        assert_eq!(r, vec![1, 0, 2]);
    }

    #[test]
    fn index_key_ordering_is_lexicographic() {
        let a = IndexKey(vec![Value::Int(1), Value::Int(2)]);
        let b = IndexKey(vec![Value::Int(1), Value::Int(3)]);
        let c = IndexKey(vec![Value::Int(1)]);
        assert!(a < b);
        assert!(c < a); // prefix sorts first
    }

    #[test]
    fn keys_follow_sql_equality_across_zeros_and_numeric_types() {
        let mut hash = HashIndex::new(vec![0]);
        let mut btree = BTreeIndex::new(vec![0]);
        for (rid, x) in [(0, -0.0), (1, 0.0), (2, 2.0)] {
            hash.insert(rid, &tuple![x]);
            btree.insert(rid, &tuple![x]);
        }
        for zero in [Value::Float(0.0), Value::Float(-0.0), Value::Int(0)] {
            assert_eq!(hash.lookup(std::slice::from_ref(&zero)), &[0, 1]);
            assert_eq!(btree.range(Some(&zero), Some(&zero)), vec![0, 1]);
        }
        assert_eq!(hash.lookup(&[Value::Int(2)]), &[2]);
        assert_eq!(btree.range(None, Some(&Value::Float(-0.0))), vec![0, 1]);
    }

    #[test]
    fn nulls_participate_in_indexes() {
        let mut idx = BTreeIndex::new(vec![0]);
        idx.insert(0, &Tuple::new(vec![Value::Null]));
        idx.insert(1, &tuple![1]);
        // NULL sorts first in total order; equality lookup on NULL finds it
        // (index-level behaviour; SQL semantics are enforced by the engine).
        assert_eq!(idx.lookup(&[Value::Null]), &[0]);
        assert_eq!(idx.range(None, None), vec![0, 1]);
    }
}
