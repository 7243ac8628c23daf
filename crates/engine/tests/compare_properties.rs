//! The evaluator's compares against their reference, `Value::sql_cmp`.
//!
//! A `Compare` or `Between` whose operands are columns (of the node's own
//! row or of an enclosing block's) or literals takes the evaluator's typed
//! arm; wrapped in `COALESCE(…)`, the same operand takes the general
//! path. Both must give the SQL truth that `sql_cmp` of the two operand
//! values gives, BETWEEN as the Kleene AND of its two bounds, over the
//! values whose comparison is easy to get wrong: INT at its limits, FLOAT
//! NaN, −0.0 and ±inf, INT against FLOAT, empty, non-ASCII and
//! equal-length strings, DATE against numbers, BOOL and NULL.

use prefsql_engine::bind::{BoundExpr, CmpOp, Func};
use prefsql_engine::eval::{eval, holds, Env};
use prefsql_engine::{Engine, ExecCtx};
use prefsql_types::{Date, Tuple, Value};
use proptest::prelude::*;
use std::cmp::Ordering;

/// Columns per row, at each depth.
const WIDTH: usize = 4;

/// The values, by type: INT, FLOAT, STR, DATE, BOOL, NULL.
fn groups() -> [Vec<Value>; 6] {
    let s = Value::str;
    [
        [i64::MIN, i64::MIN + 1, -1, 0, 1, 2, i64::MAX - 1, i64::MAX]
            .map(Value::Int)
            .to_vec(),
        [
            f64::NAN,
            -0.0,
            0.0,
            1.0,
            1.5,
            i64::MAX as f64,
            i64::MIN as f64,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ]
        .map(Value::Float)
        .to_vec(),
        ["", "a", "b", "ab", "ba", "abc", "abd", "é", "è", "ü"]
            .map(s)
            .to_vec(),
        [0, 1].map(|d| Value::Date(Date::from_days(d))).to_vec(),
        [false, true].map(Value::Bool).to_vec(),
        vec![Value::Null],
    ]
}

/// One case: `operands` operands and the two rows they read, all drawn
/// from the values of at most two types, so that most pairs are of one
/// type or of two that compare (INT against FLOAT, DATE against INT).
fn arb_case(operands: usize) -> impl Strategy<Value = (Vec<BoundExpr>, Vec<Value>, Vec<Value>)> {
    let n = groups().len();
    (0..n, 0..n).prop_flat_map(move |(a, b)| {
        let [mut palette, other] = [a, b].map(|g| groups()[g].clone());
        if a != b {
            palette.extend(other);
        }
        let value = (0..palette.len())
            .prop_map(move |i| palette[i].clone())
            .boxed();
        // An operand: column `ordinal` at depth 0 or 1, or a literal.
        let operand = prop_oneof![
            (0..2usize, 0..WIDTH).prop_map(|(depth, ordinal)| BoundExpr::Column { depth, ordinal }),
            value.clone().prop_map(BoundExpr::Literal),
        ];
        let row = || proptest::collection::vec(value.clone(), WIDTH);
        (proptest::collection::vec(operand, operands), row(), row())
    })
}

fn arb_op() -> impl Strategy<Value = CmpOp> {
    let ops = [
        CmpOp::Eq,
        CmpOp::NotEq,
        CmpOp::Lt,
        CmpOp::LtEq,
        CmpOp::Gt,
        CmpOp::GtEq,
    ];
    (0..ops.len()).prop_map(move |i| ops[i])
}

/// The operand's value in the rows.
fn read(e: &BoundExpr, row: &[Value], outer: &[Value]) -> Value {
    match e {
        BoundExpr::Literal(v) => v.clone(),
        BoundExpr::Column { depth: 0, ordinal } => row[*ordinal].clone(),
        BoundExpr::Column { ordinal, .. } => outer[*ordinal].clone(),
        other => panic!("not an operand: {other:?}"),
    }
}

/// The reference: `l op r` from `Value::sql_cmp`.
fn reference(op: CmpOp, l: &Value, r: &Value) -> Option<bool> {
    let ord = l.sql_cmp(r)?;
    Some(match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::NotEq => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::LtEq => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::GtEq => ord != Ordering::Less,
    })
}

fn kleene_and(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

/// The general path's form of an operand.
fn general(e: &BoundExpr) -> Box<BoundExpr> {
    Box::new(BoundExpr::Call {
        func: Func::Coalesce,
        args: vec![e.clone()],
    })
}

/// Check `pred` in both forms (`typed`, then `general`) against
/// `expected`: its value is the truth as a BOOL or NULL, and `holds` is
/// exactly TRUE.
fn check(preds: [BoundExpr; 2], row: &[Value], outer: &[Value], expected: Option<bool>) {
    let engine = Engine::new();
    check_in(&engine.read_ctx().unwrap(), preds, row, outer, expected);
}

/// [`check`] in the statement context `ctx`.
fn check_in(
    ctx: &ExecCtx<'_>,
    preds: [BoundExpr; 2],
    row: &[Value],
    outer: &[Value],
    expected: Option<bool>,
) {
    let (row, outer) = (Tuple::new(row.to_vec()), Tuple::new(outer.to_vec()));
    let frames = [&outer];
    let env = Env::new(&row, &frames);
    let want = expected.map_or(Value::Null, Value::Bool);
    for pred in &preds {
        let got = eval(pred, env, ctx).unwrap();
        assert_eq!(got, want, "{pred:?} over {row} / {outer}");
        assert_eq!(holds(pred, env, ctx).unwrap(), expected == Some(true));
    }
}

/// The typed and the general form of `l op r`.
fn compares(op: CmpOp, l: &BoundExpr, r: &BoundExpr) -> [BoundExpr; 2] {
    let typed = BoundExpr::Compare {
        op,
        left: Box::new(l.clone()),
        right: Box::new(r.clone()),
    };
    let general = BoundExpr::Compare {
        op,
        left: general(l),
        right: general(r),
    };
    [typed, general]
}

/// Every operator over every ordered pair of the values, each operand
/// read as a column of the own row, of the enclosing row, and as a
/// literal: the rare pairs (two equal-length strings that differ,
/// `i64::MAX` against its FLOAT twin) are all there.
#[test]
fn every_pair_of_values_agrees_with_sql_cmp() {
    let engine = Engine::new();
    let ctx = engine.read_ctx().unwrap();
    let all: Vec<Value> = groups().concat();
    let ops = [
        CmpOp::Eq,
        CmpOp::NotEq,
        CmpOp::Lt,
        CmpOp::LtEq,
        CmpOp::Gt,
        CmpOp::GtEq,
    ];
    let col = |depth| BoundExpr::Column { depth, ordinal: 0 };
    for l in &all {
        for r in &all {
            let (row, outer) = ([l.clone()], [r.clone()]);
            let lit = BoundExpr::Literal;
            let pairs = [
                (col(0), col(1)),
                (col(1), col(0)),
                (lit(l.clone()), lit(r.clone())),
                (col(0), lit(r.clone())),
                (lit(l.clone()), col(1)),
            ];
            for op in ops {
                for (left, right) in &pairs {
                    let (lv, rv) = (read(left, &row, &outer), read(right, &row, &outer));
                    let preds = compares(op, left, right);
                    check_in(&ctx, preds, &row, &outer, reference(op, &lv, &rv));
                }
            }
        }
    }
}

proptest! {
    #[test]
    fn compares_agree_with_sql_cmp(op in arb_op(), (operands, row, outer) in arb_case(2)) {
        let [left, right] = [&operands[0], &operands[1]];
        let expected = reference(op, &read(left, &row, &outer), &read(right, &row, &outer));
        check(compares(op, left, right), &row, &outer, expected);
    }

    #[test]
    fn betweens_agree_with_sql_cmp(negated in any::<bool>(), (operands, row, outer) in arb_case(3)) {
        let [expr, low, high] = [&operands[0], &operands[1], &operands[2]];
        let [v, lo, hi] = [expr, low, high].map(|e| read(e, &row, &outer));
        let within = kleene_and(
            reference(CmpOp::GtEq, &v, &lo),
            reference(CmpOp::LtEq, &v, &hi),
        );
        let typed = BoundExpr::Between {
            expr: Box::new(expr.clone()),
            low: Box::new(low.clone()),
            high: Box::new(high.clone()),
            negated,
        };
        let general = BoundExpr::Between {
            expr: general(expr),
            low: general(low),
            high: general(high),
            negated,
        };
        check([typed, general], &row, &outer, within.map(|b| b != negated));
    }
}
