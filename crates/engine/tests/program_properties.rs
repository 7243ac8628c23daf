//! Compiled programs against their oracle, the tree walk.
//!
//! Every generated bound expression — Kleene AND/OR/NOT, comparisons,
//! BETWEEN, IN lists, IS NULL, arithmetic, negation, ABS, and COALESCE
//! and CASE, which compile to the fallback op — over columns of the own
//! row and of the enclosing row and over literals, must give through
//! [`Program::eval`] the value [`eval`] gives, and through
//! [`Program::holds`] what [`holds`] says; where the tree walk fails,
//! the program fails with the same error. The values are `compare_properties`'
//! groups — INT at its limits (overflow), FLOAT NaN, −0.0 and ±inf, INT
//! against FLOAT past 2^53, strings, dates, BOOL and NULL — and the
//! expressions mix them freely, so errors sit behind short-circuits too.
//! The rewrite's per-slot shape, which compiles to one fused op, is
//! checked against the tree walk of its unfused form.

use prefsql_engine::bind::{ArithOp, BoundExpr, CmpOp, Func};
use prefsql_engine::eval::{eval, holds, Env};
use prefsql_engine::program::{Program, Regs};
use prefsql_engine::{Engine, ExecCtx};
use prefsql_types::{Date, Result, Tuple, Value};
use proptest::prelude::*;

/// Columns per row, at each depth.
const WIDTH: usize = 4;

/// The values, by type: INT, FLOAT, STR, DATE, BOOL, NULL.
fn groups() -> [Vec<Value>; 6] {
    let past = 1i64 << 53;
    [
        [
            i64::MIN,
            i64::MIN + 1,
            -1,
            0,
            1,
            2,
            past,
            past + 1,
            i64::MAX,
        ]
        .map(Value::Int)
        .to_vec(),
        [
            f64::NAN,
            -0.0,
            0.0,
            1.0,
            1.5,
            past as f64,
            i64::MAX as f64,
            i64::MIN as f64,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ]
        .map(Value::Float)
        .to_vec(),
        ["", "a", "ab", "é"].map(Value::str).to_vec(),
        [0, 1].map(|d| Value::Date(Date::from_days(d))).to_vec(),
        [false, true].map(Value::Bool).to_vec(),
        vec![Value::Null],
    ]
}

/// A palette of the values of two groups — BOOL always among them, so
/// the connectives see truths — and two rows drawn from it.
fn arb_palette() -> impl Strategy<Value = (Vec<Value>, Vec<Value>, Vec<Value>)> {
    let n = groups().len();
    (0..n, 0..n).prop_flat_map(|(a, b)| {
        let mut palette = groups()[a].clone();
        for g in [b, 4, 5] {
            if g != a {
                palette.extend(groups()[g].clone());
            }
        }
        let value = (0..palette.len()).prop_map(move |i| palette[i].clone());
        let row = proptest::collection::vec(value.clone(), WIDTH);
        let palette = proptest::collection::vec(value, 6);
        (palette, row.clone(), row)
    })
}

/// An operand: a column of the own row or of the enclosing one, or one
/// of the palette's literals.
fn arb_leaf(palette: Vec<Value>) -> BoxedStrategy<BoundExpr> {
    let n = palette.len();
    prop_oneof![
        (0..2usize, 0..WIDTH).prop_map(|(depth, ordinal)| BoundExpr::Column { depth, ordinal }),
        (0..n).prop_map(move |i| BoundExpr::Literal(palette[i].clone())),
    ]
    .boxed()
}

fn arb_cmp() -> impl Strategy<Value = CmpOp> {
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

fn arb_arith() -> impl Strategy<Value = ArithOp> {
    let ops = [ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div];
    (0..ops.len()).prop_map(move |i| ops[i])
}

/// An expression over `palette`, up to four levels deep.
fn arb_expr(palette: Vec<Value>) -> impl Strategy<Value = BoundExpr> {
    let b = Box::new;
    arb_leaf(palette).prop_recursive(4, 64, 3, move |inner| {
        let x = || inner.clone();
        prop_oneof![
            (x(), x()).prop_map(move |(l, r)| BoundExpr::And(b(l), b(r))),
            (x(), x()).prop_map(move |(l, r)| BoundExpr::Or(b(l), b(r))),
            x().prop_map(move |e| BoundExpr::Not(b(e))),
            (arb_cmp(), x(), x()).prop_map(move |(op, l, r)| BoundExpr::Compare {
                op,
                left: b(l),
                right: b(r),
            }),
            (x(), x(), x(), any::<bool>()).prop_map(move |(e, lo, hi, negated)| {
                BoundExpr::Between {
                    expr: b(e),
                    low: b(lo),
                    high: b(hi),
                    negated,
                }
            }),
            (x(), proptest::collection::vec(x(), 1..4), any::<bool>()).prop_map(
                move |(e, list, negated)| BoundExpr::InList {
                    expr: b(e),
                    list,
                    negated,
                }
            ),
            (x(), any::<bool>()).prop_map(move |(e, negated)| BoundExpr::IsNull {
                expr: b(e),
                negated,
            }),
            (arb_arith(), x(), x()).prop_map(move |(op, l, r)| BoundExpr::Arith {
                op,
                left: b(l),
                right: b(r),
            }),
            x().prop_map(move |e| BoundExpr::Neg(b(e))),
            x().prop_map(|e| BoundExpr::Call {
                func: Func::Abs,
                args: vec![e],
            }),
            (x(), x()).prop_map(|(a, c)| BoundExpr::Call {
                func: Func::Coalesce,
                args: vec![a, c],
            }),
            (x(), x(), x()).prop_map(move |(when, then, other)| BoundExpr::Case {
                operand: None,
                branches: vec![(when, then)],
                else_result: Some(b(other)),
            }),
        ]
    })
}

/// A case: an expression and the two rows it reads.
fn arb_case() -> impl Strategy<Value = (BoundExpr, Vec<Value>, Vec<Value>)> {
    arb_palette().prop_flat_map(|(palette, row, outer)| {
        arb_expr(palette).prop_map(move |e| (e, row.clone(), outer.clone()))
    })
}

/// A value or an error, as text that tells every value apart: `-0.0`
/// from `0.0`, a NaN from everything but a NaN, INT 1 from FLOAT 1.
fn shown<T: std::fmt::Debug>(r: &Result<T>) -> String {
    match r {
        Ok(v) => format!("{v:?}"),
        Err(e) => format!("error {e:?}"),
    }
}

/// Check `e` in the rows `row` (depth 0) and `outer` (depth 1): the
/// program's value and truth against the tree walk's, in `regs` that
/// earlier checks left dirty.
fn check(ctx: &ExecCtx<'_>, e: &BoundExpr, row: &[Value], outer: &[Value], regs: &mut Regs) {
    let (row, outer) = (Tuple::new(row.to_vec()), Tuple::new(outer.to_vec()));
    let frames = [&outer];
    let env = Env::new(&row, &frames);
    let prog = Program::compile(e);
    let want = shown(&eval(e, env, ctx));
    assert_eq!(
        shown(&prog.eval(env, ctx, regs)),
        want,
        "eval {e:?} over {row} / {outer}"
    );
    let want = shown(&holds(e, env, ctx));
    assert_eq!(
        shown(&prog.holds(env, ctx, regs)),
        want,
        "holds {e:?} over {row} / {outer}"
    );
}

/// The rewrite's per-slot shape over `x` and `y`: `x < y OR (x = y OR
/// (x IS NULL AND y IS NULL))`.
fn slot(x: &BoundExpr, y: &BoundExpr) -> BoundExpr {
    let b = |e: &BoundExpr| Box::new(e.clone());
    let cmp = |op| BoundExpr::Compare {
        op,
        left: b(x),
        right: b(y),
    };
    let is_null = |e: &BoundExpr| BoundExpr::IsNull {
        expr: b(e),
        negated: false,
    };
    BoundExpr::Or(
        Box::new(cmp(CmpOp::Lt)),
        Box::new(BoundExpr::Or(
            Box::new(cmp(CmpOp::Eq)),
            Box::new(BoundExpr::And(Box::new(is_null(x)), Box::new(is_null(y)))),
        )),
    )
}

proptest! {
    #[test]
    fn programs_agree_with_the_tree_walk((e, row, outer) in arb_case()) {
        let engine = Engine::new();
        let ctx = engine.read_ctx().unwrap();
        let mut regs = Regs::default();
        check(&ctx, &e, &row, &outer, &mut regs);
        // The same expression under a negation and behind both
        // short-circuits, whose other side is the walk's to skip or run.
        let b = |e: &BoundExpr| Box::new(e.clone());
        let first = BoundExpr::Column { depth: 0, ordinal: 0 };
        for wrapped in [
            BoundExpr::Not(b(&e)),
            BoundExpr::And(b(&first), b(&e)),
            BoundExpr::Or(b(&first), b(&e)),
            BoundExpr::And(b(&e), b(&first)),
        ] {
            check(&ctx, &wrapped, &row, &outer, &mut regs);
        }
    }

    #[test]
    fn the_fused_slot_op_agrees_with_its_unfused_tree(
        (palette, row, outer) in arb_palette(),
        picks in proptest::collection::vec((0..2usize, 0..WIDTH, 0..6usize, any::<bool>()), 8),
    ) {
        let engine = Engine::new();
        let ctx = engine.read_ctx().unwrap();
        let mut regs = Regs::default();
        let operand = |&(depth, ordinal, lit, column): &(usize, usize, usize, bool)| match column {
            true => BoundExpr::Column { depth, ordinal },
            false => BoundExpr::Literal(palette[lit].clone()),
        };
        let operands: Vec<BoundExpr> = picks.iter().map(operand).collect();
        let slots: Vec<BoundExpr> = (operands.chunks(2)).map(|p| slot(&p[0], &p[1])).collect();
        for s in &slots {
            check(&ctx, s, &row, &outer, &mut regs);
        }
        // Over two columns, the shape is one op.
        let (x, y) = (BoundExpr::Column { depth: 0, ordinal: 1 }, BoundExpr::Column { depth: 1, ordinal: 1 });
        prop_assert_eq!(format!("{:?}", Program::compile(&slot(&x, &y))), "Program(1 ops)");
        // The rewrite's dominance residual over four slots: better or
        // equal in all, and strictly better in one.
        let all = slots.iter().cloned().reduce(|a, s| BoundExpr::And(Box::new(a), Box::new(s)));
        let strict = (operands.chunks(2)).map(|p| BoundExpr::Compare {
            op: CmpOp::Lt,
            left: Box::new(p[0].clone()),
            right: Box::new(p[1].clone()),
        });
        let one = strict.reduce(|a, s| BoundExpr::Or(Box::new(a), Box::new(s)));
        let (Some(all), Some(one)) = (all, one) else { unreachable!("four slots") };
        let residual = BoundExpr::And(Box::new(all), Box::new(one));
        check(&ctx, &residual, &row, &outer, &mut regs);
    }
}

/// Errors behind a short-circuit: a FALSE left side of AND (TRUE of OR)
/// skips an overflowing, dividing-by-zero or mistyped right side, which
/// any other left side runs into — in every program form alike.
#[test]
fn errors_surface_exactly_where_the_tree_walk_raises_them() {
    let engine = Engine::new();
    let ctx = engine.read_ctx().unwrap();
    let mut regs = Regs::default();
    let b = Box::new;
    let lit = BoundExpr::Literal;
    let col = |ordinal| BoundExpr::Column { depth: 0, ordinal };
    let failing = [
        BoundExpr::Arith {
            op: ArithOp::Add,
            left: b(lit(Value::Int(i64::MAX))),
            right: b(col(1)),
        },
        BoundExpr::Arith {
            op: ArithOp::Div,
            left: b(col(1)),
            right: b(lit(Value::Int(0))),
        },
        BoundExpr::Neg(b(lit(Value::Int(i64::MIN)))),
        BoundExpr::Not(b(col(1))),
    ];
    for left in [Value::Bool(false), Value::Bool(true), Value::Null] {
        let row = [left, Value::Int(1)];
        for bad in &failing {
            let truth = BoundExpr::Compare {
                op: CmpOp::Eq,
                left: b(bad.clone()),
                right: b(lit(Value::Int(0))),
            };
            for e in [
                BoundExpr::And(b(col(0)), b(truth.clone())),
                BoundExpr::Or(b(col(0)), b(truth.clone())),
                BoundExpr::And(b(col(0)), b(bad.clone())),
            ] {
                check(&ctx, &e, &row, &row, &mut regs);
            }
        }
    }
}
