//! Compiled expressions: each bound expression a hot operator evaluates
//! is compiled once per finished plan into one flat [`Program`].
//!
//! A program is a list of ops over two register files, one of values
//! and one of SQL truths (`Option<bool>`), run by one loop with no
//! recursion. An op reads its operands where they lie — a column of the
//! row at any depth, a literal of the program, or a register an earlier
//! op wrote — so a comparison of two columns clones neither. The ops:
//!
//! * typed `Cmp`, `Between`, `IN (list)` (one op per candidate, stopping
//!   at the first match, as the tree walk's lazy candidates do) and
//!   `IS NULL`, deciding INT×INT and STR `=`/`<>` on the payloads like
//!   [`crate::eval`]'s typed arm;
//! * Kleene `AND`/`OR` as a conditional jump over the right operand and a
//!   combine, so the right side runs exactly when the tree walk's
//!   short-circuit would run it; chained jumps are threaded, so a FALSE
//!   conjunct of a left-deep `AND` chain leaves it in one jump; `NOT`;
//! * checked INT/FLOAT `+ - * /`, negation and `ABS`, raising the
//!   `Error`s of [`Value::add`] and its siblings;
//! * `SlotLe`, the fused form of the rewrite's per-slot dominance shape
//!   `x < y OR (x = y OR (x IS NULL AND y IS NULL))` over two columns or
//!   literals: INT×INT decides `x <= y` on the payloads, every other
//!   pair takes the exact Kleene path of the three comparisons;
//! * `Eval`/`EvalTruth`, the one fallback: the tree walk
//!   ([`crate::eval::eval`]) over a sub-expression with no compiled form
//!   — a sub-query, `LIKE`, `CASE` and the scalar calls other than `ABS`.
//!
//! An op whose operands are all literals is folded when the program is
//! compiled; one that would raise an error is kept, so the error surfaces
//! when, and only when, the row reaches it.
//!
//! A lone comparison — most filters — and a bare column or literal —
//! most keys — are evaluated without the loop.
//!
//! `compile_plan` compiles a finished plan — after the pruning pass has
//! renumbered its columns, sub-query plans first — so a plan re-opened by
//! a correlated sub-query never compiles again, and nothing compiles per
//! row. Each operator owns the [`Regs`] its programs run in. A program
//! that was never compiled does not fall back to anything: evaluating it
//! is an `Error::Exec`.
//!
//! Compiling adds no recursion of its own: the compiler walks with a work
//! stack, so the 1 000-operator chains the parser admits cost it no
//! stack, and finding the sub-query plans to compile first is
//! `BoundExpr::visit_mut`, the walk the pruning pass has just run over the
//! same expression.

use crate::bind::{ArithOp, Bound, BoundExpr, CmpOp, Func};
use crate::eval::{self, between, compare, three_and, three_or, truth_to_value, Env};
use crate::exec::ExecCtx;
use crate::plan::{PlanNode, Projection};
use prefsql_types::{Error, Result, Value};
use std::fmt;
use std::sync::Arc;

/// Where an op reads a value.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Arg {
    /// Column `ordinal` of the row `depth` frames out.
    Col { depth: u32, ordinal: u32 },
    /// A literal of the program, by index.
    Const(u32),
    /// A value register.
    Reg(u32),
}

/// Where an op reads a truth.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tv {
    /// A truth known at compile time.
    Const(Option<bool>),
    /// A truth register.
    Reg(u32),
}

/// One instruction. `dst` is a value register for the ops producing a
/// value (`Arith`, `Neg`, `Abs`, `ToValue`, `Eval`) and a truth register
/// for every other.
#[derive(Debug, Clone)]
enum Op {
    Cmp {
        op: CmpOp,
        l: Arg,
        r: Arg,
        dst: u32,
    },
    Between {
        v: Arg,
        lo: Arg,
        hi: Arg,
        negated: bool,
        dst: u32,
    },
    /// `IN (list)` starts FALSE.
    InStart {
        dst: u32,
    },
    /// One candidate of an `IN (list)`: a match makes it TRUE and jumps
    /// past the list, an UNKNOWN comparison leaves it UNKNOWN at best.
    InItem {
        v: Arg,
        item: Arg,
        dst: u32,
        end: u32,
    },
    IsNull {
        v: Arg,
        negated: bool,
        dst: u32,
    },
    /// The rewrite's per-slot `x < y OR (x = y OR (x IS NULL AND y IS
    /// NULL))`.
    SlotLe {
        x: Arg,
        y: Arg,
        dst: u32,
    },
    /// The truth of a value: BOOL as it is, anything else UNKNOWN.
    Truth {
        v: Arg,
        dst: u32,
    },
    /// `NOT` over a value: BOOL or NULL, else a type error.
    NotValue {
        v: Arg,
        dst: u32,
    },
    Not {
        t: Tv,
        dst: u32,
    },
    And {
        l: Tv,
        r: Tv,
        dst: u32,
    },
    Or {
        l: Tv,
        r: Tv,
        dst: u32,
    },
    JumpIfFalse {
        t: u32,
        to: u32,
    },
    JumpIfTrue {
        t: u32,
        to: u32,
    },
    ToValue {
        t: Tv,
        dst: u32,
    },
    Arith {
        op: ArithOp,
        l: Arg,
        r: Arg,
        dst: u32,
    },
    Neg {
        v: Arg,
        dst: u32,
    },
    Abs {
        v: Arg,
        dst: u32,
    },
    /// The fallback: the tree walk's value of `calls[expr]`.
    Eval {
        expr: u32,
        dst: u32,
    },
    /// The fallback: the tree walk's truth of `calls[expr]`.
    EvalTruth {
        expr: u32,
        dst: u32,
    },
}

/// A jump target not known yet.
const PENDING: u32 = u32::MAX;

/// Where a program leaves its result.
#[derive(Debug, Clone, Copy)]
enum Out {
    Value(Arg),
    Truth(Tv),
}

/// One bound expression compiled into a flat list of ops
/// ([`Program::compile`]). The default program is the one not compiled
/// yet; evaluating it is an error. A plan node holds it beside its
/// expression, so it is one pointer wide.
#[derive(Clone, Default)]
pub struct Program(Option<Box<Code>>);

/// A compiled program's ops and what they read.
#[derive(Clone)]
struct Code {
    ops: Vec<Op>,
    /// The literals the ops read, folded constants included.
    consts: Vec<Value>,
    /// The sub-expressions the fallback ops hand to the tree walk.
    calls: Vec<BoundExpr>,
    /// Value and truth registers used.
    vals: usize,
    truths: usize,
    out: Out,
}

/// Plan `Debug` text — the key a correlated join caches its build under,
/// and test failures — shows a program by its size only: it follows from
/// the expression printed beside it.
impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(code) => write!(f, "Program({} ops)", code.ops.len()),
            None => f.write_str("Program(uncompiled)"),
        }
    }
}

/// The registers programs run in, owned by the operator evaluating them
/// and grown to the largest program it runs.
#[derive(Debug, Default)]
pub struct Regs {
    vals: Vec<Value>,
    truths: Vec<Option<bool>>,
}

impl Program {
    /// Compile `expr`.
    pub fn compile(expr: &BoundExpr) -> Program {
        Compiler::new().run(expr)
    }

    /// The expression's value in `env`, as [`crate::eval::eval`] gives it.
    #[inline]
    pub fn eval(&self, env: Env<'_>, ctx: &ExecCtx<'_>, regs: &mut Regs) -> Result<Value> {
        match &self.0 {
            Some(code) => code.eval(env, ctx, regs),
            None => Err(not_compiled()),
        }
    }

    /// Is the expression exactly TRUE in `env`, as [`crate::eval::holds`]
    /// says?
    #[inline]
    pub fn holds(&self, env: Env<'_>, ctx: &ExecCtx<'_>, regs: &mut Regs) -> Result<bool> {
        match &self.0 {
            Some(code) => code.holds(env, ctx, regs),
            None => Err(not_compiled()),
        }
    }
}

impl Code {
    #[inline]
    fn eval(&self, env: Env<'_>, ctx: &ExecCtx<'_>, regs: &mut Regs) -> Result<Value> {
        // A bare column or literal — most keys — is read where it lies.
        if let ([], Out::Value(a)) = (&self.ops[..], self.out) {
            return Ok(load(a, env, &self.consts, &[]).clone());
        }
        Ok(match self.run(env, ctx, regs)? {
            Out::Value(Arg::Reg(r)) => std::mem::replace(&mut regs.vals[r as usize], Value::Null),
            Out::Value(a) => load(a, env, &self.consts, &regs.vals).clone(),
            Out::Truth(t) => truth_to_value(read(t, &regs.truths)),
        })
    }

    #[inline]
    fn holds(&self, env: Env<'_>, ctx: &ExecCtx<'_>, regs: &mut Regs) -> Result<bool> {
        // A lone comparison — most filters — needs no register.
        if let ([Op::Cmp { op, l, r, dst }], Out::Truth(Tv::Reg(t))) = (&self.ops[..], self.out) {
            if *dst == t {
                let (l, r) = (
                    load(*l, env, &self.consts, &[]),
                    load(*r, env, &self.consts, &[]),
                );
                return Ok(compare(*op, l, r) == Some(true));
            }
        }
        Ok(match self.run(env, ctx, regs)? {
            Out::Value(a) => eval::truth(load(a, env, &self.consts, &regs.vals)) == Some(true),
            Out::Truth(t) => read(t, &regs.truths) == Some(true),
        })
    }

    #[inline(always)]
    fn run(&self, env: Env<'_>, ctx: &ExecCtx<'_>, regs: &mut Regs) -> Result<Out> {
        if regs.vals.len() < self.vals || regs.truths.len() < self.truths {
            self.grow(regs);
        }
        let Regs { vals, truths } = regs;
        let consts = &self.consts[..];
        let mut pc = 0;
        while let Some(op) = self.ops.get(pc) {
            pc += 1;
            match *op {
                Op::Cmp { op, l, r, dst } => {
                    let (l, r) = (load(l, env, consts, vals), load(r, env, consts, vals));
                    truths[dst as usize] = compare(op, l, r);
                }
                Op::Between {
                    v,
                    lo,
                    hi,
                    negated,
                    dst,
                } => {
                    let v = load(v, env, consts, vals);
                    let (lo, hi) = (load(lo, env, consts, vals), load(hi, env, consts, vals));
                    truths[dst as usize] = between(v, lo, hi, negated);
                }
                Op::IsNull { v, negated, dst } => {
                    truths[dst as usize] = Some(load(v, env, consts, vals).is_null() != negated);
                }
                Op::SlotLe { x, y, dst } => {
                    let (x, y) = (load(x, env, consts, vals), load(y, env, consts, vals));
                    truths[dst as usize] = slot_le(x, y);
                }
                Op::Truth { v, dst } => {
                    truths[dst as usize] = eval::truth(load(v, env, consts, vals));
                }
                Op::Not { t, dst } => truths[dst as usize] = read(t, truths).map(|b| !b),
                Op::And { l, r, dst } => {
                    truths[dst as usize] = three_and(read(l, truths), read(r, truths));
                }
                Op::Or { l, r, dst } => {
                    truths[dst as usize] = three_or(read(l, truths), read(r, truths));
                }
                Op::JumpIfFalse { t, to } => {
                    if truths[t as usize] == Some(false) {
                        pc = to as usize;
                    }
                }
                Op::JumpIfTrue { t, to } => {
                    if truths[t as usize] == Some(true) {
                        pc = to as usize;
                    }
                }
                Op::ToValue { t, dst } => vals[dst as usize] = truth_to_value(read(t, truths)),
                Op::Arith { op, l, r, dst } => {
                    let v = arith(op, load(l, env, consts, vals), load(r, env, consts, vals))?;
                    vals[dst as usize] = v;
                }
                _ => {
                    if let Some(to) = self.rare(op, env, ctx, vals, truths)? {
                        pc = to;
                    }
                }
            }
        }
        Ok(self.out)
    }

    /// The ops the hot loop leaves out of line: the fallback, `IN`
    /// lists, negation, `ABS` and `NOT` over a value. A taken jump is
    /// returned.
    #[inline(never)]
    fn rare(
        &self,
        op: &Op,
        env: Env<'_>,
        ctx: &ExecCtx<'_>,
        vals: &mut [Value],
        truths: &mut [Option<bool>],
    ) -> Result<Option<usize>> {
        let consts = &self.consts[..];
        match *op {
            Op::InStart { dst } => truths[dst as usize] = Some(false),
            Op::InItem { v, item, dst, end } => {
                let (v, item) = (load(v, env, consts, vals), load(item, env, consts, vals));
                match v.sql_eq(item) {
                    Some(true) => {
                        truths[dst as usize] = Some(true);
                        return Ok(Some(end as usize));
                    }
                    Some(false) => {}
                    None => truths[dst as usize] = None,
                }
            }
            Op::NotValue { v, dst } => {
                truths[dst as usize] = eval::not(load(v, env, consts, vals))?;
            }
            Op::Neg { v, dst } => {
                let v = load(v, env, consts, vals).neg()?;
                vals[dst as usize] = v;
            }
            Op::Abs { v, dst } => {
                let v = load(v, env, consts, vals).abs()?;
                vals[dst as usize] = v;
            }
            Op::Eval { expr, dst } => {
                vals[dst as usize] = eval::eval(&self.calls[expr as usize], env, ctx)?;
            }
            Op::EvalTruth { expr, dst } => {
                truths[dst as usize] = eval::truth_of(&self.calls[expr as usize], env, ctx)?;
            }
            _ => unreachable!("the hot loop runs every other op"),
        }
        Ok(None)
    }

    /// Grow `regs` to this program's registers.
    #[cold]
    fn grow(&self, regs: &mut Regs) {
        if regs.vals.len() < self.vals {
            regs.vals.resize(self.vals, Value::Null);
        }
        if regs.truths.len() < self.truths {
            regs.truths.resize(self.truths, None);
        }
    }
}

#[cold]
fn not_compiled() -> Error {
    Error::Exec("an expression was evaluated before its plan was compiled".into())
}

/// The value `a` names.
#[inline(always)]
fn load<'v>(a: Arg, env: Env<'v>, consts: &'v [Value], vals: &'v [Value]) -> &'v Value {
    match a {
        Arg::Col { depth, ordinal } => env.column(depth as usize, ordinal as usize),
        Arg::Const(i) => &consts[i as usize],
        Arg::Reg(r) => &vals[r as usize],
    }
}

/// The truth `t` names.
#[inline(always)]
fn read(t: Tv, truths: &[Option<bool>]) -> Option<bool> {
    match t {
        Tv::Const(t) => t,
        Tv::Reg(r) => truths[r as usize],
    }
}

/// `x < y OR (x = y OR (x IS NULL AND y IS NULL))`. For INT×INT that is
/// `x <= y`; every other pair takes the Kleene path. Reading either
/// operand can neither fail nor have an effect, so computing all three
/// parts is the tree walk's short-circuit, exactly.
#[inline(always)]
fn slot_le(x: &Value, y: &Value) -> Option<bool> {
    match (x, y) {
        (Value::Int(a), Value::Int(b)) => Some(a <= b),
        _ => slot_le_kleene(x, y),
    }
}

/// [`slot_le`] of any pair but INT×INT.
#[inline(never)]
fn slot_le_kleene(x: &Value, y: &Value) -> Option<bool> {
    let lt = compare(CmpOp::Lt, x, y);
    if lt == Some(true) {
        return lt;
    }
    let both_null = Some(x.is_null() && y.is_null());
    three_or(lt, three_or(compare(CmpOp::Eq, x, y), both_null))
}

/// Checked `l op r`, INT×INT on the payloads; an overflow, a division by
/// zero and every other pair take [`eval::arith`], for its value or its
/// `Error`.
#[inline]
fn arith(op: ArithOp, l: &Value, r: &Value) -> Result<Value> {
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        let v = match op {
            ArithOp::Add => a.checked_add(*b),
            ArithOp::Sub => a.checked_sub(*b),
            ArithOp::Mul => a.checked_mul(*b),
            ArithOp::Div => a.checked_div(*b),
        };
        if let Some(v) = v {
            return Ok(Value::Int(v));
        }
    }
    eval::arith(op, l, r)
}

/// A column operand. A row is far narrower than `u32::MAX` columns and a
/// query far shallower than that many blocks.
fn column(depth: usize, ordinal: usize) -> Arg {
    let narrow = |n: usize| u32::try_from(n).expect("a column address fits in u32");
    Arg::Col {
        depth: narrow(depth),
        ordinal: narrow(ordinal),
    }
}

/// The operands of the rewrite's per-slot shape, when `e` is one: `x < y
/// OR (x = y OR (x IS NULL AND y IS NULL))`, `x` and `y` each one column
/// or literal throughout.
fn slot_shape(e: &BoundExpr) -> Option<(&BoundExpr, &BoundExpr)> {
    let BoundExpr::Or(lt, rest) = e else {
        return None;
    };
    let BoundExpr::Compare {
        op: CmpOp::Lt,
        left: x,
        right: y,
    } = &**lt
    else {
        return None;
    };
    let BoundExpr::Or(eq, nulls) = &**rest else {
        return None;
    };
    let BoundExpr::Compare {
        op: CmpOp::Eq,
        left: x_eq,
        right: y_eq,
    } = &**eq
    else {
        return None;
    };
    let BoundExpr::And(x_null, y_null) = &**nulls else {
        return None;
    };
    let is_null = |e: &BoundExpr, of: &BoundExpr| matches!(e, BoundExpr::IsNull { expr, negated: false } if same_operand(expr, of));
    let fits =
        same_operand(x, x_eq) && same_operand(y, y_eq) && is_null(x_null, x) && is_null(y_null, y);
    fits.then_some((&**x, &**y))
}

/// Are `a` and `b` the same column, or equal literals?
fn same_operand(a: &BoundExpr, b: &BoundExpr) -> bool {
    match (a, b) {
        (
            BoundExpr::Column { depth, ordinal },
            BoundExpr::Column {
                depth: d,
                ordinal: o,
            },
        ) => (depth, ordinal) == (d, o),
        (BoundExpr::Literal(x), BoundExpr::Literal(y)) => x == y,
        _ => false,
    }
}

/// Does `e` decide a truth (rather than compute a value)?
fn is_predicate(e: &BoundExpr) -> bool {
    matches!(
        e,
        BoundExpr::And(..)
            | BoundExpr::Or(..)
            | BoundExpr::Not(_)
            | BoundExpr::Compare { .. }
            | BoundExpr::IsNull { .. }
            | BoundExpr::Between { .. }
            | BoundExpr::InList { .. }
            | BoundExpr::InSubquery { .. }
            | BoundExpr::Exists { .. }
            | BoundExpr::Like { .. }
    )
}

// ------------------------------------------------------------ compiler

/// A result on the compiler's stack. The result at stack position `k`
/// that needs a register is in register `k` of its file, so the
/// operands of an op are the top of the stack, and its result replaces
/// them at the lowest of their positions.
#[derive(Debug, Clone, Copy)]
enum Res {
    Val(Arg),
    Truth(Tv),
}

/// What an op applied to the results on top of the stack computes.
#[derive(Debug, Clone, Copy)]
enum Emit {
    Cmp(CmpOp),
    Between(bool),
    IsNull(bool),
    Arith(ArithOp),
    Neg,
    Abs,
    /// Kleene NOT of a truth.
    Not,
    /// NOT of a value.
    NotValue,
    /// A value read as a truth.
    Truth,
    /// A truth read as a value.
    ToValue,
}

/// One step of the compiler's walk.
enum Task<'e> {
    /// Compile `e` for its value: one `Res::Val` more on the stack.
    Value(&'e BoundExpr),
    /// Compile `e` for its truth: one `Res::Truth` more on the stack.
    Truth(&'e BoundExpr),
    /// Apply an op to the results on top of the stack.
    Emit(Emit),
    /// The left operand of an AND (`and`) or OR is on top: jump past the
    /// right operand when it decides, else compile the right operand.
    Junction { right: &'e BoundExpr, and: bool },
    /// Combine a junction's operands; `jump` is its conditional jump.
    Join { and: bool, jump: Option<usize> },
    /// The tested value of an `IN (list)` is on top.
    InStart,
    /// A candidate of an `IN (list)` is on top.
    InItem,
    /// Finish an `IN (list)`.
    InEnd { negated: bool },
}

struct Compiler {
    prog: Code,
    stack: Vec<Res>,
}

impl Compiler {
    fn new() -> Self {
        Compiler {
            prog: Code {
                ops: Vec::new(),
                consts: Vec::new(),
                calls: Vec::new(),
                vals: 0,
                truths: 0,
                out: Out::Truth(Tv::Const(None)),
            },
            stack: Vec::new(),
        }
    }

    fn run(mut self, expr: &BoundExpr) -> Program {
        // A bare column — most keys — needs no op.
        if let BoundExpr::Column { depth, ordinal } = expr {
            self.prog.out = Out::Value(column(*depth, *ordinal));
            return Program(Some(Box::new(self.prog)));
        }
        let root = match is_predicate(expr) {
            true => Task::Truth(expr),
            false => Task::Value(expr),
        };
        let mut tasks = Vec::with_capacity(16);
        tasks.push(root);
        while let Some(task) = tasks.pop() {
            self.step(task, &mut tasks);
        }
        let out = match self.stack.pop() {
            Some(Res::Val(a)) => Out::Value(a),
            Some(Res::Truth(t)) => Out::Truth(t),
            None => unreachable!("every walk leaves one result"),
        };
        self.thread_jumps();
        self.prog.out = out;
        Program(Some(Box::new(self.prog)))
    }

    fn step<'e>(&mut self, task: Task<'e>, tasks: &mut Vec<Task<'e>>) {
        let k = self.stack.len();
        match task {
            Task::Value(e) => match e {
                BoundExpr::Literal(v) => {
                    let c = self.constant(v.clone());
                    self.stack.push(Res::Val(c));
                }
                BoundExpr::Column { depth, ordinal } => {
                    let col = column(*depth, *ordinal);
                    self.stack.push(Res::Val(col));
                }
                BoundExpr::Neg(x) => tasks.extend([Task::Emit(Emit::Neg), Task::Value(x)]),
                BoundExpr::Call {
                    func: Func::Abs,
                    args,
                } if args.len() == 1 => {
                    tasks.extend([Task::Emit(Emit::Abs), Task::Value(&args[0])]);
                }
                BoundExpr::Arith { op, left, right } => tasks.extend([
                    Task::Emit(Emit::Arith(*op)),
                    Task::Value(right),
                    Task::Value(left),
                ]),
                e if is_predicate(e) => tasks.extend([Task::Emit(Emit::ToValue), Task::Truth(e)]),
                // CASE, the other calls, a scalar sub-query.
                e => {
                    let expr = self.call(e);
                    let dst = self.val_reg(k);
                    self.prog.ops.push(Op::Eval { expr, dst });
                    self.stack.push(Res::Val(Arg::Reg(dst)));
                }
            },
            Task::Truth(e) => match e {
                BoundExpr::And(l, r) => tasks.extend([
                    Task::Junction {
                        right: r,
                        and: true,
                    },
                    Task::Truth(l),
                ]),
                BoundExpr::Or(l, r) => match slot_shape(e) {
                    Some((x, y)) => {
                        let (x, y) = (self.operand(x), self.operand(y));
                        self.slot_le(x, y);
                    }
                    None => tasks.extend([
                        Task::Junction {
                            right: r,
                            and: false,
                        },
                        Task::Truth(l),
                    ]),
                },
                BoundExpr::Not(x) if is_predicate(x) => {
                    tasks.extend([Task::Emit(Emit::Not), Task::Truth(x)]);
                }
                BoundExpr::Not(x) => tasks.extend([Task::Emit(Emit::NotValue), Task::Value(x)]),
                BoundExpr::Compare { op, left, right } => tasks.extend([
                    Task::Emit(Emit::Cmp(*op)),
                    Task::Value(right),
                    Task::Value(left),
                ]),
                BoundExpr::IsNull { expr, negated } => {
                    tasks.extend([Task::Emit(Emit::IsNull(*negated)), Task::Value(expr)]);
                }
                BoundExpr::Between {
                    expr,
                    low,
                    high,
                    negated,
                } => tasks.extend([
                    Task::Emit(Emit::Between(*negated)),
                    Task::Value(high),
                    Task::Value(low),
                    Task::Value(expr),
                ]),
                BoundExpr::InList {
                    expr,
                    list,
                    negated,
                } => {
                    tasks.push(Task::InEnd { negated: *negated });
                    for item in list.iter().rev() {
                        tasks.extend([Task::InItem, Task::Value(item)]);
                    }
                    tasks.extend([Task::InStart, Task::Value(expr)]);
                }
                // A sub-query or LIKE.
                e if is_predicate(e) => {
                    let expr = self.call(e);
                    let dst = self.truth_reg(k);
                    self.prog.ops.push(Op::EvalTruth { expr, dst });
                    self.stack.push(Res::Truth(Tv::Reg(dst)));
                }
                e => tasks.extend([Task::Emit(Emit::Truth), Task::Value(e)]),
            },
            Task::Emit(emit) => self.emit(emit),
            Task::Junction { right, and } => {
                let Some(&Res::Truth(left)) = self.stack.last() else {
                    unreachable!("a junction's left operand is a truth")
                };
                // A FALSE left operand decides an AND (TRUE an OR): the
                // right operand is never run.
                if left == Tv::Const(Some(!and)) {
                    return;
                }
                let jump = match left {
                    Tv::Reg(t) => {
                        let to = PENDING;
                        self.prog.ops.push(if and {
                            Op::JumpIfFalse { t, to }
                        } else {
                            Op::JumpIfTrue { t, to }
                        });
                        Some(self.prog.ops.len() - 1)
                    }
                    Tv::Const(_) => None,
                };
                tasks.extend([Task::Join { and, jump }, Task::Truth(right)]);
            }
            Task::Join { and, jump } => {
                let (l, r) = match (self.stack.pop(), self.stack.pop()) {
                    (Some(Res::Truth(r)), Some(Res::Truth(l))) => (l, r),
                    _ => unreachable!("a junction combines two truths"),
                };
                let combine = if and { three_and } else { three_or };
                let res = match (l, r) {
                    (Tv::Const(a), Tv::Const(b)) => Tv::Const(combine(a, b)),
                    // The jump, if taken, leaves this same result.
                    (_, Tv::Const(b)) if b == Some(!and) => Tv::Const(b),
                    _ => {
                        let dst = self.truth_reg(k - 2);
                        self.prog.ops.push(if and {
                            Op::And { l, r, dst }
                        } else {
                            Op::Or { l, r, dst }
                        });
                        Tv::Reg(dst)
                    }
                };
                if let Some(at) = jump {
                    self.patch(at, self.prog.ops.len());
                }
                self.stack.push(Res::Truth(res));
            }
            Task::InStart => {
                let dst = self.truth_reg(k - 1);
                self.prog.ops.push(Op::InStart { dst });
            }
            Task::InItem => {
                let item = self.pop_val();
                let Some(&Res::Val(v)) = self.stack.last() else {
                    unreachable!("an IN list's tested value is below its candidate")
                };
                let dst = (k - 2) as u32;
                self.prog.ops.push(Op::InItem {
                    v,
                    item,
                    dst,
                    end: PENDING,
                });
            }
            Task::InEnd { negated } => {
                self.pop_val();
                let dst = (k - 1) as u32;
                let end = self.prog.ops.len() as u32;
                // This list's candidates follow its own `InStart`; a
                // list nested in one of them uses a register above.
                for op in self.prog.ops.iter_mut().rev() {
                    match op {
                        Op::InItem { dst: d, end: e, .. } if *d == dst && *e == PENDING => {
                            *e = end;
                        }
                        Op::InStart { dst: d } if *d == dst => break,
                        _ => {}
                    }
                }
                let t = Tv::Reg(dst);
                if negated {
                    self.prog.ops.push(Op::Not { t, dst });
                }
                self.stack.push(Res::Truth(t));
            }
        }
    }

    /// Apply `emit` to the results on top of the stack, folding it when
    /// they are all literals and it succeeds.
    fn emit(&mut self, emit: Emit) {
        let res = match emit {
            Emit::Cmp(op) => {
                let (l, r) = self.pop_two();
                let k = self.stack.len();
                match (self.literal(l), self.literal(r)) {
                    (Some(a), Some(b)) => Res::Truth(Tv::Const(compare(op, a, b))),
                    _ => {
                        let dst = self.truth_reg(k);
                        self.prog.ops.push(Op::Cmp { op, l, r, dst });
                        Res::Truth(Tv::Reg(dst))
                    }
                }
            }
            Emit::Between(negated) => {
                let hi = self.pop_val();
                let (v, lo) = self.pop_two();
                let k = self.stack.len();
                match (self.literal(v), self.literal(lo), self.literal(hi)) {
                    (Some(v), Some(lo), Some(hi)) => {
                        Res::Truth(Tv::Const(between(v, lo, hi, negated)))
                    }
                    _ => {
                        let dst = self.truth_reg(k);
                        self.prog.ops.push(Op::Between {
                            v,
                            lo,
                            hi,
                            negated,
                            dst,
                        });
                        Res::Truth(Tv::Reg(dst))
                    }
                }
            }
            Emit::IsNull(negated) => {
                let v = self.pop_val();
                match self.literal(v) {
                    Some(c) => Res::Truth(Tv::Const(Some(c.is_null() != negated))),
                    None => self.truth_op(|dst| Op::IsNull { v, negated, dst }),
                }
            }
            Emit::Truth => {
                let v = self.pop_val();
                match self.literal(v) {
                    Some(c) => Res::Truth(Tv::Const(eval::truth(c))),
                    None => self.truth_op(|dst| Op::Truth { v, dst }),
                }
            }
            Emit::NotValue => {
                let v = self.pop_val();
                match self.literal(v).map(eval::not) {
                    Some(Ok(t)) => Res::Truth(Tv::Const(t)),
                    _ => self.truth_op(|dst| Op::NotValue { v, dst }),
                }
            }
            Emit::Not => match self.pop_truth() {
                Tv::Const(t) => Res::Truth(Tv::Const(t.map(|b| !b))),
                t => self.truth_op(|dst| Op::Not { t, dst }),
            },
            Emit::ToValue => match self.pop_truth() {
                Tv::Const(t) => Res::Val(self.constant(truth_to_value(t))),
                t => self.value_op(|dst| Op::ToValue { t, dst }),
            },
            Emit::Arith(op) => {
                let (l, r) = self.pop_two();
                let folded = match (self.literal(l), self.literal(r)) {
                    (Some(a), Some(b)) => arith(op, a, b).ok(),
                    _ => None,
                };
                match folded {
                    Some(v) => Res::Val(self.constant(v)),
                    None => self.value_op(|dst| Op::Arith { op, l, r, dst }),
                }
            }
            Emit::Neg | Emit::Abs => {
                let v = self.pop_val();
                let folded = self.literal(v).and_then(|c| match emit {
                    Emit::Neg => c.neg().ok(),
                    _ => c.abs().ok(),
                });
                match (folded, emit) {
                    (Some(c), _) => Res::Val(self.constant(c)),
                    (None, Emit::Neg) => self.value_op(|dst| Op::Neg { v, dst }),
                    (None, _) => self.value_op(|dst| Op::Abs { v, dst }),
                }
            }
        };
        self.stack.push(res);
    }

    /// The fused slot op over `x` and `y`, folded over two literals.
    fn slot_le(&mut self, x: Arg, y: Arg) {
        let res = match (self.literal(x), self.literal(y)) {
            (Some(a), Some(b)) => Res::Truth(Tv::Const(slot_le(a, b))),
            _ => self.truth_op(|dst| Op::SlotLe { x, y, dst }),
        };
        self.stack.push(res);
    }

    /// A column or literal operand, read where it lies.
    fn operand(&mut self, e: &BoundExpr) -> Arg {
        match e {
            BoundExpr::Column { depth, ordinal } => column(*depth, *ordinal),
            BoundExpr::Literal(v) => self.constant(v.clone()),
            _ => unreachable!("slot operands are columns or literals"),
        }
    }

    /// Push `op` writing the truth register of the next stack position.
    fn truth_op(&mut self, op: impl FnOnce(u32) -> Op) -> Res {
        let dst = self.truth_reg(self.stack.len());
        self.prog.ops.push(op(dst));
        Res::Truth(Tv::Reg(dst))
    }

    /// Push `op` writing the value register of the next stack position.
    fn value_op(&mut self, op: impl FnOnce(u32) -> Op) -> Res {
        let dst = self.val_reg(self.stack.len());
        self.prog.ops.push(op(dst));
        Res::Val(Arg::Reg(dst))
    }

    fn val_reg(&mut self, k: usize) -> u32 {
        self.prog.vals = self.prog.vals.max(k + 1);
        k as u32
    }

    fn truth_reg(&mut self, k: usize) -> u32 {
        self.prog.truths = self.prog.truths.max(k + 1);
        k as u32
    }

    fn constant(&mut self, v: Value) -> Arg {
        self.prog.consts.push(v);
        Arg::Const(self.prog.consts.len() as u32 - 1)
    }

    fn literal(&self, a: Arg) -> Option<&Value> {
        match a {
            Arg::Const(i) => Some(&self.prog.consts[i as usize]),
            _ => None,
        }
    }

    fn call(&mut self, e: &BoundExpr) -> u32 {
        self.prog.calls.push(e.clone());
        self.prog.calls.len() as u32 - 1
    }

    fn pop_val(&mut self) -> Arg {
        match self.stack.pop() {
            Some(Res::Val(a)) => a,
            _ => unreachable!("an operand compiled for its value"),
        }
    }

    fn pop_truth(&mut self) -> Tv {
        match self.stack.pop() {
            Some(Res::Truth(t)) => t,
            _ => unreachable!("an operand compiled for its truth"),
        }
    }

    /// The two value operands on top, the lower first.
    fn pop_two(&mut self) -> (Arg, Arg) {
        let r = self.pop_val();
        (self.pop_val(), r)
    }

    fn patch(&mut self, at: usize, to: usize) {
        match &mut self.prog.ops[at] {
            Op::JumpIfFalse { to: t, .. } | Op::JumpIfTrue { to: t, .. } => *t = to as u32,
            _ => unreachable!("only jumps are patched"),
        }
    }

    /// Retarget a jump landing on a jump of the same kind on the same
    /// register to that jump's target: a FALSE conjunct of a left-deep
    /// AND chain then leaves the whole chain in one jump.
    fn thread_jumps(&mut self) {
        let ops = &mut self.prog.ops;
        for i in 0..ops.len() {
            let mut target = match ops[i] {
                Op::JumpIfFalse { to, .. } | Op::JumpIfTrue { to, .. } => to,
                _ => continue,
            };
            loop {
                let next = match (&ops[i], ops.get(target as usize)) {
                    (Op::JumpIfFalse { t, .. }, Some(Op::JumpIfFalse { t: u, to }))
                    | (Op::JumpIfTrue { t, .. }, Some(Op::JumpIfTrue { t: u, to }))
                        if t == u =>
                    {
                        *to
                    }
                    _ => break,
                };
                target = next;
            }
            if let Op::JumpIfFalse { to, .. } | Op::JumpIfTrue { to, .. } = &mut ops[i] {
                *to = target;
            }
        }
    }
}

// ------------------------------------------------------ the plan pass

/// Compile every expression of the finished plan under `node` that an
/// operator evaluates: filters, computed projections, join keys and
/// residuals, sort keys, GROUP BY keys and aggregate arguments, and the
/// preference's slots, `GROUPING` keys and `BUT ONLY` threshold. The
/// plans of the sub-queries they hold are compiled first, before a
/// fallback op shares them.
pub(crate) fn compile_plan(node: &mut PlanNode) {
    match node {
        PlanNode::Nothing { .. }
        | PlanNode::SeqScan { .. }
        | PlanNode::IndexScan { .. }
        | PlanNode::MatViewScan { .. } => {}
        PlanNode::Materialize { input, .. }
        | PlanNode::Distinct { input }
        | PlanNode::Limit { input, .. } => compile_plan(input),
        PlanNode::Join {
            left,
            right,
            keys,
            residual,
            ..
        } => {
            compile_plan(left);
            compile_plan(right);
            for (l, r) in keys {
                l.compile();
                r.compile();
            }
            residual.iter_mut().for_each(Bound::compile);
        }
        PlanNode::Filter { input, pred } => {
            compile_plan(input);
            pred.compile();
        }
        PlanNode::Project {
            input, projections, ..
        } => {
            compile_plan(input);
            for p in projections {
                if let Projection::Computed(b) = p {
                    b.compile();
                }
            }
        }
        PlanNode::Sort { input, keys, .. } => {
            compile_plan(input);
            keys.iter_mut().for_each(|k| k.key.compile());
        }
        PlanNode::Preference { input, spec, .. } => {
            compile_plan(input);
            let spec = &mut **spec;
            let exprs = spec.slots.iter_mut().chain(&mut spec.groups);
            exprs.chain(&mut spec.but_only).for_each(Bound::compile);
        }
        PlanNode::Aggregate { input, spec, .. } => {
            compile_plan(input);
            let args = spec.calls.iter_mut().filter_map(|c| c.arg.as_mut());
            spec.group_by
                .iter_mut()
                .chain(args)
                .for_each(Bound::compile);
        }
    }
}

impl Bound {
    /// Compile the expression, once the plans of its sub-queries are
    /// compiled.
    pub(crate) fn compile(&mut self) {
        compile_subplans(&mut self.expr);
        self.prog = Program::compile(&self.expr);
    }
}

/// Compile the plans of the sub-queries `expr` holds — all an expression
/// the tree walk runs directly needs.
pub(crate) fn compile_subplans(expr: &mut BoundExpr) {
    expr.visit_mut(&mut |e| match e {
        BoundExpr::Exists { plan, .. }
        | BoundExpr::InSubquery { plan, .. }
        | BoundExpr::ScalarSubquery(plan) => compile_plan(&mut Arc::make_mut(plan).root),
        _ => {}
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The code `expr` compiles to.
    fn code(expr: &BoundExpr) -> Code {
        *Program::compile(expr).0.expect("compiled")
    }

    fn col(depth: usize, ordinal: usize) -> Box<BoundExpr> {
        Box::new(BoundExpr::Column { depth, ordinal })
    }

    fn slot(x: Box<BoundExpr>, y: Box<BoundExpr>) -> BoundExpr {
        let cmp = |op, left, right| Box::new(BoundExpr::Compare { op, left, right });
        let is_null = |expr| {
            Box::new(BoundExpr::IsNull {
                expr,
                negated: false,
            })
        };
        BoundExpr::Or(
            cmp(CmpOp::Lt, x.clone(), y.clone()),
            Box::new(BoundExpr::Or(
                cmp(CmpOp::Eq, x.clone(), y.clone()),
                Box::new(BoundExpr::And(is_null(x), is_null(y))),
            )),
        )
    }

    #[test]
    fn the_slot_shape_is_one_op_and_a_chain_of_them_one_jump() {
        let p = code(&slot(col(0, 1), col(1, 1)));
        assert!(matches!(p.ops[..], [Op::SlotLe { .. }]), "{:?}", p.ops);
        // Different operands in one part: not the shape.
        let mut off = slot(col(0, 1), col(1, 1));
        if let BoundExpr::Or(_, rest) = &mut off {
            **rest = slot(col(0, 2), col(1, 1));
        }
        assert!(slot_shape(&off).is_none());
        // A left-deep AND of four slots: each FALSE leaves in one jump.
        let four = (1..4).fold(slot(col(0, 0), col(1, 0)), |acc, i| {
            BoundExpr::And(Box::new(acc), Box::new(slot(col(0, i), col(1, i))))
        });
        let p = code(&four);
        let end = p.ops.len() as u32;
        let jumps: Vec<u32> = (p.ops.iter())
            .filter_map(|op| match op {
                Op::JumpIfFalse { to, .. } => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(jumps.len(), 3, "{:?}", p.ops);
        assert!(jumps.iter().all(|&to| to == end), "{:?}", p.ops);
        assert_eq!(p.truths, 2);
    }

    #[test]
    fn the_dominance_residual_is_slots_and_comparisons_left_in_one_jump() {
        let lt = |i| {
            Box::new(BoundExpr::Compare {
                op: CmpOp::Lt,
                left: col(0, i),
                right: col(1, i),
            })
        };
        let all = (1..4).fold(slot(col(0, 0), col(1, 0)), |acc, i| {
            BoundExpr::And(Box::new(acc), Box::new(slot(col(0, i), col(1, i))))
        });
        let one = (1..4).fold(*lt(0), |acc, i| BoundExpr::Or(Box::new(acc), lt(i)));
        let p = code(&BoundExpr::And(Box::new(all), Box::new(one)));
        let count = |f: fn(&Op) -> bool| p.ops.iter().filter(|op| f(op)).count();
        assert_eq!(
            count(|op| matches!(op, Op::SlotLe { .. })),
            4,
            "{:?}",
            p.ops
        );
        assert_eq!(count(|op| matches!(op, Op::Cmp { .. })), 4, "{:?}", p.ops);
        let fallback = |op: &Op| matches!(op, Op::Eval { .. } | Op::EvalTruth { .. });
        assert_eq!(count(fallback), 0, "{:?}", p.ops);
        // A slot that fails leaves the whole residual in one jump.
        let end = p.ops.len() as u32;
        let exits = (p.ops.iter()).filter(|op| matches!(op, Op::JumpIfFalse { .. }));
        assert!(
            exits
                .clone()
                .all(|op| matches!(op, Op::JumpIfFalse { to, .. } if *to == end)),
            "{:?}",
            p.ops
        );
        assert_eq!(exits.count(), 4, "{:?}", p.ops);
        assert_eq!(p.vals, 0);
    }

    #[test]
    fn literal_operands_fold_and_a_failing_fold_stays_an_op() {
        let lit = |v: i64| Box::new(BoundExpr::Literal(Value::Int(v)));
        let sum = BoundExpr::Arith {
            op: ArithOp::Add,
            left: lit(1),
            right: Box::new(BoundExpr::Arith {
                op: ArithOp::Mul,
                left: lit(2),
                right: lit(3),
            }),
        };
        let p = code(&sum);
        assert!(p.ops.is_empty(), "{:?}", p.ops);
        assert!(matches!(p.out, Out::Value(Arg::Const(_))));
        let overflow = BoundExpr::Arith {
            op: ArithOp::Add,
            left: lit(i64::MAX),
            right: lit(1),
        };
        let p = code(&overflow);
        assert!(matches!(p.ops[..], [Op::Arith { .. }]), "{:?}", p.ops);
    }
}
