//! Parser for the SMT-LIB2 `HORN` fragment.
//!
//! Supports the clause shapes emitted by SeaHorn/CHC-COMP and by
//! [`ChcSystem::to_smtlib`]: `declare-fun` of `Int → Bool` predicates,
//! `assert` of (optionally `forall`-quantified) implications whose
//! bodies mix a linear constraint with predicate applications, and
//! `mod`/`div` by positive constants (lowered to fresh variables with
//! defining constraints).

use crate::atom::Atom;
use crate::chc::{ChcSystem, PredApp};
use crate::formula::Formula;
use crate::linexpr::LinExpr;
use crate::var::Var;
use linarb_arith::BigInt;
use std::collections::HashMap;
use std::fmt;

/// Error produced when CHC parsing fails; carries a human-readable
/// description of the offending construct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseChcError {
    msg: String,
}

impl ParseChcError {
    fn new(msg: impl Into<String>) -> ParseChcError {
        ParseChcError { msg: msg.into() }
    }
}

impl fmt::Display for ParseChcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CHC parse error: {}", self.msg)
    }
}

impl std::error::Error for ParseChcError {}

/// Deepest list nesting [`parse_chc`] accepts. Everything after the
/// reader (formula lowering, the solver's formula walks, dropping the
/// tree) recurses once per level, so input nested to this depth still
/// solves on a thread with the default 2 MiB stack; deeper input is a
/// parse error, not a stack overflow.
pub const MAX_NESTING: usize = 200;

// --------------------------------------------------------------- s-expr

#[derive(Debug, Clone, PartialEq)]
enum Sexp {
    Sym(String),
    List(Vec<Sexp>),
}

fn tokenize(input: &str) -> Result<Vec<String>, ParseChcError> {
    let mut toks = Vec::new();
    let mut chars = input.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            ';' => {
                for n in chars.by_ref() {
                    if n == '\n' {
                        break;
                    }
                }
            }
            '(' | ')' => {
                toks.push(c.to_string());
                chars.next();
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            '|' => {
                // quoted symbol
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some('|') => break,
                        Some(ch) => s.push(ch),
                        None => return Err(ParseChcError::new("unterminated quoted symbol")),
                    }
                }
                toks.push(s);
            }
            _ => {
                let mut s = String::new();
                while let Some(&n) = chars.peek() {
                    if n.is_whitespace() || n == '(' || n == ')' || n == ';' {
                        break;
                    }
                    s.push(n);
                    chars.next();
                }
                toks.push(s);
            }
        }
    }
    Ok(toks)
}

fn parse_sexps(tokens: &[String]) -> Result<Vec<Sexp>, ParseChcError> {
    let mut stack: Vec<Vec<Sexp>> = vec![Vec::new()];
    for t in tokens {
        match t.as_str() {
            "(" => {
                if stack.len() > MAX_NESTING {
                    return Err(ParseChcError::new(format!(
                        "lists nested deeper than {MAX_NESTING} levels"
                    )));
                }
                stack.push(Vec::new());
            }
            ")" => {
                let done = stack.pop().ok_or_else(|| ParseChcError::new("unbalanced ')'"))?;
                stack
                    .last_mut()
                    .ok_or_else(|| ParseChcError::new("unbalanced ')'"))?
                    .push(Sexp::List(done));
            }
            s => stack
                .last_mut()
                .expect("stack never empty here")
                .push(Sexp::Sym(s.to_string())),
        }
    }
    if stack.len() != 1 {
        return Err(ParseChcError::new("unbalanced '('"));
    }
    Ok(stack.pop().expect("len checked"))
}

// --------------------------------------------------------------- parser

struct ClauseCtx<'a> {
    sys: &'a mut ChcSystem,
    scope: HashMap<String, Var>,
    /// Extra constraints from `mod`/`div` lowering.
    defs: Vec<Formula>,
}

impl ClauseCtx<'_> {
    fn lookup(&self, name: &str) -> Result<Var, ParseChcError> {
        self.scope
            .get(name)
            .copied()
            .ok_or_else(|| ParseChcError::new(format!("unbound variable `{name}`")))
    }

    fn term(&mut self, s: &Sexp) -> Result<LinExpr, ParseChcError> {
        match s {
            Sexp::Sym(t) => {
                if let Ok(n) = t.parse::<BigInt>() {
                    Ok(LinExpr::constant(n))
                } else {
                    Ok(LinExpr::var(self.lookup(t)?))
                }
            }
            Sexp::List(items) => {
                let (op, rest) = split_op(items)?;
                match op {
                    "+" => {
                        let mut acc = LinExpr::zero();
                        for r in rest {
                            acc = &acc + &self.term(r)?;
                        }
                        Ok(acc)
                    }
                    "-" => match rest.len() {
                        0 => Err(ParseChcError::new("(-) needs arguments")),
                        1 => Ok(-&self.term(&rest[0])?),
                        _ => {
                            let mut acc = self.term(&rest[0])?;
                            for r in &rest[1..] {
                                acc = &acc - &self.term(r)?;
                            }
                            Ok(acc)
                        }
                    },
                    "*" => {
                        let mut konst = BigInt::one();
                        let mut expr: Option<LinExpr> = None;
                        for r in rest {
                            let e = self.term(r)?;
                            if e.is_constant() {
                                konst = &konst * e.constant_term();
                            } else if expr.is_none() {
                                expr = Some(e);
                            } else {
                                return Err(ParseChcError::new(
                                    "nonlinear multiplication is not supported",
                                ));
                            }
                        }
                        Ok(match expr {
                            Some(e) => e.scale(&konst),
                            None => LinExpr::constant(konst),
                        })
                    }
                    "mod" | "div" => {
                        if rest.len() != 2 {
                            return Err(ParseChcError::new(format!("({op}) needs 2 arguments")));
                        }
                        let t = self.term(&rest[0])?;
                        let k = self.term(&rest[1])?;
                        if !k.is_constant() || !k.constant_term().is_positive() {
                            return Err(ParseChcError::new(format!(
                                "({op}) divisor must be a positive constant"
                            )));
                        }
                        let k = k.constant_term().clone();
                        let q = self.sys.fresh_var(&format!("{op}!q"));
                        let r = self.sys.fresh_var(&format!("{op}!r"));
                        let qe = LinExpr::var(q);
                        let re = LinExpr::var(r);
                        // t = k*q + r  /\  0 <= r < k
                        self.defs.push(Atom::eq_expr(t, &qe.scale(&k) + &re));
                        self.defs
                            .push(Formula::from(Atom::ge(re.clone(), LinExpr::zero())));
                        self.defs
                            .push(Formula::from(Atom::lt(re.clone(), LinExpr::constant(k))));
                        Ok(if op == "mod" { re } else { qe })
                    }
                    other => Err(ParseChcError::new(format!("unknown term operator `{other}`"))),
                }
            }
        }
    }

    /// Parses a formula that must be predicate-free.
    fn formula(&mut self, s: &Sexp) -> Result<Formula, ParseChcError> {
        let (f, apps) = self.body(s)?;
        if !apps.is_empty() {
            return Err(ParseChcError::new(
                "predicate application not allowed in this position",
            ));
        }
        Ok(f)
    }

    /// Parses a clause body: a constraint plus predicate applications.
    /// Applications may only appear under conjunction.
    fn body(&mut self, s: &Sexp) -> Result<(Formula, Vec<PredApp>), ParseChcError> {
        match s {
            Sexp::Sym(t) => match t.as_str() {
                "true" => Ok((Formula::True, Vec::new())),
                "false" => Ok((Formula::False, Vec::new())),
                name => {
                    if let Some(p) = self.sys.pred_by_name(name) {
                        if p.arity() == 0 {
                            let id = p.id;
                            return Ok((Formula::True, vec![PredApp::new(id, Vec::new())]));
                        }
                    }
                    Err(ParseChcError::new(format!("unknown formula symbol `{name}`")))
                }
            },
            Sexp::List(items) => {
                let (op, rest) = split_op(items)?;
                match op {
                    "and" => {
                        let mut fs = Vec::new();
                        let mut apps = Vec::new();
                        for r in rest {
                            let (f, a) = self.body(r)?;
                            fs.push(f);
                            apps.extend(a);
                        }
                        Ok((Formula::and(fs), apps))
                    }
                    "or" => {
                        let mut fs = Vec::new();
                        for r in rest {
                            fs.push(self.formula(r)?);
                        }
                        Ok((Formula::or(fs), Vec::new()))
                    }
                    "not" => {
                        if rest.len() != 1 {
                            return Err(ParseChcError::new("(not) needs 1 argument"));
                        }
                        Ok((Formula::not(self.formula(&rest[0])?), Vec::new()))
                    }
                    "=>" => {
                        if rest.len() != 2 {
                            return Err(ParseChcError::new("(=>) needs 2 arguments"));
                        }
                        let p = self.formula(&rest[0])?;
                        let c = self.formula(&rest[1])?;
                        Ok((Formula::implies(p, c), Vec::new()))
                    }
                    "<=" | "<" | ">=" | ">" | "=" => {
                        if rest.len() != 2 {
                            return Err(ParseChcError::new(format!("({op}) needs 2 arguments")));
                        }
                        let l = self.term(&rest[0])?;
                        let r = self.term(&rest[1])?;
                        let f = match op {
                            "<=" => Formula::from(Atom::le(l, r)),
                            "<" => Formula::from(Atom::lt(l, r)),
                            ">=" => Formula::from(Atom::ge(l, r)),
                            ">" => Formula::from(Atom::gt(l, r)),
                            "=" => Atom::eq_expr(l, r),
                            _ => unreachable!(),
                        };
                        Ok((f, Vec::new()))
                    }
                    "distinct" => {
                        if rest.len() != 2 {
                            return Err(ParseChcError::new("(distinct) needs 2 arguments"));
                        }
                        let l = self.term(&rest[0])?;
                        let r = self.term(&rest[1])?;
                        let f = Formula::or(vec![
                            Formula::from(Atom::lt(l.clone(), r.clone())),
                            Formula::from(Atom::gt(l, r)),
                        ]);
                        Ok((f, Vec::new()))
                    }
                    name => Ok((Formula::True, vec![self.pred_app(name, rest)?])),
                }
            }
        }
    }

    /// The application of predicate `name` to `args`, whose number
    /// must match the predicate's declared arity.
    fn pred_app(&mut self, name: &str, args: &[Sexp]) -> Result<PredApp, ParseChcError> {
        let p = self
            .sys
            .pred_by_name(name)
            .ok_or_else(|| ParseChcError::new(format!("unknown predicate `{name}`")))?
            .id;
        let arity = self.sys.pred(p).arity();
        if args.len() != arity {
            return Err(ParseChcError::new(format!(
                "predicate `{name}` expects {arity} arguments, got {}",
                args.len()
            )));
        }
        let args = args.iter().map(|a| self.term(a)).collect::<Result<_, _>>()?;
        Ok(PredApp::new(p, args))
    }
}

fn split_op(items: &[Sexp]) -> Result<(&str, &[Sexp]), ParseChcError> {
    match items.split_first() {
        Some((Sexp::Sym(op), rest)) => Ok((op.as_str(), rest)),
        _ => Err(ParseChcError::new("expected an operator at list head")),
    }
}

/// Parses an SMT-LIB2 `HORN` script into a [`ChcSystem`].
///
/// # Errors
///
/// Returns [`ParseChcError`] for malformed s-expressions, unknown
/// operators/predicates, non-linear terms, negated or disjunctive
/// predicate occurrences, and `mod`/`div` in clause heads.
///
/// ```
/// let text = r#"
/// (set-logic HORN)
/// (declare-fun p (Int Int) Bool)
/// (assert (forall ((x Int) (y Int))
///   (=> (and (= x 1) (= y 0)) (p x y))))
/// (assert (forall ((x Int) (y Int))
///   (=> (p x y) (>= x y))))
/// (check-sat)
/// "#;
/// let sys = linarb_logic::parse_chc(text)?;
/// assert_eq!(sys.num_preds(), 1);
/// assert_eq!(sys.num_clauses(), 2);
/// # Ok::<(), linarb_logic::ParseChcError>(())
/// ```
pub fn parse_chc(input: &str) -> Result<ChcSystem, ParseChcError> {
    let sexps = parse_sexps(&tokenize(input)?)?;
    let mut sys = ChcSystem::new();
    let mut global_scope: HashMap<String, Var> = HashMap::new();
    for s in &sexps {
        let items = match s {
            Sexp::List(items) => items,
            Sexp::Sym(t) => {
                return Err(ParseChcError::new(format!("unexpected top-level symbol `{t}`")))
            }
        };
        let (cmd, rest) = split_op(items)?;
        match cmd {
            "set-logic" | "set-info" | "set-option" | "check-sat" | "exit" | "get-model" => {}
            "declare-fun" | "declare-rel" => {
                let name = sym(rest.first(), "declare-fun name")?;
                let args = match rest.get(1) {
                    Some(Sexp::List(a)) => a.len(),
                    _ => return Err(ParseChcError::new("declare-fun needs an argument list")),
                };
                if let Some(p) = sys.pred_by_name(name) {
                    if p.arity() != args {
                        return Err(ParseChcError::new(format!(
                            "predicate `{name}` redeclared with {args} arguments, was {}",
                            p.arity()
                        )));
                    }
                }
                sys.declare_pred(name, args);
            }
            "declare-var" | "declare-const" => {
                let name = sym(rest.first(), "declare-var name")?;
                let v = sys.fresh_var(name);
                global_scope.insert(name.to_string(), v);
            }
            "assert" | "rule" => {
                let inner = rest
                    .first()
                    .ok_or_else(|| ParseChcError::new("assert needs a formula"))?;
                parse_assert(&mut sys, &global_scope, inner)?;
            }
            "query" => {
                // Eldarica-style: (query pred)
                let inner = rest
                    .first()
                    .ok_or_else(|| ParseChcError::new("query needs a formula"))?;
                let mut ctx =
                    ClauseCtx { sys: &mut sys, scope: global_scope.clone(), defs: Vec::new() };
                let (f, apps) = ctx.body(inner)?;
                let mut constraint_parts = vec![f];
                constraint_parts.extend(ctx.defs);
                sys.query(apps, Formula::and(constraint_parts), Formula::False);
            }
            other => return Err(ParseChcError::new(format!("unknown command `{other}`"))),
        }
    }
    Ok(sys)
}

fn sym<'a>(s: Option<&'a Sexp>, what: &str) -> Result<&'a str, ParseChcError> {
    match s {
        Some(Sexp::Sym(t)) => Ok(t),
        _ => Err(ParseChcError::new(format!("expected {what}"))),
    }
}

fn parse_assert(
    sys: &mut ChcSystem,
    global_scope: &HashMap<String, Var>,
    s: &Sexp,
) -> Result<(), ParseChcError> {
    // strip (forall (bindings) body)
    let (scope, inner) = match s {
        Sexp::List(items) if matches!(items.first(), Some(Sexp::Sym(k)) if k == "forall") => {
            let bindings = match items.get(1) {
                Some(Sexp::List(bs)) => bs,
                _ => return Err(ParseChcError::new("forall needs a binding list")),
            };
            let mut scope = global_scope.clone();
            for b in bindings {
                match b {
                    Sexp::List(pair) if pair.len() == 2 => {
                        let name = sym(pair.first(), "binding name")?;
                        let v = sys.fresh_var(name);
                        scope.insert(name.to_string(), v);
                    }
                    _ => return Err(ParseChcError::new("malformed forall binding")),
                }
            }
            let body = items
                .get(2)
                .ok_or_else(|| ParseChcError::new("forall needs a body"))?;
            (scope, body)
        }
        other => (global_scope.clone(), other),
    };

    // inner should be (=> body head), or a bare head (a fact).
    let (body_sexp, head_sexp): (Option<&Sexp>, &Sexp) = match inner {
        Sexp::List(items) if matches!(items.first(), Some(Sexp::Sym(k)) if k == "=>") => {
            if items.len() != 3 {
                return Err(ParseChcError::new("(=>) needs 2 arguments"));
            }
            (Some(&items[1]), &items[2])
        }
        other => (None, other),
    };

    let mut ctx = ClauseCtx { sys, scope, defs: Vec::new() };
    let (constraint, apps) = match body_sexp {
        Some(b) => ctx.body(b)?,
        None => (Formula::True, Vec::new()),
    };

    // Parse head: a predicate application or a known formula.
    enum Head {
        App(PredApp),
        Goal(Formula),
    }
    let head = match head_sexp {
        Sexp::Sym(t) if t == "false" => Head::Goal(Formula::False),
        Sexp::Sym(t) if t == "true" => Head::Goal(Formula::True),
        Sexp::Sym(t) if ctx.sys.pred_by_name(t).is_some() => Head::App(ctx.pred_app(t, &[])?),
        Sexp::List(items)
            if matches!(items.first(),
                Some(Sexp::Sym(n)) if ctx.sys.pred_by_name(n).is_some()) =>
        {
            let (name, args) = split_op(items)?;
            Head::App(ctx.pred_app(name, args)?)
        }
        other => {
            let defs_before = ctx.defs.len();
            let g = ctx.formula(other)?;
            if ctx.defs.len() != defs_before {
                return Err(ParseChcError::new(
                    "mod/div are not supported in clause heads; move them into the body",
                ));
            }
            Head::Goal(g)
        }
    };

    let mut constraint_parts = vec![constraint];
    constraint_parts.extend(ctx.defs);
    let constraint = Formula::and(constraint_parts);
    match head {
        Head::App(app) => {
            sys.rule(apps, constraint, app.pred, app.args);
        }
        Head::Goal(g) => {
            sys.query(apps, constraint, g);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chc::{ClauseHead, Interpretation};
    use crate::model::Model;
    use linarb_arith::int;

    const FIG1: &str = r#"
        (set-logic HORN)
        ; Fig. 1 of the paper
        (declare-fun p (Int Int) Bool)
        (assert (forall ((x Int) (y Int))
            (=> (and (= x 1) (= y 0)) (p x y))))
        (assert (forall ((x Int) (y Int) (x1 Int) (y1 Int))
            (=> (and (p x y) (= x1 (+ x y)) (= y1 (+ y 1))) (p x1 y1))))
        (assert (forall ((x Int) (y Int) (x1 Int) (y1 Int))
            (=> (and (p x y) (= x1 (+ x y)) (= y1 (+ y 1))) (>= x1 y1))))
        (assert (forall ((x Int) (y Int))
            (=> (and (= x 1) (= y 0)) (>= x y))))
        (check-sat)
    "#;

    #[test]
    fn parses_fig1() {
        let sys = parse_chc(FIG1).unwrap();
        assert_eq!(sys.num_preds(), 1);
        assert_eq!(sys.num_clauses(), 4);
        assert!(sys.is_recursive());
        assert!(sys.clauses()[0].is_fact());
        assert!(sys.clauses()[3].is_query());
        assert_eq!(sys.clauses()[1].body_preds.len(), 1);
    }

    #[test]
    fn roundtrip_through_printer() {
        let sys = parse_chc(FIG1).unwrap();
        let printed = sys.to_smtlib();
        let back = parse_chc(&printed).unwrap();
        assert_eq!(back.num_preds(), sys.num_preds());
        assert_eq!(back.num_clauses(), sys.num_clauses());
        assert_eq!(back.clauses()[1].body_preds.len(), 1);
    }

    #[test]
    fn parses_arith_ops() {
        let text = r#"
            (declare-fun p (Int) Bool)
            (assert (forall ((x Int) (y Int))
                (=> (and (= x (* 3 y)) (< (- x y 1) 10) (> (+ x (- y)) (- 5)))
                    (p x))))
        "#;
        let sys = parse_chc(text).unwrap();
        assert_eq!(sys.num_clauses(), 1);
    }

    #[test]
    fn mod_lowering_is_semantic() {
        let text = r#"
            (declare-fun p (Int) Bool)
            (assert (forall ((i Int))
                (=> (= (mod i 2) 0) (p i))))
        "#;
        let sys = parse_chc(text).unwrap();
        let c = &sys.clauses()[0];
        // constraint says i = 2q + r, 0 <= r < 2, r = 0
        // find the i variable: the one named "i"
        let mut i_var = None;
        for idx in 0..sys.num_vars() {
            if sys.var_name(Var::from_index(idx as u32)) == "i" {
                i_var = Some(Var::from_index(idx as u32));
            }
        }
        let i = i_var.expect("i must exist");
        // i even: there must exist q,r values making the constraint true.
        // Brute force q over small range.
        let q = (0..sys.num_vars() as u32)
            .map(Var::from_index)
            .find(|v| sys.var_name(*v).starts_with("mod!q"))
            .unwrap();
        let r = (0..sys.num_vars() as u32)
            .map(Var::from_index)
            .find(|v| sys.var_name(*v).starts_with("mod!r"))
            .unwrap();
        let mut m = Model::new();
        m.assign(i, int(4));
        m.assign(q, int(2));
        m.assign(r, int(0));
        assert!(c.constraint.eval(&m));
        m.assign(i, int(5));
        // no q,r with r=0 works for odd i
        let mut found = false;
        for qq in -6i64..6 {
            let mut m2 = Model::new();
            m2.assign(i, int(5));
            m2.assign(q, int(qq));
            m2.assign(r, int(0));
            found |= c.constraint.eval(&m2);
        }
        assert!(!found);
    }

    #[test]
    fn mod_in_head_rejected() {
        let text = r#"
            (declare-fun p (Int) Bool)
            (assert (forall ((i Int))
                (=> (p i) (= (mod i 2) 0))))
        "#;
        assert!(parse_chc(text).is_err());
    }

    #[test]
    fn nonlinear_rejected() {
        let text = r#"
            (declare-fun p (Int) Bool)
            (assert (forall ((x Int) (y Int)) (=> (= x (* y y)) (p x))))
        "#;
        assert!(parse_chc(text).is_err());
    }

    fn error_of(text: &str) -> String {
        parse_chc(text).expect_err("must be rejected").to_string()
    }

    #[test]
    fn head_with_too_many_arguments_rejected() {
        let text = "(declare-fun p (Int) Bool)
                    (assert (forall ((x Int) (y Int)) (=> (= x 0) (p x y))))";
        assert!(error_of(text).contains("`p` expects 1 arguments, got 2"));
    }

    #[test]
    fn bare_head_of_a_unary_predicate_rejected() {
        let text = "(declare-fun p (Int) Bool) (assert (forall ((x Int)) (=> (= x 0) p)))";
        assert!(error_of(text).contains("`p` expects 1 arguments, got 0"));
    }

    #[test]
    fn redeclaration_with_another_arity_rejected() {
        let text = "(declare-fun p (Int) Bool) (declare-fun p (Int Int) Bool)";
        assert!(error_of(text).contains("`p` redeclared with 2 arguments, was 1"));
    }

    #[test]
    fn nesting_past_the_limit_rejected() {
        // `(assert (and … (>= 1 0)))`, `depth` lists deep.
        let nested = |depth: usize| {
            format!("(assert {}(>= 1 0){})", "(and ".repeat(depth - 2), ")".repeat(depth - 2))
        };
        assert_eq!(parse_chc(&nested(MAX_NESTING)).unwrap().num_clauses(), 1);
        assert!(error_of(&nested(MAX_NESTING + 1)).contains("nested deeper than"));
    }

    #[test]
    fn unknown_predicate_rejected() {
        let text = r#"
            (assert (forall ((x Int)) (=> (q x) false)))
        "#;
        assert!(parse_chc(text).is_err());
    }

    #[test]
    fn query_head_false() {
        let text = r#"
            (declare-fun p (Int) Bool)
            (assert (forall ((x Int)) (=> (> x 0) (p x))))
            (assert (forall ((x Int)) (=> (and (p x) (< x 0)) false)))
        "#;
        let sys = parse_chc(text).unwrap();
        assert!(sys.clauses()[1].is_query());
        match &sys.clauses()[1].head {
            ClauseHead::Goal(g) => assert_eq!(*g, Formula::False),
            _ => panic!("expected goal head"),
        }
    }

    #[test]
    fn fact_without_forall() {
        let text = r#"
            (declare-fun p (Int Int) Bool)
            (declare-var a Int)
            (assert (=> (= a 3) (p a a)))
        "#;
        let sys = parse_chc(text).unwrap();
        assert_eq!(sys.num_clauses(), 1);
        assert!(sys.clauses()[0].is_fact());
    }

    #[test]
    fn validity_check_on_parsed_system() {
        let sys = parse_chc(FIG1).unwrap();
        let p = sys.pred_by_name("p").unwrap();
        let params = p.params.clone();
        let good: Interpretation = [(
            p.id,
            Formula::and(vec![
                Formula::from(Atom::ge(LinExpr::var(params[0]), LinExpr::constant(int(1)))),
                Formula::from(Atom::ge(LinExpr::var(params[1]), LinExpr::constant(int(0)))),
            ]),
        )]
        .into_iter()
        .collect();
        // Exhaustively check clause 4 (x=1, y=0 -> x>=y) with substituted models.
        let c = &sys.clauses()[3];
        let chk = sys.validity_check(c, &good);
        // Every grid assignment must falsify the check formula.
        let vars: Vec<Var> = chk.vars().into_iter().collect();
        assert!(!vars.is_empty());
        for a in -2i64..3 {
            for b in -2i64..3 {
                let mut m = Model::new();
                if !vars.is_empty() {
                    m.assign(vars[0], int(a));
                }
                if vars.len() > 1 {
                    m.assign(vars[1], int(b));
                }
                assert!(!chk.eval(&m));
            }
        }
    }
}
