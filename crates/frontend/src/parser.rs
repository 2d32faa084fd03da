//! Lexer and recursive-descent parser for mini-C.

use crate::ast::{CmpOp, Cond, Expr, Function, Program, Stmt};
use std::fmt;

/// A mini-C parse error with a line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line of the offending token.
    pub line: usize,
    msg: String,
}

impl ParseError {
    fn new(line: usize, msg: impl Into<String>) -> ParseError {
        ParseError { line, msg: msg.into() }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Deepest nesting [`parse_program`] accepts, counting every
/// parenthesis, unary `-` or `!`, call and statement body that opens
/// a level. The parser and the verification-condition generator
/// recurse once per level, so a program nested to this depth still
/// solves on a thread with the default 2 MiB stack; deeper input is a
/// parse error, not a stack overflow.
pub const MAX_NESTING: usize = 128;

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Num(i64),
    Punct(&'static str),
}

struct Lexer {
    toks: Vec<(Tok, usize)>,
    pos: usize,
    /// Levels currently open (see [`MAX_NESTING`]).
    depth: usize,
}

const PUNCTS: &[&str] = &[
    "==", "!=", "<=", ">=", "&&", "||", "->", "(", ")", "{", "}", ";", ",", "=", "<", ">", "+",
    "-", "*", "/", "%", "!",
];

fn lex(src: &str) -> Result<Vec<(Tok, usize)>, ParseError> {
    let mut out = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0;
    let mut line = 1usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        if c == '/' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        if c == '/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
            i += 2;
            while i + 1 < bytes.len() && !(bytes[i] == b'*' && bytes[i + 1] == b'/') {
                if bytes[i] == b'\n' {
                    line += 1;
                }
                i += 1;
            }
            i = (i + 2).min(bytes.len());
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                i += 1;
            }
            let n: i64 = src[start..i]
                .parse()
                .map_err(|_| ParseError::new(line, "integer literal overflow"))?;
            out.push((Tok::Num(n), line));
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
            {
                i += 1;
            }
            out.push((Tok::Ident(src[start..i].to_string()), line));
            continue;
        }
        let mut matched = false;
        for p in PUNCTS {
            if src[i..].starts_with(p) {
                out.push((Tok::Punct(p), line));
                i += p.len();
                matched = true;
                break;
            }
        }
        if !matched {
            return Err(ParseError::new(line, format!("unexpected character `{c}`")));
        }
    }
    Ok(out)
}

impl Lexer {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn line(&self) -> usize {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map(|(_, l)| *l)
            .unwrap_or(0)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(t, _)| t.clone());
        self.pos += 1;
        t
    }

    fn eat(&mut self, p: &'static str) -> bool {
        if self.peek() == Some(&Tok::Punct(p)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, p: &'static str) -> Result<(), ParseError> {
        if self.eat(p) {
            Ok(())
        } else {
            Err(ParseError::new(
                self.line(),
                format!("expected `{p}`, found {:?}", self.peek()),
            ))
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(ParseError::new(self.line(), format!("expected identifier, found {other:?}"))),
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Ident(s)) if s == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Runs `f` one nesting level deeper, failing past [`MAX_NESTING`].
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Lexer) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_NESTING {
            return Err(ParseError::new(
                self.line(),
                format!("nested deeper than {MAX_NESTING} levels"),
            ));
        }
        self.depth += 1;
        let r = f(self);
        self.depth -= 1;
        r
    }
}

/// Parses a mini-C program.
///
/// # Errors
///
/// Returns [`ParseError`] with the offending line on malformed input.
///
/// ```
/// let src = r#"
///     void main() {
///         int x = 1; int y = 0;
///         while (*) { x = x + y; y = y + 1; }
///         assert(x >= y);
///     }
/// "#;
/// let prog = linarb_frontend::parse_program(src)?;
/// assert_eq!(prog.functions.len(), 1);
/// # Ok::<(), linarb_frontend::ParseError>(())
/// ```
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let toks = lex(src)?;
    let mut lx = Lexer { toks, pos: 0, depth: 0 };
    let mut functions = Vec::new();
    while lx.peek().is_some() {
        functions.push(parse_function(&mut lx)?);
    }
    Ok(Program { functions, source_lines: src.lines().filter(|l| !l.trim().is_empty()).count() })
}

fn parse_function(lx: &mut Lexer) -> Result<Function, ParseError> {
    let returns_value = if lx.eat_kw("int") {
        true
    } else if lx.eat_kw("void") {
        false
    } else {
        return Err(ParseError::new(lx.line(), "expected `int` or `void` function"));
    };
    let name = lx.expect_ident()?;
    lx.expect("(")?;
    let mut params = Vec::new();
    if !lx.eat(")") {
        loop {
            if !lx.eat_kw("int") {
                return Err(ParseError::new(lx.line(), "expected `int` parameter"));
            }
            params.push(lx.expect_ident()?);
            if lx.eat(")") {
                break;
            }
            lx.expect(",")?;
        }
    }
    let body = parse_block(lx)?;
    Ok(Function { name, params, returns_value, body })
}

fn parse_block(lx: &mut Lexer) -> Result<Vec<Stmt>, ParseError> {
    lx.expect("{")?;
    let mut stmts = Vec::new();
    while !lx.eat("}") {
        if lx.peek().is_none() {
            return Err(ParseError::new(lx.line(), "unterminated block"));
        }
        stmts.push(parse_stmt(lx)?);
    }
    Ok(stmts)
}

fn parse_stmt(lx: &mut Lexer) -> Result<Stmt, ParseError> {
    if lx.eat_kw("int") {
        let name = lx.expect_ident()?;
        let init = if lx.eat("=") { Some(parse_expr(lx)?) } else { None };
        lx.expect(";")?;
        return Ok(Stmt::Decl(name, init));
    }
    if lx.eat_kw("if") {
        lx.expect("(")?;
        let cond = parse_cond(lx)?;
        lx.expect(")")?;
        let then = parse_block_or_stmt(lx)?;
        let els = if lx.eat_kw("else") { parse_block_or_stmt(lx)? } else { Vec::new() };
        return Ok(Stmt::If(cond, then, els));
    }
    if lx.eat_kw("while") {
        lx.expect("(")?;
        let cond = parse_cond(lx)?;
        lx.expect(")")?;
        let body = parse_block_or_stmt(lx)?;
        return Ok(Stmt::While(cond, body));
    }
    if lx.eat_kw("assert") {
        lx.expect("(")?;
        let cond = parse_cond(lx)?;
        lx.expect(")")?;
        lx.expect(";")?;
        return Ok(Stmt::Assert(cond));
    }
    if lx.eat_kw("assume") {
        lx.expect("(")?;
        let cond = parse_cond(lx)?;
        lx.expect(")")?;
        lx.expect(";")?;
        return Ok(Stmt::Assume(cond));
    }
    if lx.eat_kw("return") {
        if lx.eat(";") {
            return Ok(Stmt::Return(None));
        }
        let e = parse_expr(lx)?;
        lx.expect(";")?;
        return Ok(Stmt::Return(Some(e)));
    }
    // assignment or expression statement
    if let Some(Tok::Ident(name)) = lx.peek().cloned() {
        if lx.toks.get(lx.pos + 1).map(|(t, _)| t) == Some(&Tok::Punct("=")) {
            lx.pos += 2;
            let e = parse_expr(lx)?;
            lx.expect(";")?;
            return Ok(Stmt::Assign(name, e));
        }
    }
    let e = parse_expr(lx)?;
    lx.expect(";")?;
    Ok(Stmt::Expr(e))
}

fn parse_block_or_stmt(lx: &mut Lexer) -> Result<Vec<Stmt>, ParseError> {
    lx.nested(|lx| {
        if lx.peek() == Some(&Tok::Punct("{")) {
            parse_block(lx)
        } else {
            Ok(vec![parse_stmt(lx)?])
        }
    })
}

// Conditions: || over && over unary over comparison.
fn parse_cond(lx: &mut Lexer) -> Result<Cond, ParseError> {
    let mut lhs = parse_cond_and(lx)?;
    while lx.eat("||") {
        let rhs = parse_cond_and(lx)?;
        lhs = Cond::Or(Box::new(lhs), Box::new(rhs));
    }
    Ok(lhs)
}

fn parse_cond_and(lx: &mut Lexer) -> Result<Cond, ParseError> {
    let mut lhs = parse_cond_unary(lx)?;
    while lx.eat("&&") {
        let rhs = parse_cond_unary(lx)?;
        lhs = Cond::And(Box::new(lhs), Box::new(rhs));
    }
    Ok(lhs)
}

fn parse_cond_unary(lx: &mut Lexer) -> Result<Cond, ParseError> {
    if lx.eat("!") {
        return lx.nested(|lx| Ok(Cond::Not(Box::new(parse_cond_unary(lx)?))));
    }
    // `(` could open a nested condition or an arithmetic expression;
    // try condition first by scanning for a comparison at depth 0.
    if lx.peek() == Some(&Tok::Punct("(")) && cond_ahead(lx) {
        lx.expect("(")?;
        let c = lx.nested(parse_cond)?;
        lx.expect(")")?;
        return Ok(c);
    }
    if lx.eat_kw("true") {
        return Ok(Cond::Const(true));
    }
    if lx.eat_kw("false") {
        return Ok(Cond::Const(false));
    }
    // `*` alone = nondeterministic condition
    if lx.peek() == Some(&Tok::Punct("*")) {
        lx.pos += 1;
        return Ok(Cond::Nondet);
    }
    let lhs = parse_expr(lx)?;
    let op = match lx.next() {
        Some(Tok::Punct("==")) => CmpOp::Eq,
        Some(Tok::Punct("!=")) => CmpOp::Ne,
        Some(Tok::Punct("<")) => CmpOp::Lt,
        Some(Tok::Punct("<=")) => CmpOp::Le,
        Some(Tok::Punct(">")) => CmpOp::Gt,
        Some(Tok::Punct(">=")) => CmpOp::Ge,
        other => {
            return Err(ParseError::new(
                lx.line(),
                format!("expected comparison operator, found {other:?}"),
            ))
        }
    };
    let rhs = parse_expr(lx)?;
    Ok(Cond::Cmp(op, lhs, rhs))
}

/// Lookahead: does the parenthesized group at the cursor contain a
/// top-level-or-nested boolean operator (making it a condition rather
/// than an arithmetic sub-expression)?
fn cond_ahead(lx: &Lexer) -> bool {
    let mut depth = 0usize;
    for (t, _) in &lx.toks[lx.pos..] {
        match t {
            Tok::Punct("(") => depth += 1,
            Tok::Punct(")") => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return false;
                }
            }
            Tok::Punct("==" | "!=" | "<" | "<=" | ">" | ">=" | "&&" | "||" | "!") => {
                return true
            }
            _ => {}
        }
    }
    false
}

// Expressions: + - over * / % over unary over atoms.
fn parse_expr(lx: &mut Lexer) -> Result<Expr, ParseError> {
    let mut lhs = parse_term(lx)?;
    loop {
        if lx.eat("+") {
            let rhs = parse_term(lx)?;
            lhs = Expr::Add(Box::new(lhs), Box::new(rhs));
        } else if lx.eat("-") {
            let rhs = parse_term(lx)?;
            lhs = Expr::Sub(Box::new(lhs), Box::new(rhs));
        } else {
            return Ok(lhs);
        }
    }
}

fn parse_term(lx: &mut Lexer) -> Result<Expr, ParseError> {
    let mut lhs = parse_unary(lx)?;
    loop {
        if lx.eat("*") {
            let rhs = parse_unary(lx)?;
            lhs = Expr::Mul(Box::new(lhs), Box::new(rhs));
        } else if lx.eat("/") {
            let rhs = parse_unary(lx)?;
            lhs = Expr::Div(Box::new(lhs), Box::new(rhs));
        } else if lx.eat("%") {
            let rhs = parse_unary(lx)?;
            lhs = Expr::Mod(Box::new(lhs), Box::new(rhs));
        } else {
            return Ok(lhs);
        }
    }
}

fn parse_unary(lx: &mut Lexer) -> Result<Expr, ParseError> {
    if lx.eat("-") {
        return lx.nested(|lx| Ok(Expr::Neg(Box::new(parse_unary(lx)?))));
    }
    match lx.next() {
        Some(Tok::Num(n)) => Ok(Expr::Lit(n)),
        Some(Tok::Punct("*")) => Ok(Expr::Nondet),
        Some(Tok::Punct("(")) => {
            let e = lx.nested(parse_expr)?;
            lx.expect(")")?;
            Ok(e)
        }
        Some(Tok::Ident(name)) => {
            if name == "nondet" {
                lx.expect("(")?;
                lx.expect(")")?;
                return Ok(Expr::Nondet);
            }
            if lx.peek() == Some(&Tok::Punct("(")) {
                lx.pos += 1;
                let mut args = Vec::new();
                if !lx.eat(")") {
                    loop {
                        args.push(lx.nested(parse_expr)?);
                        if lx.eat(")") {
                            break;
                        }
                        lx.expect(",")?;
                    }
                }
                return Ok(Expr::Call(name, args));
            }
            Ok(Expr::Var(name))
        }
        other => Err(ParseError::new(lx.line(), format!("expected expression, found {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linarb_smt::Budget;
    use linarb_solver::{CegarSolver, SolverConfig};

    /// `main` with an expression in `parens` parentheses as the body of
    /// `ifs` nested `if` statements: `ifs + parens` levels deep.
    fn nested_program(ifs: usize, parens: usize) -> String {
        format!(
            "void main() {{ int x = 1; {}x = {}x{} + 1; assert(x >= 1); }}",
            "if (x > 0) ".repeat(ifs),
            "(".repeat(parens),
            ")".repeat(parens)
        )
    }

    #[test]
    fn program_nested_to_the_limit_solves_on_a_default_stack_and_deeper_is_an_error() {
        for (ifs, parens) in [(0, MAX_NESTING), (MAX_NESTING, 0)] {
            let err = parse_program(&nested_program(ifs, parens + 1)).unwrap_err();
            assert!(err.to_string().contains("nested deeper than"), "{err}");
            let src = nested_program(ifs, parens);
            let solve = move || {
                let sys = crate::compile(&src).unwrap();
                CegarSolver::new(&sys, SolverConfig::default()).solve(&Budget::unlimited()).is_sat()
            };
            let on_2mib = std::thread::Builder::new().stack_size(2 << 20).spawn(solve).unwrap();
            assert!(on_2mib.join().unwrap(), "{ifs} ifs, {parens} parentheses");
        }
    }

    #[test]
    fn parses_fig1_program() {
        let src = r#"
            void main() {
                int x = 1; int y = 0;
                while (*) { x = x + y; y = y + 1; }
                assert(x >= y);
            }
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.functions.len(), 1);
        let main = p.function("main").unwrap();
        assert!(!main.returns_value);
        assert_eq!(main.body.len(), 4);
        assert!(matches!(main.body[2], Stmt::While(Cond::Nondet, _)));
    }

    #[test]
    fn parses_fibo() {
        let src = r#"
            int fibo(int x) {
                if (x < 1) { return 0; }
                else if (x == 1) { return 1; }
                else { return fibo(x - 1) + fibo(x - 2); }
            }
            void main() {
                int n = nondet();
                assert(fibo(n) >= n - 1);
            }
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.functions.len(), 2);
        let f = p.function("fibo").unwrap();
        assert!(f.returns_value);
        assert_eq!(f.params, vec!["x"]);
    }

    #[test]
    fn parses_mod_and_boolean_conditions() {
        let src = r#"
            void main() {
                int i = 0; int x = 0; int y = 0; int n = *;
                while (i < n) {
                    i = i + 1; x = x + 1;
                    if (i % 2 == 0) { y = y + 1; }
                }
                assert(i % 2 != 0 || x == 2 * y);
            }
        "#;
        let p = parse_program(src).unwrap();
        let main = p.function("main").unwrap();
        assert!(matches!(main.body.last(), Some(Stmt::Assert(Cond::Or(_, _)))));
    }

    #[test]
    fn parses_nested_parenthesized_conditions() {
        let src = r#"
            void main() {
                int x = 0; int y = 1;
                if ((x < y && y > 0) || !(x == 0)) { x = (x + 1) * 2; }
            }
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.functions.len(), 1);
    }

    #[test]
    fn error_carries_line() {
        let src = "void main() {\n  int x = ;\n}";
        let e = parse_program(src).unwrap_err();
        assert!(e.line >= 2, "line {} should point at or after the bad token", e.line);
    }

    #[test]
    fn rejects_unknown_chars() {
        assert!(parse_program("void main() { int x = 1 @ 2; }").is_err());
    }

    #[test]
    fn comments_ignored() {
        let src = r#"
            // line comment
            void main() {
                /* block
                   comment */
                int x = 1;
                assert(x == 1);
            }
        "#;
        assert!(parse_program(src).is_ok());
    }
}
