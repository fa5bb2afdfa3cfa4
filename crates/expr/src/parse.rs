//! Recursive-descent parser for Ark math and boolean expressions.
//!
//! The grammar (paper Fig. 6) is:
//!
//! ```text
//! e ::= x | time | var(n) | v.a | v.a(e*) | f(e*) | v
//!     | -e | e + e | e - e | e * e | e / e | e ^ e
//!     | if b then e else e'
//! b ::= true | false | e cmp e | b and b | b or b | not b | (b) | e
//! ```
//!
//! Bare identifiers parse as [`Expr::Arg`] (function-argument references);
//! whether an argument is actually in scope is checked semantically by
//! `ark-core`. A bare `e` in boolean position is truthiness (`e != 0`),
//! which is how integer switch bits are used in `set-switch v when b`.

use crate::ast::{BoolExpr, CmpOp, Expr, Lambda, UnaryOp};
use crate::error::ParseError;
use crate::lexer::{tokenize, Cursor, Tok};

/// Parse a math expression from source text.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input or trailing tokens.
///
/// # Examples
///
/// ```
/// use ark_expr::parse_expr;
/// let e = parse_expr("-var(t) / s.c")?;
/// assert_eq!(e.to_string(), "(-var(t)) / s.c");
/// # Ok::<(), ark_expr::ParseError>(())
/// ```
pub fn parse_expr(src: &str) -> Result<Expr, ParseError> {
    let toks = tokenize(src)?;
    let mut cur = Cursor::new(&toks);
    let e = expr(&mut cur)?;
    if !cur.at_eof() {
        return Err(cur.error(format!("unexpected trailing token `{}`", cur.peek().tok)));
    }
    Ok(e)
}

/// Parse a boolean expression from source text.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input or trailing tokens.
pub fn parse_bool_expr(src: &str) -> Result<BoolExpr, ParseError> {
    let toks = tokenize(src)?;
    let mut cur = Cursor::new(&toks);
    let b = bool_expr(&mut cur)?;
    if !cur.at_eof() {
        return Err(cur.error(format!("unexpected trailing token `{}`", cur.peek().tok)));
    }
    Ok(b)
}

/// Parse a lambda literal `lambd(p0, p1): body` from source text.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input or trailing tokens.
pub fn parse_lambda(src: &str) -> Result<Lambda, ParseError> {
    let toks = tokenize(src)?;
    let mut cur = Cursor::new(&toks);
    let lam = lambda(&mut cur)?;
    if !cur.at_eof() {
        return Err(cur.error(format!("unexpected trailing token `{}`", cur.peek().tok)));
    }
    Ok(lam)
}

/// Parse a lambda literal from a cursor (used by the `ark-core` parser).
pub fn lambda(cur: &mut Cursor<'_>) -> Result<Lambda, ParseError> {
    cur.expect_kw("lambd")?;
    cur.expect(&Tok::LParen)?;
    let mut params = Vec::new();
    if !cur.eat(&Tok::RParen) {
        loop {
            params.push(cur.expect_ident()?);
            if cur.eat(&Tok::RParen) {
                break;
            }
            cur.expect(&Tok::Comma)?;
        }
    }
    cur.expect(&Tok::Colon)?;
    let body = expr(cur)?;
    Ok(Lambda { params, body })
}

/// Parse a math expression from a cursor (used by the `ark-core` parser).
pub fn expr(cur: &mut Cursor<'_>) -> Result<Expr, ParseError> {
    add_sub(cur)
}

fn add_sub(cur: &mut Cursor<'_>) -> Result<Expr, ParseError> {
    let mut lhs = mul_div(cur)?;
    loop {
        if cur.eat(&Tok::Plus) {
            lhs = lhs.add(mul_div(cur)?);
        } else if cur.eat(&Tok::Minus) {
            lhs = lhs.sub(mul_div(cur)?);
        } else {
            return Ok(lhs);
        }
    }
}

fn mul_div(cur: &mut Cursor<'_>) -> Result<Expr, ParseError> {
    let mut lhs = unary(cur)?;
    loop {
        if cur.eat(&Tok::Star) {
            lhs = lhs.mul(unary(cur)?);
        } else if cur.eat(&Tok::Slash) {
            lhs = lhs.div(unary(cur)?);
        } else {
            return Ok(lhs);
        }
    }
}

fn unary(cur: &mut Cursor<'_>) -> Result<Expr, ParseError> {
    if cur.eat(&Tok::Minus) {
        Ok(unary(cur)?.neg())
    } else {
        power(cur)
    }
}

fn power(cur: &mut Cursor<'_>) -> Result<Expr, ParseError> {
    let base = primary(cur)?;
    if cur.eat(&Tok::Caret) {
        // Right-associative.
        let exp = unary(cur)?;
        Ok(base.binary(crate::ast::BinaryOp::Pow, exp))
    } else {
        Ok(base)
    }
}

fn unary_op_by_name(name: &str) -> Option<UnaryOp> {
    Some(match name {
        "sin" => UnaryOp::Sin,
        "cos" => UnaryOp::Cos,
        "tan" => UnaryOp::Tan,
        "tanh" => UnaryOp::Tanh,
        "exp" => UnaryOp::Exp,
        "ln" => UnaryOp::Ln,
        "sqrt" => UnaryOp::Sqrt,
        "abs" => UnaryOp::Abs,
        "sgn" => UnaryOp::Sgn,
        "sat" => UnaryOp::Sat,
        "sat_ni" => UnaryOp::SatNi,
        _ => return None,
    })
}

fn call_args(cur: &mut Cursor<'_>) -> Result<Vec<Expr>, ParseError> {
    cur.expect(&Tok::LParen)?;
    let mut args = Vec::new();
    if cur.eat(&Tok::RParen) {
        return Ok(args);
    }
    loop {
        args.push(expr(cur)?);
        if cur.eat(&Tok::RParen) {
            return Ok(args);
        }
        cur.expect(&Tok::Comma)?;
    }
}

fn primary(cur: &mut Cursor<'_>) -> Result<Expr, ParseError> {
    match cur.peek().tok.clone() {
        Tok::Number(x) => {
            cur.next();
            Ok(Expr::Const(x))
        }
        Tok::LParen => {
            cur.next();
            let e = expr(cur)?;
            cur.expect(&Tok::RParen)?;
            Ok(e)
        }
        Tok::Ident(name) => {
            cur.next();
            match name.as_str() {
                "time" | "times" => return Ok(Expr::Time),
                "inf" => return Ok(Expr::Const(f64::INFINITY)),
                "pi" => return Ok(Expr::Const(std::f64::consts::PI)),
                "if" => {
                    let b = bool_expr(cur)?;
                    cur.expect_kw("then")?;
                    let t = expr(cur)?;
                    cur.expect_kw("else")?;
                    let e = expr(cur)?;
                    return Ok(Expr::If(Box::new(b), Box::new(t), Box::new(e)));
                }
                "var" => {
                    cur.expect(&Tok::LParen)?;
                    let n = cur.expect_ident()?;
                    cur.expect(&Tok::RParen)?;
                    return Ok(Expr::Var(n));
                }
                _ => {}
            }
            // Attribute access or attribute-lambda call: `v.a` / `v.a(args)`.
            if cur.eat(&Tok::Dot) {
                let attr = cur.expect_ident()?;
                if cur.peek().tok == Tok::LParen {
                    let args = call_args(cur)?;
                    return Ok(Expr::CallAttr(name, attr, args));
                }
                return Ok(Expr::Attr(name, attr));
            }
            // Function call: unary op, builtin, or unknown (checked later).
            if cur.peek().tok == Tok::LParen {
                let args = call_args(cur)?;
                if let Some(op) = unary_op_by_name(&name) {
                    if args.len() != 1 {
                        return Err(cur.error(format!("`{name}` expects exactly 1 argument")));
                    }
                    let mut it = args.into_iter();
                    return Ok(Expr::Unary(op, Box::new(it.next().expect("len checked"))));
                }
                return Ok(Expr::Call(name, args));
            }
            // Bare identifier: function-argument reference.
            Ok(Expr::Arg(name))
        }
        other => Err(cur.error(format!("expected expression, found `{other}`"))),
    }
}

/// Parse a boolean expression from a cursor (used by the `ark-core` parser).
pub fn bool_expr(cur: &mut Cursor<'_>) -> Result<BoolExpr, ParseError> {
    bool_or(cur)
}

fn bool_or(cur: &mut Cursor<'_>) -> Result<BoolExpr, ParseError> {
    let mut lhs = bool_and(cur)?;
    while cur.eat_kw("or") {
        lhs = lhs.or(bool_and(cur)?);
    }
    Ok(lhs)
}

fn bool_and(cur: &mut Cursor<'_>) -> Result<BoolExpr, ParseError> {
    let mut lhs = bool_not(cur)?;
    while cur.eat_kw("and") {
        lhs = lhs.and(bool_not(cur)?);
    }
    Ok(lhs)
}

fn bool_not(cur: &mut Cursor<'_>) -> Result<BoolExpr, ParseError> {
    if cur.eat_kw("not") {
        Ok(bool_not(cur)?.not())
    } else {
        bool_primary(cur)
    }
}

fn cmp_op(tok: &Tok) -> Option<CmpOp> {
    Some(match tok {
        Tok::Lt => CmpOp::Lt,
        Tok::Le => CmpOp::Le,
        Tok::Gt => CmpOp::Gt,
        Tok::Ge => CmpOp::Ge,
        Tok::EqEq => CmpOp::Eq,
        Tok::Ne => CmpOp::Ne,
        _ => return None,
    })
}

fn bool_primary(cur: &mut Cursor<'_>) -> Result<BoolExpr, ParseError> {
    if cur.eat_kw("true") {
        return Ok(BoolExpr::Lit(true));
    }
    if cur.eat_kw("false") {
        return Ok(BoolExpr::Lit(false));
    }
    // `(` may open either a parenthesized boolean or a parenthesized math
    // expression; try boolean first, then backtrack.
    if cur.peek().tok == Tok::LParen {
        let mark = cur.save();
        cur.next();
        if let Ok(inner) = bool_expr(cur) {
            if cur.eat(&Tok::RParen) {
                // Reject interpretations like `(x) < y` or `(x) / 2 < y`
                // where the paren was actually a math subterm.
                let tok = &cur.peek().tok;
                let continues_math = matches!(
                    tok,
                    Tok::Plus | Tok::Minus | Tok::Star | Tok::Slash | Tok::Caret
                );
                if cmp_op(tok).is_none() && !continues_math {
                    return Ok(inner);
                }
            }
        }
        cur.restore(mark);
    }
    let lhs = expr(cur)?;
    if let Some(op) = cmp_op(&cur.peek().tok) {
        cur.next();
        let rhs = expr(cur)?;
        Ok(BoolExpr::Cmp(op, Box::new(lhs), Box::new(rhs)))
    } else {
        // Truthiness of an integer/real expression (e.g. `when br`).
        Ok(BoolExpr::Pred(Box::new(lhs)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval, eval_bool, MapContext};

    #[test]
    fn parse_telegrapher_production_expr() {
        let e = parse_expr("-var(t)/s.c").unwrap();
        assert_eq!(e.to_string(), "(-var(t)) / s.c");
    }

    #[test]
    fn parse_kuramoto_production_expr() {
        let e = parse_expr("-1.6e9*e.k*sin(var(s)-var(t))").unwrap();
        let ctx = MapContext::new()
            .with_attr("e", "k", 2.0)
            .with_var("s", 1.0)
            .with_var("t", 1.0);
        assert_eq!(eval(&e, &ctx).unwrap(), 0.0);
    }

    #[test]
    fn parse_precedence() {
        let e = parse_expr("1+2*3").unwrap();
        assert_eq!(eval(&e, &MapContext::new()).unwrap(), 7.0);
        let e = parse_expr("(1+2)*3").unwrap();
        assert_eq!(eval(&e, &MapContext::new()).unwrap(), 9.0);
        let e = parse_expr("2^3^1").unwrap(); // right-assoc
        assert_eq!(eval(&e, &MapContext::new()).unwrap(), 8.0);
        let e = parse_expr("-2^2").unwrap();
        let v = eval(&e, &MapContext::new()).unwrap();
        assert_eq!(v, -4.0); // unary minus binds the whole power: -(2^2)
    }

    #[test]
    fn parse_division_chain_left_assoc() {
        let e = parse_expr("8/4/2").unwrap();
        assert_eq!(eval(&e, &MapContext::new()).unwrap(), 1.0);
    }

    #[test]
    fn parse_if_then_else() {
        let e = parse_expr("if time >= 1 and time < 2 then 5 else 0").unwrap();
        assert_eq!(eval(&e, &MapContext::new().at_time(1.5)).unwrap(), 5.0);
        assert_eq!(eval(&e, &MapContext::new().at_time(2.5)).unwrap(), 0.0);
    }

    #[test]
    fn parse_attr_lambda_call() {
        let e = parse_expr("s.fn(times)").unwrap();
        assert_eq!(e, Expr::CallAttr("s".into(), "fn".into(), vec![Expr::Time]));
    }

    #[test]
    fn parse_builtin_call() {
        let e = parse_expr("pulse(time, 0, 2e-8)").unwrap();
        assert_eq!(eval(&e, &MapContext::new().at_time(1e-8)).unwrap(), 1.0);
    }

    #[test]
    fn parse_sat_variants() {
        let e = parse_expr("sat(var(s))").unwrap();
        let ctx = MapContext::new().with_var("s", 3.0);
        assert_eq!(eval(&e, &ctx).unwrap(), 1.0);
        let e = parse_expr("sat_ni(var(s))").unwrap();
        assert!(eval(&e, &ctx).unwrap() < 1.0);
    }

    #[test]
    fn parse_unary_arity_error() {
        assert!(parse_expr("sin(1, 2)").is_err());
    }

    #[test]
    fn parse_bare_ident_is_arg() {
        assert_eq!(parse_expr("br").unwrap(), Expr::Arg("br".into()));
    }

    #[test]
    fn parse_inf_and_pi() {
        assert_eq!(parse_expr("inf").unwrap(), Expr::Const(f64::INFINITY));
        let e = parse_expr("pi / 2").unwrap();
        assert!(
            (eval(&e, &MapContext::new()).unwrap() - std::f64::consts::FRAC_PI_2).abs() < 1e-15
        );
    }

    #[test]
    fn parse_bool_exprs() {
        let b = parse_bool_expr("true and not false").unwrap();
        assert!(eval_bool(&b, &MapContext::new()).unwrap());
        let b = parse_bool_expr("1 < 2 or 3 == 4").unwrap();
        assert!(eval_bool(&b, &MapContext::new()).unwrap());
        let b = parse_bool_expr("br").unwrap();
        assert!(eval_bool(&b, &MapContext::new().with_arg("br", 1.0)).unwrap());
        assert!(!eval_bool(&b, &MapContext::new().with_arg("br", 0.0)).unwrap());
    }

    #[test]
    fn parse_parenthesized_bool_backtracking() {
        let b = parse_bool_expr("(1 < 2) and (2 < 3)").unwrap();
        assert!(eval_bool(&b, &MapContext::new()).unwrap());
        // A parenthesized *math* expr compared afterwards must also work.
        let b = parse_bool_expr("(1 + 2) < 4").unwrap();
        assert!(eval_bool(&b, &MapContext::new()).unwrap());
        // ... also when the parenthesized term continues with arithmetic.
        let b = parse_bool_expr("not ((3) / 2 < 1)").unwrap();
        assert!(eval_bool(&b, &MapContext::new()).unwrap());
        let b = parse_bool_expr("(2) ^ 2 - 1 == 3").unwrap();
        assert!(eval_bool(&b, &MapContext::new()).unwrap());
    }

    #[test]
    fn min_max_print_as_calls() {
        let e = Expr::var("x").binary(crate::ast::BinaryOp::Min, Expr::Const(2.0));
        let e = e.binary(crate::ast::BinaryOp::Max, Expr::Const(-1.0));
        assert_eq!(e.to_string(), "max(min(var(x), 2), -1)");
        let reparsed = parse_expr(&e.to_string()).unwrap();
        let ctx = MapContext::new().with_var("x", 5.0);
        assert_eq!(eval(&reparsed, &ctx).unwrap(), 2.0);
    }

    #[test]
    fn negative_power_base_prints_parenthesized() {
        let e = Expr::Const(-2.0).binary(crate::ast::BinaryOp::Pow, Expr::Const(2.0));
        assert_eq!(e.to_string(), "(-2) ^ 2");
        let reparsed = parse_expr(&e.to_string()).unwrap();
        assert_eq!(eval(&reparsed, &MapContext::new()).unwrap(), 4.0);
    }

    #[test]
    fn parse_lambda_literal() {
        let lam = parse_lambda("lambd(t): pulse(t, 0, 2e-8)").unwrap();
        assert_eq!(lam.params, vec!["t".to_string()]);
        let lam = parse_lambda("lambd(): 42").unwrap();
        assert!(lam.params.is_empty());
    }

    #[test]
    fn trailing_tokens_rejected() {
        assert!(parse_expr("1 2").is_err());
        assert!(parse_bool_expr("true false").is_err());
    }

    #[test]
    fn error_position_reported() {
        let err = parse_expr("1 + *").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.col >= 5);
    }
}
