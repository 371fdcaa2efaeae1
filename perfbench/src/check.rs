//! Output checks applied to every answer the benchmark receives.
//!
//! A returned program must satisfy its problem's examples under the
//! `lambda2-lang` evaluator, its reported cost must be its cost under the
//! problem's cost model, and — where the catalog's reference solution uses
//! only the problem's library — it must cost no more than that reference
//! (the `tests/minimality.rs` rule). A reference that needs a component
//! outside the library (`evens` uses the literal `2`) is no bound, since λ²
//! cannot build it.

use lambda2_lang::ast::Expr;
use lambda2_lang::eval::DEFAULT_FUEL;
use lambda2_lang::parser::parse_expr;
use lambda2_synth::{Library, Problem, Program};

/// The reference solution's cost when it is a valid bound for `problem`:
/// `Some` when every operator, combinator and literal it uses is in the
/// problem's library.
pub fn reference_bound(problem: &Problem, reference: &Program) -> Option<u32> {
    let library = problem.library();
    uses_only(reference.body(), library).then(|| library.costs().cost(reference.body()))
}

fn uses_only(expr: &Expr, library: &Library) -> bool {
    match expr {
        Expr::Lit(v) => library.constants().contains(v),
        Expr::Var(_) | Expr::Hole(_) => true,
        Expr::Comb(c) => library.combs().contains(c),
        Expr::If(c, t, e) => [c, t, e].iter().all(|x| uses_only(x, library)),
        Expr::Lambda(_, body) => uses_only(body, library),
        Expr::App(f, args) => uses_only(f, library) && args.iter().all(|a| uses_only(a, library)),
        Expr::Op(op, args) => {
            library.ops().contains(op) && args.iter().all(|a| uses_only(a, library))
        }
    }
}

/// Checks one answer: `program` with its `reported_cost` for `problem`,
/// against the reference bound from [`reference_bound`].
///
/// # Errors
///
/// A message naming the problem and the first rule the answer breaks.
pub fn check_program(
    problem: &Problem,
    program: &Program,
    reported_cost: u32,
    bound: Option<u32>,
) -> Result<(), String> {
    let name = problem.name();
    if !program.satisfies_problem(problem, DEFAULT_FUEL) {
        return Err(format!("{name}: {program} does not satisfy the examples"));
    }
    let cost = problem.library().costs().cost(program.body());
    if cost != reported_cost {
        return Err(format!(
            "{name}: {program} costs {cost}, but {reported_cost} was reported"
        ));
    }
    if let Some(bound) = bound {
        if cost > bound {
            return Err(format!(
                "{name}: {program} costs {cost}, more than the reference's {bound}"
            ));
        }
    }
    Ok(())
}

/// Parses a program rendered as `(lambda (params…) body)` — the form
/// serve replies carry — back into a [`Program`] over `problem`'s
/// parameters.
///
/// # Errors
///
/// A message when the text does not parse, is not a lambda over exactly
/// the problem's parameters, or has holes.
pub fn parse_program(problem: &Problem, text: &str) -> Result<Program, String> {
    let expr = parse_expr(text).map_err(|e| format!("{}: `{text}`: {e}", problem.name()))?;
    let Expr::Lambda(params, body) = expr else {
        return Err(format!("{}: `{text}` is not a lambda", problem.name()));
    };
    let expected: Vec<_> = problem.params().iter().map(|(p, _)| *p).collect();
    if *params != *expected || !body.is_complete() {
        return Err(format!(
            "{}: `{text}` does not close over the problem's parameters",
            problem.name()
        ));
    }
    Ok(Program::new(problem.params().to_vec(), (*body).clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambda2_bench_suite::by_name;

    #[test]
    fn reference_bound_needs_an_in_library_reference() {
        let sum = by_name("sum").unwrap();
        assert!(reference_bound(&sum.problem, &sum.reference_program()).is_some());
        let evens = by_name("evens").unwrap();
        assert_eq!(
            reference_bound(&evens.problem, &evens.reference_program()),
            None
        );
    }

    #[test]
    fn serve_renderings_parse_back() {
        let b = by_name("reverse").unwrap();
        let reference = b.reference_program();
        let parsed = parse_program(&b.problem, &reference.to_string()).unwrap();
        assert_eq!(parsed.body(), reference.body());
        assert!(parse_program(&b.problem, "(lambda (x) x)").is_err());
        assert!(parse_program(&b.problem, "(lambda (l").is_err());
    }
}
