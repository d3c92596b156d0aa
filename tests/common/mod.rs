//! The one-goal reference audit the equivalence suites compare against.

use gdp::core::{reify, Specification, Violation, ERROR_PRED};
use gdp::engine::{Term, Var};

/// The active world view's violations, found without the audit fan-out:
/// one `visible(M, S, T, error, A)` goal through
/// [`Specification::solve_goal`], its answers decoded in derivation order
/// with each violation kept at its first occurrence.
pub fn sequential_violations(spec: &Specification) -> Vec<Violation> {
    let goal = reify::visible(
        Term::var(0),
        Term::var(1),
        Term::var(2),
        Term::atom(ERROR_PRED),
        Term::var(3),
    );
    let mut out = Vec::new();
    for sol in spec.solve_goal(goal).expect("sequential audit") {
        let get = |i| sol.get(Var(i)).cloned().unwrap_or(Term::var(i));
        let v = Violation::decode(get(0), get(1), get(2), &get(3));
        if !out.contains(&v) {
            out.push(v);
        }
    }
    out
}
