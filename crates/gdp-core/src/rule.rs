//! Virtual-fact definitions and constraints.
//!
//! A [`Rule`] is the paper's virtual-fact definition
//! `(∀ Xi): (F(Xi) ⇒ q(Xk))` (§III.A); a [`Constraint`] is the same shape
//! concluding the distinguished `ERROR` predicate (§III.C). Both compile to
//! engine clauses over the reified `h/5` relation, with bodies reading
//! through the world-view-filtered `visible/5`.

use gdp_engine::{Clause, GroupId, Term};

use crate::error::{SpecError, SpecResult};
use crate::fact::{FactPat, Target};
use crate::formula::Formula;
use crate::pattern::{Pat, VarTable};

/// A virtual-fact definition.
#[derive(Clone, Debug, PartialEq)]
pub struct Rule {
    /// The derived fact (the `q(Xk)` conclusion).
    pub head: FactPat,
    /// The defining formula `F(Xi)`.
    pub body: Formula,
}

impl Rule {
    /// Build a rule.
    pub fn new(head: FactPat, body: Formula) -> Rule {
        Rule { head, body }
    }

    /// Validate range restrictions and compile to an engine clause.
    ///
    /// Returns the clause together with the variable table (callers use it
    /// to report variable names in diagnostics).
    pub fn compile(&self, group: GroupId) -> SpecResult<(Clause, VarTable)> {
        let mut head_vars = Vec::new();
        self.head.collect_vars(&mut head_vars);
        if let Err(reason) = self.body.check_safety(&head_vars) {
            return Err(SpecError::UnsafeRule {
                rule: self
                    .head
                    .pred_name()
                    .unwrap_or_else(|| self.head.pred.to_string()),
                reason,
            });
        }
        let mut vt = VarTable::new();
        // Compile the head first so head variables get the low indices —
        // purely cosmetic, but it makes dumped clauses readable.
        let head = self.head.compile(&mut vt, Target::Holds);
        let body = self.body.compile_pushdown(&mut vt);
        Ok((Clause::new(head, body, group), vt))
    }
}

/// A semantic-consistency constraint: `F(Xi) ⇒ ERROR(type, Xk)` (§III.C).
///
/// Constraints are ordinary rules whose head is the reserved `error`
/// predicate, so a violation is itself a derivable fact — and, like any
/// fact, is relative to a model and therefore to the active world view
/// ("a constraint violation may occur in one world view but not in the
/// other", §III.E).
#[derive(Clone, Debug, PartialEq)]
pub struct Constraint {
    /// The violation tag (`two_capitals`, `bad_temp`, …).
    pub error_type: String,
    /// Witness arguments reported with the violation.
    pub witnesses: Vec<Pat>,
    /// The model this constraint belongs to; `None` = default model.
    pub model: Option<Pat>,
    /// The violating condition.
    pub condition: Formula,
}

impl Constraint {
    /// Start building a constraint with the given violation tag.
    #[allow(clippy::new_ret_no_self)] // builder entry point
    pub fn new(error_type: &str) -> ConstraintBuilder {
        ConstraintBuilder {
            error_type: error_type.to_string(),
            witnesses: Vec::new(),
            model: None,
        }
    }

    /// Lower to the equivalent [`Rule`] with head
    /// `error(type, witness₁, …)`.
    pub fn to_rule(&self) -> Rule {
        let mut head = FactPat::new(crate::ERROR_PRED).arg(Pat::Atom(self.error_type.clone()));
        for w in &self.witnesses {
            head = head.arg(w.clone());
        }
        if let Some(m) = &self.model {
            head = head.model(m.clone());
        }
        Rule::new(head, self.condition.clone())
    }

    /// Validate and compile, like [`Rule::compile`].
    pub fn compile(&self, group: GroupId) -> SpecResult<(Clause, VarTable)> {
        self.to_rule().compile(group)
    }
}

/// Builder for [`Constraint`].
pub struct ConstraintBuilder {
    error_type: String,
    witnesses: Vec<Pat>,
    model: Option<Pat>,
}

impl ConstraintBuilder {
    /// Add a witness argument reported with the violation.
    pub fn witness(mut self, w: impl Into<Pat>) -> ConstraintBuilder {
        self.witnesses.push(w.into());
        self
    }

    /// Attach the constraint to a model.
    pub fn model(mut self, m: impl Into<Pat>) -> ConstraintBuilder {
        self.model = Some(m.into());
        self
    }

    /// Finish with the violating condition.
    pub fn when(self, condition: Formula) -> Constraint {
        Constraint {
            error_type: self.error_type,
            witnesses: self.witnesses,
            model: self.model,
            condition,
        }
    }
}

/// A raw engine clause pair used by meta-model rule packs: heads and bodies
/// are engine terms built directly by the spatial/temporal/fuzzy crates.
#[derive(Clone, Debug)]
pub struct RawClause {
    /// Clause head.
    pub head: Term,
    /// Clause body (`true` for facts).
    pub body: Term,
}

impl RawClause {
    /// A fact (body `true`).
    pub fn fact(head: Term) -> RawClause {
        RawClause {
            head,
            body: Term::atom("true"),
        }
    }

    /// A rule.
    pub fn rule(head: Term, body: Term) -> RawClause {
        RawClause { head, body }
    }

    /// Build a clause from named-variable patterns sharing one variable
    /// table — the convenient way for meta-model rule packs to state rules
    /// readably.
    pub fn build(head: &Pat, body: &[Pat]) -> RawClause {
        let mut vt = VarTable::new();
        let h = vt.compile(head);
        let goals: Vec<Term> = body.iter().map(|p| vt.compile(p)).collect();
        RawClause {
            head: h,
            body: Term::conj(goals),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::CmpOp;

    #[test]
    fn open_road_rule_compiles() {
        // (∀X): road(X) ∧ (∀Y): (bridge(Y,X) → open(Y)) ⇒ open_road(X)
        let rule = Rule::new(
            FactPat::new("open_road").arg("X"),
            Formula::and(
                Formula::fact(FactPat::new("road").arg("X")),
                Formula::forall(
                    Formula::fact(FactPat::new("bridge").arg("Y").arg("X")),
                    Formula::fact(FactPat::new("open").arg("Y")),
                ),
            ),
        );
        let (clause, _vt) = rule.compile(GroupId::root()).unwrap();
        assert!(clause.head.to_string().starts_with("h(omega"));
        // forall compiles to its existential normal form
        // absent((C, absent(T))): the model variable of each visible/5
        // lookup is existential, so the strict form would flounder.
        assert!(clause.body.to_string().contains("absent("));
        assert!(clause.n_vars >= 2);
    }

    #[test]
    fn unsafe_rule_rejected_with_predicate_name() {
        let rule = Rule::new(
            FactPat::new("ghost").arg("Z"),
            Formula::fact(FactPat::new("road").arg("X")),
        );
        match rule.compile(GroupId::root()) {
            Err(SpecError::UnsafeRule { rule, reason }) => {
                assert_eq!(rule, "ghost");
                assert!(reason.contains("Z"));
            }
            other => panic!("expected UnsafeRule, got {other:?}"),
        }
    }

    #[test]
    fn two_capitals_constraint() {
        // capital_of(X,Z) ∧ capital_of(Y,Z) ∧ X ≠ Y ⇒ ERROR(two_capitals, Z)
        let c = Constraint::new("two_capitals")
            .witness("Z")
            .when(Formula::all(vec![
                Formula::fact(FactPat::new("capital_of").arg("X").arg("Z")),
                Formula::fact(FactPat::new("capital_of").arg("Y").arg("Z")),
                Formula::Cmp(CmpOp::NotUnify, Pat::var("X"), Pat::var("Y")),
            ]));
        let (clause, _) = c.compile(GroupId::root()).unwrap();
        assert!(clause.head.to_string().contains("error, [two_capitals"));
    }

    #[test]
    fn constraint_model_scoping() {
        let c = Constraint::new("check")
            .model("strict_view")
            .when(Formula::fact(FactPat::new("p")));
        let (clause, _) = c.compile(GroupId::root()).unwrap();
        assert!(clause.head.to_string().starts_with("h(strict_view"));
    }
}
