//! Loading parsed statements into a specification.

use gdp_core::{Answer, Formula, Specification};
use gdp_spatial::{GridResolution, SpatialRegistry};

use crate::ast::Statement;
use crate::error::{LangError, LangResult};
use crate::parser::parse_program_diagnostics;
use crate::token::Pos;

/// What a load produced.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LoadSummary {
    /// Basic facts asserted (crisp + fuzzy).
    pub facts: usize,
    /// Virtual-fact definitions installed (crisp + fuzzy).
    pub rules: usize,
    /// Constraints installed.
    pub constraints: usize,
    /// Directives executed.
    pub directives: usize,
    /// Results of each `?-` query, in source order.
    pub query_results: Vec<Vec<Answer>>,
}

/// Loads source text into a [`Specification`], optionally with a
/// [`SpatialRegistry`] for `#grid` directives.
pub struct Loader<'a> {
    spec: &'a mut Specification,
    spatial: Option<&'a SpatialRegistry>,
}

impl<'a> Loader<'a> {
    /// A loader without spatial support (`#grid` directives error).
    pub fn new(spec: &'a mut Specification) -> Loader<'a> {
        Loader {
            spec,
            spatial: None,
        }
    }

    /// A loader that can register grids.
    pub fn with_spatial(spec: &'a mut Specification, spatial: &'a SpatialRegistry) -> Loader<'a> {
        Loader {
            spec,
            spatial: Some(spatial),
        }
    }

    /// Parse and execute `src`.
    ///
    /// The load is *resilient*: parsing recovers at clause boundaries, and
    /// a statement the specification rejects does not stop the statements
    /// after it from being applied. All diagnostics are collected — a
    /// single one is returned as itself, several as
    /// [`LangError::Batch`] — so a source with multiple defects reports
    /// every problem (with line numbers) in one pass. The summary of what
    /// *did* load is folded into the error-free case only; statements that
    /// applied before/after a failure remain applied either way.
    pub fn load_str(&mut self, src: &str) -> LangResult<LoadSummary> {
        let (statements, errors) = parse_program_diagnostics(src);
        self.load_parsed(statements, errors)
    }

    /// Execute statements already parsed by
    /// [`crate::parse_program_diagnostics`], reporting its `errors`
    /// alongside any the statements raise — [`Self::load_str`] without the
    /// parse, for callers that inspected the statements first.
    pub fn load_parsed(
        &mut self,
        statements: Vec<(Pos, Statement)>,
        mut errors: Vec<LangError>,
    ) -> LangResult<LoadSummary> {
        let mut summary = LoadSummary::default();
        for (idx, (pos, stmt)) in statements.into_iter().enumerate() {
            if let Err(e) = self.apply(idx, pos, stmt, &mut summary) {
                errors.push(e);
            }
        }
        match errors.len() {
            0 => Ok(summary),
            1 => Err(errors.pop().expect("len checked")),
            _ => Err(LangError::Batch(errors)),
        }
    }

    fn apply(
        &mut self,
        idx: usize,
        pos: Pos,
        stmt: Statement,
        summary: &mut LoadSummary,
    ) -> LangResult<()> {
        let load_err = |error| LangError::Load {
            statement: idx,
            line: pos.line,
            error,
        };
        match check_depth(pos, stmt)? {
            Statement::Domain { name, def } => {
                self.spec.declare_domain(&name, def).map_err(load_err)?;
                summary.directives += 1;
            }
            Statement::Predicate { name, sorts } => {
                self.spec
                    .declare_predicate(&name, sorts)
                    .map_err(load_err)?;
                summary.directives += 1;
            }
            Statement::Model(m) => {
                self.spec.declare_model(&m);
                summary.directives += 1;
            }
            Statement::Object(o) => {
                self.spec.declare_object(&o);
                summary.directives += 1;
            }
            Statement::WorldView(models) => {
                let refs: Vec<&str> = models.iter().map(String::as_str).collect();
                self.spec.set_world_view(&refs).map_err(load_err)?;
                summary.directives += 1;
            }
            Statement::MetaView(metas) => {
                let refs: Vec<&str> = metas.iter().map(String::as_str).collect();
                self.spec.set_meta_view(&refs).map_err(load_err)?;
                summary.directives += 1;
            }
            Statement::Activate(m) => {
                self.spec.activate_meta_model(&m).map_err(load_err)?;
                summary.directives += 1;
            }
            Statement::Deactivate(m) => {
                self.spec.deactivate_meta_model(&m).map_err(load_err)?;
                summary.directives += 1;
            }
            Statement::Grid {
                name,
                x0,
                y0,
                cell,
                nx,
                ny,
            } => {
                let Some(spatial) = self.spatial else {
                    return Err(LangError::Unsupported {
                        pos,
                        message: format!(
                            "#grid {name}: no spatial registry attached to this loader"
                        ),
                    });
                };
                spatial
                    .add_grid(
                        self.spec,
                        &name,
                        GridResolution::square(x0, y0, cell, nx, ny),
                    )
                    .map_err(load_err)?;
                summary.directives += 1;
            }
            Statement::Now(t) => {
                self.spec.set_now(t);
                summary.directives += 1;
            }
            Statement::Retract(f) => {
                self.spec.retract_fact(f).map_err(load_err)?;
                summary.directives += 1;
            }
            Statement::Fact(f) => {
                self.spec.assert_fact(f).map_err(load_err)?;
                summary.facts += 1;
            }
            Statement::FuzzyFact(f, a) => {
                self.spec.assert_fuzzy_fact(f, a).map_err(load_err)?;
                summary.facts += 1;
            }
            Statement::Rule(r) => {
                self.spec.define(r).map_err(load_err)?;
                summary.rules += 1;
            }
            Statement::FuzzyRule {
                head,
                accuracy,
                body,
            } => {
                gdp_fuzzy::define_fuzzy(self.spec, head, accuracy, body).map_err(load_err)?;
                summary.rules += 1;
            }
            Statement::Constraint(c) => {
                self.spec.constrain(c).map_err(load_err)?;
                summary.constraints += 1;
            }
            Statement::Query(f) => {
                let answers = self.spec.satisfy(&f).map_err(load_err)?;
                summary.query_results.push(answers);
            }
        }
        Ok(())
    }
}

/// Pass `statement` back unless it nests deeper than a term may
/// ([`gdp_engine::MAX_TERM_DEPTH`]). Compiling, storing, solving and
/// logging a term all take stack in proportion to its depth, so a deeper
/// statement is refused before anything compiles it, and taken apart
/// without recursion.
pub fn check_depth(pos: Pos, statement: Statement) -> LangResult<Statement> {
    let depth = statement.depth();
    if depth > gdp_engine::MAX_TERM_DEPTH {
        statement.dismantle();
        return Err(LangError::TooDeep { pos, depth });
    }
    Ok(statement)
}

/// One-shot convenience: load `src` into `spec`.
pub fn load(spec: &mut Specification, src: &str) -> LangResult<LoadSummary> {
    Loader::new(spec).load_str(src)
}

/// One-shot convenience: evaluate a query string against `spec`.
pub fn query(spec: &Specification, src: &str) -> LangResult<Vec<Answer>> {
    let f: Formula = crate::parser::parse_formula(src)?;
    spec.satisfy(&f).map_err(|error| LangError::Load {
        statement: 0,
        line: 0,
        error,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_engine::Term;

    #[test]
    fn loads_the_papers_bridge_world() {
        let mut spec = Specification::new();
        let summary = load(
            &mut spec,
            r#"
            // §II.B basic facts
            road(s1). road(s2).
            road_intersection(s1, s2).
            bridge(b1, s1). bridge(b2, s1). bridge(b3, s2).
            open(b1). open(b2).

            // §III.A virtual facts
            open_road(X) :- road(X), forall(bridge(Y, X), open(Y)).
            closed(X) :- bridge(X, R), not(open(X)).
            known_status(X) :- bridge(X, R), (open(X) ; closed(X)).

            ?- open_road(X).
            ?- closed(B).
            "#,
        )
        .unwrap();
        assert_eq!(summary.facts, 8);
        assert_eq!(summary.rules, 3);
        assert_eq!(summary.query_results.len(), 2);
        let open_roads = &summary.query_results[0];
        assert_eq!(open_roads.len(), 1);
        assert_eq!(open_roads[0].get("X").unwrap(), &Term::atom("s1"));
        let closed = &summary.query_results[1];
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].get("B").unwrap(), &Term::atom("b3"));
    }

    #[test]
    fn load_errors_carry_statement_index() {
        let mut spec = Specification::new();
        // Statement 2 (0-based index 1) is unsafe: head var unbound.
        let err = load(&mut spec, "p(a).\nghost(Z) :- p(X).").unwrap_err();
        match err {
            LangError::Load { statement, .. } => assert_eq!(statement, 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn load_recovers_and_reports_every_diagnostic() {
        let mut spec = Specification::new();
        // Line 2 fails to parse, line 4 fails to load (unsafe head var);
        // the well-formed statements around them must still apply.
        let err = load(
            &mut spec,
            "road(s1).\n\
             road( .\n\
             road(s2).\n\
             ghost(Z) :- road(X).\n\
             road(s3).",
        )
        .unwrap_err();
        let diags = err.diagnostics();
        assert_eq!(diags.len(), 2);
        assert!(
            matches!(diags[0], LangError::Parse { pos, .. } if pos.line == 2),
            "{:?}",
            diags[0]
        );
        assert!(
            matches!(diags[1], LangError::Load { line: 4, .. }),
            "{:?}",
            diags[1]
        );
        // All three valid facts landed despite the two failures.
        assert_eq!(query(&spec, "road(X)").unwrap().len(), 3);
    }

    #[test]
    fn single_diagnostic_is_not_wrapped_in_a_batch() {
        let mut spec = Specification::new();
        let err = load(&mut spec, "road(s1).\nroad( .\nroad(s2).").unwrap_err();
        assert!(matches!(err, LangError::Parse { .. }), "{err:?}");
        assert_eq!(query(&spec, "road(X)").unwrap().len(), 2);
    }

    #[test]
    fn grid_without_registry_is_unsupported() {
        let mut spec = Specification::new();
        let err = load(&mut spec, "#grid r1 square(0, 0, 10, 4, 4).").unwrap_err();
        assert!(matches!(err, LangError::Unsupported { .. }));
    }

    #[test]
    fn grid_with_registry_registers() {
        let mut spec = Specification::new();
        let reg = gdp_spatial::install_default(&mut spec).unwrap();
        let src = r#"
            #grid r1 square(0, 0, 10, 4, 4).
            @u[r1] pt(5.0, 5.0) zone(wetland).
            ?- @ pt(3.0, 3.0) zone(wetland).
        "#;
        let summary = Loader::with_spatial(&mut spec, &reg).load_str(src).unwrap();
        assert_eq!(summary.query_results[0].len(), 1);
    }

    #[test]
    fn world_view_directive_switches_models() {
        let mut spec = Specification::new();
        load(
            &mut spec,
            r#"
            #model celsius.
            celsius'freezing_point(0)(x).
            "#,
        )
        .unwrap();
        assert!(query(&spec, "freezing_point(0)(x)").unwrap().is_empty());
        load(&mut spec, "#world_view { omega, celsius }.").unwrap();
        assert_eq!(query(&spec, "freezing_point(0)(x)").unwrap().len(), 1);
    }

    #[test]
    fn retract_directive_withdraws_facts() {
        let mut spec = Specification::new();
        load(&mut spec, "road(s1). road(s2).").unwrap();
        assert_eq!(query(&spec, "road(X)").unwrap().len(), 2);
        load(&mut spec, "#retract road(s1).").unwrap();
        let left = query(&spec, "road(X)").unwrap();
        assert_eq!(left.len(), 1);
        assert_eq!(left[0].get("X").unwrap().to_string(), "s2");
    }

    #[test]
    fn fuzzy_statements_load() {
        let mut spec = Specification::new();
        load(
            &mut spec,
            r#"
            %0.85 clarity(image).
            surveyed(c1). surveyed(c2).
            %A coverage(region) :- card(surveyed(C), N), A is N / 10.
            "#,
        )
        .unwrap();
        let answers = query(&spec, "%A coverage(region)").unwrap();
        assert_eq!(answers[0].get("A").unwrap().as_f64(), Some(0.2));
    }

    #[test]
    fn uncallable_meta_model_head_is_a_line_numbered_diagnostic() {
        use gdp_core::{MetaModel, RawClause};

        let mut spec = Specification::new();
        // A hand-built pack with a head the engine cannot store. Before
        // the fallible assertion path this panicked deep in the engine;
        // now `#activate` reports it with the source line, and the
        // statements around it still apply.
        let mm = MetaModel::new("broken")
            .clause(RawClause::fact(Term::int(3)))
            .build();
        spec.register_meta_model(mm);
        let err = load(&mut spec, "road(s1).\n#activate broken.\nroad(s2).").unwrap_err();
        match err {
            LangError::Load {
                line: 2,
                error: gdp_core::SpecError::Engine(e),
                ..
            } => assert!(
                matches!(e, gdp_engine::EngineError::UncallableHead { .. }),
                "{e:?}"
            ),
            other => panic!("{other:?}"),
        }
        // Activation was atomic: the meta-view is untouched.
        assert!(spec.meta_view().is_empty());
        assert_eq!(query(&spec, "road(X)").unwrap().len(), 2);
    }

    /// A specification whose `pair/2` join costs well over one budget
    /// check interval (48 × 48 answers), so a stale cancel token
    /// deterministically kills any query over it.
    fn cancellable_spec() -> Specification {
        let mut spec = Specification::new();
        let mut facts = String::new();
        for i in 0..48 {
            facts.push_str(&format!("p(a{i}). "));
        }
        facts.push_str("pair(X, Y) :- p(X), p(Y).");
        load(&mut spec, &facts).unwrap();
        spec
    }

    #[test]
    fn stale_cancellation_poisons_later_statements_without_the_guard() {
        let mut spec = cancellable_spec();
        // A Ctrl-C handler trips the session token between two sources.
        // The loader never rearms it, so *every* later statement dies with
        // the same stale token — which is why an interactive session
        // rearms the token ahead of each query itself.
        spec.cancel_token().cancel();
        let err = load(
            &mut spec,
            "?- card(pair(X, Y), N).\n?- card(pair(X, Y), M).",
        )
        .unwrap_err();
        let diags = err.diagnostics();
        assert_eq!(diags.len(), 2, "{diags:?}");
        for d in diags {
            assert!(
                matches!(
                    d,
                    LangError::Load {
                        error: gdp_core::SpecError::Engine(gdp_engine::EngineError::Cancelled),
                        ..
                    }
                ),
                "{d:?}"
            );
        }
    }

    #[test]
    fn sort_checking_applies_through_language() {
        let mut spec = Specification::new();
        let err = load(
            &mut spec,
            r#"
            #domain temperature float(-100, 200).
            #predicate average_temperature(temperature, object).
            average_temperature(green)(saint_louis).
            "#,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            LangError::Load {
                error: gdp_core::SpecError::SortViolation { .. },
                ..
            }
        ));
    }
}
