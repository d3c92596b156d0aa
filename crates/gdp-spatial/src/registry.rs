//! The resolution-function registry and spatial natives.
//!
//! The paper treats `R` as "a variable that ranges over the set of
//! resolution functions" (§V.C, note 1). Keeping that set explicit — named
//! grids registered here — is what makes the spatial meta-rules executable:
//! `refines/2` becomes a *finite* relation materialized as facts, and the
//! `rmap/3` / `cell_points/4` / `res_points/2` natives look grid geometry
//! up by name at solve time.

use std::sync::Arc;

use parking_lot::RwLock;

use gdp_core::{SpecError, SpecResult, Specification};
use gdp_engine::{list_from_iter, resolve_deep, FxHashMap, Term};

use crate::coords::{Cartesian, CoordinateSystem, Point};
use crate::resolution::GridResolution;

/// Clause group holding `is_resolution/1` and `refines/2` facts.
const GROUP: &str = "spatial$registry";

#[derive(Default)]
struct Table {
    grids: FxHashMap<String, GridResolution>,
}

/// Handle to the spatial layer installed into one [`Specification`].
///
/// Cloning yields another handle to the same registry.
#[derive(Clone)]
pub struct SpatialRegistry {
    table: Arc<RwLock<Table>>,
    csys: Arc<RwLock<Arc<dyn CoordinateSystem>>>,
}

impl std::fmt::Debug for SpatialRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpatialRegistry")
            .field("grids", &self.table.read().grids.len())
            .field("coordinate_system", &self.csys.read().name())
            .finish()
    }
}

impl SpatialRegistry {
    /// Install the spatial natives into `spec` and return the registry
    /// handle. Call once per specification.
    pub fn install(spec: &mut Specification) -> SpatialRegistry {
        let reg = SpatialRegistry {
            table: Arc::new(RwLock::new(Table::default())),
            csys: Arc::new(RwLock::new(Arc::new(Cartesian))),
        };
        reg.register_natives(spec);
        reg
    }

    /// Swap the coordinate system used by `dist/3` and `direction/3`.
    /// Per §V.A this changes only the absolute space, never the meta-rules.
    pub fn set_coordinate_system(&self, cs: impl CoordinateSystem + 'static) {
        *self.csys.write() = Arc::new(cs);
    }

    /// Register a named grid resolution function. Asserts `is_resolution/1`
    /// and the `refines/2` facts linking it to every registered grid it
    /// strictly refines or is strictly refined by.
    pub fn add_grid(
        &self,
        spec: &mut Specification,
        name: &str,
        grid: GridResolution,
    ) -> SpecResult<()> {
        {
            let mut table = self.table.write();
            if table.grids.contains_key(name) {
                return Err(SpecError::Redeclaration(name.to_string()));
            }
            table.grids.insert(name.to_string(), grid);
        }
        spec.assert_raw(
            GROUP,
            gdp_core::RawClause::fact(Term::pred("is_resolution", vec![Term::atom(name)])),
        );
        // Materialize the strict-refinement relation (finite, acyclic).
        let pairs: Vec<(String, String)> = {
            let table = self.table.read();
            let mut pairs = Vec::new();
            for (other_name, other) in table.grids.iter().filter(|(n, _)| *n != name) {
                if grid.strictly_refines(other) {
                    pairs.push((name.to_string(), other_name.clone()));
                }
                if other.strictly_refines(&grid) {
                    pairs.push((other_name.clone(), name.to_string()));
                }
            }
            pairs
        };
        for (fine, coarse) in pairs {
            spec.assert_raw(
                GROUP,
                gdp_core::RawClause::fact(Term::pred(
                    "refines",
                    vec![Term::atom(&fine), Term::atom(&coarse)],
                )),
            );
        }
        Ok(())
    }

    /// Look up a registered grid.
    pub fn grid(&self, name: &str) -> Option<GridResolution> {
        self.table.read().grids.get(name).copied()
    }

    /// Names of all registered grids.
    pub fn grid_names(&self) -> Vec<String> {
        self.table.read().grids.keys().cloned().collect()
    }

    fn register_natives(&self, spec: &mut Specification) {
        let kb = spec.kb_mut();

        // rmap(R, P, P0): apply resolution function R to absolute point P,
        // unifying the representative point with P0. Fails (open-world) on
        // unknown grids, non-ground P, or P outside the extent.
        let table = Arc::clone(&self.table);
        kb.register_native("rmap", 3, move |store, args| {
            let r = store.deref(&args[0]).clone();
            let p = resolve_deep(store, &args[1]);
            let (Some(name), Some(point)) = (r.as_atom(), Point::from_term(&p)) else {
                return Ok(false);
            };
            let grid = {
                let t = table.read();
                t.grids.get(&name.as_str()).copied()
            };
            match grid.and_then(|g| g.map(point)) {
                Some(rep) => Ok(store.unify(&rep.to_term(), &args[2])),
                None => Ok(false),
            }
        });

        // rmap_box(R, P, IVX, IVY): conservative coordinate bounds for
        // points that relate to point P under rmap/3, either way round
        // (patch representative points of P, or points P represents) —
        // P's cell widened by one full cell on each side, as closed
        // `iv/4` intervals. Deterministic and always succeeds exactly
        // once, so rule packs can insert it ahead of a patch lookup
        // without changing answers: when R names a registered grid its
        // cell size is used; when R is unbound, the widest registered
        // cell (an over-approximation sound for every registered grid).
        // A coordinate of P that is still a variable gives the bounds
        // `X - W` and `X + W`, which a `range_call` evaluates over that
        // variable's own bound, so an enclosing box reaches a lookup
        // below it. When P is no point or no grid is registered, IVX/IVY
        // stay unbound and downstream `rc` constraints pass vacuously.
        let table = Arc::clone(&self.table);
        kb.register_native("rmap_box", 4, move |store, args| {
            let p = resolve_deep(store, &args[1]);
            let Some([x, y]) = box_coords(&p) else {
                return Ok(true);
            };
            let r = store.deref(&args[0]).clone();
            let cell = {
                let t = table.read();
                match r.as_atom() {
                    Some(name) => t.grids.get(&name.as_str()).map(|g| (g.cell_w, g.cell_h)),
                    None => t.grids.values().fold(None, |acc: Option<(f64, f64)>, g| {
                        Some(match acc {
                            Some((w, h)) => (w.max(g.cell_w), h.max(g.cell_h)),
                            None => (g.cell_w, g.cell_h),
                        })
                    }),
                }
            };
            let Some((cw, ch)) = cell else {
                return Ok(true);
            };
            let widened = |c: &Term, w: f64| match c.as_f64() {
                Some(v) => closed_iv(Term::float(v - w), Term::float(v + w)),
                None => closed_iv(
                    Term::pred("-", vec![c.clone(), Term::float(w)]),
                    Term::pred("+", vec![c.clone(), Term::float(w)]),
                ),
            };
            let bx = widened(x, 1.5 * cw);
            let by = widened(y, 1.5 * ch);
            Ok(store.unify(&bx, &args[2]) && store.unify(&by, &args[3]))
        });

        // dist_box(P, E, IVX, IVY): the coordinate box, as closed `iv/4`
        // intervals, that holds every point within distance E of ground
        // point P under the registered coordinate system — what the
        // compiler's pushdown of `dist(P, Q, D), D < E` wraps the lookup
        // of Q in. Deterministic and always succeeds exactly once, like
        // rmap_box: when P is not a ground point, E does not evaluate to a
        // number, or the system draws no box (polar), IVX/IVY stay unbound.
        let csys = Arc::clone(&self.csys);
        kb.register_native("dist_box", 4, move |store, args| {
            let p = resolve_deep(store, &args[0]);
            let Some(point) = Point::from_term(&p) else {
                return Ok(true);
            };
            let Ok(d) = gdp_engine::arith::eval(store, &args[1]) else {
                return Ok(true);
            };
            let Some([(x0, x1), (y0, y1)]) = csys.read().dist_box(point, d.as_f64()) else {
                return Ok(true);
            };
            let bx = closed_iv(Term::float(x0), Term::float(x1));
            let by = closed_iv(Term::float(y0), Term::float(y1));
            Ok(store.unify(&bx, &args[2]) && store.unify(&by, &args[3]))
        });

        // cell_points(Coarse, Fine, Rep, List): representative points of
        // Fine within the Coarse-cell represented by Rep.
        let table = Arc::clone(&self.table);
        kb.register_native("cell_points", 4, move |store, args| {
            let coarse = store.deref(&args[0]).clone();
            let fine = store.deref(&args[1]).clone();
            let rep = resolve_deep(store, &args[2]);
            let (Some(coarse), Some(fine), Some(rep)) =
                (coarse.as_atom(), fine.as_atom(), Point::from_term(&rep))
            else {
                return Ok(false);
            };
            let (coarse_grid, fine_grid) = {
                let t = table.read();
                let Some(c) = t.grids.get(&coarse.as_str()).copied() else {
                    return Ok(false);
                };
                let Some(f) = t.grids.get(&fine.as_str()).copied() else {
                    return Ok(false);
                };
                (c, f)
            };
            if !fine_grid.refines(&coarse_grid) {
                return Ok(false);
            }
            match coarse_grid.sub_points(&fine_grid, rep) {
                Some(points) => {
                    let list = list_from_iter(points.into_iter().map(Point::to_term));
                    Ok(store.unify(&list, &args[3]))
                }
                None => Ok(false),
            }
        });

        // res_points(R, List): every representative point of the logical
        // space R — the finite enumeration context the paper calls for.
        let table = Arc::clone(&self.table);
        kb.register_native("res_points", 2, move |store, args| {
            let r = store.deref(&args[0]).clone();
            let Some(name) = r.as_atom() else {
                return Ok(false);
            };
            let grid = {
                let t = table.read();
                t.grids.get(&name.as_str()).copied()
            };
            match grid {
                Some(g) => {
                    let list =
                        list_from_iter(g.rep_points().map(Point::to_term).collect::<Vec<_>>());
                    Ok(store.unify(&list, &args[1]))
                }
                None => Ok(false),
            }
        });

        // adjacent_cells(R, P1, P2): both are representative points of R
        // and their cells touch (8-neighborhood), excluding identity.
        let table = Arc::clone(&self.table);
        kb.register_native("adjacent_cells", 3, move |store, args| {
            let r = store.deref(&args[0]).clone();
            let p1 = resolve_deep(store, &args[1]);
            let p2 = resolve_deep(store, &args[2]);
            let (Some(name), Some(p1), Some(p2)) =
                (r.as_atom(), Point::from_term(&p1), Point::from_term(&p2))
            else {
                return Ok(false);
            };
            let grid = {
                let t = table.read();
                t.grids.get(&name.as_str()).copied()
            };
            let Some(g) = grid else {
                return Ok(false);
            };
            let (Some(c1), Some(c2)) = (g.cell_of(p1), g.cell_of(p2)) else {
                return Ok(false);
            };
            let di = (i64::from(c1.0) - i64::from(c2.0)).abs();
            let dj = (i64::from(c1.1) - i64::from(c2.1)).abs();
            Ok(di <= 1 && dj <= 1 && (di, dj) != (0, 0))
        });

        // dist(P1, P2, D) under the registered coordinate system.
        let csys = Arc::clone(&self.csys);
        kb.register_native("dist", 3, move |store, args| {
            let p1 = resolve_deep(store, &args[0]);
            let p2 = resolve_deep(store, &args[1]);
            let (Some(p1), Some(p2)) = (Point::from_term(&p1), Point::from_term(&p2)) else {
                return Ok(false);
            };
            let d = csys.read().distance(p1, p2);
            Ok(store.unify(&Term::float(d), &args[2]))
        });

        // direction(P1, P2, Deg) under the registered coordinate system.
        let csys = Arc::clone(&self.csys);
        kb.register_native("direction", 3, move |store, args| {
            let p1 = resolve_deep(store, &args[0]);
            let p2 = resolve_deep(store, &args[1]);
            let (Some(p1), Some(p2)) = (Point::from_term(&p1), Point::from_term(&p2)) else {
                return Ok(false);
            };
            let d = csys.read().direction(p1, p2);
            Ok(store.unify(&Term::float(d), &args[2]))
        });
    }
}

/// The closed interval `iv(Lo, Hi, closed, closed)` a `range_call`
/// reads.
fn closed_iv(lo: Term, hi: Term) -> Term {
    Term::pred(
        "iv",
        vec![lo, hi, Term::atom("closed"), Term::atom("closed")],
    )
}

/// The coordinates of a (resolved) `pt(X, Y)` whose coordinates are
/// numbers or variables.
fn box_coords(p: &Term) -> Option<[&Term; 2]> {
    if p.functor()?.as_str() != "pt" {
        return None;
    }
    let [x, y] = p.args() else {
        return None;
    };
    let usable = |c: &Term| c.as_f64().is_some() || matches!(c, Term::Var(_));
    (usable(x) && usable(y)).then_some([x, y])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Specification, SpatialRegistry) {
        let mut spec = Specification::new();
        let reg = SpatialRegistry::install(&mut spec);
        reg.add_grid(
            &mut spec,
            "r1",
            GridResolution::square(0.0, 0.0, 10.0, 4, 4),
        )
        .unwrap();
        reg.add_grid(&mut spec, "r2", GridResolution::square(0.0, 0.0, 5.0, 8, 8))
            .unwrap();
        (spec, reg)
    }

    #[test]
    fn rmap_maps_points() {
        let (spec, _) = setup();
        let p = Point::new(3.0, 7.0).to_term();
        let goal = Term::pred("rmap", vec![Term::atom("r1"), p, Term::var(0)]);
        let sols = spec.solve_goal(goal).unwrap();
        assert_eq!(sols.len(), 1);
        assert_eq!(
            sols[0].get(gdp_engine::Var(0)).unwrap(),
            &Point::new(5.0, 5.0).to_term()
        );
    }

    #[test]
    fn rmap_fails_cleanly_outside_and_unknown() {
        let (spec, _) = setup();
        let outside = Term::pred(
            "rmap",
            vec![
                Term::atom("r1"),
                Point::new(99.0, 99.0).to_term(),
                Term::var(0),
            ],
        );
        assert!(!spec.prove_goal(outside).unwrap());
        let unknown = Term::pred(
            "rmap",
            vec![
                Term::atom("never_registered"),
                Point::new(1.0, 1.0).to_term(),
                Term::var(0),
            ],
        );
        assert!(!spec.prove_goal(unknown).unwrap());
        // Unbound point: fails, not errors (the paper's "bound to fail"
        // infinite-set case).
        let unbound = Term::pred("rmap", vec![Term::atom("r1"), Term::var(0), Term::var(1)]);
        assert!(!spec.prove_goal(unbound).unwrap());
    }

    #[test]
    fn refines_facts_materialized() {
        let (spec, _) = setup();
        let goal = Term::pred("refines", vec![Term::atom("r2"), Term::atom("r1")]);
        assert!(spec.prove_goal(goal).unwrap());
        let wrong_way = Term::pred("refines", vec![Term::atom("r1"), Term::atom("r2")]);
        assert!(!spec.prove_goal(wrong_way).unwrap());
    }

    #[test]
    fn refines_facts_link_later_registrations() {
        let (mut spec, reg) = setup();
        reg.add_grid(
            &mut spec,
            "r4",
            GridResolution::square(0.0, 0.0, 2.5, 16, 16),
        )
        .unwrap();
        for coarser in ["r1", "r2"] {
            let goal = Term::pred("refines", vec![Term::atom("r4"), Term::atom(coarser)]);
            assert!(spec.prove_goal(goal).unwrap(), "r4 should refine {coarser}");
        }
    }

    #[test]
    fn duplicate_grid_rejected() {
        let (mut spec, reg) = setup();
        let err = reg
            .add_grid(&mut spec, "r1", GridResolution::square(0.0, 0.0, 1.0, 2, 2))
            .unwrap_err();
        assert!(matches!(err, SpecError::Redeclaration(_)));
    }

    #[test]
    fn cell_points_lists_subpoints() {
        let (spec, _) = setup();
        let goal = Term::pred(
            "cell_points",
            vec![
                Term::atom("r1"),
                Term::atom("r2"),
                Point::new(5.0, 5.0).to_term(),
                Term::var(0),
            ],
        );
        let sols = spec.solve_goal(goal).unwrap();
        assert_eq!(sols.len(), 1);
        let list = sols[0].get(gdp_engine::Var(0)).unwrap().clone();
        let items = gdp_engine::list_to_vec(&list).unwrap();
        assert_eq!(items.len(), 4);
    }

    #[test]
    fn dist_uses_coordinate_system() {
        let (spec, reg) = setup();
        let goal = Term::pred(
            "dist",
            vec![
                Point::new(0.0, 0.0).to_term(),
                Point::new(3.0, 4.0).to_term(),
                Term::var(0),
            ],
        );
        let sols = spec.solve_goal(goal.clone()).unwrap();
        assert_eq!(sols[0].get(gdp_engine::Var(0)).unwrap().as_f64(), Some(5.0));
        // Checking distance equality through the solver.
        reg.set_coordinate_system(crate::coords::SimplifiedUtm);
        let sols = spec.solve_goal(goal).unwrap();
        assert_eq!(sols[0].get(gdp_engine::Var(0)).unwrap().as_f64(), Some(5.0));
    }

    #[test]
    fn res_points_enumerates_grid() {
        let (spec, _) = setup();
        let goal = Term::pred("res_points", vec![Term::atom("r1"), Term::var(0)]);
        let sols = spec.solve_goal(goal).unwrap();
        let list = sols[0].get(gdp_engine::Var(0)).unwrap().clone();
        assert_eq!(gdp_engine::list_to_vec(&list).unwrap().len(), 16);
    }
}
