//! Transactions and deltas: recorded, reversible knowledge-base updates.
//!
//! Roman's GDP setting is update-heavy — "map data revision" is one of the
//! paper's three driving activities (§I) — and §III's constraints must
//! hold after every revision. A [`DeltaOp`] is one edit of the clause
//! store, and a [`Delta`] is the record of one transaction of them. The
//! knowledge base has one edit path: a public mutator (assert, retract a
//! fact, a group or a predicate) only locates its target and builds the
//! op, [`crate::KnowledgeBase::apply_op`] performs every edit, and WAL
//! replay and checkpoint install hand their ops to the same function, so
//! the live path is the replay path. Each op carries enough to *invert*
//! it (clause positions are observable through solution order, so
//! inverses restore positions, not just membership), and the one inverse
//! serves both of its users:
//!
//! * **rollback** ([`crate::KnowledgeBase::rollback`]) — undo the
//!   recorded transaction in reverse, restoring the exact prior clause
//!   store (the transactional `:rollback`);
//! * **pinned snapshots** ([`crate::KnowledgeBase::snapshot_at`]) —
//!   un-apply the commits newer than the pin.
//!
//! A recording is exactly one transaction, bracketed by
//! [`crate::KnowledgeBase::begin_delta`] and
//! [`crate::KnowledgeBase::end_delta`] (or ended by the rollback). Its
//! dirty set ([`Delta::dirty_nodes`]) — the `(predicate, first-argument)`
//! nodes the batch touched — is what the incremental audit intersects with
//! per-member dependency closures to decide what must be re-solved.
//!
//! Native-predicate registration is deliberately *not* recorded: natives
//! are installation-time wiring, not data, and rolling one back would
//! leave dangling semantics.

use std::sync::Arc;

use crate::deps::ArgSpec;
use crate::hash::FxHashSet;
use crate::kb::{Clause, GroupId, PredKey};

/// One recorded (invertible) knowledge-base mutation.
#[derive(Clone, Debug)]
pub enum DeltaOp {
    /// A clause was appended to `key`'s clause list.
    Assert {
        /// The predicate the clause was asserted under.
        key: PredKey,
        /// The stored clause (shared with the clause store).
        clause: Arc<Clause>,
    },
    /// The fact at position `pos` of `key`'s clause list was removed.
    RetractFact {
        /// The predicate the fact belonged to.
        key: PredKey,
        /// Its position in the predicate's clause list at removal time.
        pos: usize,
        /// The removed clause, for reinsertion on rollback.
        clause: Arc<Clause>,
    },
    /// Every clause of a group was removed (meta-model deactivation).
    RetractGroup {
        /// The retracted group.
        group: GroupId,
        /// Each removed clause with its predicate and original position
        /// (positions ascend per predicate, so reinsertion in recorded
        /// order restores the original interleaving).
        removed: Vec<(PredKey, usize, Arc<Clause>)>,
    },
    /// Every clause of one predicate was removed.
    RetractPredicate {
        /// The retracted predicate.
        key: PredKey,
        /// Its full clause list, in order.
        clauses: Vec<Arc<Clause>>,
    },
}

impl DeltaOp {
    /// The dirty nodes this operation contributes: the head predicate of
    /// every asserted or retracted clause, specialized by the head's first
    /// argument when it is an atom (the model, in the reified encoding).
    fn dirty_into(&self, out: &mut FxHashSet<(PredKey, ArgSpec)>) {
        match self {
            DeltaOp::Assert { key, clause } | DeltaOp::RetractFact { key, clause, .. } => {
                out.insert((*key, ArgSpec::of_head(&clause.head)));
            }
            DeltaOp::RetractGroup { removed, .. } => {
                for (key, _, clause) in removed {
                    out.insert((*key, ArgSpec::of_head(&clause.head)));
                }
            }
            DeltaOp::RetractPredicate { key, clauses } => {
                for clause in clauses {
                    out.insert((*key, ArgSpec::of_head(&clause.head)));
                }
                // An emptied predicate also changes "is it defined at all"
                // (strict mode, closures that reached it before it had
                // clauses), so dirty the unspecialized node too.
                out.insert((*key, ArgSpec::Any));
            }
        }
    }
}

/// One recorded transaction of knowledge-base mutations. Obtained from
/// [`crate::KnowledgeBase::end_delta`] (or the `Specification` transaction
/// API built on it) and consumed by the incremental audit.
#[derive(Clone, Debug, Default)]
pub struct Delta {
    ops: Vec<DeltaOp>,
}

impl Delta {
    /// An empty delta.
    pub fn new() -> Delta {
        Delta::default()
    }

    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The recorded operations, oldest first.
    pub fn ops(&self) -> &[DeltaOp] {
        &self.ops
    }

    /// Append another delta's operations after this one's (accumulating
    /// several commits into one pending batch).
    pub fn merge(&mut self, other: Delta) {
        self.ops.extend(other.ops);
    }

    /// The set of `(predicate, first-argument)` nodes this delta dirtied —
    /// what the incremental audit intersects with per-member dependency
    /// closures.
    pub fn dirty_nodes(&self) -> FxHashSet<(PredKey, ArgSpec)> {
        let mut out = FxHashSet::default();
        for op in &self.ops {
            op.dirty_into(&mut out);
        }
        out
    }

    /// The distinct predicates this delta touched.
    pub fn dirty_preds(&self) -> FxHashSet<PredKey> {
        self.dirty_nodes().into_iter().map(|(k, _)| k).collect()
    }

    pub(crate) fn push(&mut self, op: DeltaOp) {
        self.ops.push(op);
    }

    pub(crate) fn pop(&mut self) -> Option<DeltaOp> {
        self.ops.pop()
    }
}

/// One committed transaction, as retained by a serving layer for MVCC
/// snapshot reconstruction and appended to the write-ahead log.
///
/// A snapshot pinned at sequence number `S` is materialized by sharing the
/// head knowledge base and *un*-applying the delta of every record with
/// `seq > S`, newest first — the record carries the pre-commit generation
/// counters (restricted to the predicates the delta touched) and the
/// pre-commit epoch so the reconstructed KB validates cached answers
/// exactly as the live KB did at that point.
#[derive(Clone, Debug)]
pub struct CommitRecord {
    /// Commit sequence number (1 for the first commit after the base).
    pub seq: u64,
    /// The KB epoch immediately before this commit applied.
    pub epoch_before: u64,
    /// Generation counters of the touched predicates immediately before
    /// this commit applied (untouched predicates keep their head values).
    pub gens_before: Vec<(PredKey, u64)>,
    /// The committed operations, oldest first.
    pub delta: Delta,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::Sym;
    use crate::term::Term;

    fn clause(head: Term) -> Arc<Clause> {
        Arc::new(Clause::new(head, Term::atom("true"), GroupId::root()))
    }

    #[test]
    fn dirty_nodes_specialize_by_head_atom() {
        let mut d = Delta::new();
        d.push(DeltaOp::Assert {
            key: PredKey::new("h", 2),
            clause: clause(Term::pred("h", vec![Term::atom("m1"), Term::int(1)])),
        });
        d.push(DeltaOp::RetractFact {
            key: PredKey::new("h", 2),
            pos: 0,
            clause: clause(Term::pred("h", vec![Term::var(0), Term::int(2)])),
        });
        let dirty = d.dirty_nodes();
        assert!(dirty.contains(&(PredKey::new("h", 2), ArgSpec::Atom(Sym::new("m1")))));
        assert!(dirty.contains(&(PredKey::new("h", 2), ArgSpec::Any)));
        assert_eq!(d.dirty_preds().len(), 1);
    }

    #[test]
    fn merge_appends_in_order() {
        let mut a = Delta::new();
        a.push(DeltaOp::Assert {
            key: PredKey::new("p", 1),
            clause: clause(Term::pred("p", vec![Term::atom("x")])),
        });
        let mut b = Delta::new();
        b.push(DeltaOp::Assert {
            key: PredKey::new("q", 1),
            clause: clause(Term::pred("q", vec![Term::atom("y")])),
        });
        a.merge(b);
        assert_eq!(a.len(), 2);
        assert!(matches!(&a.ops()[1], DeltaOp::Assert { key, .. } if *key == PredKey::new("q", 1)));
    }
}
