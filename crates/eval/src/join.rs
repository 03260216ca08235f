//! Compiled rules and the fact sources a rule body reads.
//!
//! Rules are compiled once per fixpoint run: variables become dense slots,
//! terms become [`Pat`]s, and each body literal gets the static [`Mask`] of
//! positions that are bound when evaluation reaches it left to right, plus
//! the precomputed `(column, source)` list those positions resolve from.
//! [`compile_plan`](crate::plan::compile_plan) lowers a compiled rule into
//! the operator pipeline that [`exec_plan`](crate::exec::exec_plan) — the
//! one executor of rule bodies — drives over binding blocks.
//!
//! A [`JoinInput`] names what a body reads. Semi-naive deltas arrive as
//! [`DeltaSource::Spans`] — id ranges into the total database — so a delta
//! probe reuses the total's indexes and narrows the (id-sorted) posting
//! list with two binary searches. The incremental engine's non-contiguous
//! deltas still pass a separate database via [`DeltaSource::Db`], and its
//! counting updates resolve non-delta literals through [`SideSources`].
//! When a [`Governor`](crate::govern::Governor) rides along, the executor
//! charges it and unwinds with `ControlFlow::Break` the moment a budget
//! trips or cancellation is requested — so even a single enormous round is
//! interruptible.

use crate::govern::Governor;
use crate::order::{order_for_evaluation, Unorderable};
use alexander_ir::{Atom, Const, FxHashMap, Polarity, Predicate, Rule, Term, Var};
use alexander_storage::{Database, DeltaSpans, Mask, Relation};

/// A compiled term: a constant or a variable slot.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Pat {
    Const(Const),
    Var(u32),
}

/// A compiled atom pattern.
#[derive(Clone, Debug)]
pub struct AtomPat {
    pub pred: Predicate,
    pub args: Vec<Pat>,
}

impl AtomPat {
    /// Instantiates the pattern into a ground atom under a full binding row
    /// (one value per variable slot, as a
    /// [`compile_binding_plan`](crate::plan::compile_binding_plan) run
    /// emits it). Allocates — for cold paths (conditional statements,
    /// provenance, rederivation witnesses).
    pub fn instantiate(&self, bind: &[Const]) -> Atom {
        Atom {
            pred: self.pred.name,
            terms: self
                .args
                .iter()
                .map(|p| match p {
                    Pat::Const(c) => Term::Const(*c),
                    Pat::Var(v) => Term::Const(bind[*v as usize]),
                })
                .collect(),
        }
    }
}

/// One compiled body literal.
#[derive(Clone, Debug)]
pub struct BodyPat {
    pub atom: AtomPat,
    pub polarity: Polarity,
    /// Positions bound when evaluation reaches this literal (left-to-right).
    pub mask: Mask,
    /// The mask's columns with their value sources, ascending by column —
    /// precomputed so a probe hashes its key straight from the binding
    /// array without consulting the mask or allocating a key vector.
    pub bound: Vec<(u32, Pat)>,
}

/// A rule compiled for bottom-up evaluation.
#[derive(Clone, Debug)]
pub struct CompiledRule {
    pub head: AtomPat,
    pub body: Vec<BodyPat>,
    pub nvars: usize,
    /// The source rule (after evaluation ordering), for diagnostics.
    pub source: Rule,
}

/// Compiles `rule`, reordering its body for evaluability first. Fails only
/// on rules whose negations cannot be grounded (unsafe rules).
pub fn compile_rule(rule: &Rule) -> Result<CompiledRule, Unorderable> {
    compile_rule_inner(rule, false)
}

/// Compiles `rule` for head-seeded execution
/// ([`exec_plan_seeded`](crate::exec::exec_plan_seeded)): binding masks are
/// computed as if every head slot were already bound, so body literals
/// sharing head variables probe indexes with those constants instead of
/// scanning. A rederivation check over a seeded compilation is an indexed
/// point lookup; over a plain compilation it would start with a full scan
/// of the first literal.
pub fn compile_rule_seeded(rule: &Rule) -> Result<CompiledRule, Unorderable> {
    compile_rule_inner(rule, true)
}

fn compile_rule_inner(rule: &Rule, seed_head: bool) -> Result<CompiledRule, Unorderable> {
    let ordered = order_for_evaluation(rule)?;
    let mut slots: FxHashMap<Var, u32> = FxHashMap::default();
    let slot_of = |v: Var, slots: &mut FxHashMap<Var, u32>| -> u32 {
        let next = slots.len() as u32;
        *slots.entry(v).or_insert(next)
    };
    let compile_atom = |a: &Atom, slots: &mut FxHashMap<Var, u32>| AtomPat {
        pred: a.predicate(),
        args: a
            .terms
            .iter()
            .map(|t| match t {
                Term::Const(c) => Pat::Const(*c),
                Term::Var(v) => Pat::Var(slot_of(*v, slots)),
            })
            .collect(),
    };

    // Compile body first so masks reflect the evaluation order; safety
    // guarantees head slots are a subset of body slots. The seeded variant
    // compiles the head up front instead and marks its slots bound.
    let mut body = Vec::with_capacity(ordered.body.len());
    let mut bound_slots: Vec<bool> = Vec::new();
    let pre_head = if seed_head {
        let h = compile_atom(&ordered.head, &mut slots);
        bound_slots.resize(slots.len(), false);
        for p in &h.args {
            if let Pat::Var(v) = p {
                bound_slots[*v as usize] = true;
            }
        }
        Some(h)
    } else {
        None
    };
    for l in &ordered.body {
        let atom = compile_atom(&l.atom, &mut slots);
        bound_slots.resize(slots.len(), false);
        let mut cols = Vec::new();
        let mut bound = Vec::new();
        for (i, p) in atom.args.iter().enumerate() {
            let is_bound = match p {
                Pat::Const(_) => true,
                Pat::Var(v) => bound_slots[*v as usize],
            };
            if is_bound {
                cols.push(i);
                bound.push((i as u32, *p));
            }
        }
        let mask = Mask::of_columns(&cols);
        if l.polarity == Polarity::Positive {
            for p in &atom.args {
                if let Pat::Var(v) = p {
                    bound_slots[*v as usize] = true;
                }
            }
        }
        body.push(BodyPat {
            atom,
            polarity: l.polarity,
            mask,
            bound,
        });
    }
    let head = pre_head.unwrap_or_else(|| compile_atom(&ordered.head, &mut slots));
    Ok(CompiledRule {
        head,
        body,
        nvars: slots.len(),
        source: ordered,
    })
}

/// Where a delta-restricted literal reads its facts.
#[derive(Clone, Copy)]
pub enum DeltaSource<'a> {
    /// Per-predicate id ranges into [`JoinInput::total`] (the semi-naive
    /// representation: a delta is the contiguous suffix a round's merge
    /// appended, probed through the total's own indexes).
    Spans(&'a DeltaSpans),
    /// A separate database (the incremental engine's deltas are not
    /// contiguous id ranges of the total, so they stay materialised).
    Db(&'a Database),
}

/// How *non-delta* literals resolve their fact sources during a counting
/// update (see `incremental.rs`). The plain semi-naive delta join reads the
/// full total at every non-delta position, which enumerates a firing once
/// per delta position it matches — fine for set semantics, fatal for
/// counting. The triangle decomposition splits the space so every changed
/// firing is enumerated **exactly once**: position `i` reads the delta,
/// positions before `i` read one side of the change, positions after `i`
/// the other.
#[derive(Clone, Copy)]
pub enum SideSources<'a> {
    /// Insertion triangle (`delta` must be [`DeltaSource::Spans`]): new
    /// firings after a round's merge are `Σ_i join(old_{<i}, Δ_i,
    /// new_{>i})`. Literals *before* the delta position read only the ids
    /// below each span predicate's start (the pre-merge prefix); literals
    /// after it read the full (post-merge) total.
    InsertTriangle,
    /// Deletion triangle, applied after the victims were physically removed
    /// from the total: lost firings are `Σ_i join(new_{<i}, victims_i,
    /// old_{>i})`. Literals before the delta position read the (shrunken)
    /// total alone; literals after it read total ∪ `removed`.
    DeleteTriangle { removed: &'a Database },
    /// DRed overdelete: every non-delta literal reads total ∪ `removed`,
    /// reconstructing the pre-deletion database. Unlike the triangle this
    /// enumerates a lost firing once *per* delta position — sound for the
    /// set-valued doomed computation, and required when a dead derivation
    /// used removed facts at several positions.
    OldTotal { removed: &'a Database },
}

/// The fact sources a rule body reads from.
pub struct JoinInput<'a> {
    /// Full set of facts derived so far (plus the EDB).
    pub total: &'a Database,
    /// Semi-naive: the literal index that must match the delta, and the
    /// delta itself. `None` runs a naive (full) evaluation.
    pub delta: Option<(usize, DeltaSource<'a>)>,
    /// Triangle/union resolution for the non-delta literals; `None` (the
    /// default) reads the full total there, as plain semi-naive does.
    pub sides: Option<SideSources<'a>>,
    /// Where negative literals are checked. Stratified evaluation passes the
    /// total database (lower strata complete); `None` defaults to `total`.
    pub negatives: Option<&'a Database>,
    /// Resource governor for this run; `None` (the ungoverned default)
    /// makes every check a no-op.
    pub governor: Option<&'a Governor>,
}

impl<'a> JoinInput<'a> {
    /// A plain naive input over `total` with no delta, no separate negative
    /// source, and no governance.
    pub fn naive(total: &'a Database) -> JoinInput<'a> {
        JoinInput {
            total,
            delta: None,
            sides: None,
            negatives: None,
            governor: None,
        }
    }
}

/// One enumerable source for a positive literal: a relation plus an
/// optional `[lo, hi)` id range restricting the scan.
pub(crate) type AccessSource<'a> = (&'a Relation, Option<(u32, u32)>);

/// Resolves the (up to two) `(relation, id range)` sources a positive
/// literal at body position `lit` enumerates, honouring the delta and any
/// [`SideSources`]. The two sources are always disjoint (a removed fact is
/// by construction absent from the total), so enumerating them in order
/// needs no dedup.
#[inline]
pub(crate) fn resolve_access<'a>(
    input: &JoinInput<'a>,
    lit: usize,
    pred: Predicate,
) -> [Option<AccessSource<'a>>; 2] {
    let full = |db: &'a Database| db.relation(pred).map(|r| (r, None));
    match input.delta {
        Some((d, src)) if d == lit => match src {
            DeltaSource::Spans(spans) => {
                let span = spans.get(pred);
                [
                    span.and_then(|s| input.total.relation(pred).map(|r| (r, Some(s)))),
                    None,
                ]
            }
            DeltaSource::Db(db) => [full(db), None],
        },
        _ => match input.sides {
            None => [full(input.total), None],
            Some(SideSources::InsertTriangle) => {
                let before = matches!(input.delta, Some((d, _)) if lit < d);
                let prefix = if before {
                    match input.delta {
                        Some((_, DeltaSource::Spans(spans))) => spans.get(pred).map(|(lo, _)| lo),
                        _ => None,
                    }
                } else {
                    None
                };
                match prefix {
                    // The pre-merge prefix of a span predicate: ids [0, lo).
                    Some(lo) => [input.total.relation(pred).map(|r| (r, Some((0, lo)))), None],
                    None => [full(input.total), None],
                }
            }
            Some(SideSources::DeleteTriangle { removed }) => {
                if matches!(input.delta, Some((d, _)) if lit > d) {
                    [full(input.total), full(removed)]
                } else {
                    [full(input.total), None]
                }
            }
            Some(SideSources::OldTotal { removed }) => [full(input.total), full(removed)],
        },
    }
}

/// What the executor's sink did with an emitted row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Emitted {
    /// The tuple was new and was recorded.
    New,
    /// The tuple was already known.
    Duplicate,
    /// The sink refused the row and the run must stop: the governor
    /// refused the fact-budget claim, or a probe already has its witness.
    /// Refused emissions touch no metric counters, which is what keeps
    /// sequential `BudgetExhausted { Facts }` equivalent to "strict subset
    /// of the fixpoint".
    Refused,
}

/// Ensures the indexes a compiled rule will probe exist in `db` (for the
/// masks over its positive body literals).
pub fn ensure_rule_indexes(rule: &CompiledRule, db: &mut Database) {
    for lit in &rule.body {
        if lit.polarity == Polarity::Positive && !lit.mask.is_empty() {
            db.ensure_index(lit.atom.pred, lit.mask);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alexander_ir::{atom, Literal};
    use alexander_storage::tuple_of_syms;

    fn edb() -> Database {
        let mut db = Database::new();
        let e = Predicate::new("e", 2);
        for (a, b) in [("a", "b"), ("b", "c"), ("c", "d")] {
            db.insert(e, tuple_of_syms(&[a, b]));
        }
        db
    }

    #[test]
    fn compile_assigns_slots_masks_and_bound_sources() {
        // p(X, Y) :- e(X, Z), e(Z, Y).
        let r = Rule::new(
            atom("p", [Term::var("X"), Term::var("Y")]),
            vec![
                Literal::pos(atom("e", [Term::var("X"), Term::var("Z")])),
                Literal::pos(atom("e", [Term::var("Z"), Term::var("Y")])),
            ],
        );
        let c = compile_rule(&r).unwrap();
        assert_eq!(c.nvars, 3);
        // First literal: nothing bound.
        assert!(c.body[0].mask.is_empty());
        assert!(c.body[0].bound.is_empty());
        // Second literal: Z (column 0) bound.
        assert_eq!(c.body[1].mask, Mask::of_columns(&[0]));
        assert_eq!(c.body[1].bound.len(), 1);
        assert_eq!(c.body[1].bound[0].0, 0);
    }

    #[test]
    fn ensure_rule_indexes_builds_probe_masks() {
        let r = Rule::new(
            atom("p", [Term::var("X"), Term::var("Y")]),
            vec![
                Literal::pos(atom("e", [Term::var("X"), Term::var("Z")])),
                Literal::pos(atom("e", [Term::var("Z"), Term::var("Y")])),
            ],
        );
        let c = compile_rule(&r).unwrap();
        let mut db = edb();
        ensure_rule_indexes(&c, &mut db);
        assert!(db
            .relation(Predicate::new("e", 2))
            .unwrap()
            .has_index(Mask::of_columns(&[0])));
    }
}
