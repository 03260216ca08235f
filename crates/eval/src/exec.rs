//! The rule executor: drives a compiled [`RulePlan`] over the arena in
//! fixed-size blocks of binding rows instead of one tuple at a time. Every
//! bottom-up evaluator runs rule bodies through [`exec_plan`] (or its
//! head-seeded entry, [`exec_plan_seeded`]).
//!
//! ## Shape
//!
//! A *binding block* is a row-major buffer of up to [`BLOCK_ROWS`] candidate
//! variable assignments, each row `nvars` wide (unbound slots carry a dummy
//! value the plan never reads). Execution starts from a single seed row —
//! all dummies, or the head-bound slots of a seeded probe — and
//! pushes blocks through the plan's operators: an
//! [`Access`](crate::plan::PlanOp::Access) extends every input row with each
//! matching arena row (indexed probe, delta-narrowed posting list, or
//! contiguous scan), [`Builtin`](crate::plan::PlanOp::Builtin) and
//! [`Negative`](crate::plan::PlanOp::Negative) filter rows in place, and the
//! sink projects head rows, hashing each one **once** — the digest is reused
//! for the duplicate check and the insert via the storage layer's `_hashed`
//! entry points. A plan whose head projection is every variable slot
//! ([`compile_binding_plan`](crate::plan::compile_binding_plan)) emits the
//! whole binding row, for callers that rebuild body instances.
//!
//! When an operator's output block fills, the block is flushed through the
//! remaining operators *before* the operator resumes — downstream work for
//! earlier rows always completes before later rows are generated. Emissions
//! therefore occur in the depth-first order of a nested-loop join whatever
//! the block size, so insertion order into staging databases, and hence
//! delta spans and row ids, are a function of the input alone.
//!
//! ## Governance
//!
//! Budget checks are amortised per block, not per tuple: with no step
//! budget, the governor's cancellation/deadline look happens once per block
//! reaching the emission sink. A step budget still claims per firing
//! (claim-before-work exactness demands it), and fact claims stay in the
//! caller's emit closure, which keeps `consumed.facts == max` exact.
//!
//! All buffers live in an [`ExecScratch`] the caller keeps per worker; the
//! steady state allocates nothing.

use crate::join::{Emitted, JoinInput, Pat};
use crate::metrics::EvalMetrics;
use crate::plan::{PlanOp, RulePlan};
use alexander_ir::{hash_row, Const, RowHasher};
use alexander_storage::Database;
use std::ops::ControlFlow;

/// Rows per binding block. 1024 keeps a block of typical width (2–4 slots
/// × 16-byte `Const`) within L2 while amortising per-block overhead
/// (operator dispatch, governance looks) over enough rows to vanish.
pub const BLOCK_ROWS: usize = 1024;

/// A row-major block of binding rows, `stride` slots wide.
#[derive(Default)]
struct Block {
    stride: usize,
    len: usize,
    data: Vec<Const>,
}

impl Block {
    fn reset(&mut self, stride: usize) {
        self.stride = stride;
        self.len = 0;
        self.data.clear();
    }

    #[inline]
    fn row(&self, i: usize) -> &[Const] {
        &self.data[i * self.stride..(i + 1) * self.stride]
    }

    #[inline]
    fn is_full(&self) -> bool {
        self.len >= BLOCK_ROWS
    }

    #[inline]
    fn clear_rows(&mut self) {
        self.len = 0;
        self.data.clear();
    }

    /// The executor's seed: one row of all-dummy slots (the first operator
    /// has nothing bound, or binds only constants the plan checks itself;
    /// a seeded probe then overwrites its head slots).
    fn push_seed_row(&mut self) {
        self.data.resize(self.stride, Const::int(0));
        self.len = 1;
    }

    /// Appends `base` extended with the candidate row's `load` columns.
    #[inline]
    fn push_extended(&mut self, base: &[Const], cand: &[Const], load: &[(u32, u32)]) {
        let start = self.data.len();
        self.data.extend_from_slice(base);
        for &(col, slot) in load {
            self.data[start + slot as usize] = cand[col as usize];
        }
        self.len += 1;
    }
}

/// Reusable per-worker buffers for the executor: the seed block,
/// one output block per plan operator, and the head-row scratch. One
/// `ExecScratch` serves a whole fixpoint run.
#[derive(Default)]
pub struct ExecScratch {
    seed: Block,
    bufs: Vec<Block>,
    head: Vec<Const>,
}

impl ExecScratch {
    /// Fresh scratch buffers.
    pub fn new() -> ExecScratch {
        ExecScratch::default()
    }
}

/// Resolves a compiled term against a (full-width) binding row.
#[inline]
fn resolve(p: Pat, row: &[Const]) -> Const {
    match p {
        Pat::Const(c) => c,
        Pat::Var(v) => row[v as usize],
    }
}

/// Executes `plan` over `input` blockwise, calling `emit` with each
/// instantiated head row and its [`hash_row`] digest (computed once here so
/// the sink can reuse it for both the membership check and the insert). The
/// row lives in scratch and is only valid for the duration of the call.
///
/// Every emission the sink accepts counts a firing plus a new or duplicate
/// fact, as `emit` reports; a refused emission counts nothing. With a
/// governor in `input`, the executor charges it per firing (step budgets)
/// or per block (cancellation and deadline looks). Returns
/// [`ControlFlow::Break`] when the run stopped early (refusal,
/// cancellation, deadline).
pub fn exec_plan(
    plan: &RulePlan,
    input: &JoinInput<'_>,
    scratch: &mut ExecScratch,
    metrics: &mut EvalMetrics,
    emit: &mut dyn FnMut(u64, &[Const]) -> Emitted,
) -> ControlFlow<()> {
    scratch.seed.reset(plan.nvars);
    scratch.seed.push_seed_row();
    run_from_seed(plan, input, scratch, metrics, emit)
}

/// The head-seeded entry: a derivability probe for one head row. Pre-fills
/// the seed row's head slots from `head_row` through the rule's head
/// pattern `head` and runs `plan` from there, so body literals sharing head
/// variables probe with those constants — DRed's rederivation question
/// ("does *this* doomed fact still have a derivation?") asked as an indexed
/// point lookup instead of a rule re-evaluation. `plan` should come from a
/// [`compile_rule_seeded`](crate::join::compile_rule_seeded) compilation,
/// whose masks count the head slots as bound; `emit` may refuse at the
/// first witness to stop the run.
///
/// Returns `None` without running when `head_row` cannot match `head` (a
/// constant mismatch, or a repeated head variable given two values);
/// otherwise the run's flow, as [`exec_plan`].
pub fn exec_plan_seeded(
    plan: &RulePlan,
    head: &[Pat],
    head_row: &[Const],
    input: &JoinInput<'_>,
    scratch: &mut ExecScratch,
    metrics: &mut EvalMetrics,
    emit: &mut dyn FnMut(u64, &[Const]) -> Emitted,
) -> Option<ControlFlow<()>> {
    debug_assert_eq!(head.len(), head_row.len());
    scratch.seed.reset(plan.nvars);
    scratch.seed.push_seed_row();
    let seed = &mut scratch.seed.data;
    for (i, (&p, &v)) in head.iter().zip(head_row).enumerate() {
        // A repeated head variable must take the same value at every
        // position it occupies.
        let conflict = || {
            head[..i]
                .iter()
                .zip(head_row)
                .any(|(&q, &w)| q == p && w != v)
        };
        match p {
            Pat::Const(c) if c != v => return None,
            Pat::Var(_) if conflict() => return None,
            Pat::Var(s) => seed[s as usize] = v,
            Pat::Const(_) => {}
        }
    }
    Some(run_from_seed(plan, input, scratch, metrics, emit))
}

/// Runs `plan` from the seed row already in `scratch.seed`.
fn run_from_seed(
    plan: &RulePlan,
    input: &JoinInput<'_>,
    scratch: &mut ExecScratch,
    metrics: &mut EvalMetrics,
    emit: &mut dyn FnMut(u64, &[Const]) -> Emitted,
) -> ControlFlow<()> {
    let exact_steps = input.governor.is_some_and(|g| g.counts_steps());
    let neg_db = input.negatives.unwrap_or(input.total);
    if scratch.bufs.len() < plan.ops.len() {
        scratch.bufs.resize_with(plan.ops.len(), Block::default);
    }
    run_ops(
        plan,
        &plan.ops,
        &mut scratch.bufs[..plan.ops.len()],
        &scratch.seed,
        input,
        neg_db,
        exact_steps,
        &mut scratch.head,
        metrics,
        emit,
    )
}

/// Pushes `block` through the remaining operators. `bufs[0]` is this
/// stage's output block; flushing it recursively *before* generating more
/// rows is what keeps emissions in depth-first (nested-loop) order.
#[allow(clippy::too_many_arguments)]
fn run_ops(
    plan: &RulePlan,
    ops: &[PlanOp],
    bufs: &mut [Block],
    block: &Block,
    input: &JoinInput<'_>,
    neg_db: &Database,
    exact_steps: bool,
    head: &mut Vec<Const>,
    metrics: &mut EvalMetrics,
    emit: &mut dyn FnMut(u64, &[Const]) -> Emitted,
) -> ControlFlow<()> {
    metrics.exec.blocks_executed += 1;
    metrics.exec.block_rows += block.len as u64;

    // Sink: every row is a full body match — project, hash once, emit.
    let Some((op, rest_ops)) = ops.split_first() else {
        if !exact_steps {
            // The per-block (amortised) governance look: blocks are at most
            // BLOCK_ROWS rows, the governor's own deadline stride.
            if let Some(g) = input.governor {
                g.check_interrupt()?;
            }
        }
        for i in 0..block.len {
            let row = block.row(i);
            // The step claim comes before the emission: a refused firing
            // does no work and touches no counters (claim-before-work).
            if exact_steps {
                if let Some(g) = input.governor {
                    g.note_firing()?;
                }
            }
            head.clear();
            for &p in &plan.head {
                head.push(resolve(p, row));
            }
            let h = hash_row(head);
            match emit(h, head) {
                Emitted::New => {
                    metrics.firings += 1;
                    metrics.new_facts += 1;
                }
                Emitted::Duplicate => {
                    metrics.firings += 1;
                    metrics.duplicate_facts += 1;
                }
                Emitted::Refused => return ControlFlow::Break(()),
            }
        }
        return ControlFlow::Continue(());
    };

    let (out, rest_bufs) = bufs.split_first_mut().expect("one buffer per operator");
    out.reset(plan.nvars);

    // Flush the output block through the remaining operators, then make it
    // reusable. Invoked whenever it fills and once for the remainder.
    macro_rules! flush_full {
        () => {
            if out.is_full() {
                run_ops(
                    plan,
                    rest_ops,
                    rest_bufs,
                    out,
                    input,
                    neg_db,
                    exact_steps,
                    head,
                    metrics,
                    emit,
                )?;
                out.clear_rows();
            }
        };
    }

    match op {
        PlanOp::Builtin { b, lhs, rhs, want } => {
            for i in 0..block.len {
                let row = block.row(i);
                metrics.probes += 1;
                if b.eval(resolve(*lhs, row), resolve(*rhs, row)) == *want {
                    out.push_extended(row, &[], &[]);
                    flush_full!();
                }
            }
        }
        PlanOp::Negative { pred, args } => {
            let rel = neg_db.relation(*pred);
            for i in 0..block.len {
                let row = block.row(i);
                let present = rel.is_some_and(|r| r.contains_with(|k| resolve(args[k], row)));
                metrics.probes += 1;
                if !present {
                    out.push_extended(row, &[], &[]);
                    flush_full!();
                }
            }
        }
        PlanOp::Access {
            lit,
            pred,
            mask,
            key,
            load,
            eqs,
        } => {
            // Resolve the (up to two) sources this access reads and the id
            // range the delta (if this is the delta position) restricts
            // each to — once per block. An unresolved access matches
            // nothing and charges
            // no probe; a second source appears only under counting-update
            // side resolutions (total ∪ removed).
            let sources = crate::join::resolve_access(input, *lit, *pred);
            for (relation, range) in sources.into_iter().flatten() {
                let (lo, hi) = range.unwrap_or((0, relation.len() as u32));
                let eq_cols = |cand: &[Const]| {
                    eqs.iter()
                        .all(|&(c, c0)| cand[c as usize] == cand[c0 as usize])
                };

                if mask.is_empty() {
                    // Contiguous arena scan of the (possibly delta-restricted)
                    // id range — one slice of the pool, walked in stride-sized
                    // steps; the whole enumeration is charged, which is what
                    // the index ablation (E10) measures. (Propositional
                    // relations have stride 0 and at most one row.)
                    let a = relation.arity();
                    for i in 0..block.len {
                        let row = block.row(i);
                        metrics.probes += 1;
                        metrics.tuples_considered += u64::from(hi - lo);
                        if a == 0 {
                            for _ in lo..hi {
                                out.push_extended(row, &[], load);
                                flush_full!();
                            }
                        } else {
                            let window = &relation.pool()[lo as usize * a..hi as usize * a];
                            for cand in window.chunks_exact(a) {
                                if eq_cols(cand) {
                                    out.push_extended(row, cand, load);
                                    flush_full!();
                                }
                            }
                        }
                    }
                } else if let Some(ip) = relation.index_probe(*mask) {
                    // Indexed probes: the index is resolved once for the whole
                    // block; each row hashes its bound columns in place — the
                    // same digest the index maintains (ascending column order).
                    for i in 0..block.len {
                        let row = block.row(i);
                        metrics.probes += 1;
                        let mut hsh = RowHasher::new();
                        for &(_, p) in key {
                            hsh.push(&resolve(p, row));
                        }
                        let ids = ip.probe_in(hsh.finish(), range, |rep| {
                            key.iter().all(|&(c, p)| rep[c as usize] == resolve(p, row))
                        });
                        // Group membership guarantees the key columns; only
                        // repeated-variable equalities remain.
                        for &id in ids {
                            metrics.tuples_considered += 1;
                            let cand = relation.row(id);
                            if eq_cols(cand) {
                                out.push_extended(row, cand, load);
                                flush_full!();
                            }
                        }
                    }
                } else {
                    // No index: filtered scan over the range per input row.
                    for i in 0..block.len {
                        let row = block.row(i);
                        metrics.probes += 1;
                        metrics.tuples_considered += u64::from(hi - lo);
                        for id in lo..hi {
                            let cand = relation.row(id);
                            if key
                                .iter()
                                .all(|&(c, p)| cand[c as usize] == resolve(p, row))
                                && eq_cols(cand)
                            {
                                out.push_extended(row, cand, load);
                                flush_full!();
                            }
                        }
                    }
                }
            }
        }
    }

    if out.len > 0 {
        run_ops(
            plan,
            rest_ops,
            rest_bufs,
            out,
            input,
            neg_db,
            exact_steps,
            head,
            metrics,
            emit,
        )?;
    }
    ControlFlow::Continue(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::govern::{Budget, Completion, Governor, Resource};
    use crate::join::{compile_rule, compile_rule_seeded, CompiledRule, DeltaSource};
    use crate::plan::{compile_binding_plan, compile_plan};
    use alexander_ir::{atom, Literal, Predicate, Rule, Term};
    use alexander_storage::{tuple_of_syms, DeltaSpans, Mask, Tuple};

    /// e = {(a,b), (b,c), (c,d), (a,d)}, in that insertion order, no indexes.
    fn edb() -> Database {
        let mut db = Database::new();
        let e = Predicate::new("e", 2);
        for (a, b) in [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")] {
            db.insert(e, tuple_of_syms(&[a, b]));
        }
        db
    }

    fn compile(head: alexander_ir::Atom, body: Vec<Literal>) -> CompiledRule {
        compile_rule(&Rule::new(head, body)).unwrap()
    }

    /// p(X, Y) :- e(X, Z), e(Z, Y).
    fn composition_rule() -> CompiledRule {
        compile(
            atom("p", [Term::var("X"), Term::var("Y")]),
            vec![
                Literal::pos(atom("e", [Term::var("X"), Term::var("Z")])),
                Literal::pos(atom("e", [Term::var("Z"), Term::var("Y")])),
            ],
        )
    }

    /// The logical counters a run must produce, computed by hand:
    /// `(firings, probes, tuples_considered, new_facts, duplicate_facts)`.
    type Counts = (u64, u64, u64, u64, u64);

    fn counts(m: &EvalMetrics) -> Counts {
        (
            m.firings,
            m.probes,
            m.tuples_considered,
            m.new_facts,
            m.duplicate_facts,
        )
    }

    /// Runs `rule` over `input` with a deduplicating sink (a repeated head
    /// row is a duplicate) and returns the new rows in emission order.
    fn run_with(
        rule: &CompiledRule,
        input: &JoinInput<'_>,
        scratch: &mut ExecScratch,
        metrics: &mut EvalMetrics,
    ) -> Vec<Tuple> {
        let mut out: Vec<Tuple> = Vec::new();
        let flow = exec_plan(
            &compile_plan(rule),
            input,
            scratch,
            metrics,
            &mut |h, row| {
                assert_eq!(h, hash_row(row), "sink digest must be the row hash");
                let t = Tuple::new(row);
                if out.contains(&t) {
                    Emitted::Duplicate
                } else {
                    out.push(t);
                    Emitted::New
                }
            },
        );
        assert!(flow.is_continue());
        out
    }

    fn run(rule: &CompiledRule, input: &JoinInput<'_>) -> (Vec<Tuple>, Counts) {
        let mut m = EvalMetrics::default();
        let out = run_with(rule, input, &mut ExecScratch::new(), &mut m);
        assert!(m.exec.blocks_executed > 0, "the executor counts blocks");
        (out, counts(&m))
    }

    fn syms(rows: &[&[&str]]) -> Vec<Tuple> {
        rows.iter().map(|r| tuple_of_syms(r)).collect()
    }

    #[test]
    fn naive_composition_counts_every_probe_and_candidate() {
        let db = edb();
        let (out, c) = run(&composition_rule(), &JoinInput::naive(&db));
        assert_eq!(out, syms(&[&["a", "c"], &["b", "d"]]));
        // e(X, Z): one scan of 4 rows. e(Z, Y) with Z bound but no index:
        // 4 filtered scans of 4 rows, matching Z=b and Z=c once each.
        assert_eq!(c, (2, 5, 20, 2, 0));
    }

    #[test]
    fn repeated_heads_count_as_duplicates() {
        // q(X) :- e(X, Y): a is the source of two edges.
        let rule = compile(
            atom("q", [Term::var("X")]),
            vec![Literal::pos(atom("e", [Term::var("X"), Term::var("Y")]))],
        );
        let db = edb();
        let (out, c) = run(&rule, &JoinInput::naive(&db));
        assert_eq!(out, syms(&[&["a"], &["b"], &["c"]]));
        assert_eq!(c, (4, 1, 4, 3, 1));
    }

    #[test]
    fn constant_filter_probes_the_index_or_scans_without_one() {
        // p(Y) :- e(a, Y): column 0 is bound by the constant.
        let rule = compile(
            atom("p", [Term::var("Y")]),
            vec![Literal::pos(atom("e", [Term::sym("a"), Term::var("Y")]))],
        );
        assert_eq!(rule.body[0].mask, Mask::of_columns(&[0]));
        let mut db = edb();
        let want = syms(&[&["b"], &["d"]]);
        let (out, c) = run(&rule, &JoinInput::naive(&db));
        assert_eq!(out, want);
        assert_eq!(c, (2, 1, 4, 2, 0), "filtered scan");
        db.ensure_index(Predicate::new("e", 2), Mask::of_columns(&[0]));
        let (out, c) = run(&rule, &JoinInput::naive(&db));
        assert_eq!(out, want);
        assert_eq!(c, (2, 1, 2, 2, 0), "one posting list");
    }

    #[test]
    fn delta_db_restricts_one_literal() {
        let db = edb();
        let mut delta = Database::new();
        delta.insert(Predicate::new("e", 2), tuple_of_syms(&["b", "c"]));
        let input = JoinInput {
            delta: Some((0, DeltaSource::Db(&delta))),
            ..JoinInput::naive(&db)
        };
        let (out, c) = run(&composition_rule(), &input);
        // Position 0 reads only (b, c); position 1 scans the total for c.
        assert_eq!(out, syms(&[&["b", "d"]]));
        assert_eq!(c, (1, 2, 5, 1, 0));
    }

    #[test]
    fn delta_spans_narrow_indexed_probes_to_the_new_rows() {
        let e = Predicate::new("e", 2);
        let rule = composition_rule();
        let mut db = edb();
        db.ensure_index(e, Mask::of_columns(&[0]));
        let mut fresh = Database::new();
        fresh.insert(e, tuple_of_syms(&["d", "q"]));
        db.merge(&fresh);
        let spans = DeltaSpans::after_merge(&db, &fresh);
        let at = |delta_pos| JoinInput {
            delta: Some((delta_pos, DeltaSource::Spans(&spans))),
            ..JoinInput::naive(&db)
        };
        // Delta at 0: the scan reads only row 4 (d, q); nothing leaves q.
        let (out, c) = run(&rule, &at(0));
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(c, (0, 2, 1, 0, 0));
        // Delta at 1: a full scan of 5 rows, then one probe per row whose
        // posting list is narrowed to row 4 — only Z=d keeps a candidate.
        let (out, c) = run(&rule, &at(1));
        assert_eq!(out, syms(&[&["c", "q"], &["a", "q"]]));
        assert_eq!(c, (2, 6, 7, 2, 0));
    }

    #[test]
    fn negation_builtin_and_repeated_variables_filter_rows() {
        let mut db = edb();
        db.insert(Predicate::new("e", 2), tuple_of_syms(&["z", "z"]));
        db.insert(Predicate::new("blocked", 1), tuple_of_syms(&["a"]));
        // q(X) :- e(X, Y), neq(X, Y), !blocked(X).
        let rule = compile(
            atom("q", [Term::var("X")]),
            vec![
                Literal::pos(atom("e", [Term::var("X"), Term::var("Y")])),
                Literal::pos(atom("neq", [Term::var("X"), Term::var("Y")])),
                Literal::neg(atom("blocked", [Term::var("X")])),
            ],
        );
        let (out, c) = run(&rule, &JoinInput::naive(&db));
        // 5 scanned rows; neq drops (z, z); the negation drops both a rows.
        assert_eq!(out, syms(&[&["b"], &["c"]]));
        assert_eq!(c, (2, 1 + 5 + 4, 5, 2, 0));

        // loop(X) :- e(X, X): a repeated free variable inside one literal.
        let rule = compile(
            atom("loop", [Term::var("X")]),
            vec![Literal::pos(atom("e", [Term::var("X"), Term::var("X")]))],
        );
        let (out, c) = run(&rule, &JoinInput::naive(&db));
        assert_eq!(out, syms(&[&["z"]]));
        assert_eq!(c, (1, 1, 5, 1, 0));
    }

    #[test]
    fn missing_relation_matches_nothing_and_counts_nothing() {
        let rule = compile(
            atom("p", [Term::var("X")]),
            vec![Literal::pos(atom("ghost", [Term::var("X")]))],
        );
        let db = edb();
        let (out, c) = run(&rule, &JoinInput::naive(&db));
        assert!(out.is_empty());
        assert_eq!(c, (0, 0, 0, 0, 0));
    }

    #[test]
    fn blocks_larger_than_block_rows_flush_in_nested_loop_order() {
        // cross(X, Y) :- d(X), d(Y).   70 * 70 = 4900 > 4 * BLOCK_ROWS.
        let d = Predicate::new("d", 1);
        let mut db = Database::new();
        for i in 0..70 {
            db.insert(d, Tuple::new(vec![Const::int(i)]));
        }
        let rule = compile(
            atom("cross", [Term::var("X"), Term::var("Y")]),
            vec![
                Literal::pos(atom("d", [Term::var("X")])),
                Literal::pos(atom("d", [Term::var("Y")])),
            ],
        );
        let (out, c) = run(&rule, &JoinInput::naive(&db));
        let want: Vec<Tuple> = (0..70)
            .flat_map(|x| (0..70).map(move |y| Tuple::new(vec![Const::int(x), Const::int(y)])))
            .collect();
        assert_eq!(out, want, "emissions follow the nested-loop order");
        assert_eq!(c, (4900, 1 + 70, 70 + 70 * 70, 4900, 0));
    }

    #[test]
    fn one_scratch_serves_rules_of_different_widths() {
        let wide = composition_rule();
        // q(X) :- e(X, Y).
        let narrow = compile(
            atom("q", [Term::var("X")]),
            vec![Literal::pos(atom("e", [Term::var("X"), Term::var("Y")]))],
        );
        let db = edb();
        let input = JoinInput::naive(&db);
        let mut scratch = ExecScratch::new();
        for _ in 0..3 {
            for (rule, want) in [
                (&wide, syms(&[&["a", "c"], &["b", "d"]])),
                (&narrow, syms(&[&["a"], &["b"], &["c"]])),
            ] {
                let mut m = EvalMetrics::default();
                assert_eq!(run_with(rule, &input, &mut scratch, &mut m), want);
            }
        }
    }

    #[test]
    fn step_budget_breaks_with_exact_claims() {
        let plan = compile_plan(&composition_rule());
        let db = edb();
        let gov = Governor::new(Budget::default().with_max_steps(1), None);
        let input = JoinInput {
            governor: Some(&gov),
            ..JoinInput::naive(&db)
        };
        let mut m = EvalMetrics::default();
        let mut s = ExecScratch::new();
        let mut out = 0;
        let flow = exec_plan(&plan, &input, &mut s, &mut m, &mut |_, _| {
            out += 1;
            Emitted::New
        });
        assert!(flow.is_break());
        assert_eq!(out, 1, "exactly one firing fits a 1-step budget");
        assert_eq!(
            gov.completion(),
            Completion::BudgetExhausted {
                resource: Resource::Steps
            }
        );
    }

    #[test]
    fn refused_emission_stops_and_counts_nothing() {
        let plan = compile_plan(&composition_rule());
        let db = edb();
        let mut m = EvalMetrics::default();
        let mut s = ExecScratch::new();
        let mut calls = 0;
        let flow = exec_plan(
            &plan,
            &JoinInput::naive(&db),
            &mut s,
            &mut m,
            &mut |_, _| {
                calls += 1;
                if calls == 1 {
                    Emitted::New
                } else {
                    Emitted::Refused
                }
            },
        );
        assert!(flow.is_break());
        assert_eq!(calls, 2, "executor must stop right at the refusal");
        assert_eq!(m.firings, 1, "the refused emission counts no firing");
        assert_eq!(m.new_facts, 1);
    }

    #[test]
    fn propositional_rules_execute() {
        // ok() :- d(X): an arity-0 head over a non-empty body.
        let d = Predicate::new("d", 1);
        let mut db = Database::new();
        db.insert(d, Tuple::new(vec![Const::int(1)]));
        let rule = compile(
            atom("ok", []),
            vec![Literal::pos(atom("d", [Term::var("X")]))],
        );
        let (out, _) = run(&rule, &JoinInput::naive(&db));
        assert_eq!(out, vec![Tuple::new(Vec::<Const>::new())]);
    }

    /// Runs a head-seeded probe of `rule` for `head_row`, refusing at the
    /// first witness. Returns the flow (if the head matched) and the
    /// witness binding rows seen.
    fn probe(
        rule: &Rule,
        head_row: &[&str],
        db: &Database,
    ) -> (Option<ControlFlow<()>>, Vec<Tuple>) {
        let seeded = compile_rule_seeded(rule).unwrap();
        let plan = compile_binding_plan(&seeded);
        let row = tuple_of_syms(head_row);
        let mut witnesses = Vec::new();
        let mut m = EvalMetrics::default();
        let flow = exec_plan_seeded(
            &plan,
            &seeded.head.args,
            row.values(),
            &JoinInput::naive(db),
            &mut ExecScratch::new(),
            &mut m,
            &mut |_, bind| {
                witnesses.push(Tuple::new(bind));
                Emitted::Refused
            },
        );
        assert_eq!(m.firings, 0, "a refused witness counts no firing");
        (flow, witnesses)
    }

    #[test]
    fn seeded_probe_stops_at_the_first_witness() {
        // p(X, Y) :- e(X, Z), e(Z, Y), probed for p(a, c): Z=b and Z=x are
        // both witnesses; the run breaks at the first.
        let rule = Rule::new(
            atom("p", [Term::var("X"), Term::var("Y")]),
            vec![
                Literal::pos(atom("e", [Term::var("X"), Term::var("Z")])),
                Literal::pos(atom("e", [Term::var("Z"), Term::var("Y")])),
            ],
        );
        let mut db = edb();
        let e = Predicate::new("e", 2);
        db.insert(e, tuple_of_syms(&["a", "x"]));
        db.insert(e, tuple_of_syms(&["x", "c"]));
        let (flow, witnesses) = probe(&rule, &["a", "c"], &db);
        assert_eq!(flow, Some(ControlFlow::Break(())));
        // Head slots first (X, Y), then Z: the full binding row.
        assert_eq!(witnesses, syms(&[&["a", "c", "b"]]));
        // p(b, a) has no derivation: the run completes without a witness.
        let (flow, witnesses) = probe(&rule, &["b", "a"], &db);
        assert_eq!(flow, Some(ControlFlow::Continue(())));
        assert!(witnesses.is_empty());
    }

    #[test]
    fn seeded_probe_rejects_rows_the_head_cannot_match() {
        let db = edb();
        // p(a, Y) :- e(a, Y): the head constant must match.
        let constant = Rule::new(
            atom("p", [Term::sym("a"), Term::var("Y")]),
            vec![Literal::pos(atom("e", [Term::sym("a"), Term::var("Y")]))],
        );
        assert_eq!(probe(&constant, &["b", "c"], &db).0, None);
        assert_eq!(
            probe(&constant, &["a", "b"], &db).0,
            Some(ControlFlow::Break(()))
        );
        // same(X, X) :- e(X, Y): a repeated head variable takes one value.
        let repeated = Rule::new(
            atom("same", [Term::var("X"), Term::var("X")]),
            vec![Literal::pos(atom("e", [Term::var("X"), Term::var("Y")]))],
        );
        assert_eq!(probe(&repeated, &["a", "b"], &db).0, None);
        let (flow, witnesses) = probe(&repeated, &["a", "a"], &db);
        assert_eq!(flow, Some(ControlFlow::Break(())));
        assert_eq!(witnesses, syms(&[&["a", "b"]]));
    }
}
