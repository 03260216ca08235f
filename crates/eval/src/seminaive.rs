//! Semi-naive bottom-up evaluation: each round only joins rule bodies
//! against the facts discovered in the previous round (the *delta*),
//! eliminating the bulk of naive evaluation's re-derivations.
//!
//! ## Range deltas
//!
//! Because [`Database::merge`] appends each relation's new rows as a
//! contiguous id suffix, a round's delta is not a separate database but a
//! [`DeltaSpans`] — per-predicate `(lo, hi)` id ranges into the total. A
//! delta-restricted literal probes the total's own indexes and narrows the
//! (id-sorted) posting list to the range with two binary searches, so no
//! per-round delta relations or delta indexes are ever built.
//!
//! ## Parallel rounds
//!
//! With `EvalOptions::threads > 1` each round fans its work items out over
//! scoped worker threads. The round's total is frozen (see
//! [`alexander_storage::Database::freeze`]) before the fan-out, so workers
//! share plain `&Database` views with no interior mutation; all indexes are
//! built up front by the single-threaded prelude. A work item is one
//! delta-rewriting variant — a `(rule, delta position)` pair — so even a
//! program with fewer rules than threads still splits across workers. Each
//! worker deduplicates its derivations against the frozen total *and* a
//! worker-local staging database (keeping an ordered derivation log), then a
//! single-threaded merge builds the next delta in task order, reclassifying
//! cross-worker duplicates so the metrics are bit-identical to a sequential
//! run at any thread count.
//!
//! Workers are panic-isolated: each round unit runs under `catch_unwind`,
//! every sibling is joined, and a panic surfaces as
//! [`EvalError::WorkerPanicked`] instead of aborting the process.
//!
//! ## Governance
//!
//! A [`Governor`] (from [`crate::govern`]) rides along when the options
//! carry a budget or cancel token: rounds check it at their boundary, the
//! join charges it per emission, and new facts are claimed against the fact
//! budget *before* insertion. On a trip the current round's accepted facts
//! are still merged (they are sound) and the run reports a non-`Complete`
//! [`crate::Completion`].

use crate::error::EvalError;
use crate::exec::{exec_plan, ExecScratch};
use crate::fail_point;
use crate::govern::Governor;
use crate::join::{ensure_rule_indexes, DeltaSource, Emitted, JoinInput};
use crate::metrics::EvalMetrics;
use crate::naive::{check_semipositive, compile_rules, seed_database, EvalOptions, EvalResult};
use crate::plan::{compile_plans, RulePlan};
use alexander_ir::{Polarity, Predicate, Program, Rule};
use alexander_storage::{Database, DeltaSpans};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Runs semi-naive evaluation of a semipositive `program` over `edb`.
pub fn eval_seminaive(program: &Program, edb: &Database) -> Result<EvalResult, EvalError> {
    eval_seminaive_opts(program, edb, EvalOptions::default())
}

/// [`eval_seminaive`] with explicit options.
pub fn eval_seminaive_opts(
    program: &Program,
    edb: &Database,
    opts: EvalOptions,
) -> Result<EvalResult, EvalError> {
    program.validate().map_err(EvalError::Invalid)?;
    check_semipositive(program)?;
    let mut db = seed_database(program, edb);
    let mut metrics = EvalMetrics::default();
    let gov = opts.governor();
    run_rules(
        &program.rules,
        &mut db,
        &mut metrics,
        &opts,
        None,
        Some(&gov),
    )?;
    Ok(EvalResult {
        db,
        metrics,
        completion: gov.completion(),
    })
}

/// The semi-naive engine over an explicit rule set, mutating `db` in place.
///
/// `negatives`: where negative literals are checked; `None` means the current
/// total (correct when negated predicates are already complete in `db`, as in
/// per-stratum evaluation). The delta tracks only the head predicates of
/// `rules` — facts of other predicates are static during the run.
///
/// `gov`: the run's governor, shared across calls when one logical run spans
/// several invocations (the stratified evaluator passes the same governor to
/// every stratum so the budget is global). On a governance stop the function
/// returns `Ok(())` with `db` holding the sound partial result; the caller
/// reads the verdict off the governor.
///
/// This is also the engine the stratified evaluator calls once per stratum.
pub(crate) fn run_rules(
    rules: &[Rule],
    db: &mut Database,
    metrics: &mut EvalMetrics,
    opts: &EvalOptions,
    negatives: Option<&Database>,
    gov: Option<&Governor>,
) -> Result<(), EvalError> {
    let compiled = compile_rules(rules)?;
    let derived: Vec<Predicate> = {
        let mut ps: Vec<Predicate> = compiled.iter().map(|r| r.head.pred).collect();
        ps.sort_unstable();
        ps.dedup();
        ps
    };

    // Rule plans, compiled once and shared read-only by every round and
    // worker.
    let plans = compile_plans(&compiled, metrics);

    let governor = gov.filter(|g| g.active());
    let threads = opts.threads.max(1);

    // One scratch for the whole fixpoint: round N+1 reuses round N's grown
    // buffers, so the steady state allocates nothing. The parallel fan-out
    // keeps per-worker scratches instead.
    let mut exec_scratch = ExecScratch::new();

    // Round 0: full join over the seed database, one work item per rule.
    if governor.is_some_and(|g| g.note_round().is_break()) {
        return Ok(());
    }
    fail_point("round-start");
    metrics.iterations += 1;
    if opts.use_indexes {
        for r in &compiled {
            ensure_rule_indexes(r, db);
        }
    }
    let mut staged = Database::new();
    let mut tasks: Vec<RoundTask<'_>> = plans
        .iter()
        .map(|plan| RoundTask {
            plan,
            delta_pos: None,
        })
        .collect();
    run_round_tasks(
        &tasks,
        db,
        None,
        negatives,
        threads,
        metrics,
        &mut staged,
        governor,
        &mut exec_scratch,
    )?;
    db.absorb_staged(&staged);
    let mut spans = DeltaSpans::after_merge(db, &staged);
    if governor.is_some_and(|g| g.should_stop()) {
        return Ok(());
    }

    // Delta rounds: every derived-predicate literal takes a turn as the
    // delta position. Each (rule, position) pair is one work item — the
    // delta-rewriting variants of a rule split across workers even when the
    // program has fewer rules than threads. The delta itself is just the id
    // ranges the previous merge appended; the round probes the total's
    // indexes (kept fresh by `insert_row`) and never builds delta indexes.
    // The staging database and task list are recycled round to round (rows
    // cleared, allocations kept), so steady-state rounds stage and merge
    // without touching the allocator.
    while !spans.is_empty() {
        if governor.is_some_and(|g| g.note_round().is_break()) {
            return Ok(());
        }
        fail_point("round-start");
        metrics.iterations += 1;
        if opts.use_indexes {
            for r in &compiled {
                ensure_rule_indexes(r, db);
            }
        }
        staged.clear_retaining();
        tasks.clear();
        for (rule, plan) in compiled.iter().zip(&plans) {
            for (i, lit) in rule.body.iter().enumerate() {
                if lit.polarity == Polarity::Positive
                    && derived.binary_search(&lit.atom.pred).is_ok()
                    && spans.len_of(lit.atom.pred) > 0
                {
                    tasks.push(RoundTask {
                        plan,
                        delta_pos: Some(i),
                    });
                }
            }
        }
        run_round_tasks(
            &tasks,
            db,
            Some(&spans),
            negatives,
            threads,
            metrics,
            &mut staged,
            governor,
            &mut exec_scratch,
        )?;
        db.absorb_staged(&staged);
        spans = DeltaSpans::after_merge(db, &staged);
        if governor.is_some_and(|g| g.should_stop()) {
            return Ok(());
        }
    }
    Ok(())
}

/// One unit of per-round work: a rule plan, optionally specialised to a
/// delta position (one delta-rewriting variant).
struct RoundTask<'a> {
    plan: &'a RulePlan,
    delta_pos: Option<usize>,
}

/// Renders a caught panic payload for [`EvalError::WorkerPanicked`].
pub(crate) fn payload_string(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

/// Executes one round's work items, inserting fresh derivations into `next`.
///
/// `db` is not mutated for the duration: with more than one thread it is
/// frozen and the items fan out over scoped workers; otherwise the items run
/// in order on the calling thread. Either way the facts in `next` and every
/// metrics counter come out identical — `new_facts` counts the distinct
/// facts absent from `db`, which is a property of the round's input, not of
/// task scheduling.
///
/// Every execution unit runs under `catch_unwind`; a panic anywhere joins
/// all surviving workers and returns [`EvalError::WorkerPanicked`].
#[allow(clippy::too_many_arguments)]
fn run_round_tasks(
    tasks: &[RoundTask<'_>],
    db: &Database,
    spans: Option<&DeltaSpans>,
    negatives: Option<&Database>,
    threads: usize,
    metrics: &mut EvalMetrics,
    next: &mut Database,
    governor: Option<&Governor>,
    exec_scratch: &mut ExecScratch,
) -> Result<(), EvalError> {
    let delta_of = |pos: Option<usize>| {
        // invariant: callers set `delta_pos` only on tasks they build for
        // delta rounds, which always pass the round's spans.
        pos.map(|i| {
            (
                i,
                DeltaSource::Spans(spans.expect("delta tasks only occur in delta rounds")),
            )
        })
    };
    if threads <= 1 || tasks.len() <= 1 {
        let run = catch_unwind(AssertUnwindSafe(|| {
            for task in tasks {
                fail_point("round-worker");
                let plan = task.plan;
                let head_pred = plan.head_pred;
                let input = JoinInput {
                    total: db,
                    delta: delta_of(task.delta_pos),
                    sides: None,
                    negatives,
                    governor,
                };
                let flow = match governor {
                    Some(gov) => {
                        exec_plan(plan, &input, exec_scratch, metrics, &mut |h, row| {
                            if db.contains_row_hashed(head_pred, h, row)
                                || next.contains_row_hashed(head_pred, h, row)
                            {
                                Emitted::Duplicate
                            } else if gov.claim_fact().is_break() {
                                Emitted::Refused
                            } else {
                                // Both contains checks above just proved the
                                // row absent, so skip insert's dedup find.
                                next.push_new_row_hashed(head_pred, h, row);
                                Emitted::New
                            }
                        })
                    }
                    // Ungoverned fast path: no claim can refuse, so newness
                    // comes straight off the staging insert — one staging
                    // lookup instead of a contains/insert pair.
                    None => exec_plan(plan, &input, exec_scratch, metrics, &mut |h, row| {
                        if db.contains_row_hashed(head_pred, h, row) {
                            Emitted::Duplicate
                        } else if next.insert_row_hashed(head_pred, h, row) {
                            Emitted::New
                        } else {
                            Emitted::Duplicate
                        }
                    }),
                };
                if flow.is_break() {
                    break;
                }
            }
        }));
        return run.map_err(|p| EvalError::WorkerPanicked {
            payload: payload_string(p),
        });
    }

    let frozen = db.freeze();
    let chunk = tasks.len().div_ceil(threads);
    // A worker's output: its metrics, its staging database (which doubles as
    // the worker-local dedup set — no boxed seen-set keys), and the ordered
    // derivation log of (predicate, staging id) pairs that preserves
    // insertion order for the deterministic merge.
    type WorkerOut = (EvalMetrics, Database, Vec<(Predicate, u32)>);
    let results: Vec<std::thread::Result<WorkerOut>> = std::thread::scope(|scope| {
        let handles: Vec<_> = tasks
            .chunks(chunk)
            .map(|chunk_tasks| {
                scope.spawn(move || {
                    catch_unwind(AssertUnwindSafe(|| {
                        let mut local = EvalMetrics::default();
                        let mut staging = Database::new();
                        let mut log: Vec<(Predicate, u32)> = Vec::new();
                        let mut exec_scratch = ExecScratch::new();
                        for task in chunk_tasks {
                            fail_point("round-worker");
                            let plan = task.plan;
                            let head_pred = plan.head_pred;
                            let input = JoinInput {
                                total: frozen.db(),
                                delta: delta_of(task.delta_pos),
                                sides: None,
                                negatives,
                                governor,
                            };
                            let flow = match governor {
                                Some(gov) => {
                                    exec_plan(
                                        plan,
                                        &input,
                                        &mut exec_scratch,
                                        &mut local,
                                        &mut |h, row| {
                                            if frozen
                                                .relation(head_pred)
                                                .is_some_and(|r| r.contains_row_hashed(h, row))
                                            {
                                                return Emitted::Duplicate;
                                            }
                                            // Worker-local dedup via the staging
                                            // relation; cross-worker collisions
                                            // are reclassified at merge time.
                                            if staging.contains_row_hashed(head_pred, h, row) {
                                                return Emitted::Duplicate;
                                            }
                                            if gov.claim_fact().is_break() {
                                                return Emitted::Refused;
                                            }
                                            // The staging contains check above
                                            // proved the row absent.
                                            staging.push_new_row_hashed(head_pred, h, row);
                                            let id = staging.len_of(head_pred) as u32 - 1;
                                            log.push((head_pred, id));
                                            Emitted::New
                                        },
                                    )
                                }
                                // Ungoverned fast path, as in the sequential
                                // branch: worker-local dedup straight off the
                                // staging insert.
                                None => exec_plan(
                                    plan,
                                    &input,
                                    &mut exec_scratch,
                                    &mut local,
                                    &mut |h, row| {
                                        if frozen
                                            .relation(head_pred)
                                            .is_some_and(|r| r.contains_row_hashed(h, row))
                                        {
                                            return Emitted::Duplicate;
                                        }
                                        if staging.insert_row_hashed(head_pred, h, row) {
                                            let id = staging.len_of(head_pred) as u32 - 1;
                                            log.push((head_pred, id));
                                            Emitted::New
                                        } else {
                                            Emitted::Duplicate
                                        }
                                    },
                                ),
                            };
                            if flow.is_break() {
                                break;
                            }
                        }
                        (local, staging, log)
                    }))
                })
            })
            .collect();
        handles
            .into_iter()
            // invariant: the worker catches its own panics via catch_unwind,
            // so the thread itself never terminates by panic.
            .map(|h| {
                h.join()
                    .expect("worker panics are caught inside the worker")
            })
            .collect()
    });

    // All workers are drained at this point; surface the first panic as a
    // structured error instead of a process abort.
    let mut panicked: Option<String> = None;
    let mut survived: Vec<WorkerOut> = Vec::with_capacity(results.len());
    for r in results {
        match r {
            Ok(out) => survived.push(out),
            Err(p) => {
                if panicked.is_none() {
                    panicked = Some(payload_string(p));
                }
            }
        }
    }
    if let Some(payload) = panicked {
        return Err(EvalError::WorkerPanicked { payload });
    }

    // Single-threaded merge, in task order so `next`'s insertion order (and
    // hence all downstream iteration) matches the sequential run. A fact two
    // workers both derived was provisionally counted new by each; demote the
    // later copies so the totals equal the sequential classification.
    for (local, staging, log) in survived {
        *metrics += local;
        for (p, id) in log {
            // invariant: every log entry was appended right after its row
            // was inserted into the worker's staging database.
            let rel = staging
                .relation(p)
                .expect("logged predicate exists in staging");
            let (row, h) = (rel.row(id), rel.row_hashes()[id as usize]);
            if !next.insert_row_hashed(p, h, row) {
                metrics.new_facts -= 1;
                metrics.duplicate_facts += 1;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::govern::{Budget, CancelHandle, Completion, Resource};
    use crate::naive::eval_naive;
    use alexander_parser::parse;
    use alexander_storage::tuple_of_syms;

    const TC: &str = "
        e(a, b). e(b, c). e(c, d). e(d, e5). e(e5, f).
        tc(X, Y) :- e(X, Y).
        tc(X, Y) :- e(X, Z), tc(Z, Y).
    ";

    #[test]
    fn agrees_with_naive_on_tc() {
        let parsed = parse(TC).unwrap();
        let edb = Database::new();
        let naive = eval_naive(&parsed.program, &edb).unwrap();
        let semi = eval_seminaive(&parsed.program, &edb).unwrap();
        let tc = Predicate::new("tc", 2);
        assert_eq!(naive.db.len_of(tc), semi.db.len_of(tc));
        assert_eq!(semi.db.len_of(tc), 15); // C(6,2) pairs on a 6-node chain
        assert!(semi.completion.is_complete());
    }

    #[test]
    fn seminaive_rederives_less_than_naive() {
        let parsed = parse(TC).unwrap();
        let edb = Database::new();
        let naive = eval_naive(&parsed.program, &edb).unwrap();
        let semi = eval_seminaive(&parsed.program, &edb).unwrap();
        assert!(
            semi.metrics.duplicate_facts < naive.metrics.duplicate_facts,
            "semi-naive {} vs naive {}",
            semi.metrics.duplicate_facts,
            naive.metrics.duplicate_facts
        );
        assert_eq!(semi.metrics.new_facts, naive.metrics.new_facts);
    }

    #[test]
    fn nonlinear_rules_use_delta_at_each_position() {
        // Nonlinear transitive closure: tc(X,Y) :- tc(X,Z), tc(Z,Y).
        let parsed = parse(
            "
            e(a, b). e(b, c). e(c, d).
            tc(X, Y) :- e(X, Y).
            tc(X, Y) :- tc(X, Z), tc(Z, Y).
        ",
        )
        .unwrap();
        let r = eval_seminaive(&parsed.program, &Database::new()).unwrap();
        assert_eq!(r.db.len_of(Predicate::new("tc", 2)), 6);
        assert!(r
            .db
            .relation(Predicate::new("tc", 2))
            .unwrap()
            .contains(&tuple_of_syms(&["a", "d"])));
    }

    #[test]
    fn same_generation_nonrecursive_base() {
        let parsed = parse(
            "
            up(a, b). up(c, b). flat(b, b2). up(x, b). down(b2, y).
            sg(X, Y) :- flat(X, Y).
            sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
        ",
        )
        .unwrap();
        let r = eval_seminaive(&parsed.program, &Database::new()).unwrap();
        let sg = Predicate::new("sg", 2);
        // sg(b, b2) from flat; sg(a,y), sg(c,y), sg(x,y) from the recursion.
        assert_eq!(r.db.len_of(sg), 4);
    }

    #[test]
    fn cyclic_graph_terminates() {
        let parsed = parse(
            "
            e(a, b). e(b, a).
            tc(X, Y) :- e(X, Y).
            tc(X, Y) :- e(X, Z), tc(Z, Y).
        ",
        )
        .unwrap();
        let r = eval_seminaive(&parsed.program, &Database::new()).unwrap();
        assert_eq!(r.db.len_of(Predicate::new("tc", 2)), 4); // aa ab ba bb
    }

    #[test]
    fn mutually_recursive_predicates() {
        // Even/odd distance from a.
        let parsed = parse(
            "
            e(a, b). e(b, c). e(c, d).
            even(a).
            odd(Y) :- even(X), e(X, Y).
            even(Y) :- odd(X), e(X, Y).
        ",
        )
        .unwrap();
        let r = eval_seminaive(&parsed.program, &Database::new()).unwrap();
        let even = Predicate::new("even", 1);
        let odd = Predicate::new("odd", 1);
        assert_eq!(r.db.len_of(even), 2); // a, c
        assert_eq!(r.db.len_of(odd), 2); // b, d
    }

    #[test]
    fn thread_count_changes_neither_relations_nor_metrics() {
        // Nonlinear same-generation: multiple rules and delta positions per
        // round, so work genuinely splits across workers.
        let parsed = parse(
            "
            up(a, b). up(c, b). flat(b, b2). up(x, b). down(b2, y).
            e(a, b). e(b, c). e(c, d).
            sg(X, Y) :- flat(X, Y).
            sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
            tc(X, Y) :- e(X, Y).
            tc(X, Y) :- tc(X, Z), tc(Z, Y).
        ",
        )
        .unwrap();
        let edb = Database::new();
        let seq = eval_seminaive(&parsed.program, &edb).unwrap();
        for threads in [2, 4, 8] {
            let par =
                eval_seminaive_opts(&parsed.program, &edb, EvalOptions::with_threads(threads))
                    .unwrap();
            assert_eq!(seq.metrics, par.metrics, "metrics @ {threads} threads");
            assert_eq!(seq.db.predicates(), par.db.predicates());
            for p in seq.db.predicates() {
                assert_eq!(seq.db.atoms_of(p), par.db.atoms_of(p), "{p} @ {threads}");
            }
        }
    }

    #[test]
    fn negated_idb_is_rejected_here_too() {
        let parsed = parse("q(a). p(X) :- q(X). r(X) :- q(X), !p(X).").unwrap();
        assert!(matches!(
            eval_seminaive(&parsed.program, &Database::new()),
            Err(EvalError::NegatedIdb(_))
        ));
    }

    #[test]
    fn edb_passed_externally() {
        let parsed = parse("tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y).").unwrap();
        let mut edb = Database::new();
        let e = Predicate::new("e", 2);
        for i in 0..20 {
            edb.insert(
                e,
                tuple_of_syms(&[&format!("n{i}"), &format!("n{}", i + 1)]),
            );
        }
        let r = eval_seminaive(&parsed.program, &edb).unwrap();
        assert_eq!(r.db.len_of(Predicate::new("tc", 2)), 20 * 21 / 2);
    }

    #[test]
    fn fact_budget_is_exact_sequentially() {
        let parsed = parse(TC).unwrap();
        let edb = Database::new();
        let full = eval_seminaive(&parsed.program, &edb).unwrap();
        let tc = Predicate::new("tc", 2);
        for budget in [1, 5, 10] {
            let limited = eval_seminaive_opts(
                &parsed.program,
                &edb,
                EvalOptions::default().with_budget(Budget::default().with_max_facts(budget)),
            )
            .unwrap();
            assert_eq!(
                limited.completion,
                Completion::BudgetExhausted {
                    resource: Resource::Facts
                }
            );
            assert_eq!(limited.db.len_of(tc), budget as usize);
            for row in limited.db.relation(tc).unwrap().iter() {
                assert!(full.db.relation(tc).unwrap().contains_row(row));
            }
        }
        // A budget the fixpoint exactly fits in must complete.
        let exact = eval_seminaive_opts(
            &parsed.program,
            &edb,
            EvalOptions::default()
                .with_budget(Budget::default().with_max_facts(full.metrics.new_facts)),
        )
        .unwrap();
        assert!(exact.completion.is_complete());
        assert_eq!(exact.db.len_of(tc), full.db.len_of(tc));
    }

    #[test]
    fn fact_budget_in_parallel_rounds_yields_sound_subset() {
        let parsed = parse(TC).unwrap();
        let edb = Database::new();
        let full = eval_seminaive(&parsed.program, &edb).unwrap();
        let tc = Predicate::new("tc", 2);
        for threads in [2, 4, 8] {
            let opts =
                EvalOptions::with_threads(threads).with_budget(Budget::default().with_max_facts(6));
            let limited = eval_seminaive_opts(&parsed.program, &edb, opts).unwrap();
            assert!(!limited.completion.is_complete(), "@ {threads} threads");
            assert!(limited.db.len_of(tc) <= 6);
            for row in limited.db.relation(tc).unwrap().iter() {
                assert!(full.db.relation(tc).unwrap().contains_row(row));
            }
        }
    }

    #[test]
    fn round_budget_limits_iterations() {
        let parsed = parse(TC).unwrap();
        let r = eval_seminaive_opts(
            &parsed.program,
            &Database::new(),
            EvalOptions::default().with_budget(Budget::default().with_max_rounds(2)),
        )
        .unwrap();
        assert_eq!(
            r.completion,
            Completion::BudgetExhausted {
                resource: Resource::Rounds
            }
        );
        assert_eq!(r.metrics.iterations, 2);
    }

    #[test]
    fn cancellation_mid_run_returns_partial() {
        let parsed = parse(TC).unwrap();
        let cancel = CancelHandle::new();
        cancel.cancel();
        let r = eval_seminaive_opts(
            &parsed.program,
            &Database::new(),
            EvalOptions::default().with_cancel(cancel),
        )
        .unwrap();
        assert_eq!(r.completion, Completion::Cancelled);
        assert_eq!(r.db.len_of(Predicate::new("tc", 2)), 0);
    }
}
