//! Naive bottom-up evaluation: apply every rule to the whole database until
//! saturation. The baseline every other strategy is measured against.

use crate::error::EvalError;
use crate::exec::{exec_plan, ExecScratch};
use crate::fail_point;
use crate::govern::{Budget, CancelHandle, Completion, Governor};
use crate::join::{compile_rule, ensure_rule_indexes, CompiledRule, Emitted, JoinInput};
use crate::metrics::EvalMetrics;
use crate::plan::compile_plans;
use alexander_ir::{Polarity, Program, Rule};
use alexander_storage::Database;

/// Evaluator knobs.
#[derive(Clone, Debug)]
pub struct EvalOptions {
    /// Build hash indexes for the masks rules probe. Turning this off forces
    /// every probe into a filtered scan (ablation E10).
    pub use_indexes: bool,
    /// Worker threads for the per-round rule fan-out in semi-naive
    /// evaluation (and everything layered on it: stratified strata,
    /// conditional phase 0). `0` or `1` means sequential; metrics are exact
    /// and identical to the sequential run at any thread count.
    pub threads: usize,
    /// Resource limits for the run; unlimited by default. On exhaustion the
    /// evaluator stops cleanly and reports [`Completion::BudgetExhausted`]
    /// on its (partial but well-formed) result.
    pub budget: Budget,
    /// Cooperative cancellation token: another thread calls
    /// [`CancelHandle::cancel`] and the run stops at its next governance
    /// check, reporting [`Completion::Cancelled`].
    pub cancel: Option<CancelHandle>,
}

impl Default for EvalOptions {
    fn default() -> EvalOptions {
        EvalOptions {
            use_indexes: true,
            threads: 1,
            budget: Budget::UNLIMITED,
            cancel: None,
        }
    }
}

impl EvalOptions {
    /// `Default` with the given thread count.
    pub fn with_threads(threads: usize) -> EvalOptions {
        EvalOptions {
            threads,
            ..EvalOptions::default()
        }
    }

    /// Builder: attach a resource budget.
    pub fn with_budget(mut self, budget: Budget) -> EvalOptions {
        self.budget = budget;
        self
    }

    /// Builder: attach a cancellation token.
    pub fn with_cancel(mut self, cancel: CancelHandle) -> EvalOptions {
        self.cancel = Some(cancel);
        self
    }

    /// Builds the run-time governor for one evaluation under these options.
    pub(crate) fn governor(&self) -> Governor {
        Governor::new(self.budget, self.cancel.clone())
    }
}

/// The outcome of a bottom-up run: the database (EDB + IDB) and the
/// counters. `completion` says whether `db` is the full fixpoint
/// ([`Completion::Complete`]) or a sound partial result cut short by a
/// budget or cancellation.
#[derive(Clone, Debug)]
pub struct EvalResult {
    pub db: Database,
    pub metrics: EvalMetrics,
    pub completion: Completion,
}

/// Checks that negations only touch extensional predicates (the soundness
/// condition for naive and semi-naive runs; stratified programs go through
/// [`crate::stratified`]).
pub(crate) fn check_semipositive(program: &Program) -> Result<(), EvalError> {
    let idb = program.idb_predicates();
    for r in &program.rules {
        for l in &r.body {
            if l.polarity == Polarity::Negative && idb.contains(&l.atom.predicate()) {
                return Err(EvalError::NegatedIdb(l.atom.predicate()));
            }
        }
    }
    Ok(())
}

/// Compiles every rule of `rules`, failing on the first unsafe one.
pub(crate) fn compile_rules<'a>(
    rules: impl IntoIterator<Item = &'a Rule>,
) -> Result<Vec<CompiledRule>, EvalError> {
    rules.into_iter().map(|r| Ok(compile_rule(r)?)).collect()
}

pub(crate) fn seed_database(program: &Program, edb: &Database) -> Database {
    let mut db = edb.clone();
    for f in &program.facts {
        // invariant: `Program::validate` (run by every caller) rejects
        // non-ground facts before evaluation starts.
        db.insert_atom(f).expect("validated facts are ground");
    }
    db
}

/// Runs naive evaluation of a semipositive `program` over `edb`.
pub fn eval_naive(program: &Program, edb: &Database) -> Result<EvalResult, EvalError> {
    eval_naive_opts(program, edb, EvalOptions::default())
}

/// [`eval_naive`] with explicit options.
pub fn eval_naive_opts(
    program: &Program,
    edb: &Database,
    opts: EvalOptions,
) -> Result<EvalResult, EvalError> {
    program.validate().map_err(EvalError::Invalid)?;
    check_semipositive(program)?;
    let rules = compile_rules(&program.rules)?;
    let mut db = seed_database(program, edb);
    let mut metrics = EvalMetrics::default();
    let plans = compile_plans(&rules, &mut metrics);
    let gov = opts.governor();
    let gov_ref = gov.as_join_ref();
    let mut exec_scratch = ExecScratch::new();

    loop {
        if gov.note_round().is_break() {
            break;
        }
        fail_point("round-start");
        metrics.iterations += 1;
        if opts.use_indexes {
            for r in &rules {
                ensure_rule_indexes(r, &mut db);
            }
        }
        // Naive semantics: T is applied to the *current* instant; staged
        // facts only become visible next round.
        let mut staged = Database::new();
        let mut interrupted = false;
        for plan in &plans {
            let head_pred = plan.head_pred;
            let input = JoinInput {
                governor: gov_ref,
                ..JoinInput::naive(&db)
            };
            let flow = exec_plan(
                plan,
                &input,
                &mut exec_scratch,
                &mut metrics,
                &mut |h, row| {
                    if db.contains_row_hashed(head_pred, h, row)
                        || staged.contains_row_hashed(head_pred, h, row)
                    {
                        Emitted::Duplicate
                    } else if gov.claim_fact().is_break() {
                        Emitted::Refused
                    } else {
                        staged.insert_row_hashed(head_pred, h, row);
                        Emitted::New
                    }
                },
            );
            if flow.is_break() {
                interrupted = true;
                break;
            }
        }
        // Facts staged before an interruption are sound: keep them in the
        // partial result.
        let grew = db.absorb_staged(&staged) > 0;
        if interrupted || !grew {
            break;
        }
    }
    Ok(EvalResult {
        db,
        metrics,
        completion: gov.completion(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::govern::Resource;
    use alexander_parser::parse;
    use alexander_storage::tuple_of_syms;

    fn run(src: &str) -> EvalResult {
        let parsed = parse(src).unwrap();
        let edb = Database::new();
        eval_naive(&parsed.program, &edb).unwrap()
    }

    #[test]
    fn transitive_closure_on_chain() {
        let r = run("
            e(a, b). e(b, c). e(c, d).
            tc(X, Y) :- e(X, Y).
            tc(X, Y) :- e(X, Z), tc(Z, Y).
        ");
        let tc = alexander_ir::Predicate::new("tc", 2);
        assert_eq!(r.db.len_of(tc), 6); // ab ac ad bc bd cd
        assert!(r
            .db
            .relation(tc)
            .unwrap()
            .contains(&tuple_of_syms(&["a", "d"])));
        assert!(r.completion.is_complete());
    }

    #[test]
    fn naive_iterations_track_chain_depth() {
        let r = run("
            e(a, b). e(b, c). e(c, d). e(d, e5).
            tc(X, Y) :- e(X, Y).
            tc(X, Y) :- e(X, Z), tc(Z, Y).
        ");
        // Depth-4 chain: tc grows for 4 rounds, +1 to detect saturation.
        assert!(r.metrics.iterations >= 4);
        assert!(r.metrics.duplicate_facts > 0, "naive re-derives facts");
    }

    #[test]
    fn semipositive_negation_on_edb_is_allowed() {
        let r = run("
            node(a). node(b). bad(b).
            good(X) :- node(X), !bad(X).
        ");
        let good = alexander_ir::Predicate::new("good", 1);
        assert_eq!(r.db.len_of(good), 1);
        assert!(r
            .db
            .relation(good)
            .unwrap()
            .contains(&tuple_of_syms(&["a"])));
    }

    #[test]
    fn negated_idb_is_rejected() {
        let parsed = parse(
            "
            p(X) :- q(X).
            r(X) :- q(X), !p(X).
            q(a).
        ",
        )
        .unwrap();
        let err = eval_naive(&parsed.program, &Database::new()).unwrap_err();
        assert!(matches!(err, EvalError::NegatedIdb(_)));
    }

    #[test]
    fn invalid_program_is_rejected() {
        let parsed = parse("p(X, Y) :- q(X).").unwrap();
        let err = eval_naive(&parsed.program, &Database::new()).unwrap_err();
        assert!(matches!(err, EvalError::Invalid(_)));
    }

    #[test]
    fn without_indexes_same_answers() {
        let parsed = parse(
            "
            e(a, b). e(b, c).
            tc(X, Y) :- e(X, Y).
            tc(X, Y) :- e(X, Z), tc(Z, Y).
        ",
        )
        .unwrap();
        let with = eval_naive(&parsed.program, &Database::new()).unwrap();
        let without = eval_naive_opts(
            &parsed.program,
            &Database::new(),
            EvalOptions {
                use_indexes: false,
                ..EvalOptions::default()
            },
        )
        .unwrap();
        let tc = alexander_ir::Predicate::new("tc", 2);
        assert_eq!(with.db.len_of(tc), without.db.len_of(tc));
    }

    #[test]
    fn empty_program_terminates_immediately() {
        let r = run("");
        assert_eq!(r.db.total_tuples(), 0);
        assert_eq!(r.metrics.iterations, 1);
    }

    #[test]
    fn facts_only_program() {
        let r = run("p(a). p(b).");
        assert_eq!(r.db.len_of(alexander_ir::Predicate::new("p", 1)), 2);
    }

    const TC: &str = "
        e(a, b). e(b, c). e(c, d). e(d, e5).
        tc(X, Y) :- e(X, Y).
        tc(X, Y) :- e(X, Z), tc(Z, Y).
    ";

    #[test]
    fn fact_budget_yields_strict_subset_and_exhausted() {
        let parsed = parse(TC).unwrap();
        let full = eval_naive(&parsed.program, &Database::new()).unwrap();
        let tc = alexander_ir::Predicate::new("tc", 2);
        let limited = eval_naive_opts(
            &parsed.program,
            &Database::new(),
            EvalOptions::default().with_budget(Budget::default().with_max_facts(3)),
        )
        .unwrap();
        assert_eq!(
            limited.completion,
            Completion::BudgetExhausted {
                resource: Resource::Facts
            }
        );
        assert_eq!(limited.db.len_of(tc), 3);
        assert!(limited.db.len_of(tc) < full.db.len_of(tc));
        for row in limited.db.relation(tc).unwrap().iter() {
            assert!(
                full.db.relation(tc).unwrap().contains_row(row),
                "subset violated"
            );
        }
    }

    #[test]
    fn exact_fact_budget_still_completes() {
        let parsed = parse(TC).unwrap();
        let full = eval_naive(&parsed.program, &Database::new()).unwrap();
        let derived = full.metrics.new_facts;
        let exact = eval_naive_opts(
            &parsed.program,
            &Database::new(),
            EvalOptions::default().with_budget(Budget::default().with_max_facts(derived)),
        )
        .unwrap();
        assert!(
            exact.completion.is_complete(),
            "a budget the fixpoint fits in must not report exhaustion"
        );
        assert_eq!(
            exact.db.len_of(alexander_ir::Predicate::new("tc", 2)),
            full.db.len_of(alexander_ir::Predicate::new("tc", 2))
        );
    }

    #[test]
    fn round_budget_stops_naive_loop() {
        let parsed = parse(TC).unwrap();
        let r = eval_naive_opts(
            &parsed.program,
            &Database::new(),
            EvalOptions::default().with_budget(Budget::default().with_max_rounds(1)),
        )
        .unwrap();
        assert_eq!(
            r.completion,
            Completion::BudgetExhausted {
                resource: Resource::Rounds
            }
        );
        assert_eq!(r.metrics.iterations, 1);
        // One naive round derives exactly the base tc facts.
        assert_eq!(r.db.len_of(alexander_ir::Predicate::new("tc", 2)), 4);
    }

    #[test]
    fn cancelled_before_start_yields_seed_only() {
        let parsed = parse(TC).unwrap();
        let cancel = CancelHandle::new();
        cancel.cancel();
        let r = eval_naive_opts(
            &parsed.program,
            &Database::new(),
            EvalOptions::default().with_cancel(cancel),
        )
        .unwrap();
        assert_eq!(r.completion, Completion::Cancelled);
        assert_eq!(r.db.len_of(alexander_ir::Predicate::new("tc", 2)), 0);
        assert_eq!(r.db.len_of(alexander_ir::Predicate::new("e", 2)), 4);
    }
}
