//! Property tests over *randomly generated programs* (not just random data):
//! evaluator agreement on definite programs, and the stratification
//! hierarchy theorems from the analysis layer.
//!
//! Every bottom-up evaluator runs rule bodies through the one executor, so
//! each property keeps one *independent* oracle: naive evaluation (a
//! separate fixpoint loop) for the semi-naive engine across thread counts
//! and budgets, and OLDT (separate top-down code) for the models, with and
//! without stratified negation.

use alexander_eval::{
    eval_conditional, eval_naive, eval_naive_parallel_opts, eval_seminaive, eval_seminaive_opts,
    eval_stratified, eval_stratified_opts, Budget, Completion, EvalOptions, Resource,
};
use alexander_ir::analysis::{locally_stratified, loosely_stratified, stratify};
use alexander_ir::{Atom, Literal, Polarity, Predicate, Program, Rule, Term};
use alexander_storage::Database;
use alexander_topdown::oldt_query;
use alexander_transform::{alexander, query_answers, sup_magic_sets, SipOptions};
use proptest::prelude::*;

const CONSTS: [&str; 4] = ["a", "b", "c", "d"];
const VARS: [&str; 4] = ["X", "Y", "Z", "W"];

/// A random *safe* rule: body literals are generated first; the head only
/// uses variables bound by positive body literals (or constants), and
/// negative literals only use bound variables, so every rule is
/// range-restricted by construction.
fn safe_rule(
    idb: &'static [(&'static str, usize)],
    edb: &'static [(&'static str, usize)],
    allow_negation: bool,
) -> impl Strategy<Value = Rule> {
    let term = prop_oneof![
        (0..CONSTS.len()).prop_map(|i| Term::sym(CONSTS[i])),
        (0..VARS.len()).prop_map(|i| Term::var(VARS[i])),
    ];
    let body_atom = (
        0..(idb.len() + edb.len()),
        proptest::collection::vec(term, 2),
    )
        .prop_map(move |(pi, ts)| {
            let (name, arity) = if pi < idb.len() {
                idb[pi]
            } else {
                edb[pi - idb.len()]
            };
            Atom::new(name, ts.into_iter().take(arity).collect())
        });
    let lit = (body_atom, proptest::bool::ANY).prop_map(move |(a, neg)| Literal {
        atom: a,
        polarity: if neg && allow_negation {
            Polarity::Negative
        } else {
            Polarity::Positive
        },
    });
    (
        0..idb.len(),
        proptest::collection::vec(lit, 1..4),
        proptest::collection::vec(0..(CONSTS.len() + VARS.len()), 2),
    )
        .prop_map(move |(hi, mut body, head_picks)| {
            // Variables bound by positive body literals.
            let bound: Vec<_> = body
                .iter()
                .filter(|l| l.is_positive())
                .flat_map(|l| l.vars())
                .collect();
            // Repair negative literals: replace unbound variables by a
            // constant (keeps the rule safe without discarding the case).
            for l in &mut body {
                if l.is_negative() {
                    for t in &mut l.atom.terms {
                        if let Term::Var(v) = t {
                            if !bound.contains(v) {
                                *t = Term::sym(CONSTS[0]);
                            }
                        }
                    }
                }
            }
            let (name, arity) = idb[hi];
            let head_terms: Vec<Term> = head_picks
                .into_iter()
                .take(arity)
                .map(|p| {
                    if p < CONSTS.len() {
                        Term::sym(CONSTS[p])
                    } else if let Some(v) = bound.get(p - CONSTS.len()) {
                        Term::Var(*v)
                    } else if let Some(v) = bound.first() {
                        Term::Var(*v)
                    } else {
                        Term::sym(CONSTS[1])
                    }
                })
                .collect();
            // Pad arity if the picks vector was short.
            let mut head_terms = head_terms;
            while head_terms.len() < arity {
                head_terms.push(Term::sym(CONSTS[2]));
            }
            Rule::new(Atom::new(name, head_terms), body)
        })
}

const IDB: &[(&str, usize)] = &[("p", 2), ("q", 1), ("r", 2)];
const EDB: &[(&str, usize)] = &[("e", 2), ("f", 1)];

fn definite_program() -> impl Strategy<Value = Program> {
    proptest::collection::vec(safe_rule(IDB, EDB, false), 1..6).prop_map(Program::from_rules)
}

fn negation_program() -> impl Strategy<Value = Program> {
    proptest::collection::vec(safe_rule(IDB, EDB, true), 1..6).prop_map(Program::from_rules)
}

fn random_edb() -> impl Strategy<Value = Database> {
    (
        proptest::collection::vec((0..CONSTS.len(), 0..CONSTS.len()), 0..8),
        proptest::collection::vec(0..CONSTS.len(), 0..4),
    )
        .prop_map(|(es, fs)| {
            let mut db = Database::new();
            for (a, b) in es {
                db.insert(
                    Predicate::new("e", 2),
                    alexander_storage::Tuple::new(vec![
                        alexander_ir::Const::sym(CONSTS[a]),
                        alexander_ir::Const::sym(CONSTS[b]),
                    ]),
                );
            }
            for a in fs {
                db.insert(
                    Predicate::new("f", 1),
                    alexander_storage::Tuple::new(vec![alexander_ir::Const::sym(CONSTS[a])]),
                );
            }
            db
        })
}

/// The answers to `query` over `program` according to OLDT, sorted.
fn oldt_answers(program: &Program, edb: &Database, query: &Atom) -> Vec<String> {
    let oldt = oldt_query(program, edb, query).unwrap();
    let mut got: Vec<String> = oldt.answers.iter().map(|a| a.to_string()).collect();
    got.sort();
    got.dedup();
    got
}

/// The first intensional predicate of `program` whose all-free OLDT query
/// answers differ from its extension in `model`, if any.
fn oldt_disagreement(program: &Program, edb: &Database, model: &Database) -> Option<Predicate> {
    IDB.iter().find_map(|&(name, arity)| {
        let pred = Predicate::new(name, arity);
        if !program.is_idb(pred) {
            return None;
        }
        let query = Atom::new(name, VARS[..arity].iter().map(|v| Term::var(v)).collect());
        let mut want: Vec<String> = model.atoms_of(pred).iter().map(|a| a.to_string()).collect();
        want.sort();
        (oldt_answers(program, edb, &query) != want).then_some(pred)
    })
}

fn db_snapshot(db: &Database) -> Vec<String> {
    let mut out: Vec<String> = db
        .predicates()
        .into_iter()
        .flat_map(|p| db.atoms_of(p))
        .map(|a| a.to_string())
        .collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All four bottom-up evaluators compute the same model on definite
    /// programs.
    #[test]
    fn evaluators_agree_on_definite_programs(
        program in definite_program(),
        edb in random_edb(),
    ) {
        prop_assume!(program.validate().is_ok());
        let naive = eval_naive(&program, &edb).unwrap();
        let semi = eval_seminaive(&program, &edb).unwrap();
        let strat = eval_stratified(&program, &edb).unwrap();
        let cond = eval_conditional(&program, &edb).unwrap();
        prop_assert!(cond.is_total());
        let want = db_snapshot(&naive.db);
        prop_assert_eq!(&db_snapshot(&semi.db), &want, "seminaive differs");
        prop_assert_eq!(&db_snapshot(&strat.db), &want, "stratified differs");
        prop_assert_eq!(&db_snapshot(&cond.db), &want, "conditional differs");
    }

    /// OLDT answers every query exactly like the materialised model.
    #[test]
    fn oldt_agrees_with_bottom_up_on_definite_programs(
        program in definite_program(),
        edb in random_edb(),
    ) {
        prop_assume!(program.validate().is_ok());
        let semi = eval_seminaive(&program, &edb).unwrap();
        prop_assert_eq!(oldt_disagreement(&program, &edb, &semi.db), None);
    }

    /// Bry's hierarchy, one direction each:
    /// stratified ⇒ loosely stratified ⇒ locally stratified (over any EDB).
    #[test]
    fn stratification_hierarchy(
        program in negation_program(),
        edb in random_edb(),
    ) {
        prop_assume!(program.validate().is_ok());
        let strat = stratify(&program).is_ok();
        let loose = loosely_stratified(&program).is_ok();
        if strat {
            prop_assert!(loose, "stratified program failed the loose test:\n{}", program);
        }
        if loose {
            // Fold the EDB into inline facts for the ground check.
            let mut with_facts = program.clone();
            for p in edb.predicates() {
                with_facts.facts.extend(edb.atoms_of(p));
            }
            prop_assert!(
                locally_stratified(&with_facts, &[]).is_ok(),
                "loosely stratified program failed the ground check:\n{}",
                program
            );
        }
    }

    /// Parallel semi-naive produces identical relations AND identical
    /// facts-derived metrics at 1, 2, 4 and 8 threads on random definite
    /// programs.
    #[test]
    fn parallel_seminaive_is_exact_on_definite_programs(
        program in definite_program(),
        edb in random_edb(),
    ) {
        prop_assume!(program.validate().is_ok());
        let seq = eval_seminaive(&program, &edb).unwrap();
        for threads in [1usize, 2, 4, 8] {
            let par =
                eval_seminaive_opts(&program, &edb, EvalOptions::with_threads(threads)).unwrap();
            prop_assert_eq!(&db_snapshot(&par.db), &db_snapshot(&seq.db),
                "relations differ at {} threads", threads);
            prop_assert_eq!(par.metrics, seq.metrics,
                "metrics differ at {} threads", threads);
        }
    }

    /// The same exactness holds through stratified negation: random stratified
    /// programs evaluate to the same model with the same counters at any
    /// thread count.
    #[test]
    fn parallel_stratified_is_exact_on_stratified_programs(
        program in negation_program(),
        edb in random_edb(),
    ) {
        prop_assume!(program.validate().is_ok());
        prop_assume!(stratify(&program).is_ok());
        let seq = eval_stratified(&program, &edb).unwrap();
        for threads in [2usize, 4, 8] {
            let par =
                eval_stratified_opts(&program, &edb, EvalOptions::with_threads(threads)).unwrap();
            prop_assert_eq!(&db_snapshot(&par.db), &db_snapshot(&seq.db),
                "relations differ at {} threads", threads);
            prop_assert_eq!(par.metrics, seq.metrics,
                "metrics differ at {} threads", threads);
        }
    }

    /// Semi-naive evaluation is exact against its oracles on random
    /// definite programs, for the base program and its Alexander and
    /// supplementary-magic rewritings: at {1, 4} threads × {budget, no
    /// budget} every run computes naive evaluation's model with identical
    /// counters, and the query's answers equal OLDT's on the base program.
    /// The budget leg uses a non-binding budget — binding budgets
    /// legitimately truncate, and their soundness is covered by the budget
    /// properties below.
    #[test]
    fn seminaive_matches_naive_and_oldt_across_strategies_threads_and_budgets(
        program in definite_program(),
        edb in random_edb(),
    ) {
        prop_assume!(program.validate().is_ok());
        let q = Atom::new("p", vec![Term::var("X"), Term::var("Y")]);
        let opts = SipOptions::default();
        let want_answers = if program.is_idb(q.predicate()) {
            Some(oldt_answers(&program, &edb, &q))
        } else {
            None
        };
        let mut strategies: Vec<(&str, Program, Atom)> =
            vec![("base", program.clone(), q.clone())];
        if let Ok(r) = alexander(&program, &q, opts) {
            strategies.push(("alexander", r.program, r.query));
        }
        if let Ok(r) = sup_magic_sets(&program, &q, opts) {
            strategies.push(("supmagic", r.program, r.query));
        }
        for (sname, prog, answer_pattern) in &strategies {
            let want = db_snapshot(&eval_naive(prog, &edb).unwrap().db);
            let first = eval_seminaive(prog, &edb).unwrap();
            let budgets = [None, Some(Budget::default().with_max_facts(u64::MAX))];
            for threads in [1usize, 4] {
                for budget in budgets {
                    let mut o = EvalOptions::with_threads(threads);
                    if let Some(b) = budget {
                        o = o.with_budget(b);
                    }
                    let r = eval_seminaive_opts(prog, &edb, o).unwrap();
                    prop_assert!(r.completion.is_complete(),
                        "{}/{} threads: non-binding budget cut the run", sname, threads);
                    prop_assert_eq!(&db_snapshot(&r.db), &want,
                        "{}/{} threads/budget {}: model differs from naive",
                        sname, threads, budget.is_some());
                    prop_assert_eq!(&r.metrics, &first.metrics,
                        "{}/{} threads/budget {}: counters differ",
                        sname, threads, budget.is_some());
                }
            }
            if let Some(want_answers) = &want_answers {
                let mut got: Vec<String> = query_answers(&first.db, answer_pattern)
                    .into_iter()
                    .map(|a| Atom { pred: q.pred, terms: a.terms }.to_string())
                    .collect();
                got.sort();
                got.dedup();
                prop_assert_eq!(&got, want_answers, "{}: answers differ from OLDT", sname);
            }
        }
    }

    /// A fact budget never invents facts: whatever a budgeted run derives is
    /// a subset of the unbudgeted fixpoint, on every evaluator and at every
    /// thread count (parallel runs may refuse a different subset, but never
    /// an unsound one).
    #[test]
    fn fact_budgeted_runs_are_sound_subsets(
        program in definite_program(),
        edb in random_edb(),
        max_facts in 1u64..6,
    ) {
        prop_assume!(program.validate().is_ok());
        let full = db_snapshot(&eval_seminaive(&program, &edb).unwrap().db);
        let budget = Budget::default().with_max_facts(max_facts);
        let mut results = vec![(
            "naive",
            alexander_eval::eval_naive_opts(
                &program, &edb, EvalOptions::default().with_budget(budget)).unwrap(),
        )];
        for threads in [1usize, 4] {
            results.push((
                "seminaive",
                eval_seminaive_opts(
                    &program, &edb,
                    EvalOptions::with_threads(threads).with_budget(budget)).unwrap(),
            ));
            results.push((
                "parallel-naive",
                eval_naive_parallel_opts(
                    &program, &edb,
                    &EvalOptions::with_threads(threads).with_budget(budget)).unwrap(),
            ));
        }
        for (name, r) in results {
            let part = db_snapshot(&r.db);
            for f in &part {
                prop_assert!(full.contains(f), "{name}: {f} not in the fixpoint");
            }
            if r.completion.is_complete() {
                prop_assert_eq!(&part, &full, "{} complete but smaller", name);
            }
        }
    }

    /// Sequential fact budgeting is *exact*: the run reports
    /// `BudgetExhausted(Facts)` precisely when the budget actually cut the
    /// fixpoint short (strict subset), and `Complete` precisely when it
    /// reached the full model.
    #[test]
    fn sequential_fact_exhaustion_iff_strict_subset(
        program in definite_program(),
        edb in random_edb(),
        max_facts in 1u64..8,
    ) {
        prop_assume!(program.validate().is_ok());
        let full = db_snapshot(&eval_seminaive(&program, &edb).unwrap().db);
        let r = eval_seminaive_opts(
            &program, &edb,
            EvalOptions::default().with_budget(Budget::default().with_max_facts(max_facts)),
        ).unwrap();
        let part = db_snapshot(&r.db);
        let strict = part.len() < full.len();
        match r.completion {
            Completion::Complete =>
                prop_assert!(!strict, "complete run missed {} facts", full.len() - part.len()),
            Completion::BudgetExhausted { resource: Resource::Facts } =>
                prop_assert!(strict, "exhausted run actually reached the fixpoint"),
            other => prop_assert!(false, "unexpected completion {:?}", other),
        }
    }

    /// Partial results are resumable: feeding a budget-cut database back in
    /// as the EDB and evaluating without a budget lands on exactly the
    /// fixpoint of the original run.
    #[test]
    fn resuming_a_partial_result_reaches_the_same_fixpoint(
        program in definite_program(),
        edb in random_edb(),
        max_facts in 1u64..4,
    ) {
        prop_assume!(program.validate().is_ok());
        let full = db_snapshot(&eval_seminaive(&program, &edb).unwrap().db);
        let partial = eval_seminaive_opts(
            &program, &edb,
            EvalOptions::default().with_budget(Budget::default().with_max_facts(max_facts)),
        ).unwrap();
        let resumed = eval_seminaive(&program, &partial.db).unwrap();
        prop_assert_eq!(db_snapshot(&resumed.db), full);
    }

    /// OLDT with stratified negation answers every query exactly like the
    /// perfect model: the independent top-down check of the stratified and
    /// conditional evaluators, which share one executor.
    #[test]
    fn oldt_agrees_with_stratified_on_stratified_programs(
        program in negation_program(),
        edb in random_edb(),
    ) {
        prop_assume!(program.validate().is_ok());
        prop_assume!(stratify(&program).is_ok());
        let strat = eval_stratified(&program, &edb).unwrap();
        prop_assert_eq!(oldt_disagreement(&program, &edb, &strat.db), None);
    }

    /// The conditional fixpoint agrees with stratified evaluation whenever
    /// the program stratifies.
    #[test]
    fn conditional_matches_stratified_when_stratified(
        program in negation_program(),
        edb in random_edb(),
    ) {
        prop_assume!(program.validate().is_ok());
        prop_assume!(stratify(&program).is_ok());
        let strat = eval_stratified(&program, &edb).unwrap();
        let cond = eval_conditional(&program, &edb).unwrap();
        prop_assert!(cond.is_total(), "stratified program left residue");
        prop_assert_eq!(db_snapshot(&strat.db), db_snapshot(&cond.db));
    }
}
