//! Differential property tests for incremental maintenance: random
//! insert/delete sequences applied in mixed batches must leave the counting
//! engine, the DRed-forced engine, and a from-scratch recompute (at one and
//! four evaluation threads) with bit-identical databases — and the counting
//! engine's support column must satisfy its invariant at every step:
//! support > 0 iff the fact is derivable, and for counted (non-recursive)
//! predicates the count equals the distinct rule firings over the final
//! database plus one when the fact is externally stored in the EDB.

use alexander_eval::{
    compile_plan, compile_rule, eval_seminaive_opts, exec_plan, Emitted, EvalMetrics, EvalOptions,
    ExecScratch, IncrementalEngine, JoinInput, Maintenance,
};
use alexander_ir::{Atom, Predicate, Program};
use alexander_parser::{parse, parse_atom};
use alexander_storage::{Database, Tuple};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Program templates spanning the maintenance regimes: purely counted
/// strata, a recursive SCC (DRed fallback inside the counting engine), and
/// a counted stratum layered over a recursive one.
const TEMPLATES: [(&str, &[&str]); 3] = [
    (
        // Multi-rule counted head plus a counted head joining itself: plenty
        // of alternative derivations, zero recursion.
        "j(X, Z) :- e(X, Y), f(Y, Z).
         j(X, Y) :- g(X, Y).
         top(X, Z) :- j(X, Y), j(Y, Z).",
        &["e", "f", "g"],
    ),
    (
        // The classic recursive SCC: every idb fact may support itself.
        "tc(X, Y) :- e(X, Y).
         tc(X, Y) :- e(X, Z), tc(Z, Y).",
        &["e"],
    ),
    (
        // Counted stratum over a recursive one: the cascade crosses a
        // DRed group into a counting group.
        "tc(X, Y) :- e(X, Y).
         tc(X, Y) :- e(X, Z), tc(Z, Y).
         pair(X, Z) :- tc(X, Y), f(Y, Z).",
        &["e", "f"],
    ),
];

/// Constants the random facts draw from. Small on purpose: collisions are
/// what exercise duplicate support, net-out batches, and rederivation.
const UNIVERSE: usize = 5;

fn fact(pred: &str, a: usize, b: usize) -> Atom {
    parse_atom(&format!("{pred}(n{a}, n{b})")).unwrap()
}

fn snapshot(db: &Database) -> Vec<String> {
    let mut out: Vec<String> = db
        .predicates()
        .into_iter()
        .flat_map(|p| db.atoms_of(p))
        .map(|a| a.to_string())
        .collect();
    out.sort();
    out
}

/// Rebuilds the reference EDB from the model set of fact strings.
fn model_db(model: &BTreeSet<String>) -> Database {
    let mut db = Database::new();
    for f in model {
        db.insert_atom(&parse_atom(f).unwrap()).unwrap();
    }
    db
}

/// The support invariant, checked through the public API only: every atom
/// over the universe has support > 0 exactly when it is in `oracle`, and
/// counted predicates carry the exact firing count (plus external storage).
fn check_supports(inc: &IncrementalEngine, program: &Program, oracle: &Database) {
    let db = inc.db();
    // Distinct firings per counted head fact, recomputed by one naive
    // executor pass per rule over the oracle database.
    let mut firings: std::collections::HashMap<String, u32> = std::collections::HashMap::new();
    let mut scratch = ExecScratch::new();
    let mut metrics = EvalMetrics::default();
    for rule in &program.rules {
        let compiled = compile_rule(rule).unwrap();
        if !inc.is_counted(compiled.head.pred) {
            continue;
        }
        let name = compiled.head.pred.name;
        let _ = exec_plan(
            &compile_plan(&compiled),
            &JoinInput::naive(oracle),
            &mut scratch,
            &mut metrics,
            &mut |_, row| {
                let atom = Tuple::new(row).to_atom(name);
                *firings.entry(atom.to_string()).or_insert(0) += 1;
                Emitted::New
            },
        );
    }
    let edb = inc.edb();
    let mut preds: Vec<Predicate> = oracle.predicates();
    preds.extend(db.predicates());
    preds.sort();
    preds.dedup();
    for p in preds {
        for a in 0..UNIVERSE {
            for b in 0..UNIVERSE {
                let atom = fact(&p.name.to_string(), a, b);
                let support = inc.support_of(&atom);
                assert_eq!(
                    support > 0,
                    oracle.contains_atom(&atom),
                    "{atom}: support {support} disagrees with derivability"
                );
                if inc.is_counted(p) && support > 0 {
                    let external = u32::from(edb.contains_atom(&atom));
                    let expected = firings.get(&atom.to_string()).copied().unwrap_or(0) + external;
                    assert_eq!(support, expected, "{atom}: support drifted");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_update_batches_keep_all_engines_identical(
        template in 0usize..TEMPLATES.len(),
        ops in proptest::collection::vec(
            (proptest::bool::ANY, 0usize..8, 0usize..UNIVERSE, 0usize..UNIVERSE),
            1..40,
        ),
        batch in 1usize..6,
    ) {
        let (rules, edb_preds) = TEMPLATES[template];
        let program = parse(rules).unwrap().program;
        let mut model: BTreeSet<String> = BTreeSet::new();
        let mut counting =
            IncrementalEngine::with_mode(program.clone(), Database::new(), Maintenance::Counting)
                .unwrap();
        let mut dred =
            IncrementalEngine::with_mode(program.clone(), Database::new(), Maintenance::Dred)
                .unwrap();
        for chunk in ops.chunks(batch) {
            let batch_ops: Vec<(bool, Atom)> = chunk
                .iter()
                .map(|&(insert, p, a, b)| (insert, fact(edb_preds[p % edb_preds.len()], a, b)))
                .collect();
            for (insert, atom) in &batch_ops {
                if *insert {
                    model.insert(atom.to_string());
                } else {
                    model.remove(&atom.to_string());
                }
            }
            counting.apply_batch(&batch_ops).unwrap();
            dred.apply_batch(&batch_ops).unwrap();

            let edb = model_db(&model);
            let seq = eval_seminaive_opts(&program, &edb, EvalOptions::with_threads(1))
                .unwrap()
                .db;
            let par = eval_seminaive_opts(&program, &edb, EvalOptions::with_threads(4))
                .unwrap()
                .db;
            let expected = snapshot(&seq);
            prop_assert_eq!(&snapshot(&par), &expected, "parallel recompute diverged");
            prop_assert_eq!(&snapshot(counting.db()), &expected, "counting diverged");
            prop_assert_eq!(&snapshot(dred.db()), &expected, "dred diverged");
            check_supports(&counting, &program, &seq);
        }
    }
}
