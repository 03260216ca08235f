//! F7 (figure): rule-executor throughput.
//!
//! Each row evaluates one program semi-naively through the executor —
//! compiled rule plans driven over fixed-size binding blocks, each derived
//! head row hashed once — and reports facts/sec, mean block occupancy and
//! heap allocations per derived fact. Before any timing is reported, every
//! rep's model is asserted equal to naive evaluation's (an independent
//! fixpoint loop over the same executor) and every rep's counters equal the
//! first rep's, so the number measures a run known to be right.
//!
//! The committed `BENCH_F7.json` records a `--release` run; the CI
//! perf-smoke job re-runs `chain(450)/seminaive` and fails on a >20%
//! facts/sec regression against it.

use crate::table::{ms, timed, Table};
use alexander_eval::{eval_naive, eval_seminaive};
use alexander_ir::Program;
use alexander_parser::parse_atom;
use alexander_storage::Database;
use alexander_transform::{alexander, sup_magic_sets, SipOptions};
use alexander_workload as workload;
use std::time::Duration;

/// Timing repetitions per row; the minimum is reported.
const REPS: usize = 3;

pub fn run() -> Table {
    run_with(450, 12, 250, REPS)
}

/// Parameterised run (tests use small sizes and one repetition).
pub fn run_with(chain_n: usize, tree_depth: usize, crossover_n: usize, reps: usize) -> Table {
    let mut t = Table::new(
        "F7",
        "figure: rule-executor throughput",
        "Each row evaluates the program semi-naively through compiled rule \
         plans driven in 1024-row binding blocks, probing the projection \
         indexes with a single in-place hash per key and hashing each \
         derived head exactly once for the contains/insert/dedup triple. \
         Every rep's model is asserted equal to naive evaluation's and its \
         counters equal to the first rep's before timing is reported. \
         `rows_per_block` is the mean block occupancy; `allocs_per_fact` \
         counts heap allocation events per derived fact via the counting \
         global allocator. The committed BENCH_F7.json is the CI \
         perf-smoke baseline for chain/seminaive facts/sec.",
        &[
            "workload",
            "strategy",
            "facts",
            "rounds",
            "firings",
            "ms",
            "facts_per_sec",
            "rows_per_block",
            "allocs_per_fact",
        ],
    );

    let chain = workload::chain("par", chain_n);
    let (tree, _) = workload::tree("par", 2, tree_depth);
    let crossover = workload::chain("par", crossover_n);
    let anc = workload::ancestor();

    let cases: Vec<(String, &Database, &str)> = vec![
        (format!("chain({chain_n})"), &chain, "anc(n0, X)"),
        (format!("tree(2,{tree_depth})"), &tree, "anc(n0, X)"),
        // Free query: wide deltas, the executor's best case — every block
        // runs near capacity.
        (format!("crossover({crossover_n})"), &crossover, "anc(X, Y)"),
    ];

    for (name, edb, query) in &cases {
        let q = parse_atom(query).unwrap();
        let opts = SipOptions::default();
        let strategies: Vec<(&str, Program)> = vec![
            ("seminaive", anc.clone()),
            ("alexander", alexander(&anc, &q, opts).unwrap().program),
            ("supmagic", sup_magic_sets(&anc, &q, opts).unwrap().program),
        ];
        for (sname, program) in strategies {
            t.row(case_row(name, sname, &program, edb, reps));
        }
    }
    t
}

/// True iff `a` and `b` hold exactly the same facts.
fn same_model(a: &Database, b: &Database) -> bool {
    a.total_tuples() == b.total_tuples()
        && a.iter().all(|(p, rel)| {
            b.relation(p).is_some_and(|other| {
                other.len() == rel.len() && rel.iter().all(|row| other.contains_row(row))
            })
        })
}

fn case_row(
    workload: &str,
    strategy: &str,
    program: &Program,
    edb: &Database,
    reps: usize,
) -> Vec<String> {
    let oracle = eval_naive(program, edb).unwrap().db;
    let mut best = Duration::MAX;
    let mut allocs = 0u64;
    let mut first: Option<alexander_eval::EvalMetrics> = None;

    for _ in 0..reps.max(1) {
        let a0 = crate::alloc::allocations();
        let (run, d) = timed(|| eval_seminaive(program, edb).unwrap());
        allocs = crate::alloc::allocations() - a0;
        best = best.min(d);
        assert!(
            same_model(&run.db, &oracle),
            "{workload}/{strategy}: semi-naive model differs from naive"
        );
        assert!(
            run.metrics.exec.blocks_executed > 0,
            "{workload}/{strategy}: the run executed no blocks"
        );
        match &first {
            Some(m) => assert_eq!(
                m, &run.metrics,
                "{workload}/{strategy}: counters differ between reps"
            ),
            None => first = Some(run.metrics),
        }
    }

    // invariant: the loop above runs at least once.
    let m = first.expect("at least one rep");
    let facts = m.new_facts;
    let fps = facts as f64 / best.as_secs_f64().max(1e-9);
    vec![
        workload.to_string(),
        strategy.to_string(),
        facts.to_string(),
        m.iterations.to_string(),
        m.firings.to_string(),
        ms(best),
        format!("{fps:.0}"),
        format!("{:.1}", m.exec.rows_per_block()),
        format!("{:.1}", allocs as f64 / (facts as f64).max(1.0)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn models_match_naive_and_table_is_well_formed() {
        // `case_row` asserts each model against naive evaluation; surviving
        // the run is the differential check. Small sizes keep the debug
        // build fast.
        let t = run_with(60, 6, 40, 2);
        assert_eq!(t.rows.len(), 9);
        for row in &t.rows {
            let facts: u64 = row[2].parse().unwrap();
            assert!(facts > 0, "{row:?}");
            let fps: f64 = row[6].parse().unwrap();
            assert!(fps > 0.0, "{row:?}");
            let occupancy: f64 = row[7].parse().unwrap();
            assert!(occupancy > 0.0, "{row:?}");
        }
    }

    #[test]
    fn same_model_compares_facts_not_order() {
        let mut a = Database::new();
        let mut b = Database::new();
        let e = alexander_ir::Predicate::new("e", 2);
        let x = alexander_storage::tuple_of_syms(&["x", "y"]);
        let y = alexander_storage::tuple_of_syms(&["y", "z"]);
        a.insert(e, x.clone());
        a.insert(e, y.clone());
        b.insert(e, y);
        assert!(!same_model(&a, &b));
        b.insert(e, x);
        assert!(same_model(&a, &b));
    }
}
