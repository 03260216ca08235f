//! Top-down queries must not grow the process-wide symbol interner: a
//! long-running server answers OLDT and QSQR queries indefinitely, and every
//! interned name lives until the process exits. After one warm-up query per
//! engine, repeated queries must intern nothing — `Symbol::fresh` hands out
//! the id right after the previous probe's.
//!
//! This file holds exactly one test so no other test shares its interner.

use alexander_ir::Symbol;
use alexander_parser::parse_atom;
use alexander_topdown::{oldt_query, qsqr_query};
use alexander_workload as workload;

#[test]
fn repeated_oldt_and_qsqr_queries_intern_no_symbols() {
    let program = workload::ancestor();
    let edb = workload::chain("par", 16);
    let queries = [
        parse_atom("anc(n0, X)").unwrap(),
        parse_atom("anc(X, n9)").unwrap(),
        parse_atom("anc(X, Y)").unwrap(),
    ];
    let run = |q| {
        let oldt = oldt_query(&program, &edb, q).unwrap();
        let qsqr = qsqr_query(&program, &edb, q).unwrap();
        assert_eq!(oldt.answers.len(), qsqr.answers.len(), "{q}");
    };
    for q in &queries {
        run(q);
    }
    let p0 = Symbol::fresh("probe").id();
    for i in 0..200 {
        run(&queries[i % queries.len()]);
    }
    assert_eq!(
        Symbol::fresh("probe").id(),
        p0 + 1,
        "top-down queries interned new symbols"
    );
}
