//! # alexander-topdown
//!
//! OLDT resolution — top-down evaluation with tabulation (Tamaki & Sato
//! 1986). This is the goal-directed strategy the Alexander templates
//! simulate bottom-up; the engine is instrumented so the call and answer
//! tables can be compared fact-for-fact with the `call_…` / `ans_…`
//! relations of the transformed program (the reproduced paper's power
//! theorem, experiment E3).
//!
//! ```
//! use alexander_parser::{parse, parse_atom};
//! use alexander_storage::Database;
//!
//! let parsed = parse("
//!     par(a, b). par(b, c).
//!     anc(X, Y) :- par(X, Y).
//!     anc(X, Y) :- par(X, Z), anc(Z, Y).
//! ").unwrap();
//! let edb = Database::from_program(&parsed.program);
//! let r = alexander_topdown::oldt_query(
//!     &parsed.program, &edb, &parse_atom("anc(a, X)").unwrap()).unwrap();
//! assert_eq!(r.answers.len(), 2);
//! assert_eq!(r.metrics.calls, 3); // anc(a,_), anc(b,_), anc(c,_)
//! ```

pub mod metrics;
pub mod oldt;
pub mod qsqr;
pub mod sld;

pub use metrics::OldtMetrics;
pub use oldt::{oldt_query, oldt_query_opts, OldtError, OldtOptions, OldtResult};
pub use qsqr::{qsqr_query, qsqr_query_opts, QsqrError, QsqrOptions, QsqrResult};
pub use sld::{sld_query, SldError, SldOptions, SldResult};

use alexander_ir::{Atom, FxHashMap, Literal, Rule, Term, Var};

/// Renames `rule`'s variables to fixed per-slot names `#0`, `#1`, … in
/// order of first occurrence. OLDT and QSQR hold one rule instance per
/// resolution node, resolved against ground answers and canonical calls
/// (whose variables are `_C…`), so one fixed name per slot keeps the
/// instance apart from everything it meets. The names are interned once
/// per process, not once per resolution step, so the symbol interner stays
/// bounded however many queries a long-running server answers. No parsed
/// program can contain them: the lexer's identifiers are alphanumeric or
/// `_`.
pub(crate) fn standardize(rule: &Rule) -> Rule {
    let mut slots: FxHashMap<Var, Var> = FxHashMap::default();
    let mut rename = |atom: &Atom| Atom {
        pred: atom.pred,
        terms: atom
            .terms
            .iter()
            .map(|&t| match t {
                Term::Const(_) => t,
                Term::Var(v) => {
                    let next = slots.len();
                    Term::Var(
                        *slots
                            .entry(v)
                            .or_insert_with(|| Var::new(&format!("#{next}"))),
                    )
                }
            })
            .collect(),
    };
    let head = rename(&rule.head);
    let body = rule
        .body
        .iter()
        .map(|l| Literal {
            atom: rename(&l.atom),
            polarity: l.polarity,
        })
        .collect();
    Rule { head, body }
}
