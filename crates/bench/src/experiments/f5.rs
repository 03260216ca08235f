//! F5 (figure): governance overhead — a governed-but-never-tripped run vs
//! the ungoverned baseline.
//!
//! The resource governor sits on the hottest path in the system (the rule
//! executor's emission sink: a claim per firing under a step budget, a
//! look per binding block otherwise), so
//! its cost when budgets are generous must be negligible: the `active: bool`
//! fast path reduces an absent budget to one branch, and a present-but-
//! roomy budget to a couple of relaxed atomic updates amortised over the
//! deadline stride. This experiment pins that claim with numbers: each
//! workload/strategy pair runs ungoverned and then under a budget orders of
//! magnitude larger than what the run consumes, best-of-N each, and the
//! table reports the relative overhead. The committed `BENCH_F5.json`
//! records a `--release` run; the acceptance bar is < 5% overhead. (The
//! bar was < 2% on the earlier tuple-at-a-time executor; the blocked one cut
//! the per-fact baseline ~1.6×, so the constant per-fact claim is now a
//! proportionally larger slice of a much shorter run.)

use crate::table::{ms, timed, Table};
use alexander_core::eval::Budget;
use alexander_core::{Engine, Strategy};
use alexander_parser::parse_atom;
use alexander_workload as workload;
use std::time::Duration;

/// Timing repetitions; bare and governed runs are interleaved and the
/// minimum of each is reported (least-noise estimator).
const REPS: usize = 25;

pub fn run() -> Table {
    run_with(450, 250, REPS)
}

/// Parameterised run (tests use small sizes and fewer reps).
pub fn run_with(chain_n: usize, crossover_n: usize, reps: usize) -> Table {
    let mut t = Table::new(
        "F5",
        "figure: governance overhead, governed-but-unhit vs ungoverned",
        "Same workloads and strategies as the F4 sweep, sequential rounds. \
         `governed` attaches a budget far above what the run consumes \
         (nothing ever trips), `ungoverned` attaches none. Each repetition \
         times the two back-to-back in alternating order and records their \
         ratio; the reported overhead is the median ratio (adjacent pairing \
         plus the median cancels machine drift and turbo effects; small \
         negative values are noise). The per-firing governor check is one \
         status load plus one relaxed counter bump, with cancellation and \
         the deadline amortised over a 1024-firing stride, so overhead must \
         stay within a few percent (< 5% since the blocked executor \
         shortened the per-fact baseline) — this table is the regression \
         tripwire for that bound.",
        &[
            "workload",
            "strategy",
            "answers",
            "facts",
            "ungoverned_ms",
            "governed_ms",
            "overhead_pct",
        ],
    );

    // A budget no run here comes near: the chain(450) closure derives ~102k
    // facts in ~450 rounds; give two orders of magnitude of headroom.
    let roomy = Budget::default()
        .with_timeout_ms(600_000)
        .with_max_facts(50_000_000)
        .with_max_rounds(1_000_000);

    let chain = workload::chain("par", chain_n);
    let crossover = workload::chain("par", crossover_n);
    let cases: Vec<(String, &alexander_storage::Database, &str, Strategy)> = vec![
        (
            format!("chain({chain_n})"),
            &chain,
            "anc(n0, X)",
            Strategy::Alexander,
        ),
        (
            format!("chain({chain_n})"),
            &chain,
            "anc(n0, X)",
            Strategy::SemiNaive,
        ),
        (
            format!("crossover({crossover_n})"),
            &crossover,
            "anc(X, Y)",
            Strategy::Alexander,
        ),
        (
            format!("crossover({crossover_n})"),
            &crossover,
            "anc(X, Y)",
            Strategy::SemiNaive,
        ),
    ];

    for (name, edb, query, strategy) in cases {
        let q = parse_atom(query).unwrap();
        let bare = Engine::new(workload::ancestor(), (*edb).clone()).unwrap();
        let governed = Engine::new(workload::ancestor(), (*edb).clone())
            .unwrap()
            .with_budget(roomy);

        let mut best_bare = Duration::MAX;
        let mut best_gov = Duration::MAX;
        let mut ratios: Vec<f64> = Vec::with_capacity(reps);
        let mut reference: Option<alexander_core::QueryResult> = None;
        for rep in 0..reps.max(1) {
            // Alternate which variant runs first so warm-up and turbo
            // effects do not systematically favour one side.
            let (r, d_bare, g, d_gov) = if rep % 2 == 0 {
                let (r, db) = timed(|| bare.query(&q, strategy).unwrap());
                let (g, dg) = timed(|| governed.query(&q, strategy).unwrap());
                (r, db, g, dg)
            } else {
                let (g, dg) = timed(|| governed.query(&q, strategy).unwrap());
                let (r, db) = timed(|| bare.query(&q, strategy).unwrap());
                (r, db, g, dg)
            };
            best_bare = best_bare.min(d_bare);
            best_gov = best_gov.min(d_gov);
            ratios.push(d_gov.as_secs_f64() / d_bare.as_secs_f64().max(1e-9));
            // A never-tripped budget must be invisible in the results.
            assert!(g.report.completion.is_complete(), "{name}/{strategy}");
            assert_eq!(g.answers, r.answers, "{name}/{strategy}");
            assert_eq!(g.report.eval, r.report.eval, "{name}/{strategy}");
            reference = Some(r);
        }
        // invariant: reps.max(1) ran the loop at least once.
        let r = reference.expect("at least one timed repetition");
        ratios.sort_by(|a, b| a.total_cmp(b));
        let overhead = ratios[ratios.len() / 2] - 1.0;
        t.row(vec![
            name.clone(),
            strategy.name().to_string(),
            r.answers.len().to_string(),
            r.report.facts_materialised.to_string(),
            ms(best_bare),
            ms(best_gov),
            format!("{:+.2}", overhead * 100.0),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn governed_runs_match_ungoverned_results() {
        // The assertions inside run_with are the test; small sizes keep the
        // debug-mode run quick. Overhead itself is only meaningful under
        // --release, so here just check the table shape.
        let t = run_with(60, 40, 1);
        assert_eq!(t.rows.len(), 4);
        for row in &t.rows {
            assert!(
                row[6].starts_with('+') || row[6].starts_with('-'),
                "{row:?}"
            );
        }
    }
}
