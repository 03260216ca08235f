//! The experiment suite: one module per table/figure of EXPERIMENTS.md.
//!
//! Each `run()` returns a [`crate::table::Table`]; the `harness`
//! binary prints them. Sizes are chosen so a debug run of the whole suite
//! stays under a minute; a `--release` run is what EXPERIMENTS.md records.

pub mod e1;
pub mod e10;
pub mod e11;
pub mod e12;
pub mod e13;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;
pub mod f1;
pub mod f10;
pub mod f2;
pub mod f3;
pub mod f4;
pub mod f5;
pub mod f7;
pub mod f8;
pub mod f9;

use crate::table::{ms, timed, Table};
use alexander_core::{Engine, Strategy};
use alexander_ir::Atom;

/// Every experiment, in report order.
pub fn all() -> Vec<Table> {
    vec![
        e1::run(),
        e2::run(),
        e3::run(),
        e4::run(),
        e5::run(),
        e6::run(),
        e7::run(),
        e8::run(),
        e9::run(),
        e10::run(),
        e11::run(),
        e12::run(),
        e13::run(),
        f1::run(),
        f2::run(),
        f3::run(),
        f4::run(),
        f5::run(),
        f7::run(),
        f8::run(),
        f9::run(),
        f10::run(),
    ]
}

/// Looks up one experiment by id (case-insensitive).
pub fn by_id(id: &str) -> Option<Table> {
    let run: fn() -> Table = match id.to_ascii_lowercase().as_str() {
        "e1" => e1::run,
        "e2" => e2::run,
        "e3" => e3::run,
        "e4" => e4::run,
        "e5" => e5::run,
        "e6" => e6::run,
        "e7" => e7::run,
        "e8" => e8::run,
        "e9" => e9::run,
        "e10" => e10::run,
        "e11" => e11::run,
        "e12" => e12::run,
        "e13" => e13::run,
        "f1" => f1::run,
        "f2" => f2::run,
        "f3" => f3::run,
        "f4" => f4::run,
        "f5" => f5::run,
        "f7" => f7::run,
        "f8" => f8::run,
        "f9" => f9::run,
        "f10" => f10::run,
        _ => return None,
    };
    Some(run())
}

/// All experiment ids, in report order.
pub const IDS: [&str; 22] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "f1", "f2",
    "f3", "f4", "f5", "f7", "f8", "f9", "f10",
];

/// The per-strategy row every comparison table shares: run the query, report
/// answers / facts / calls / inference counters / time.
pub(crate) fn strategy_row(engine: &Engine, query: &Atom, strategy: Strategy) -> Vec<String> {
    let (result, elapsed) = timed(|| engine.query(query, strategy));
    match result {
        Ok(r) => {
            let (firings, iters) = match (&r.report.eval, &r.report.oldt) {
                (Some(m), _) => (m.firings, m.iterations),
                (None, Some(m)) => (m.resolution_steps, 0),
                _ => (0, 0),
            };
            vec![
                strategy.name().to_string(),
                r.answers.len().to_string(),
                r.report.facts_materialised.to_string(),
                r.report
                    .calls
                    .map(|c| c.to_string())
                    .unwrap_or_else(|| "-".into()),
                firings.to_string(),
                iters.to_string(),
                ms(elapsed),
            ]
        }
        Err(e) => {
            let reason = match e {
                alexander_core::EngineError::Eval(_) => "n/a (needs negation support)",
                alexander_core::EngineError::Oldt(_) => "n/a (not stratified)",
                _ => "error",
            };
            vec![
                strategy.name().to_string(),
                reason.to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]
        }
    }
}

/// Header matching [`strategy_row`].
pub(crate) const STRATEGY_COLUMNS: [&str; 7] = [
    "strategy",
    "answers",
    "facts",
    "calls",
    "inferences",
    "rounds",
    "time_ms",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn by_id_finds_every_listed_experiment() {
        // Only check resolution, not execution (the full suite runs in the
        // harness integration test).
        assert!(by_id("nope").is_none());
        assert!(IDS.contains(&"e3"));
    }
}
