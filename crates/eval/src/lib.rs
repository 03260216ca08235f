//! # alexander-eval
//!
//! Bottom-up evaluation of Datalog programs:
//!
//! * [`eval_naive`] — apply every rule to the full database each round.
//! * [`eval_seminaive`] — delta-driven rounds (the standard fixpoint engine).
//! * [`eval_stratified`] — stratify, then semi-naive per stratum; computes
//!   the perfect model of stratified programs with negation.
//! * [`eval_conditional`] — Bry's conditional fixpoint (PODS 1989): delay
//!   negations into conditional statements, then reduce; decides loosely /
//!   locally stratified programs and reports a well-founded-style undefined
//!   residue on cyclic negation. This is the evaluator that runs
//!   magic-rewritten programs, whose stratification the rewriting destroys.
//! * [`eval_naive_parallel`] — round-parallel naive evaluation (ablation).
//!
//! All evaluators return machine-independent [`EvalMetrics`] counters; the
//! benchmark tables of the reproduction are built from these.
//!
//! Rule bodies are compiled once per run into flat columnar plans
//! ([`plan`]) and driven by one executor ([`exec`]) that moves fixed-size
//! blocks of binding rows through the operator pipeline and hashes each
//! derived head row exactly once. Every evaluator — the fixpoints above,
//! the conditional statements, provenance, and incremental maintenance —
//! runs rule bodies through it. Naive evaluation is the differential oracle
//! for the semi-naive engine; the top-down OLDT evaluator (in
//! `alexander-topdown`) is the independent oracle for the models.
//!
//! The semi-naive engine (and everything layered on it) can parallelise each
//! fixpoint round across worker threads via [`EvalOptions::threads`]; the
//! resulting relations *and* metrics are identical to a sequential run at
//! any thread count (see [`seminaive`] for the round protocol).
//!
//! Every evaluator is resource-governed: [`EvalOptions::budget`] bounds
//! wall-clock time, derived facts, rounds, and rule firings, and
//! [`EvalOptions::cancel`] installs a cooperative cancellation token. On
//! exhaustion or cancellation the evaluators return a well-formed *partial*
//! result tagged with a non-`Complete` [`Completion`] instead of an error
//! (see [`govern`]). Parallel round workers are panic-isolated: a panicking
//! worker surfaces as [`EvalError::WorkerPanicked`] after its siblings
//! drain, never as a process abort.
//!
//! ```
//! use alexander_parser::parse;
//! use alexander_storage::Database;
//! use alexander_ir::Predicate;
//!
//! let parsed = parse("
//!     e(a, b). e(b, c).
//!     tc(X, Y) :- e(X, Y).
//!     tc(X, Y) :- e(X, Z), tc(Z, Y).
//! ").unwrap();
//! let result = alexander_eval::eval_seminaive(&parsed.program, &Database::new()).unwrap();
//! assert_eq!(result.db.len_of(Predicate::new("tc", 2)), 3);
//! ```
#![deny(clippy::redundant_clone)]
// Workspace lint note: `clippy::redundant_clone` is denied in the storage
// and eval crates (the two crates that own the allocation-free hot paths) so
// a stray `.clone()` of a tuple, row buffer, or database cannot land
// silently. It is a nursery lint, hence the per-crate opt-in rather than a
// [workspace.lints] entry; treat these two attributes as the deny-list.

pub mod conditional;
pub mod error;
pub mod exec;
#[cfg(feature = "failpoints")]
pub mod failpoints;
pub mod govern;
pub mod incremental;
pub mod join;
pub mod metrics;
pub mod naive;
pub mod order;
pub mod parallel;
pub mod plan;
pub mod provenance;
pub mod seminaive;
pub mod stratified;

/// Fault-injection hook compiled into evaluator hot paths. A no-op unless
/// the test-only `failpoints` feature is enabled; see [`failpoints`].
#[cfg(feature = "failpoints")]
pub(crate) fn fail_point(site: &str) {
    failpoints::hit(site);
}

#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub(crate) fn fail_point(_site: &str) {}

pub use conditional::{eval_conditional, eval_conditional_opts, ConditionalResult, Conditions};
pub use error::EvalError;
pub use exec::{exec_plan, ExecScratch, BLOCK_ROWS};
pub use govern::{Budget, CancelHandle, Completion, Consumption, Governor, Resource};
pub use incremental::{BatchOutcome, IncrementalEngine, Maintenance};
pub use join::{
    compile_rule, compile_rule_seeded, ensure_rule_indexes, CompiledRule, DeltaSource, Emitted,
    JoinInput, SideSources,
};
pub use metrics::{EvalMetrics, ExecStats};
pub use naive::{eval_naive, eval_naive_opts, EvalOptions, EvalResult};
pub use order::{order_for_evaluation, Unorderable};
pub use parallel::{eval_naive_parallel, eval_naive_parallel_opts};
pub use plan::{compile_plan, PlanOp, RulePlan};
pub use provenance::{eval_with_provenance, Justification, ProofTree, Provenance};
pub use seminaive::{eval_seminaive, eval_seminaive_opts};
pub use stratified::{eval_stratified, eval_stratified_opts, StratifiedResult};
