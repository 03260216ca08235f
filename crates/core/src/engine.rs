//! The engine: one program + EDB, queried under any [`Strategy`].

use crate::strategy::{QueryResult, Report, Strategy};
use alexander_eval::{
    eval_conditional_opts, eval_naive_opts, eval_seminaive_opts, eval_stratified_opts, Budget,
    CancelHandle, Completion, Consumption, EvalError, EvalOptions,
};
use alexander_ir::{match_atom, Atom, Polarity, Predicate, Program, Subst};
use alexander_parser::{parse, ParseError};
use alexander_storage::Database;
use alexander_topdown::{
    oldt_query_opts, qsqr_query_opts, OldtError, OldtMetrics, OldtOptions, QsqrError, QsqrOptions,
};
use alexander_transform::{alexander, magic_sets, sup_magic_sets, Rewritten, SipOptions};
use std::fmt;

/// Everything that can go wrong constructing or querying an [`Engine`].
#[derive(Debug)]
pub enum EngineError {
    Parse(ParseError),
    Invalid(Vec<alexander_ir::ProgramError>),
    Eval(EvalError),
    Oldt(OldtError),
    Qsqr(QsqrError),
    Adorn(alexander_transform::AdornError),
    /// The conditional fixpoint left atoms matching the query undefined; the
    /// answer set would be ill-defined.
    UndefinedAnswers(Vec<Atom>),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Parse(e) => write!(f, "{e}"),
            EngineError::Invalid(errs) => {
                write!(f, "invalid program:")?;
                for e in errs {
                    write!(f, "\n  {e}")?;
                }
                Ok(())
            }
            EngineError::Eval(e) => write!(f, "{e}"),
            EngineError::Oldt(e) => write!(f, "{e}"),
            EngineError::Qsqr(e) => write!(f, "{e}"),
            EngineError::Adorn(e) => write!(f, "{e}"),
            EngineError::UndefinedAnswers(atoms) => {
                write!(f, "query answers are undefined (cyclic negation) for:")?;
                for a in atoms {
                    write!(f, " {a}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ParseError> for EngineError {
    fn from(e: ParseError) -> Self {
        EngineError::Parse(e)
    }
}
impl From<EvalError> for EngineError {
    fn from(e: EvalError) -> Self {
        EngineError::Eval(e)
    }
}
impl From<OldtError> for EngineError {
    fn from(e: OldtError) -> Self {
        EngineError::Oldt(e)
    }
}
impl From<QsqrError> for EngineError {
    fn from(e: QsqrError) -> Self {
        EngineError::Qsqr(e)
    }
}
impl From<alexander_transform::AdornError> for EngineError {
    fn from(e: alexander_transform::AdornError) -> Self {
        EngineError::Adorn(e)
    }
}

/// A loaded deductive database: rules plus extensional facts.
#[derive(Clone, Debug)]
pub struct Engine {
    program: Program,
    edb: Database,
    sip: SipOptions,
    opts: EvalOptions,
}

impl Engine {
    /// Builds an engine from a validated program and an extensional
    /// database. Inline program facts are merged into the EDB.
    pub fn new(program: Program, edb: Database) -> Result<Engine, EngineError> {
        program.validate().map_err(EngineError::Invalid)?;
        let mut edb = edb;
        for f in &program.facts {
            // invariant: `Program::validate` (just above) rejects non-ground
            // facts.
            edb.insert_atom(f).expect("validated facts are ground");
        }
        let program = Program {
            rules: program.rules,
            facts: Vec::new(),
        };
        Ok(Engine {
            program,
            edb,
            sip: SipOptions::default(),
            opts: EvalOptions::default(),
        })
    }

    /// Parses `src` (rules + facts) into an engine.
    pub fn from_source(src: &str) -> Result<Engine, EngineError> {
        let parsed = parse(src)?;
        Engine::new(parsed.program, Database::new())
    }

    /// Overrides the SIP options used by the rewriting strategies.
    pub fn with_sip(mut self, sip: SipOptions) -> Engine {
        self.sip = sip;
        self
    }

    /// Overrides the evaluator options used by the bottom-up strategies.
    pub fn with_eval_options(mut self, opts: EvalOptions) -> Engine {
        self.opts = opts;
        self
    }

    /// Sets the worker-thread count for the bottom-up fixpoint rounds
    /// (1 = sequential; answers and metrics are identical either way).
    pub fn with_threads(mut self, threads: usize) -> Engine {
        self.opts.threads = threads;
        self
    }

    /// Sets the resource budget every query runs under (wall-clock
    /// deadline, derived-fact cap, round cap, firing/step cap). On
    /// exhaustion queries return *partial* answers flagged in
    /// [`Report::completion`] rather than an error.
    pub fn with_budget(mut self, budget: Budget) -> Engine {
        self.opts.budget = budget;
        self
    }

    /// A cancellation handle for this engine's queries. Cancelling it from
    /// any thread makes in-flight (and future) queries stop cooperatively
    /// and return partial results tagged `Cancelled`; call
    /// [`CancelHandle::reset`] to reuse the engine afterwards.
    pub fn cancel_handle(&mut self) -> CancelHandle {
        self.opts
            .cancel
            .get_or_insert_with(CancelHandle::default)
            .clone()
    }

    /// The evaluator options bottom-up strategies run with.
    pub fn eval_options(&self) -> EvalOptions {
        self.opts.clone()
    }

    /// The loaded rules.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The extensional database.
    pub fn edb(&self) -> &Database {
        &self.edb
    }

    /// Adds a fact to the EDB; returns whether it was new.
    pub fn insert_fact(&mut self, atom: &Atom) -> Result<bool, EngineError> {
        self.edb.insert_atom(atom).map_err(|e| {
            EngineError::Invalid(vec![alexander_ir::ProgramError::NonGroundFact {
                fact: e.0,
            }])
        })
    }

    /// Answers `query` under `strategy`. Answers are ground instances of the
    /// query over its original predicate, sorted and deduplicated.
    pub fn query(&self, query: &Atom, strategy: Strategy) -> Result<QueryResult, EngineError> {
        // Extensional queries are lookups under every strategy.
        if !self.program.is_idb(query.predicate()) {
            let answers = filter_matching(self.edb.atoms_of(query.predicate()), query);
            return Ok(QueryResult {
                answers,
                strategy,
                report: Report::default(),
            });
        }

        match strategy {
            Strategy::Naive => {
                let r = eval_naive_opts(&self.program, &self.edb, self.opts.clone())?;
                Ok(self.direct_result(query, strategy, r.db, r.metrics, r.completion))
            }
            Strategy::SemiNaive => {
                let r = eval_seminaive_opts(&self.program, &self.edb, self.opts.clone())?;
                Ok(self.direct_result(query, strategy, r.db, r.metrics, r.completion))
            }
            Strategy::Stratified => {
                let r = eval_stratified_opts(&self.program, &self.edb, self.opts.clone())?;
                Ok(self.direct_result(query, strategy, r.db, r.metrics, r.completion))
            }
            Strategy::ConditionalFixpoint => {
                let r = eval_conditional_opts(&self.program, &self.edb, self.opts.clone())?;
                let undefined_matching: Vec<Atom> = filter_matching(r.undefined.clone(), query);
                if !undefined_matching.is_empty() {
                    return Err(EngineError::UndefinedAnswers(undefined_matching));
                }
                let mut out = self.direct_result(query, strategy, r.db, r.metrics, r.completion);
                out.report.undefined = r.undefined;
                Ok(out)
            }
            Strategy::Magic => {
                let rw = magic_sets(&self.program, query, self.sip)?;
                self.rewritten_result(query, strategy, rw)
            }
            Strategy::SupplementaryMagic => {
                let rw = sup_magic_sets(&self.program, query, self.sip)?;
                self.rewritten_result(query, strategy, rw)
            }
            Strategy::Alexander => {
                let rw = alexander(&self.program, query, self.sip)?;
                self.rewritten_result(query, strategy, rw)
            }
            Strategy::Oldt => {
                let opts = OldtOptions::default().with_budget(self.opts.budget);
                let opts = match &self.opts.cancel {
                    Some(c) => opts.with_cancel(c.clone()),
                    None => opts,
                };
                let r = oldt_query_opts(&self.program, &self.edb, query, opts)?;
                let answers = normalise(r.answers);
                Ok(QueryResult {
                    answers,
                    strategy,
                    report: Report {
                        oldt: Some(r.metrics),
                        calls: Some(r.metrics.calls),
                        facts_materialised: r.metrics.answers,
                        rules_evaluated: self.program.rules.len(),
                        completion: r.completion,
                        consumed: topdown_consumption(&r.metrics, 0),
                        ..Report::default()
                    },
                })
            }
            Strategy::Qsqr => {
                let opts = QsqrOptions::default().with_budget(self.opts.budget);
                let opts = match &self.opts.cancel {
                    Some(c) => opts.with_cancel(c.clone()),
                    None => opts,
                };
                let r = qsqr_query_opts(&self.program, &self.edb, query, opts)?;
                let answers = normalise(r.answers);
                Ok(QueryResult {
                    answers,
                    strategy,
                    report: Report {
                        oldt: Some(r.metrics),
                        calls: Some(r.metrics.calls),
                        facts_materialised: r.metrics.answers,
                        rules_evaluated: self.program.rules.len(),
                        completion: r.completion,
                        consumed: topdown_consumption(&r.metrics, r.restarts),
                        ..Report::default()
                    },
                })
            }
        }
    }

    /// Result assembly for whole-program bottom-up strategies.
    fn direct_result(
        &self,
        query: &Atom,
        strategy: Strategy,
        db: Database,
        metrics: alexander_eval::EvalMetrics,
        completion: Completion,
    ) -> QueryResult {
        let answers = filter_matching(db.atoms_of(query.predicate()), query);
        QueryResult {
            answers,
            strategy,
            report: Report {
                eval: Some(metrics),
                facts_materialised: (db.total_tuples() - self.edb.total_tuples()) as u64,
                rules_evaluated: self.program.rules.len(),
                threads: self.opts.threads.max(1),
                completion,
                consumed: eval_consumption(&metrics),
                ..Report::default()
            },
        }
    }

    /// Result assembly for the rewriting strategies: evaluate the rewritten
    /// program (semi-naive when it is semipositive, conditional fixpoint
    /// otherwise — rewriting destroys stratification), then map answers back
    /// to the original predicate.
    fn rewritten_result(
        &self,
        query: &Atom,
        strategy: Strategy,
        rw: Rewritten,
    ) -> Result<QueryResult, EngineError> {
        let idb = rw.program.idb_predicates();
        let semipositive = rw.program.rules.iter().all(|r| {
            r.body
                .iter()
                .all(|l| l.polarity == Polarity::Positive || !idb.contains(&l.atom.predicate()))
        });
        let (db, metrics, undefined, completion) = if semipositive {
            let r = eval_seminaive_opts(&rw.program, &self.edb, self.opts.clone())?;
            (r.db, r.metrics, Vec::new(), r.completion)
        } else {
            let r = eval_conditional_opts(&rw.program, &self.edb, self.opts.clone())?;
            (r.db, r.metrics, r.undefined, r.completion)
        };

        let raw = alexander_transform::query_answers(&db, &rw.query);
        let undefined_matching = filter_matching_pattern(&undefined, &rw.query);
        if !undefined_matching.is_empty() {
            return Err(EngineError::UndefinedAnswers(undefined_matching));
        }
        // Map back: same terms, original predicate name.
        let answers = normalise(
            raw.into_iter()
                .map(|a| Atom {
                    pred: query.pred,
                    terms: a.terms,
                })
                .collect(),
        );
        let calls = db.len_of(rw.call_pred) as u64;
        Ok(QueryResult {
            answers,
            strategy,
            report: Report {
                eval: Some(metrics),
                facts_materialised: (db.total_tuples() - self.edb.total_tuples()) as u64,
                calls: Some(calls),
                undefined,
                rules_evaluated: rw.program.rules.len(),
                threads: self.opts.threads.max(1),
                completion,
                consumed: eval_consumption(&metrics),
                ..Report::default()
            },
        })
    }
}

fn eval_consumption(m: &alexander_eval::EvalMetrics) -> Consumption {
    Consumption {
        facts: m.new_facts,
        rounds: m.iterations,
        steps: m.firings,
    }
}

fn topdown_consumption(m: &OldtMetrics, restarts: u64) -> Consumption {
    Consumption {
        facts: m.answers,
        rounds: restarts,
        steps: m.resolution_steps,
    }
}

fn filter_matching(atoms: Vec<Atom>, pattern: &Atom) -> Vec<Atom> {
    normalise(
        atoms
            .into_iter()
            .filter(|a| {
                let mut s = Subst::new();
                match_atom(pattern, a, &mut s)
            })
            .collect(),
    )
}

fn filter_matching_pattern(atoms: &[Atom], pattern: &Atom) -> Vec<Atom> {
    atoms
        .iter()
        .filter(|a| {
            a.predicate() == pattern.predicate() && {
                let mut s = Subst::new();
                match_atom(pattern, a, &mut s)
            }
        })
        .cloned()
        .collect()
}

fn normalise(mut atoms: Vec<Atom>) -> Vec<Atom> {
    atoms.sort();
    atoms.dedup();
    atoms
}

/// Convenience: the predicates a query result's answers range over (mostly
/// for examples).
pub fn answer_predicate(result: &QueryResult) -> Option<Predicate> {
    result.answers.first().map(|a| a.predicate())
}

#[cfg(test)]
mod tests {
    use super::*;
    use alexander_parser::parse_atom;

    const ANCESTOR: &str = "
        par(a, b). par(b, c). par(c, d). par(x, y).
        anc(X, Y) :- par(X, Y).
        anc(X, Y) :- par(X, Z), anc(Z, Y).
    ";

    fn engine() -> Engine {
        Engine::from_source(ANCESTOR).unwrap()
    }

    #[test]
    fn all_strategies_agree_on_ancestor_bf() {
        let e = engine();
        let q = parse_atom("anc(a, X)").unwrap();
        let baseline = e.query(&q, Strategy::SemiNaive).unwrap();
        let want: Vec<String> = baseline.answers.iter().map(|a| a.to_string()).collect();
        assert_eq!(want, ["anc(a, b)", "anc(a, c)", "anc(a, d)"]);
        for s in Strategy::ALL {
            let r = e.query(&q, s).unwrap();
            let got: Vec<String> = r.answers.iter().map(|a| a.to_string()).collect();
            assert_eq!(got, want, "strategy {s}");
        }
    }

    #[test]
    fn rewriting_strategies_report_calls() {
        let e = engine();
        let q = parse_atom("anc(a, X)").unwrap();
        for s in [
            Strategy::Magic,
            Strategy::SupplementaryMagic,
            Strategy::Alexander,
            Strategy::Oldt,
        ] {
            let r = e.query(&q, s).unwrap();
            assert_eq!(r.report.calls, Some(4), "strategy {s}"); // a, b, c, d
        }
    }

    #[test]
    fn goal_directed_strategies_materialise_fewer_facts() {
        let e = engine();
        let q = parse_atom("anc(a, X)").unwrap();
        let full = e.query(&q, Strategy::SemiNaive).unwrap();
        let alex = e.query(&q, Strategy::Alexander).unwrap();
        // Full closure materialises anc over the x->y island too; Alexander
        // only touches the reachable chain. (Absolute counts include the
        // rewriting's auxiliary facts.)
        assert!(full.answers.len() == 3 && alex.answers.len() == 3);
        assert!(alex.report.calls.unwrap() < 6);
    }

    #[test]
    fn ground_query_yes_no() {
        let e = engine();
        let yes = e
            .query(&parse_atom("anc(a, d)").unwrap(), Strategy::Alexander)
            .unwrap();
        assert_eq!(yes.answers.len(), 1);
        let no = e
            .query(&parse_atom("anc(d, a)").unwrap(), Strategy::Alexander)
            .unwrap();
        assert!(no.answers.is_empty());
    }

    #[test]
    fn edb_query_is_a_lookup_under_any_strategy() {
        let e = engine();
        let q = parse_atom("par(a, X)").unwrap();
        for s in Strategy::ALL {
            let r = e.query(&q, s).unwrap();
            assert_eq!(r.answers.len(), 1, "strategy {s}");
            assert_eq!(r.answers[0].to_string(), "par(a, b)");
        }
    }

    #[test]
    fn stratified_negation_via_engine() {
        let e = Engine::from_source(
            "
            edge(s, a). edge(a, b). node(s). node(a). node(b). node(z).
            source(s).
            reach(X) :- source(S), edge(S, X).
            reach(Y) :- reach(X), edge(X, Y).
            unreach(X) :- node(X), !reach(X).
        ",
        )
        .unwrap();
        let q = parse_atom("unreach(X)").unwrap();
        for s in [
            Strategy::Stratified,
            Strategy::ConditionalFixpoint,
            Strategy::Oldt,
        ] {
            let r = e.query(&q, s).unwrap();
            let got: Vec<String> = r.answers.iter().map(|a| a.to_string()).collect();
            assert_eq!(got, ["unreach(s)", "unreach(z)"], "strategy {s}");
        }
    }

    #[test]
    fn win_move_conditional_and_undefined_detection() {
        let e = Engine::from_source(
            "
            move(a, b). move(b, c). move(d, d2). move(d2, d).
            win(X) :- move(X, Y), !win(Y).
        ",
        )
        .unwrap();
        // Decided part of the game works:
        let r = e
            .query(
                &parse_atom("win(b)").unwrap(),
                Strategy::ConditionalFixpoint,
            )
            .unwrap();
        assert_eq!(r.answers.len(), 1);
        assert!(!r.report.undefined.is_empty()); // the d-cycle is undefined
                                                 // Asking about the undefined cycle is an error, not a silent no.
        let err = e.query(
            &parse_atom("win(d)").unwrap(),
            Strategy::ConditionalFixpoint,
        );
        assert!(matches!(err, Err(EngineError::UndefinedAnswers(_))));
    }

    #[test]
    fn threads_change_neither_answers_nor_metrics() {
        let q = parse_atom("anc(a, X)").unwrap();
        let seq = engine();
        for threads in [2, 4, 8] {
            let par = Engine::from_source(ANCESTOR).unwrap().with_threads(threads);
            for s in [
                Strategy::SemiNaive,
                Strategy::Stratified,
                Strategy::Magic,
                Strategy::SupplementaryMagic,
                Strategy::Alexander,
            ] {
                let a = seq.query(&q, s).unwrap();
                let b = par.query(&q, s).unwrap();
                assert_eq!(a.answers, b.answers, "{s} @ {threads} threads");
                assert_eq!(a.report.eval, b.report.eval, "{s} @ {threads} threads");
                assert_eq!(b.report.threads, threads);
            }
        }
    }

    #[test]
    fn fact_budget_gives_partial_answers_on_every_strategy() {
        let q = parse_atom("anc(X, Y)").unwrap();
        let full = engine().query(&q, Strategy::SemiNaive).unwrap();
        for s in Strategy::ALL {
            let e = engine().with_budget(Budget::default().with_max_facts(1));
            let r = e.query(&q, s).unwrap();
            assert!(
                !r.report.completion.is_complete(),
                "strategy {s}: {:?}",
                r.report.completion
            );
            for a in &r.answers {
                assert!(full.answers.contains(a), "strategy {s}: spurious {a}");
            }
            assert!(r.answers.len() < full.answers.len(), "strategy {s}");
        }
    }

    #[test]
    fn cancel_handle_stops_queries_until_reset() {
        let mut e = engine();
        let handle = e.cancel_handle();
        let q = parse_atom("anc(a, X)").unwrap();
        handle.cancel();
        let r = e.query(&q, Strategy::SemiNaive).unwrap();
        assert_eq!(r.report.completion, alexander_eval::Completion::Cancelled);
        handle.reset();
        let r = e.query(&q, Strategy::SemiNaive).unwrap();
        assert!(r.report.completion.is_complete());
        assert_eq!(r.answers.len(), 3);
    }

    #[test]
    fn report_carries_consumption_counters() {
        let e = engine();
        let q = parse_atom("anc(a, X)").unwrap();
        let r = e.query(&q, Strategy::SemiNaive).unwrap();
        assert!(r.report.consumed.facts > 0);
        assert!(r.report.consumed.rounds > 0);
        assert!(r.report.consumed.steps > 0);
        let o = e.query(&q, Strategy::Oldt).unwrap();
        assert!(o.report.consumed.steps > 0);
    }

    #[test]
    fn insert_fact_extends_the_edb() {
        let mut e = engine();
        let q = parse_atom("anc(a, X)").unwrap();
        assert_eq!(e.query(&q, Strategy::Alexander).unwrap().answers.len(), 3);
        e.insert_fact(&parse_atom("par(d, z)").unwrap()).unwrap();
        assert_eq!(e.query(&q, Strategy::Alexander).unwrap().answers.len(), 4);
    }

    #[test]
    fn invalid_program_is_rejected_at_construction() {
        assert!(matches!(
            Engine::from_source("p(X, Y) :- q(X)."),
            Err(EngineError::Invalid(_))
        ));
    }

    #[test]
    fn repeated_variable_query() {
        let e = Engine::from_source(
            "
            e(a, a). e(a, b).
            p(X, Y) :- e(X, Y).
        ",
        )
        .unwrap();
        let q = parse_atom("p(X, X)").unwrap();
        for s in [Strategy::SemiNaive, Strategy::Oldt] {
            let r = e.query(&q, s).unwrap();
            assert_eq!(r.answers.len(), 1, "strategy {s}");
            assert_eq!(r.answers[0].to_string(), "p(a, a)");
        }
    }
}
