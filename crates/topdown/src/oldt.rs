//! OLDT resolution: top-down (SLD) evaluation with tabulation
//! (Tamaki & Sato 1986).
//!
//! Calls to intensional predicates are *tabled*: the first occurrence of a
//! call (up to variable renaming) becomes a **generator** that resolves the
//! call against the program's rules; later occurrences become **consumers**
//! suspended on the call's answer table. Every answer is delivered to every
//! consumer exactly once, so repeated subqueries cost table lookups instead
//! of recomputation — this is what makes top-down evaluation terminate on
//! recursive Datalog and what the Alexander templates simulate bottom-up.
//!
//! The engine is instrumented for the power comparison (experiment E3):
//! [`OldtResult::calls_by_pred`] is the call table (one entry per distinct
//! tabled call) and [`OldtResult::answers_by_pred`] the answer table,
//! the two quantities the Alexander-transformed program materialises as
//! `call_…` and `ans_…` facts.
//!
//! Negation: ground negative literals over extensional predicates are
//! checked against the database; ground negative intensional literals force
//! the completion of their subquery's table first (admissible because the
//! program must be stratified — checked up front).

use crate::metrics::OldtMetrics;
use alexander_eval::{Budget, CancelHandle, Completion, Governor};
use alexander_ir::analysis::stratify;
use alexander_ir::{
    match_atom, Atom, FxHashMap, FxHashSet, Literal, Polarity, Predicate, Program, Rule, Subst,
    Term, Var,
};
use alexander_storage::Database;
use alexander_transform::sip_order;
use std::fmt;

/// Options for the OLDT engine.
#[derive(Clone, Debug)]
pub struct OldtOptions {
    /// Select body literals with the same greedy SIP the rewritings use.
    /// When off, bodies are only reordered as far as negation groundness
    /// requires (ablation E9).
    pub reorder: bool,
    /// Resource limits. `max_facts` bounds tabled answers, `max_steps`
    /// bounds resolution steps; rounds do not apply to OLDT.
    pub budget: Budget,
    /// Cooperative cancellation token, checked between resolution steps.
    pub cancel: Option<CancelHandle>,
}

impl Default for OldtOptions {
    fn default() -> OldtOptions {
        OldtOptions {
            reorder: true,
            budget: Budget::UNLIMITED,
            cancel: None,
        }
    }
}

impl OldtOptions {
    /// Builder: attach a resource budget.
    pub fn with_budget(mut self, budget: Budget) -> OldtOptions {
        self.budget = budget;
        self
    }

    /// Builder: attach a cancellation token.
    pub fn with_cancel(mut self, cancel: CancelHandle) -> OldtOptions {
        self.cancel = Some(cancel);
        self
    }
}

/// Errors from the OLDT engine.
#[derive(Clone, Debug)]
pub enum OldtError {
    Invalid(Vec<alexander_ir::ProgramError>),
    NotStratified(alexander_ir::analysis::NotStratified),
    /// A negative literal was selected non-ground (unsafe rule).
    NonGroundNegation(String),
}

impl fmt::Display for OldtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OldtError::Invalid(errs) => {
                write!(f, "invalid program:")?;
                for e in errs {
                    write!(f, "\n  {e}")?;
                }
                Ok(())
            }
            OldtError::NotStratified(e) => write!(f, "{e}"),
            OldtError::NonGroundNegation(l) => {
                write!(f, "negative literal `{l}` selected while non-ground")
            }
        }
    }
}

impl std::error::Error for OldtError {}

/// The result of an OLDT query.
#[derive(Clone, Debug)]
pub struct OldtResult {
    /// Ground instances of the query atom, in discovery order.
    pub answers: Vec<Atom>,
    pub metrics: OldtMetrics,
    /// Distinct tabled calls per predicate (OLDT's call table).
    pub calls_by_pred: FxHashMap<Predicate, u64>,
    /// Distinct answers per predicate across all of its tables.
    pub answers_by_pred: FxHashMap<Predicate, u64>,
    /// Every table: its canonical call atom and its answer count.
    pub call_tables: Vec<(Atom, u64)>,
    /// Whether resolution ran to exhaustion. On a budget/cancel stop the
    /// `answers` are a sound subset of the complete answer set (every
    /// reported answer has a full derivation; negative conclusions are
    /// never drawn from tables the stop left incomplete).
    pub completion: Completion,
}

impl OldtResult {
    /// Iterates over `(canonical call, answer count)` pairs — the call
    /// table, exposed for the power-correspondence check.
    pub fn tables(&self) -> impl Iterator<Item = (&Atom, u64)> + '_ {
        self.call_tables.iter().map(|(a, n)| (a, *n))
    }
}

struct Consumer {
    /// The goal instance the consumer is suspended on.
    goal: Atom,
    /// Environment at suspension time.
    subst: Subst,
    /// Remaining goals after the suspended one.
    rest: Vec<Literal>,
    /// Table the eventual answer belongs to.
    producer_for: usize,
    /// Instantiated head template of the producing rule.
    head: Atom,
}

#[derive(Default)]
struct Table {
    answers: Vec<Atom>,
    answer_set: FxHashSet<Atom>,
    consumers: Vec<Consumer>,
}

struct Node {
    table: usize,
    head: Atom,
    goals: Vec<Literal>,
    subst: Subst,
}

struct Engine<'a> {
    rules_by_pred: FxHashMap<Predicate, Vec<Rule>>,
    edb: &'a Database,
    idb: FxHashSet<Predicate>,
    tables: Vec<Table>,
    table_of: FxHashMap<Atom, usize>,
    work: Vec<Node>,
    metrics: OldtMetrics,
    reorder: bool,
    gov: Governor,
}

/// Canonicalises an atom: variables are renamed `_C0, _C1, …` in order of
/// first occurrence, so two calls equal up to renaming share a table.
fn canonicalize(atom: &Atom) -> Atom {
    let mut renaming: FxHashMap<Var, Var> = FxHashMap::default();
    let terms = atom
        .terms
        .iter()
        .map(|t| match t {
            Term::Const(_) => *t,
            Term::Var(v) => {
                let next = renaming.len();
                Term::Var(
                    *renaming
                        .entry(*v)
                        .or_insert_with(|| Var::new(&format!("_C{next}"))),
                )
            }
        })
        .collect();
    Atom {
        pred: atom.pred,
        terms,
    }
}

impl<'a> Engine<'a> {
    /// Gets or creates the table for `call` (already substituted). Returns
    /// the table index.
    fn ensure_table(&mut self, call: &Atom) -> usize {
        let canon = canonicalize(call);
        if let Some(&t) = self.table_of.get(&canon) {
            return t;
        }
        let t = self.tables.len();
        self.tables.push(Table::default());
        self.table_of.insert(canon.clone(), t);
        self.metrics.calls += 1;

        // Seed generators: resolve the canonical call against every rule
        // (standardized apart from the call once, when the engine was built).
        let rules = self
            .rules_by_pred
            .get(&canon.predicate())
            .cloned()
            .unwrap_or_default();
        for rule in rules {
            let mut s = Subst::new();
            if alexander_ir::unify_atoms(&canon, &rule.head, &mut s) {
                self.metrics.resolution_steps += 1;
                let bound: FxHashSet<Var> = rule
                    .head
                    .vars()
                    .filter(|v| s.walk(Term::Var(*v)).is_ground())
                    .collect();
                let goals = if self.reorder {
                    sip_order(&rule.body, &bound)
                } else {
                    rule.body.clone()
                };
                self.work.push(Node {
                    table: t,
                    head: rule.head.clone(),
                    goals,
                    subst: s,
                });
            }
        }
        t
    }

    /// Records an answer in `table`; on novelty, resumes every consumer.
    fn add_answer(&mut self, table: usize, answer: Atom) {
        debug_assert!(answer.is_ground(), "answers are ground: {answer}");
        if self.tables[table].answer_set.contains(&answer) {
            return;
        }
        // Claim-before-insert, as in the bottom-up evaluators: a refused
        // answer is dropped whole and the drain loop will observe the trip.
        if self.gov.claim_fact().is_break() {
            return;
        }
        self.tables[table].answer_set.insert(answer.clone());
        self.tables[table].answers.push(answer.clone());
        self.metrics.answers += 1;
        // Deliver to the consumers registered so far.
        for ci in 0..self.tables[table].consumers.len() {
            let (goal, subst, rest, producer_for, head) = {
                let c = &self.tables[table].consumers[ci];
                (
                    c.goal.clone(),
                    c.subst.clone(),
                    c.rest.clone(),
                    c.producer_for,
                    c.head.clone(),
                )
            };
            self.resume(goal, subst, rest, producer_for, head, &answer);
        }
    }

    fn resume(
        &mut self,
        goal: Atom,
        mut subst: Subst,
        rest: Vec<Literal>,
        producer_for: usize,
        head: Atom,
        answer: &Atom,
    ) {
        self.metrics.resolution_steps += 1;
        if match_atom(&goal, answer, &mut subst) {
            self.work.push(Node {
                table: producer_for,
                head,
                goals: rest,
                subst,
            });
        }
    }

    /// Drives the worklist to exhaustion — or to the budget. On a stop the
    /// remaining work is abandoned; answers recorded so far all have
    /// complete derivations, so the partial result is sound.
    fn drain(&mut self) -> Result<(), OldtError> {
        while let Some(node) = self.work.pop() {
            if self.gov.check_interrupt().is_break()
                || self
                    .gov
                    .check_steps(self.metrics.resolution_steps)
                    .is_break()
            {
                return Ok(());
            }
            self.step(node)?;
        }
        Ok(())
    }

    fn step(&mut self, mut node: Node) -> Result<(), OldtError> {
        if node.goals.is_empty() {
            let answer = node.subst.apply_atom(&node.head);
            self.add_answer(node.table, answer);
            return Ok(());
        }
        let lit = node.goals.remove(0);
        let goal = node.subst.apply_atom(&lit.atom);

        // Built-in comparisons: evaluate natively (arguments are ground by
        // the ordering guarantees of safe rules plus the SIP).
        if let Some(b) = alexander_ir::Builtin::of(goal.predicate()) {
            let Some(args) = goal.ground_args() else {
                return Err(OldtError::NonGroundNegation(goal.to_string()));
            };
            self.metrics.resolution_steps += 1;
            let holds = b.eval(args[0], args[1]);
            let want = lit.polarity == Polarity::Positive;
            if holds == want {
                self.work.push(node);
            }
            return Ok(());
        }

        match (lit.polarity, self.idb.contains(&goal.predicate())) {
            (Polarity::Positive, false) => {
                // Extensional: scan/probe the database.
                if let Some(rel) = self.edb.relation(goal.predicate()) {
                    // Probe on the ground columns.
                    let cols: Vec<usize> = goal
                        .terms
                        .iter()
                        .enumerate()
                        .filter(|(_, t)| t.is_ground())
                        .map(|(i, _)| i)
                        .collect();
                    let mask = alexander_storage::Mask::of_columns(&cols);
                    let key: Vec<alexander_ir::Const> = cols
                        .iter()
                        // invariant: `cols` was filtered to the positions
                        // where `goal.terms[c]` is a constant.
                        .map(|&c| goal.terms[c].as_const().unwrap())
                        .collect();
                    let matches: Vec<Atom> = rel
                        .probe(mask, &key)
                        .0
                        .map(|row| alexander_storage::row_atom(goal.pred, row))
                        .collect();
                    for fact in matches {
                        self.metrics.resolution_steps += 1;
                        let mut s = node.subst.clone();
                        if match_atom(&goal, &fact, &mut s) {
                            self.work.push(Node {
                                table: node.table,
                                head: node.head.clone(),
                                goals: node.goals.clone(),
                                subst: s,
                            });
                        }
                    }
                }
            }
            (Polarity::Positive, true) => {
                // Intensional: table the call, suspend as a consumer.
                let t = self.ensure_table(&goal);
                self.metrics.suspensions += 1;
                let existing = self.tables[t].answers.clone();
                self.tables[t].consumers.push(Consumer {
                    goal: goal.clone(),
                    subst: node.subst.clone(),
                    rest: node.goals.clone(),
                    producer_for: node.table,
                    head: node.head.clone(),
                });
                for answer in existing {
                    self.resume(
                        goal.clone(),
                        node.subst.clone(),
                        node.goals.clone(),
                        node.table,
                        node.head.clone(),
                        &answer,
                    );
                }
            }
            (Polarity::Negative, false) => {
                if !goal.is_ground() {
                    return Err(OldtError::NonGroundNegation(goal.to_string()));
                }
                self.metrics.resolution_steps += 1;
                if !self.edb.contains_atom(&goal) {
                    self.work.push(node);
                }
            }
            (Polarity::Negative, true) => {
                if !goal.is_ground() {
                    return Err(OldtError::NonGroundNegation(goal.to_string()));
                }
                // Complete the subquery's table (terminates: the program is
                // stratified, so the negated predicate's evaluation never
                // reaches back here).
                let t = self.ensure_table(&goal);
                self.drain()?;
                if self.gov.should_stop() {
                    // The subquery's table may be incomplete; concluding
                    // `!goal` from an empty-so-far table would be unsound.
                    // Drop this branch instead.
                    return Ok(());
                }
                self.metrics.resolution_steps += 1;
                if self.tables[t].answers.is_empty() {
                    self.work.push(node);
                }
            }
        }
        Ok(())
    }
}

/// Answers `query` over `program` + `edb` by OLDT resolution.
pub fn oldt_query(
    program: &Program,
    edb: &Database,
    query: &Atom,
) -> Result<OldtResult, OldtError> {
    oldt_query_opts(program, edb, query, OldtOptions::default())
}

/// [`oldt_query`] with explicit options.
pub fn oldt_query_opts(
    program: &Program,
    edb: &Database,
    query: &Atom,
    opts: OldtOptions,
) -> Result<OldtResult, OldtError> {
    program.validate().map_err(OldtError::Invalid)?;
    let idb = program.idb_predicates();
    let has_idb_negation = program.rules.iter().any(|r| {
        r.body
            .iter()
            .any(|l| l.is_negative() && idb.contains(&l.atom.predicate()))
    });
    if has_idb_negation {
        stratify(program).map_err(OldtError::NotStratified)?;
    }

    // Inline facts become part of the database for resolution.
    let mut full_edb = edb.clone();
    for f in &program.facts {
        // invariant: `program.validate()` above rejects non-ground facts.
        full_edb.insert_atom(f).expect("validated facts are ground");
    }

    let mut rules_by_pred: FxHashMap<Predicate, Vec<Rule>> = FxHashMap::default();
    for r in &program.rules {
        rules_by_pred
            .entry(r.head.predicate())
            .or_default()
            .push(crate::standardize(r));
    }

    let mut engine = Engine {
        rules_by_pred,
        edb: &full_edb,
        idb,
        tables: Vec::new(),
        table_of: FxHashMap::default(),
        work: Vec::new(),
        metrics: OldtMetrics::default(),
        reorder: opts.reorder,
        gov: Governor::new(opts.budget, opts.cancel.clone()),
    };

    let answers = if engine.idb.contains(&query.predicate()) {
        let t = engine.ensure_table(query);
        engine.drain()?;
        // The table answers are instances of the canonical call; filter
        // through the original query pattern (handles repeated variables).
        engine.tables[t]
            .answers
            .iter()
            .filter(|a| {
                let mut s = Subst::new();
                match_atom(query, a, &mut s)
            })
            .cloned()
            .collect()
    } else {
        // Extensional query: direct lookup.
        full_edb
            .atoms_of(query.predicate())
            .into_iter()
            .filter(|a| {
                let mut s = Subst::new();
                match_atom(query, a, &mut s)
            })
            .collect()
    };

    let mut calls_by_pred: FxHashMap<Predicate, u64> = FxHashMap::default();
    for call in engine.table_of.keys() {
        *calls_by_pred.entry(call.predicate()).or_default() += 1;
    }
    let mut call_tables: Vec<(Atom, u64)> = engine
        .table_of
        .iter()
        .map(|(call, &t)| (call.clone(), engine.tables[t].answers.len() as u64))
        .collect();
    call_tables.sort_by_key(|(a, _)| a.to_string());
    let mut answers_by_pred: FxHashMap<Predicate, u64> = FxHashMap::default();
    // Distinct answers per predicate across tables (tables of the same
    // predicate can share answers; count the union).
    let mut per_pred_sets: FxHashMap<Predicate, FxHashSet<Atom>> = FxHashMap::default();
    for (call, &t) in &engine.table_of {
        let set = per_pred_sets.entry(call.predicate()).or_default();
        for a in &engine.tables[t].answers {
            set.insert(a.clone());
        }
    }
    for (p, set) in per_pred_sets {
        answers_by_pred.insert(p, set.len() as u64);
    }

    Ok(OldtResult {
        answers,
        metrics: engine.metrics,
        calls_by_pred,
        answers_by_pred,
        call_tables,
        completion: engine.gov.completion(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use alexander_parser::{parse, parse_atom};

    fn run(src: &str, q: &str) -> OldtResult {
        let parsed = parse(src).unwrap();
        let edb = Database::from_program(&parsed.program);
        oldt_query(&parsed.program, &edb, &parse_atom(q).unwrap()).unwrap()
    }

    const ANCESTOR: &str = "
        par(a, b). par(b, c). par(c, d). par(x, y).
        anc(X, Y) :- par(X, Y).
        anc(X, Y) :- par(X, Z), anc(Z, Y).
    ";

    #[test]
    fn bound_free_ancestor() {
        let r = run(ANCESTOR, "anc(a, X)");
        let mut got: Vec<String> = r.answers.iter().map(|a| a.to_string()).collect();
        got.sort();
        assert_eq!(got, ["anc(a, b)", "anc(a, c)", "anc(a, d)"]);
    }

    #[test]
    fn tabling_is_goal_directed() {
        let r = run(ANCESTOR, "anc(a, X)");
        // Calls: anc(a,_), anc(b,_), anc(c,_), anc(d,_). Never anc(x,_).
        assert_eq!(r.calls_by_pred[&Predicate::new("anc", 2)], 4);
        // Answers across tables: a->{b,c,d}, b->{c,d}, c->{d}, d->{}.
        assert_eq!(r.answers_by_pred[&Predicate::new("anc", 2)], 6);
    }

    #[test]
    fn all_free_query() {
        let r = run(ANCESTOR, "anc(X, Y)");
        assert_eq!(r.answers.len(), 7); // 6 chain pairs + (x, y)
    }

    #[test]
    fn ground_query_success_and_failure() {
        let yes = run(ANCESTOR, "anc(a, d)");
        assert_eq!(yes.answers.len(), 1);
        let no = run(ANCESTOR, "anc(d, a)");
        assert!(no.answers.is_empty());
    }

    #[test]
    fn repeated_variable_query() {
        let r = run(
            "
            e(a, a). e(a, b).
            p(X, Y) :- e(X, Y).
            ",
            "p(X, X)",
        );
        assert_eq!(r.answers.len(), 1);
        assert_eq!(r.answers[0].to_string(), "p(a, a)");
    }

    #[test]
    fn cyclic_graph_terminates() {
        let r = run(
            "
            e(a, b). e(b, a).
            tc(X, Y) :- e(X, Y).
            tc(X, Y) :- e(X, Z), tc(Z, Y).
            ",
            "tc(a, X)",
        );
        let mut got: Vec<String> = r.answers.iter().map(|a| a.to_string()).collect();
        got.sort();
        assert_eq!(got, ["tc(a, a)", "tc(a, b)"]);
    }

    #[test]
    fn nonlinear_same_generation() {
        let r = run(
            "
            up(a, g1). up(b, g1).
            flat(g1, g1).
            down(g1, c). down(g1, d).
            sg(X, Y) :- flat(X, Y).
            sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
            ",
            "sg(a, Y)",
        );
        let mut got: Vec<String> = r.answers.iter().map(|a| a.to_string()).collect();
        got.sort();
        assert_eq!(got, ["sg(a, c)", "sg(a, d)"]);
    }

    #[test]
    fn stratified_negation() {
        let r = run(
            "
            edge(s, a). edge(a, b). node(s). node(a). node(b). node(z).
            reach(X) :- edge(s, X).
            reach(Y) :- reach(X), edge(X, Y).
            unreach(X) :- node(X), !reach(X).
            ",
            "unreach(X)",
        );
        let mut got: Vec<String> = r.answers.iter().map(|a| a.to_string()).collect();
        got.sort();
        assert_eq!(got, ["unreach(s)", "unreach(z)"]);
    }

    #[test]
    fn unstratified_negation_is_rejected() {
        let parsed = parse(
            "
            move(a, b).
            win(X) :- move(X, Y), !win(Y).
        ",
        )
        .unwrap();
        let edb = Database::from_program(&parsed.program);
        let err = oldt_query(&parsed.program, &edb, &parse_atom("win(a)").unwrap());
        assert!(matches!(err, Err(OldtError::NotStratified(_))));
    }

    #[test]
    fn extensional_query_is_a_lookup() {
        let r = run(ANCESTOR, "par(a, X)");
        assert_eq!(r.answers.len(), 1);
        assert_eq!(r.metrics.calls, 0);
    }

    #[test]
    fn canonicalization_shares_tables() {
        // Both recursive descents reach anc(c, _): one table, not two.
        let r = run(ANCESTOR, "anc(b, X)");
        assert_eq!(r.calls_by_pred[&Predicate::new("anc", 2)], 3); // b, c, d
    }

    #[test]
    fn zero_arity_predicates() {
        let r = run("yes. go :- yes.", "go");
        assert_eq!(r.answers.len(), 1);
    }

    #[test]
    fn step_budget_yields_sound_answer_subset() {
        let parsed = parse(ANCESTOR).unwrap();
        let edb = Database::from_program(&parsed.program);
        let q = parse_atom("anc(X, Y)").unwrap();
        let full = oldt_query(&parsed.program, &edb, &q).unwrap();
        assert!(full.completion.is_complete());
        for max in [1u64, 3, 8] {
            let r = oldt_query_opts(
                &parsed.program,
                &edb,
                &q,
                OldtOptions::default().with_budget(Budget::default().with_max_steps(max)),
            )
            .unwrap();
            assert!(!r.completion.is_complete(), "max_steps {max}");
            for a in &r.answers {
                assert!(full.answers.contains(a), "spurious answer {a}");
            }
            assert!(r.answers.len() < full.answers.len());
        }
    }

    #[test]
    fn answer_budget_caps_the_tables() {
        let r = {
            let parsed = parse(ANCESTOR).unwrap();
            let edb = Database::from_program(&parsed.program);
            oldt_query_opts(
                &parsed.program,
                &edb,
                &parse_atom("anc(X, Y)").unwrap(),
                OldtOptions::default().with_budget(Budget::default().with_max_facts(2)),
            )
            .unwrap()
        };
        assert!(!r.completion.is_complete());
        let tabled: u64 = r.tables().map(|(_, n)| n).sum();
        assert!(tabled <= 2, "{tabled} answers tabled under a 2-fact budget");
    }

    #[test]
    fn cancelled_query_reports_cancelled() {
        let parsed = parse(ANCESTOR).unwrap();
        let edb = Database::from_program(&parsed.program);
        let handle = CancelHandle::default();
        handle.cancel();
        let r = oldt_query_opts(
            &parsed.program,
            &edb,
            &parse_atom("anc(a, X)").unwrap(),
            OldtOptions::default().with_cancel(handle),
        )
        .unwrap();
        assert_eq!(r.completion, Completion::Cancelled);
        assert!(r.answers.is_empty());
    }

    #[test]
    fn incomplete_negation_tables_draw_no_negative_conclusions() {
        // A tight budget stops while `reach`'s table is still incomplete;
        // no `unreach` answer may be emitted from the partial table.
        let src = "
            edge(s, a). edge(a, b). node(s). node(a). node(b). node(z).
            reach(X) :- edge(s, X).
            reach(Y) :- reach(X), edge(X, Y).
            unreach(X) :- node(X), !reach(X).
        ";
        let parsed = parse(src).unwrap();
        let edb = Database::from_program(&parsed.program);
        let full = oldt_query(&parsed.program, &edb, &parse_atom("unreach(X)").unwrap()).unwrap();
        for max in 1..20u64 {
            let r = oldt_query_opts(
                &parsed.program,
                &edb,
                &parse_atom("unreach(X)").unwrap(),
                OldtOptions::default().with_budget(Budget::default().with_max_steps(max)),
            )
            .unwrap();
            for a in &r.answers {
                assert!(full.answers.contains(a), "unsound {a} at max_steps {max}");
            }
        }
    }

    #[test]
    fn deep_chain_does_not_blow_the_stack() {
        let mut src = String::new();
        for i in 0..600 {
            src.push_str(&format!("e(n{i}, n{}).\n", i + 1));
        }
        src.push_str("tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y).\n");
        let r = run(&src, "tc(n0, X)");
        assert_eq!(r.answers.len(), 600);
    }
}
