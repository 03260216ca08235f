//! Provenance: record *why* each fact was derived, and extract constructive
//! proof trees.
//!
//! Bry's proof-theoretic reading (PODS 1989, Prop. 5.1) characterises a
//! proof of a fact `F` as `F` itself when `F` is stored, or a rule instance
//! `Hσ ← Bσ` with `Hσ = F` together with proofs of `Bσ`'s positive premises
//! and failure witnesses for its negative ones. This module materialises
//! exactly that object: evaluation with provenance records, for every
//! derived fact, the first rule instance that produced it; proof trees are
//! then read back on demand.
//!
//! The recorded justification graph is acyclic by construction: premises of
//! a fact derived in round *k* were stored in rounds `< k`, so
//! first-justification-wins yields well-founded trees.

use crate::error::EvalError;
use crate::exec::{exec_plan, ExecScratch};
use crate::govern::Completion;
use crate::join::{compile_rule, ensure_rule_indexes, CompiledRule, Emitted, JoinInput};
use crate::metrics::EvalMetrics;
use crate::naive::{seed_database, EvalResult};
use crate::plan::{compile_binding_plan, RulePlan};
use alexander_ir::analysis::stratify;
use alexander_ir::{Atom, FxHashMap, Polarity, Program, Rule};
use alexander_storage::Database;
use std::fmt;

/// Why one fact holds: the rule instance that first derived it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Justification {
    /// Index of the rule in the source program.
    pub rule: usize,
    /// Ground positive premises, in body order.
    pub premises: Vec<Atom>,
    /// Ground negative premises (atoms whose absence was used).
    pub negatives: Vec<Atom>,
}

/// First-derivation provenance for a whole evaluation.
#[derive(Clone, Debug, Default)]
pub struct Provenance {
    justifications: FxHashMap<Atom, Justification>,
}

impl Provenance {
    /// The recorded justification for `fact`, if it was derived by a rule
    /// (EDB facts have none).
    pub fn justification(&self, fact: &Atom) -> Option<&Justification> {
        self.justifications.get(fact)
    }

    /// Records (or replaces) the justification for `fact`. The incremental
    /// engine uses this to memoise rederivation witnesses: the next deletion
    /// touching `fact` re-checks the stored premises before falling back to
    /// a head-seeded probe.
    pub fn record(&mut self, fact: Atom, justification: Justification) {
        self.justifications.insert(fact, justification);
    }

    /// Drops the justification for `fact` (when the fact is retracted for
    /// good, its witness must not outlive it).
    pub fn forget(&mut self, fact: &Atom) {
        self.justifications.remove(fact);
    }

    /// Number of justified facts.
    pub fn len(&self) -> usize {
        self.justifications.len()
    }

    /// True iff nothing was derived.
    pub fn is_empty(&self) -> bool {
        self.justifications.is_empty()
    }

    /// Builds the constructive proof tree of `fact`. Facts with no recorded
    /// justification are leaves if they are in `edb`, otherwise `None`
    /// (the atom does not hold).
    pub fn proof(&self, fact: &Atom, edb: &Database) -> Option<ProofTree> {
        if let Some(j) = self.justifications.get(fact) {
            let children = j
                .premises
                .iter()
                .map(|p| self.proof(p, edb))
                .collect::<Option<Vec<_>>>()?;
            Some(ProofTree::Derived {
                atom: fact.clone(),
                rule: j.rule,
                children,
                negatives: j.negatives.clone(),
            })
        } else if edb.contains_atom(fact) {
            Some(ProofTree::Fact(fact.clone()))
        } else {
            None
        }
    }
}

/// A constructive proof of one fact (Bry Prop. 5.1's tree, materialised).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProofTree {
    /// A stored (extensional) fact: a proof of itself.
    Fact(Atom),
    /// A rule application: proofs of the premises plus the negative
    /// failure witnesses.
    Derived {
        atom: Atom,
        rule: usize,
        children: Vec<ProofTree>,
        negatives: Vec<Atom>,
    },
}

impl ProofTree {
    /// The proven atom.
    pub fn atom(&self) -> &Atom {
        match self {
            ProofTree::Fact(a) => a,
            ProofTree::Derived { atom, .. } => atom,
        }
    }

    /// Tree height: 1 for a leaf.
    pub fn height(&self) -> usize {
        match self {
            ProofTree::Fact(_) => 1,
            ProofTree::Derived { children, .. } => {
                1 + children.iter().map(|c| c.height()).max().unwrap_or(0)
            }
        }
    }

    /// Every atom the proof *depends negatively on* (Bry Def. 5.1),
    /// anywhere in the tree.
    pub fn negative_dependencies(&self) -> Vec<Atom> {
        let mut out = Vec::new();
        self.walk(&mut |t| {
            if let ProofTree::Derived { negatives, .. } = t {
                out.extend(negatives.iter().cloned());
            }
        });
        out.sort();
        out.dedup();
        out
    }

    fn walk(&self, f: &mut impl FnMut(&ProofTree)) {
        f(self);
        if let ProofTree::Derived { children, .. } = self {
            for c in children {
                c.walk(f);
            }
        }
    }

    fn render(&self, indent: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pad = "  ".repeat(indent);
        match self {
            ProofTree::Fact(a) => writeln!(f, "{pad}{a}  [fact]"),
            ProofTree::Derived {
                atom,
                rule,
                children,
                negatives,
            } => {
                writeln!(f, "{pad}{atom}  [rule {rule}]")?;
                for n in negatives {
                    writeln!(f, "{pad}  !{n}  [fails]")?;
                }
                for c in children {
                    c.render(indent + 1, f)?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for ProofTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.render(0, f)
    }
}

/// Stratified evaluation that records provenance. Accepts any stratified
/// program (definite programs are a single stratum).
pub fn eval_with_provenance(
    program: &Program,
    edb: &Database,
) -> Result<(EvalResult, Provenance), EvalError> {
    program.validate().map_err(EvalError::Invalid)?;
    let strat = stratify(program)?;
    let mut db = seed_database(program, edb);
    let mut metrics = EvalMetrics::default();
    let mut prov = Provenance::default();
    let mut scratch = ExecScratch::new();

    // Indexed rule list per stratum, keeping source indices for the
    // justification records.
    for layer in 0..strat.len().max(1) {
        let rules: Vec<(usize, &Rule)> = program
            .rules
            .iter()
            .enumerate()
            .filter(|(_, r)| strat.stratum_of(r.head.predicate()) == layer)
            .collect();
        if rules.is_empty() {
            continue;
        }
        let compiled: Vec<(usize, CompiledRule)> = rules
            .iter()
            .map(|(i, r)| Ok((*i, compile_rule(r)?)))
            .collect::<Result<_, crate::order::Unorderable>>()?;
        // Binding-row plans: a justification needs the body instance, not
        // just the head.
        let plans: Vec<RulePlan> = compiled
            .iter()
            .map(|(_, r)| compile_binding_plan(r))
            .collect();
        metrics.exec.plans_compiled += plans.len() as u64;

        // Naive rounds within the stratum (provenance favours clarity over
        // delta bookkeeping; the recorded trees are identical).
        loop {
            metrics.iterations += 1;
            for (_, r) in &compiled {
                ensure_rule_indexes(r, &mut db);
            }
            let mut fresh: Vec<(Atom, Justification)> = Vec::new();
            for ((ri, rule), plan) in compiled.iter().zip(&plans) {
                let input = JoinInput::naive(&db);
                let _ = exec_plan(plan, &input, &mut scratch, &mut metrics, &mut |_, bind| {
                    let head = rule.head.instantiate(bind);
                    if db.contains_atom(&head) {
                        return Emitted::Duplicate;
                    }
                    let mut premises = Vec::new();
                    let mut negatives = Vec::new();
                    for lit in &rule.body {
                        let atom = lit.atom.instantiate(bind);
                        match lit.polarity {
                            Polarity::Positive => premises.push(atom),
                            Polarity::Negative => negatives.push(atom),
                        }
                    }
                    fresh.push((
                        head,
                        Justification {
                            rule: *ri,
                            premises,
                            negatives,
                        },
                    ));
                    Emitted::New
                });
            }
            let mut grew = false;
            for (atom, j) in fresh {
                // invariant: `fresh` only holds atoms built from ground
                // tuples above.
                if db.insert_atom(&atom).expect("ground") {
                    prov.justifications.entry(atom).or_insert(j);
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
    }
    Ok((
        EvalResult {
            db,
            metrics,
            completion: Completion::Complete,
        },
        prov,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use alexander_parser::{parse, parse_atom};

    fn setup(src: &str) -> (Program, Database) {
        let parsed = parse(src).unwrap();
        let edb = Database::from_program(&parsed.program);
        let program = Program {
            rules: parsed.program.rules,
            facts: Vec::new(),
        };
        (program, edb)
    }

    #[test]
    fn proof_tree_of_a_chain_derivation() {
        let (program, edb) = setup(
            "
            par(a, b). par(b, c). par(c, d).
            anc(X, Y) :- par(X, Y).
            anc(X, Y) :- par(X, Z), anc(Z, Y).
        ",
        );
        let (result, prov) = eval_with_provenance(&program, &edb).unwrap();
        assert_eq!(result.db.len_of(alexander_ir::Predicate::new("anc", 2)), 6);

        let goal = parse_atom("anc(a, d)").unwrap();
        let proof = prov.proof(&goal, &edb).expect("anc(a,d) holds");
        assert_eq!(proof.atom(), &goal);
        // a->d goes through the recursive rule at least twice: height >= 3.
        assert!(proof.height() >= 3, "{proof}");
        let shown = proof.to_string();
        assert!(shown.contains("anc(a, d)"), "{shown}");
        assert!(shown.contains("[fact]"), "{shown}");
    }

    #[test]
    fn edb_facts_prove_themselves() {
        let (program, edb) = setup("par(a, b). anc(X, Y) :- par(X, Y).");
        let (_, prov) = eval_with_provenance(&program, &edb).unwrap();
        let fact = parse_atom("par(a, b)").unwrap();
        assert_eq!(prov.proof(&fact, &edb), Some(ProofTree::Fact(fact.clone())));
        assert!(prov.justification(&fact).is_none());
    }

    #[test]
    fn non_facts_have_no_proof() {
        let (program, edb) = setup("par(a, b). anc(X, Y) :- par(X, Y).");
        let (_, prov) = eval_with_provenance(&program, &edb).unwrap();
        assert!(prov
            .proof(&parse_atom("anc(b, a)").unwrap(), &edb)
            .is_none());
    }

    #[test]
    fn negative_dependencies_are_reported() {
        let (program, edb) = setup(
            "
            node(a). node(b). bad(b).
            blocked(X) :- bad(X).
            good(X) :- node(X), !blocked(X).
        ",
        );
        let (_, prov) = eval_with_provenance(&program, &edb).unwrap();
        let proof = prov
            .proof(&parse_atom("good(a)").unwrap(), &edb)
            .expect("good(a) holds");
        let negs: Vec<String> = proof
            .negative_dependencies()
            .iter()
            .map(|a| a.to_string())
            .collect();
        assert_eq!(negs, ["blocked(a)"]);
        assert!(proof.to_string().contains("!blocked(a)  [fails]"));
    }

    #[test]
    fn justification_records_the_rule_index() {
        let (program, edb) = setup(
            "
            par(a, b). par(b, c).
            anc(X, Y) :- par(X, Y).
            anc(X, Y) :- par(X, Z), anc(Z, Y).
        ",
        );
        let (_, prov) = eval_with_provenance(&program, &edb).unwrap();
        let base = prov
            .justification(&parse_atom("anc(a, b)").unwrap())
            .unwrap();
        assert_eq!(base.rule, 0);
        let step = prov
            .justification(&parse_atom("anc(a, c)").unwrap())
            .unwrap();
        assert_eq!(step.rule, 1);
        assert_eq!(step.premises.len(), 2);
    }

    #[test]
    fn provenance_agrees_with_plain_evaluation() {
        let (program, edb) = setup(
            "
            e(a, b). e(b, c). e(c, a). e(c, d).
            tc(X, Y) :- e(X, Y).
            tc(X, Y) :- e(X, Z), tc(Z, Y).
        ",
        );
        let (with, prov) = eval_with_provenance(&program, &edb).unwrap();
        let plain = crate::seminaive::eval_seminaive(&program, &edb).unwrap();
        let tc = alexander_ir::Predicate::new("tc", 2);
        assert_eq!(with.db.len_of(tc), plain.db.len_of(tc));
        // Every derived fact has a proof, and the proofs are well-founded
        // even on the cyclic graph.
        for a in with.db.atoms_of(tc) {
            let p = prov
                .proof(&a, &edb)
                .unwrap_or_else(|| panic!("no proof for {a}"));
            assert!(p.height() <= 50, "suspiciously deep proof for {a}");
        }
    }

    #[test]
    fn proofs_in_higher_strata_reach_into_lower_ones() {
        let (program, edb) = setup(
            "
            edge(s, a). edge(a, b). node(s). node(a). node(b). node(z).
            source(s).
            reach(X) :- source(S), edge(S, X).
            reach(Y) :- reach(X), edge(X, Y).
            unreach(X) :- node(X), !reach(X).
        ",
        );
        let (_, prov) = eval_with_provenance(&program, &edb).unwrap();
        let proof = prov
            .proof(&parse_atom("unreach(z)").unwrap(), &edb)
            .expect("z is unreachable");
        assert_eq!(proof.negative_dependencies()[0].to_string(), "reach(z)");
    }
}
