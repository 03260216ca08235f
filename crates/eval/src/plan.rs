//! The rule-plan compiler: lowers a [`CompiledRule`] into a flat sequence of
//! columnar operators for the rule executor.
//!
//! [`compile_rule`](crate::join::compile_rule) already did the semantic
//! work — body reordering, dense variable slots, per-literal bound masks and
//! key sources. This pass finishes the lowering into a shape the executor
//! can drive without re-deriving anything per tuple: each positive literal
//! becomes an [`PlanOp::Access`] that knows, statically, which columns form
//! its probe key, which columns *load* a newly bound variable into which
//! binding slot, and which columns must *equal* an earlier column of the
//! same candidate row (a repeated free variable). Built-ins and negative
//! literals become filter operators over whole binding blocks.
//!
//! One plan serves every join variant of a rule: the semi-naive delta
//! position is a property of the [`JoinInput`](crate::join::JoinInput), not
//! the plan, so the executor compares each access's literal index against
//! the input's delta position at run time. Plans are compiled once per
//! fixpoint run and shared read-only across workers.

use crate::join::{BodyPat, CompiledRule, Pat};
use alexander_ir::{Builtin, Polarity, Predicate};
use alexander_storage::Mask;

/// One columnar operator of a compiled rule plan. Each operator consumes a
/// block of binding rows and produces a block of extended (or filtered)
/// binding rows for the next operator.
#[derive(Clone, Debug)]
pub enum PlanOp {
    /// A positive literal: an arena scan or a hash probe against the
    /// key-less projection index of `pred`, restricted to the delta's id
    /// range when `lit` is the input's delta position.
    Access {
        /// Index of the source literal in the rule body (== this op's
        /// position in the plan); compared against the delta position.
        lit: usize,
        pred: Predicate,
        /// Columns bound when the join reaches this literal.
        mask: Mask,
        /// The mask's columns with their value sources, ascending by
        /// column — the probe key, hashed in place per binding row.
        key: Vec<(u32, Pat)>,
        /// `(column, slot)`: the candidate row's column that binds variable
        /// slot `slot` (first occurrence of each free variable).
        load: Vec<(u32, u32)>,
        /// `(column, earlier_column)`: a repeated free variable — the
        /// candidate row must carry equal values in both columns.
        eqs: Vec<(u32, u32)>,
    },
    /// A built-in comparison over two ground terms; keeps rows where the
    /// comparison's truth equals `want` (negated built-ins want `false`).
    Builtin {
        b: Builtin,
        lhs: Pat,
        rhs: Pat,
        want: bool,
    },
    /// A negative literal: keeps rows whose instantiated atom is *absent*
    /// from the negative-source database.
    Negative { pred: Predicate, args: Vec<Pat> },
}

/// A rule lowered to a flat operator pipeline plus its head projection.
#[derive(Clone, Debug)]
pub struct RulePlan {
    pub head_pred: Predicate,
    /// The head projection: one [`Pat`] per head column, resolved against a
    /// fully bound binding row.
    pub head: Vec<Pat>,
    /// The operator pipeline, one per body literal, in evaluation order.
    pub ops: Vec<PlanOp>,
    /// Width of a binding row (the rule's dense variable slot count).
    pub nvars: usize,
}

/// Compiles the run's plan cache, one plan per rule. Charges
/// `plans_compiled` so the metrics expose how many plans the run cached.
pub(crate) fn compile_plans(
    rules: &[CompiledRule],
    metrics: &mut crate::metrics::EvalMetrics,
) -> Vec<RulePlan> {
    metrics.exec.plans_compiled += rules.len() as u64;
    rules.iter().map(compile_plan).collect()
}

/// Lowers one compiled rule into its operator pipeline.
pub fn compile_plan(rule: &CompiledRule) -> RulePlan {
    let ops = rule
        .body
        .iter()
        .enumerate()
        .map(|(i, lit)| lower_literal(i, lit))
        .collect();
    RulePlan {
        head_pred: rule.head.pred,
        head: rule.head.args.clone(),
        ops,
        nvars: rule.nvars,
    }
}

/// Lowers `rule` like [`compile_plan`], but projects the whole binding row
/// — every variable slot, in slot order — instead of the head. Callers that
/// rebuild body instances from a match (conditional statements,
/// justifications, rederivation witnesses) read the slots off the emitted
/// row with [`AtomPat::instantiate`](crate::join::AtomPat::instantiate).
pub fn compile_binding_plan(rule: &CompiledRule) -> RulePlan {
    RulePlan {
        head: (0..rule.nvars as u32).map(Pat::Var).collect(),
        ..compile_plan(rule)
    }
}

fn lower_literal(lit_index: usize, lit: &BodyPat) -> PlanOp {
    // Built-in comparisons are native filters whatever their polarity; the
    // body ordering guarantees their arguments are ground here.
    if let Some(b) = Builtin::of(lit.atom.pred) {
        return PlanOp::Builtin {
            b,
            lhs: lit.atom.args[0],
            rhs: lit.atom.args[1],
            want: lit.polarity == Polarity::Positive,
        };
    }
    if lit.polarity == Polarity::Negative {
        return PlanOp::Negative {
            pred: lit.atom.pred,
            args: lit.atom.args.clone(),
        };
    }
    // Positive access. Unmasked positions are always free variables
    // (constants are unconditionally bound): the first occurrence of each
    // free variable loads it, later occurrences become equality constraints
    // against the loading column.
    let mut load: Vec<(u32, u32)> = Vec::new();
    let mut eqs: Vec<(u32, u32)> = Vec::new();
    for (i, p) in lit.atom.args.iter().enumerate() {
        let masked = lit.mask.columns().any(|c| c == i);
        if masked {
            continue;
        }
        match p {
            // invariant: compile_rule masks every constant position.
            Pat::Const(_) => unreachable!("constant at unmasked position"),
            Pat::Var(v) => match load.iter().find(|&&(_, slot)| slot == *v) {
                Some(&(first_col, _)) => eqs.push((i as u32, first_col)),
                None => load.push((i as u32, *v)),
            },
        }
    }
    PlanOp::Access {
        lit: lit_index,
        pred: lit.atom.pred,
        mask: lit.mask,
        key: lit.bound.clone(),
        load,
        eqs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::compile_rule;
    use alexander_ir::{atom, Literal, Rule, Term};

    #[test]
    fn lowers_composition_rule() {
        // p(X, Y) :- e(X, Z), e(Z, Y).
        let r = Rule::new(
            atom("p", [Term::var("X"), Term::var("Y")]),
            vec![
                Literal::pos(atom("e", [Term::var("X"), Term::var("Z")])),
                Literal::pos(atom("e", [Term::var("Z"), Term::var("Y")])),
            ],
        );
        let plan = compile_plan(&compile_rule(&r).unwrap());
        assert_eq!(plan.nvars, 3);
        assert_eq!(plan.ops.len(), 2);
        let PlanOp::Access {
            mask,
            key,
            load,
            eqs,
            ..
        } = &plan.ops[0]
        else {
            panic!("first op must be an access");
        };
        assert!(mask.is_empty());
        assert!(key.is_empty());
        assert_eq!(load.len(), 2, "binds X and Z");
        assert!(eqs.is_empty());
        let PlanOp::Access {
            mask, key, load, ..
        } = &plan.ops[1]
        else {
            panic!("second op must be an access");
        };
        assert_eq!(mask.count(), 1, "Z is bound");
        assert_eq!(key.len(), 1);
        assert_eq!(load.len(), 1, "binds Y");
    }

    #[test]
    fn repeated_free_variable_becomes_equality() {
        // loop(X) :- e(X, X).
        let r = Rule::new(
            atom("loop", [Term::var("X")]),
            vec![Literal::pos(atom("e", [Term::var("X"), Term::var("X")]))],
        );
        let plan = compile_plan(&compile_rule(&r).unwrap());
        let PlanOp::Access { load, eqs, .. } = &plan.ops[0] else {
            panic!("must be an access");
        };
        assert_eq!(load, &[(0, 0)], "column 0 loads slot 0");
        assert_eq!(eqs, &[(1, 0)], "column 1 must equal column 0");
    }

    #[test]
    fn negatives_and_builtins_become_filters() {
        // q(X) :- e(X, Y), lt(X, Y), !blocked(X).
        let r = Rule::new(
            atom("q", [Term::var("X")]),
            vec![
                Literal::pos(atom("e", [Term::var("X"), Term::var("Y")])),
                Literal::pos(atom("lt", [Term::var("X"), Term::var("Y")])),
                Literal::neg(atom("blocked", [Term::var("X")])),
            ],
        );
        let plan = compile_plan(&compile_rule(&r).unwrap());
        assert!(matches!(plan.ops[0], PlanOp::Access { .. }));
        assert!(matches!(plan.ops[1], PlanOp::Builtin { want: true, .. }));
        assert!(matches!(plan.ops[2], PlanOp::Negative { .. }));
    }
}
