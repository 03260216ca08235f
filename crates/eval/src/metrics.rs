//! Machine-independent evaluation counters.
//!
//! The power comparisons of the paper are stated in numbers of generated
//! facts and inference steps, not wall-clock seconds; these counters are the
//! quantities every experiment table reports.

use std::fmt;
use std::ops::AddAssign;

/// Counters accumulated by an evaluation run.
#[derive(Clone, Copy, Default, Debug)]
pub struct EvalMetrics {
    /// Successful full-body rule instantiations (inference steps). Includes
    /// firings that re-derive an already-known fact.
    pub firings: u64,
    /// Facts inserted for the first time.
    pub new_facts: u64,
    /// Firings whose conclusion was already known.
    pub duplicate_facts: u64,
    /// Index/scan probes issued while joining rule bodies.
    pub probes: u64,
    /// Candidate tuples enumerated by those probes.
    pub tuples_considered: u64,
    /// Fixpoint rounds until saturation.
    pub iterations: u64,
    /// Conditional statements generated (conditional-fixpoint runs only).
    pub conditional_statements: u64,
    /// Execution-shape statistics of the executor. Excluded from equality:
    /// they describe how the work was blocked, not what it derived.
    pub exec: ExecStats,
}

/// How the executor shaped its work: how many rule plans were
/// compiled, how many binding blocks flowed through operators, and how many
/// binding rows those blocks carried (so rows/block is derivable).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct ExecStats {
    /// Rule plans compiled (and cached for the run) by the plan compiler.
    pub plans_compiled: u64,
    /// Binding blocks pushed through a plan operator or the emission sink.
    pub blocks_executed: u64,
    /// Binding rows carried by those blocks.
    pub block_rows: u64,
}

impl ExecStats {
    /// Mean binding rows per executed block (0 when nothing ran blocked).
    pub fn rows_per_block(&self) -> f64 {
        if self.blocks_executed == 0 {
            0.0
        } else {
            self.block_rows as f64 / self.blocks_executed as f64
        }
    }
}

impl AddAssign for ExecStats {
    fn add_assign(&mut self, o: ExecStats) {
        self.plans_compiled += o.plans_compiled;
        self.blocks_executed += o.blocks_executed;
        self.block_rows += o.block_rows;
    }
}

impl EvalMetrics {
    /// Total derivations attempted (new + duplicate).
    pub fn derivations(&self) -> u64 {
        self.new_facts + self.duplicate_facts
    }
}

/// Equality compares the logical counters only — the ones the differential
/// tests assert run for run; [`ExecStats`] are shape, not semantics.
impl PartialEq for EvalMetrics {
    fn eq(&self, o: &EvalMetrics) -> bool {
        (
            self.firings,
            self.new_facts,
            self.duplicate_facts,
            self.probes,
            self.tuples_considered,
            self.iterations,
            self.conditional_statements,
        ) == (
            o.firings,
            o.new_facts,
            o.duplicate_facts,
            o.probes,
            o.tuples_considered,
            o.iterations,
            o.conditional_statements,
        )
    }
}

impl Eq for EvalMetrics {}

impl AddAssign for EvalMetrics {
    fn add_assign(&mut self, o: EvalMetrics) {
        self.firings += o.firings;
        self.new_facts += o.new_facts;
        self.duplicate_facts += o.duplicate_facts;
        self.probes += o.probes;
        self.tuples_considered += o.tuples_considered;
        self.iterations += o.iterations;
        self.conditional_statements += o.conditional_statements;
        self.exec += o.exec;
    }
}

impl fmt::Display for EvalMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "firings={} new={} dup={} probes={} considered={} iters={}",
            self.firings,
            self.new_facts,
            self.duplicate_facts,
            self.probes,
            self.tuples_considered,
            self.iterations
        )?;
        if self.conditional_statements > 0 {
            write!(f, " cond={}", self.conditional_statements)?;
        }
        if self.exec.blocks_executed > 0 {
            write!(
                f,
                " blocks={} rows/block={:.1}",
                self.exec.blocks_executed,
                self.exec.rows_per_block()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_assign_accumulates() {
        let mut a = EvalMetrics {
            firings: 1,
            new_facts: 2,
            duplicate_facts: 3,
            probes: 4,
            tuples_considered: 5,
            iterations: 6,
            conditional_statements: 7,
            exec: ExecStats {
                plans_compiled: 1,
                blocks_executed: 2,
                block_rows: 8,
            },
        };
        a += a;
        assert_eq!(a.firings, 2);
        assert_eq!(a.new_facts, 4);
        assert_eq!(a.conditional_statements, 14);
        assert_eq!(a.derivations(), 4 + 6);
        assert_eq!(a.exec.plans_compiled, 2);
        assert_eq!(a.exec.blocks_executed, 4);
        assert_eq!(a.exec.block_rows, 16);
    }

    #[test]
    fn display_is_compact() {
        let m = EvalMetrics::default();
        let s = m.to_string();
        assert!(s.contains("firings=0"));
        assert!(!s.contains("cond="));
        assert!(!s.contains("blocks="));
    }

    #[test]
    fn equality_ignores_exec_shape() {
        // blocked vs tuple runs produce the same logical counters but only
        // the blocked one executes blocks; they must still compare equal.
        let a = EvalMetrics {
            firings: 3,
            ..EvalMetrics::default()
        };
        let mut b = a;
        b.exec.blocks_executed = 7;
        b.exec.block_rows = 700;
        assert_eq!(a, b);
        b.firings = 4;
        assert_ne!(a, b);
    }

    #[test]
    fn rows_per_block_is_safe_on_zero() {
        assert_eq!(ExecStats::default().rows_per_block(), 0.0);
        let s = ExecStats {
            plans_compiled: 1,
            blocks_executed: 4,
            block_rows: 10,
        };
        assert_eq!(s.rows_per_block(), 2.5);
    }
}
