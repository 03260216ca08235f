//! The in-process replay: the steps a served `QUERY` and `COMMIT` take,
//! called one by one through the public functions of `server`, `parser`,
//! `core`, `transform`, `eval`, `topdown` and `durable`, each inside a span.

use crate::trace::Tracer;
use alexander_core::{Engine, Strategy};
use alexander_durable::{Wal, WalRecord};
use alexander_eval::{
    eval_conditional_opts, eval_seminaive_opts, Budget, EvalMetrics, IncrementalEngine,
};
use alexander_ir::{match_atom, Atom, Polarity, Program, Subst};
use alexander_parser::parse_atom;
use alexander_server::proto::parse_request;
use alexander_server::{Admission, Epoch, EpochStore, Request, ServerConfig};
use alexander_storage::Database;
use alexander_topdown::{oldt_query_opts, qsqr_query_opts, OldtMetrics, OldtOptions, QsqrOptions};
use alexander_transform::{alexander, magic_sets, query_answers, sup_magic_sets, SipOptions};

/// How a maintained relation's deletions are handled, which names the
/// maintenance span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Recursion over an acyclic graph: DRed that stays cheap.
    Acyclic,
    /// Recursion inside one large SCC: DRed that over-deletes.
    Cyclic,
    /// No recursion: exact support counts.
    Counted,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Acyclic => "eval.maint.acyclic",
            Kind::Cyclic => "eval.maint.cyclic",
            Kind::Counted => "eval.maint.counted",
        }
    }
}

/// The materialisation commits keep up to date, as a durable service
/// keeps one engine over its whole program, and the span each changed EDB
/// predicate's maintenance is recorded under.
pub struct Maintained {
    pub engine: IncrementalEngine,
    pub kinds: &'static [(&'static str, Kind)],
}

/// One service's state, laid out the way its layers hold it.
pub struct Pipeline {
    /// The served program with inline facts folded out.
    program: Program,
    admission: Admission,
    epochs: EpochStore,
    /// The writer's copy of the EDB that the next epoch is staged from.
    shadow: Database,
    wal: Option<Wal>,
    maintained: Option<Maintained>,
}

impl Pipeline {
    pub fn new(
        program: Program,
        edb: Database,
        wal: Option<Wal>,
        maintained: Option<Maintained>,
    ) -> Result<Pipeline, String> {
        let engine = Engine::new(program, edb).map_err(|e| e.to_string())?;
        let c = ServerConfig::default();
        Ok(Pipeline {
            program: engine.program().clone(),
            admission: Admission::new(c.max_concurrent, c.tenant_cap, c.max_queue),
            shadow: engine.edb().clone(),
            epochs: EpochStore::new(Epoch::new(0, engine)),
            wal,
            maintained,
        })
    }

    /// Serves one `QUERY` line; returns the rendered answers.
    pub fn query(&self, tr: &mut Tracer, op: u64, line: &str) -> Result<Vec<String>, String> {
        let req = tr.span("server.proto.parse", op, |_| parse_request(line))?;
        let Request::Query { atom, strategy } = req else {
            return Err(format!("not a query: {line}"));
        };
        let slot = tr.span("server.admission.wait", op, |_| {
            self.admission.admit("bench")
        });
        tr.count(
            "server.admission.sheds",
            op,
            f64::from(u8::from(slot.is_err())),
        );
        let _slot = slot.map_err(|b| format!("shed, retry after {} ms", b.retry_after_ms))?;
        let epoch = tr.span("server.epoch.pin", op, |_| self.epochs.pin());
        let config = ServerConfig::default();
        let engine = tr.span("core.engine_clone", op, |_| {
            epoch
                .engine()
                .clone()
                .with_threads(config.threads)
                .with_budget(Budget::UNLIMITED)
        });
        let query = tr
            .span("parser.atom", op, |_| parse_atom(&atom))
            .map_err(|e| e.to_string())?;
        let strategy = match strategy {
            None => config.default_strategy,
            Some(name) => Strategy::ALL
                .into_iter()
                .find(|s| s.name() == name)
                .ok_or_else(|| format!("unknown strategy {name}"))?,
        };
        evaluate(tr, op, &engine, &query, strategy)
    }

    /// Serves one batch: buffer each mutation, stage the next epoch, log
    /// the batch, maintain the materialisations, publish. Returns the new
    /// generation.
    pub fn commit(
        &mut self,
        tr: &mut Tracer,
        op: u64,
        ops: &[(bool, String)],
    ) -> Result<u64, String> {
        let mut pending: Vec<(bool, Atom)> = Vec::with_capacity(ops.len());
        let mut records = Vec::with_capacity(ops.len());
        for (insert, fact) in ops {
            let verb = if *insert { "INSERT" } else { "DELETE" };
            let line = format!("{verb} {fact}");
            let req = tr.span("server.proto.parse", op, |_| parse_request(&line))?;
            let (Request::Insert { fact } | Request::Delete { fact }) = req else {
                return Err(format!("not a mutation: {line}"));
            };
            let atom = tr
                .span("parser.atom", op, |_| parse_atom(&fact))
                .map_err(|e| e.to_string())?;
            let rec = tr.span("server.buffer", op, |_| {
                if self.program.is_idb(atom.predicate()) {
                    return Err(format!("{atom} is intensional"));
                }
                if Database::new().insert_atom(&atom).is_err() {
                    return Err(format!("{atom} is not ground"));
                }
                let rec = if *insert {
                    WalRecord::insert(&atom)
                } else {
                    WalRecord::delete(&atom)
                };
                pending.push((*insert, atom.clone()));
                rec.ok_or_else(|| format!("{atom} is not ground"))
            })?;
            records.push(rec);
        }
        tr.span("server.commit", op, |tr| {
            let engine = tr.span("server.commit.stage", op, |_| {
                let mut staged = self.shadow.clone();
                for (insert, atom) in &pending {
                    if *insert {
                        staged
                            .insert_atom(atom)
                            .expect("checked ground at buffer time");
                    } else {
                        staged.remove_atom(atom);
                    }
                }
                Engine::new(self.program.clone(), staged).map_err(|e| e.to_string())
            })?;
            if let Some(wal) = self.wal.as_mut() {
                let before = wal.len();
                tr.span("durable.wal_append", op, |_| wal.append_batch(&records))
                    .map_err(|e| e.to_string())?;
                tr.count("durable.wal_bytes", op, (wal.len() - before) as f64);
                tr.count("durable.wal_records", op, records.len() as f64);
            }
            if let Some(m) = self.maintained.as_mut() {
                maintain(tr, op, m, &pending)?;
            }
            Ok(tr.span("server.epoch.publish", op, |_| {
                self.shadow = engine.edb().clone();
                self.epochs.publish(engine)
            }))
        })
    }

    pub fn edb_facts(&self) -> usize {
        self.shadow.total_tuples()
    }

    /// Derived facts of the program's full model: read off the maintained
    /// materialisation, or else evaluated once from the published epoch.
    pub fn idb_facts(&self) -> Result<usize, String> {
        let count = |program: &Program, db: &Database| -> usize {
            let idb = program.idb_predicates();
            idb.into_iter().map(|p| db.len_of(p)).sum()
        };
        if let Some(m) = &self.maintained {
            return Ok(count(m.engine.program(), m.engine.db()));
        }
        let epoch = self.epochs.pin();
        let engine = epoch.engine();
        let model = eval_conditional_opts(engine.program(), engine.edb(), engine.eval_options())
            .map_err(|e| e.to_string())?;
        Ok(count(engine.program(), &model.db))
    }
}

/// Applies a batch to the materialisation in the span of the predicate the
/// batch changes.
pub fn maintain(
    tr: &mut Tracer,
    op: u64,
    m: &mut Maintained,
    batch: &[(bool, Atom)],
) -> Result<(), String> {
    let Some(pred) = batch.first().map(|(_, a)| a.predicate().name) else {
        return Ok(());
    };
    let (_, kind) = m
        .kinds
        .iter()
        .find(|(p, _)| pred.as_str() == *p)
        .ok_or_else(|| format!("no maintenance kind for `{}`", pred.as_str()))?;
    let out = tr
        .span(kind.span(), op, |_| m.engine.apply_batch(batch))
        .map_err(|e| e.to_string())?;
    tr.count("eval.maint.added", op, out.added as f64);
    tr.count("eval.maint.overdeleted", op, out.overdeleted as f64);
    tr.count("eval.maint.rederived", op, out.rederived as f64);
    Ok(())
}

fn record_eval(tr: &mut Tracer, op: u64, m: &EvalMetrics) {
    for (name, v) in [
        ("eval.new_facts", m.new_facts),
        ("eval.duplicate_facts", m.duplicate_facts),
        ("eval.firings", m.firings),
        ("eval.probes", m.probes),
        ("eval.tuples_considered", m.tuples_considered),
        ("eval.iterations", m.iterations),
        ("eval.blocks", m.exec.blocks_executed),
        ("eval.block_rows", m.exec.block_rows),
    ] {
        tr.count(name, op, v as f64);
    }
}

fn record_topdown(tr: &mut Tracer, op: u64, m: &OldtMetrics) {
    for (name, v) in [
        ("topdown.calls", m.calls),
        ("topdown.answers", m.answers),
        ("topdown.resolution_steps", m.resolution_steps),
        ("topdown.suspensions", m.suspensions),
    ] {
        tr.count(name, op, v as f64);
    }
}

fn matches(pattern: &Atom, a: &Atom) -> bool {
    match_atom(pattern, a, &mut Subst::new())
}

/// Sorts, deduplicates and renders answers, as the server does.
fn encode(mut answers: Vec<Atom>) -> Vec<String> {
    answers.sort();
    answers.dedup();
    answers.iter().map(Atom::to_string).collect()
}

/// `Engine::query`'s strategy dispatch, one layer call per span.
fn evaluate(
    tr: &mut Tracer,
    op: u64,
    engine: &Engine,
    query: &Atom,
    strategy: Strategy,
) -> Result<Vec<String>, String> {
    let (program, edb, opts) = (engine.program(), engine.edb(), engine.eval_options());
    let sip = SipOptions::default();
    let rewrite = match strategy {
        Strategy::Alexander => Some(("transform.rewrite.alexander", "eval.fixpoint.alexander")),
        Strategy::Magic => Some(("transform.rewrite.magic", "eval.fixpoint.magic")),
        Strategy::SupplementaryMagic => {
            Some(("transform.rewrite.supmagic", "eval.fixpoint.supmagic"))
        }
        _ => None,
    };
    if let Some((rw_span, fp_span)) = rewrite {
        let rw = tr
            .span(rw_span, op, |_| match strategy {
                Strategy::Alexander => alexander(program, query, sip),
                Strategy::Magic => magic_sets(program, query, sip),
                _ => sup_magic_sets(program, query, sip),
            })
            .map_err(|e| e.to_string())?;
        let idb = rw.program.idb_predicates();
        let semipositive = rw.program.rules.iter().all(|r| {
            r.body
                .iter()
                .all(|l| l.polarity == Polarity::Positive || !idb.contains(&l.atom.predicate()))
        });
        let (db, metrics, undefined) = tr
            .span(fp_span, op, |_| {
                if semipositive {
                    eval_seminaive_opts(&rw.program, edb, opts).map(|r| (r.db, r.metrics, vec![]))
                } else {
                    eval_conditional_opts(&rw.program, edb, opts)
                        .map(|r| (r.db, r.metrics, r.undefined))
                }
            })
            .map_err(|e| e.to_string())?;
        record_eval(tr, op, &metrics);
        return tr.span("core.answer_encode", op, |_| {
            if undefined
                .iter()
                .any(|a| a.predicate() == rw.query.predicate() && matches(&rw.query, a))
            {
                return Err(format!("answers to {query} are undefined"));
            }
            let raw = query_answers(&db, &rw.query);
            Ok(encode(
                raw.into_iter()
                    .map(|a| Atom {
                        pred: query.pred,
                        terms: a.terms,
                    })
                    .collect(),
            ))
        });
    }
    match strategy {
        Strategy::SemiNaive | Strategy::ConditionalFixpoint => {
            let (db, metrics, undefined) = if strategy == Strategy::SemiNaive {
                tr.span("eval.fixpoint.seminaive", op, |_| {
                    eval_seminaive_opts(program, edb, opts).map(|r| (r.db, r.metrics, vec![]))
                })
            } else {
                tr.span("eval.fixpoint.conditional", op, |_| {
                    eval_conditional_opts(program, edb, opts)
                        .map(|r| (r.db, r.metrics, r.undefined))
                })
            }
            .map_err(|e| e.to_string())?;
            record_eval(tr, op, &metrics);
            tr.span("core.answer_encode", op, |_| {
                if undefined.iter().any(|a| matches(query, a)) {
                    return Err(format!("answers to {query} are undefined"));
                }
                let found = db.atoms_of(query.predicate());
                Ok(encode(
                    found.into_iter().filter(|a| matches(query, a)).collect(),
                ))
            })
        }
        Strategy::Oldt => {
            let r = tr
                .span("topdown.oldt", op, |_| {
                    oldt_query_opts(program, edb, query, OldtOptions::default())
                })
                .map_err(|e| e.to_string())?;
            record_topdown(tr, op, &r.metrics);
            Ok(tr.span("core.answer_encode", op, |_| encode(r.answers)))
        }
        Strategy::Qsqr => {
            let r = tr
                .span("topdown.qsqr", op, |_| {
                    qsqr_query_opts(program, edb, query, QsqrOptions::default())
                })
                .map_err(|e| e.to_string())?;
            record_topdown(tr, op, &r.metrics);
            Ok(tr.span("core.answer_encode", op, |_| encode(r.answers)))
        }
        other => Err(format!("strategy {} is not replayed", other.name())),
    }
}
