//! `update-mix`: durable commits with maintenance, reads between them,
//! and a set-up that is crash recovery.
//!
//! The program keeps `anc` over an acyclic `par` (cheap DRed), `reach` over
//! a cyclic `link` (one large SCC, where DRed over-deletes) and the
//! non-recursive `grand` over `par` (support counts). Set-up writes a
//! snapshot plus committed WAL batches, untimed, and times the service
//! recovering them. Then read slices, in which one reader connection
//! issues `anc(nK, X)`, alternate with commit slices, in which one writer
//! connection commits batches from [`Mutator`] back to back. Reads and
//! commits never overlap: with both running, a two-core host's scheduler
//! set the reader's numbers more than the query path did. Each read
//! slice's replies are checked against BFS at the generation it saw.

use crate::data::{
    database, program, random_chords, random_dag, ring, Batch, Mutator, ANC, GRAND, REACH,
};
use crate::drive::{
    expect, interleave, outcome, overhead_ratio, ping, replay_probe, set_up, Args, Checker, Draw,
    Plan, Queries,
};
use crate::oracle::{Graph, Replay};
use crate::pipeline::{maintain, Kind, Maintained, Pipeline};
use crate::report::Outcome;
use crate::rng::{stream, Rng};
use crate::trace::Tracer;
use crate::wire::{answer_ids, peak_rss_mb, Reply, Served};
use alexander_durable::{
    apply_to_database, read_snapshot, read_wal, write_snapshot, Op, Wal, WalRecord,
};
use alexander_eval::IncrementalEngine;
use alexander_ir::Program;
use alexander_parser::parse_atom;
use alexander_storage::Database;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub const PAR_NODES: usize = 4000;
pub const PAR_EDGES: usize = 8000;
pub const LINK_NODES: usize = 100;
pub const LINK_CHORDS: usize = 100;
/// Committed batches the recovered WAL holds.
pub const HISTORY: usize = 256;
/// Set-ups per run: each recovers the store (about 1–3 s).
pub const SETUPS: usize = 3;
/// Share of `--seconds` spent on reads; commits get the rest.
const READ_SHARE: f64 = 0.5;
/// The maintenance span of a batch, by the EDB predicate it changes.
const KINDS: &[(&str, Kind)] = &[("par", Kind::Acyclic), ("link", Kind::Cyclic)];

fn rules() -> Program {
    program(&format!("{ANC} {REACH} {GRAND}"))
}

/// The generated store: the snapshot's EDB, the logged history, and the
/// writer's stream continuing from the state the history leaves.
struct Inputs {
    snapshot: Database,
    history: Vec<Batch>,
    replay: Replay,
    writer: Mutator,
}

fn inputs(seed: u64) -> Inputs {
    let par = random_dag(&mut Rng::new(seed, stream::GRAPH), PAR_NODES, PAR_EDGES);
    let chords = random_chords(&mut Rng::new(seed, stream::LINK), LINK_NODES, LINK_CHORDS);
    let mut link = ring(LINK_NODES);
    link.extend_from_slice(chords.edges());
    let snapshot = database(&[("par", par.edges()), ("link", &link)]);
    let mut replay = Replay {
        par: Graph::new(PAR_NODES, par.edges()),
        link: Graph::new(LINK_NODES, &link),
    };
    let mut m =
        Mutator::new(Rng::new(seed, stream::HISTORY), par, PAR_NODES).with_link(chords, LINK_NODES);
    let history: Vec<Batch> = (0..HISTORY).map(|_| m.next_batch()).collect();
    for b in &history {
        replay.apply(b);
    }
    let writer = m.reseeded(Rng::new(seed, stream::WRITER));
    Inputs {
        snapshot,
        history,
        replay,
        writer,
    }
}

fn records(b: &Batch) -> Vec<WalRecord> {
    b.ops()
        .iter()
        .map(|(insert, fact)| {
            let atom = parse_atom(fact).expect("generated facts parse");
            let rec = if *insert {
                WalRecord::insert(&atom)
            } else {
                WalRecord::delete(&atom)
            };
            rec.expect("generated facts are ground")
        })
        .collect()
}

/// Writes the snapshot and the committed history, untimed.
fn write_store(dir: &Path, inp: &Inputs) -> Result<(PathBuf, PathBuf), String> {
    let (snap, wal) = (dir.join("db.snap"), dir.join("db.wal"));
    write_snapshot(&inp.snapshot, &snap).map_err(|e| e.to_string())?;
    let mut log = Wal::create(&wal).map_err(|e| e.to_string())?;
    for b in &inp.history {
        log.append_batch(&records(b)).map_err(|e| e.to_string())?;
    }
    Ok((snap, wal))
}

fn draw(rng: &mut Rng, _kind: usize) -> Draw {
    let key = rng.below(PAR_NODES) as u32;
    Draw {
        conn: 0,
        cell: 0,
        key,
        text: format!("anc(n{key}, X)"),
        arg: 1,
    }
}

pub fn run(a: &Args) -> Result<Outcome, String> {
    let inp = inputs(a.seed);
    let dir = a.workdir().map_err(|e| e.to_string())?;
    let (snap, wal) = write_store(&dir, &inp)?;
    let (served, setups) = set_up(
        SETUPS,
        || Served::open(rules(), Database::new(), Some((&snap, &wal))).map_err(|e| e.to_string()),
        Served::close,
    )?;
    served.confirm().map_err(|e| e.to_string())?;
    let Inputs { writer, replay, .. } = inp;
    let mut checker = Checker::new(writer.clone(), replay, |rp: &Replay, r: &Reply| {
        expect(
            &format!("anc(n{}, X)", r.key),
            &r.answers,
            &rp.par.reach(r.key),
        )
    });
    let plan = Plan {
        readers: 1,
        addrs: std::slice::from_ref(&served.addr),
        kinds: 1,
        draw: &draw,
        commit_to: 0,
        read_share: READ_SHARE,
    };
    let run = interleave(a, &plan, writer, &mut checker);
    let rss = peak_rss_mb();
    served.close();
    let _ = fs::remove_dir_all(&dir);
    Ok(outcome(&setups, &run?, rss))
}

/// Recovery as a durable service recovers, one layer call per span:
/// snapshot read, materialisation of the whole program in one engine, WAL
/// read, replay of each logged batch.
pub fn recover(tr: &mut Tracer, op: u64, snap: &Path, wal: &Path) -> Result<Pipeline, String> {
    let edb = tr
        .span("durable.snapshot_read", op, |_| read_snapshot(snap))
        .map_err(|e| e.to_string())?;
    let engine = tr
        .span("eval.materialize", op, |_| {
            IncrementalEngine::new(rules(), edb.clone())
        })
        .map_err(|e| e.to_string())?;
    let mut maintained = Maintained {
        engine,
        kinds: KINDS,
    };
    let contents = tr
        .span("durable.wal_read", op, |_| read_wal(wal))
        .map_err(|e| e.to_string())?;
    tr.span("durable.replay", op, |_| -> Result<(), String> {
        for batch in &contents.batches {
            let ops: Vec<_> = batch
                .records
                .iter()
                .map(|r| (r.op == Op::Insert, r.atom()))
                .collect();
            maintain(&mut Tracer::disabled(), op, &mut maintained, &ops)?;
        }
        Ok(())
    })?;
    let mut shadow = edb;
    apply_to_database(&contents.batches, &mut shadow);
    let log = Wal::open_append(wal, &contents).map_err(|e| e.to_string())?;
    Pipeline::new(rules(), shadow, Some(log), Some(maintained))
}

pub fn traced(a: &Args) -> Result<Outcome, String> {
    let inp = inputs(a.seed);
    let dir = a.workdir().map_err(|e| e.to_string())?;
    let (snap, wal) = write_store(&dir, &inp)?;
    let mut tr = Tracer::new();
    let mut op = 0u64;
    let (mut pipe, _) = set_up(
        SETUPS,
        || {
            op += 1;
            let start = Instant::now();
            let pipe = tr.span("setup", op, |tr| recover(tr, op, &snap, &wal))?;
            Ok((pipe, start.elapsed().as_secs_f64()))
        },
        drop,
    )?;

    let (idle, _) = Served::open(rules(), Database::new(), None).map_err(|e| e.to_string())?;
    ping(&mut tr, &idle.addr, 200).map_err(|e| e.to_string())?;
    idle.close();

    let Inputs { writer, replay, .. } = inp;
    let (read_window, commit_window) = a.windows(READ_SHARE);
    let mut reader = Queries::new(a, 0, 1);
    let end = Instant::now() + read_window;
    let mut attempted = 0u64;
    while Instant::now() < end {
        let d = reader.next(&draw);
        attempted += 1;
        op += 1;
        let answers = pipe.query(&mut tr, op, &format!("QUERY {}", d.text))?;
        expect(
            &d.text,
            &answer_ids(&answers, d.arg)?,
            &replay.par.reach(d.key),
        )?;
    }
    attempted += replay_probe(&mut tr, &mut op, &mut pipe, writer, commit_window)?;

    let mut first = Queries::new(a, 0, 1);
    let lines: Vec<String> = (0..200)
        .map(|_| format!("QUERY {}", first.next(&draw).text))
        .collect();
    let ratio = overhead_ratio(lines.len(), |t, i| pipe.query(t, 0, &lines[i]).map(drop))?;
    tr.count("trace.overhead_ratio", 0, ratio);
    tr.count("storage.edb_facts", 0, pipe.edb_facts() as f64);
    tr.count("storage.idb_facts", 0, pipe.idb_facts()? as f64);
    drop(pipe);
    a.finish_traced(&dir, &tr, attempted)
}
