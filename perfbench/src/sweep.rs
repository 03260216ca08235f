//! The layer sweep: a short pass through every layer over small seeded
//! inputs, traced apart from the workload. A traced run reads a per-layer
//! metric off the sweep only when the workload's own operations never
//! reach that layer, so every metric is measured on every workload and a
//! change to an unreached layer still shows.
//!
//! The sweep writes a snapshot and an empty WAL, recovers them, commits
//! `COMMITS` batches (so `par` and `link` are both maintained and logged),
//! recovers again over the longer WAL, then queries `anc` under every
//! strategy of a positive program and `win` under every strategy of the
//! game. Answers are checked by BFS and by backward induction over the move
//! DAG. Last, it commits `par` batches to a program whose only rule is the
//! non-recursive `grand`, so support counts alone maintain them.

use crate::data::{database, program, random_chords, random_dag, ring, Mutator, GRAND, WIN};
use crate::oracle::{winners, Graph, Replay};
use crate::pipeline::{Kind, Maintained, Pipeline};
use crate::rng::{stream, Rng};
use crate::strategy_mix::{GAME, POSITIVE};
use crate::trace::Tracer;
use crate::update_mix::recover;
use crate::wire::answer_ids;
use alexander_durable::{write_snapshot, Wal};
use alexander_eval::IncrementalEngine;
use std::path::Path;

const PAR_NODES: usize = 200;
const PAR_EDGES: usize = 400;
const LINK_NODES: usize = 20;
const LINK_CHORDS: usize = 20;
const MOVE_NODES: usize = 100;
const MOVE_EDGES: usize = 200;
/// Batches committed; every eighth changes `link`.
const COMMITS: u64 = 16;
/// Queries per (family, strategy) cell.
const QUERIES: u64 = 4;

/// Runs the sweep with its store files in `dir`; returns its trace.
pub fn sweep(seed: u64, dir: &Path) -> Result<Tracer, String> {
    let mut tr = Tracer::new();
    let par = random_dag(&mut Rng::new(seed, stream::SWEEP), PAR_NODES, PAR_EDGES);
    let chords = random_chords(
        &mut Rng::new(seed, stream::SWEEP + 1),
        LINK_NODES,
        LINK_CHORDS,
    );
    let mut link = ring(LINK_NODES);
    link.extend_from_slice(chords.edges());
    let (snap, wal) = (dir.join("sweep.snap"), dir.join("sweep.wal"));
    let edb = database(&[("par", par.edges()), ("link", &link)]);
    tr.span("durable.snapshot_write", 0, |_| write_snapshot(&edb, &snap))
        .map_err(|e| e.to_string())?;
    Wal::create(&wal).map_err(|e| e.to_string())?;

    let mut op = 1;
    let mut pipe = recover(&mut tr, op, &snap, &wal)?;
    let mut replay = Replay {
        par: Graph::new(PAR_NODES, par.edges()),
        link: Graph::new(LINK_NODES, &link),
    };
    let mut writer = Mutator::new(Rng::new(seed, stream::SWEEP + 2), par.clone(), PAR_NODES)
        .with_link(chords, LINK_NODES);
    for _ in 0..COMMITS {
        op += 1;
        let b = writer.next_batch();
        pipe.commit(&mut tr, op, &b.ops())?;
        replay.apply(&b);
    }
    drop(pipe);
    op += 1;
    let pipe = recover(&mut tr, op, &snap, &wal)?;

    let mut rng = Rng::new(seed, stream::SWEEP + 3);
    for strategy in POSITIVE {
        for _ in 0..QUERIES {
            op += 1;
            let k = rng.below(PAR_NODES) as u32;
            let line = format!("QUERY anc(n{k}, X) STRATEGY {strategy}");
            let answers = answer_ids(&pipe.query(&mut tr, op, &line)?, 1)?;
            if answers != replay.par.reach(k) {
                return Err(format!("sweep: {line} disagrees with BFS"));
            }
        }
    }

    let moves = random_dag(
        &mut Rng::new(seed, stream::SWEEP + 4),
        MOVE_NODES,
        MOVE_EDGES,
    );
    let won = winners(MOVE_NODES, moves.edges());
    let game = Pipeline::new(
        program(WIN),
        database(&[("move", moves.edges())]),
        None,
        None,
    )?;
    for strategy in GAME {
        for _ in 0..QUERIES {
            op += 1;
            let k = rng.below(MOVE_NODES) as u32;
            let line = format!("QUERY win(n{k}) STRATEGY {strategy}");
            let answers = answer_ids(&game.query(&mut tr, op, &line)?, 0)?;
            if answers
                != won
                    .contains(&k)
                    .then_some(k)
                    .into_iter()
                    .collect::<Vec<_>>()
            {
                return Err(format!("sweep: {line} disagrees with backward induction"));
            }
        }
    }

    let edb = database(&[("par", par.edges())]);
    let engine = IncrementalEngine::new(program(GRAND), edb.clone()).map_err(|e| e.to_string())?;
    let maintained = Maintained {
        engine,
        kinds: &[("par", Kind::Counted)],
    };
    let mut counted = Pipeline::new(program(GRAND), edb, None, Some(maintained))?;
    let mut writer = Mutator::new(Rng::new(seed, stream::SWEEP + 5), par, PAR_NODES);
    for _ in 0..COMMITS {
        op += 1;
        counted.commit(&mut tr, op, &writer.next_batch().ops())?;
    }
    for f in [&snap, &wal] {
        std::fs::remove_file(f).map_err(|e| e.to_string())?;
    }
    Ok(tr)
}
