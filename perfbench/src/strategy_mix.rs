//! `strategy-mix`: the paper's head-to-head, served.
//!
//! Two in-memory services: one holds `anc` over a DAG and same-generation
//! over a binary tree (a positive program, so every strategy applies), the
//! other the win–move game over a move DAG (not stratified). Two clients
//! each send `QUERY … STRATEGY s`, drawn evenly over the valid
//! (family, strategy) cells. Read slices alternate with slices in which
//! one connection commits `par` batches to the first service, with no
//! reads running.

use crate::data::{database, program, random_dag, sg_tree, EdgeSet, Mutator, ANC, SG, WIN};
use crate::drive::{
    expect, interleave, outcome, overhead_ratio, ping, replay_probe, set_up, Args, Checker, Draw,
    Plan, Queries, CLIENTS,
};
use crate::oracle::{same_generation, winners, Graph, Replay};
use crate::pipeline::Pipeline;
use crate::report::Outcome;
use crate::rng::{stream, Rng};
use crate::trace::Tracer;
use crate::wire::{answer_ids, peak_rss_mb, Reply, Served};
use alexander_ir::Program;
use alexander_storage::Database;
use std::collections::BTreeSet;
use std::time::Instant;

pub const ANC_NODES: usize = 400;
pub const ANC_EDGES: usize = 800;
pub const SG_DEPTH: u32 = 7;
pub const MOVE_NODES: usize = 400;
pub const MOVE_EDGES: usize = 800;
/// Set-ups per run: an in-memory open takes tens of microseconds, so
/// many are needed for a steady median.
pub const SETUPS: usize = 100;
/// Share of `--seconds` spent on reads; the commit probe gets the rest.
const READ_SHARE: f64 = 0.6;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Family {
    Anc,
    Sg,
    Win,
}

pub const POSITIVE: &[&str] = &[
    "alexander",
    "magic",
    "supmagic",
    "seminaive",
    "oldt",
    "qsqr",
];
pub const GAME: &[&str] = &["alexander", "magic", "supmagic", "conditional"];

/// Every valid (family, strategy) cell; OLDT and QSQR need a stratified
/// program and semi-naive a negation-free one, so the game gets the
/// conditional fixpoint instead.
fn cells() -> Vec<(Family, &'static str)> {
    let mut out = Vec::new();
    for fam in [Family::Anc, Family::Sg] {
        out.extend(POSITIVE.iter().map(|&s| (fam, s)));
    }
    out.extend(GAME.iter().map(|&s| (Family::Win, s)));
    out
}

fn positive_rules() -> Program {
    program(&format!("{ANC} {SG}"))
}

struct Inputs {
    anc: EdgeSet,
    moves: EdgeSet,
    positive: Database,
    game: Database,
    sg_nodes: usize,
}

fn inputs(seed: u64) -> Inputs {
    let anc = random_dag(&mut Rng::new(seed, stream::GRAPH), ANC_NODES, ANC_EDGES);
    let moves = random_dag(&mut Rng::new(seed, stream::MOVES), MOVE_NODES, MOVE_EDGES);
    let t = sg_tree(SG_DEPTH);
    let positive = database(&[
        ("par", anc.edges()),
        ("up", &t.up),
        ("down", &t.down),
        ("flat", &t.flat),
    ]);
    Inputs {
        anc,
        positive,
        game: database(&[("move", moves.edges())]),
        moves,
        sg_nodes: t.nodes,
    }
}

fn drawer(sg_nodes: usize) -> impl Fn(&mut Rng, usize) -> Draw + Sync {
    let cells = cells();
    move |rng: &mut Rng, cell: usize| {
        let (fam, strategy) = cells[cell];
        let (conn, key, text, arg) = match fam {
            Family::Anc => {
                let k = rng.below(ANC_NODES) as u32;
                (0, k, format!("anc(n{k}, X)"), 1)
            }
            Family::Sg => {
                let k = rng.below(sg_nodes) as u32;
                (0, k, format!("sg(n{k}, X)"), 1)
            }
            Family::Win => {
                let k = rng.below(MOVE_NODES) as u32;
                (1, k, format!("win(n{k})"), 0)
            }
        };
        Draw {
            conn,
            cell: cell as u16,
            key,
            text: format!("{text} STRATEGY {strategy}"),
            arg,
        }
    }
}

/// Expected answers, none from the engine: BFS for `anc` (over the graph
/// at the reply's generation, which the caller passes in), the tree's
/// levels for `sg`, backward induction for `win`.
struct Oracle {
    winners: BTreeSet<u32>,
}

impl Oracle {
    fn new(inp: &Inputs) -> Oracle {
        Oracle {
            winners: winners(MOVE_NODES, inp.moves.edges()),
        }
    }

    fn check(&self, cell: u16, key: u32, answers: &[u32], anc: &Graph) -> Result<(), String> {
        let (fam, strategy) = cells()[cell as usize];
        let want: Vec<u32> = match fam {
            Family::Anc => anc.reach(key),
            Family::Sg => same_generation(key),
            Family::Win => self
                .winners
                .contains(&key)
                .then_some(key)
                .into_iter()
                .collect(),
        };
        expect(&format!("{fam:?}(n{key}) under {strategy}"), answers, &want)
    }
}

pub fn run(a: &Args) -> Result<Outcome, String> {
    let inp = inputs(a.seed);
    let oracle = Oracle::new(&inp);
    let ((positive, game), setups) = set_up(
        SETUPS,
        || {
            let (p, tp) = Served::open(positive_rules(), inp.positive.clone(), None)
                .map_err(|e| e.to_string())?;
            let (g, tg) =
                Served::open(program(WIN), inp.game.clone(), None).map_err(|e| e.to_string())?;
            Ok(((p, g), tp + tg))
        },
        |(p, g)| {
            p.close();
            g.close();
        },
    )?;
    for s in [&positive, &game] {
        s.confirm().map_err(|e| e.to_string())?;
    }
    let addrs = [positive.addr.clone(), game.addr.clone()];
    let writer = Mutator::new(Rng::new(a.seed, stream::WRITER), inp.anc.clone(), ANC_NODES);
    // Only `par` changes, so only `anc` answers depend on the generation.
    let replay = Replay {
        par: Graph::new(ANC_NODES, inp.anc.edges()),
        link: Graph::new(0, &[]),
    };
    let mut checker = Checker::new(writer.clone(), replay, |rp: &Replay, r: &Reply| {
        oracle.check(r.cell, r.key, &r.answers, &rp.par)
    });
    let draw = drawer(inp.sg_nodes);
    let plan = Plan {
        readers: CLIENTS,
        addrs: &addrs,
        kinds: cells().len(),
        draw: &draw,
        commit_to: 0,
        read_share: READ_SHARE,
    };
    let run = interleave(a, &plan, writer, &mut checker);
    let rss = peak_rss_mb();
    positive.close();
    game.close();
    Ok(outcome(&setups, &run?, rss))
}

pub fn traced(a: &Args) -> Result<Outcome, String> {
    let inp = inputs(a.seed);
    let oracle = Oracle::new(&inp);
    let anc = Graph::new(ANC_NODES, inp.anc.edges());
    let dir = a.workdir().map_err(|e| e.to_string())?;
    let mut tr = Tracer::new();
    let mut op = 0u64;
    let ([mut positive, game], _) = set_up(
        SETUPS,
        || {
            op += 1;
            let start = Instant::now();
            let pipes = tr.span("setup", op, |_| -> Result<_, String> {
                let p = Pipeline::new(positive_rules(), inp.positive.clone(), None, None)?;
                let g = Pipeline::new(program(WIN), inp.game.clone(), None, None)?;
                Ok([p, g])
            })?;
            Ok((pipes, start.elapsed().as_secs_f64()))
        },
        drop,
    )?;

    let (idle, _) =
        Served::open(positive_rules(), Database::new(), None).map_err(|e| e.to_string())?;
    ping(&mut tr, &idle.addr, 200).map_err(|e| e.to_string())?;
    idle.close();

    let draw = drawer(inp.sg_nodes);
    let mut clients: Vec<Queries> = (0..CLIENTS)
        .map(|c| Queries::new(a, c, cells().len()))
        .collect();
    let (read_window, commit_window) = a.windows(READ_SHARE);
    let end = Instant::now() + read_window;
    let mut attempted = 0u64;
    while Instant::now() < end {
        let d = clients[(attempted % CLIENTS) as usize].next(&draw);
        attempted += 1;
        op += 1;
        let pipe = if d.conn == 0 { &positive } else { &game };
        let answers = pipe.query(&mut tr, op, &format!("QUERY {}", d.text))?;
        oracle.check(d.cell, d.key, &answer_ids(&answers, d.arg)?, &anc)?;
    }
    let writer = Mutator::new(Rng::new(a.seed, stream::WRITER), inp.anc.clone(), ANC_NODES);
    attempted += replay_probe(&mut tr, &mut op, &mut positive, writer, commit_window)?;

    let mut first = Queries::new(a, 0, cells().len());
    let sample: Vec<_> = (0..200).map(|_| first.next(&draw)).collect();
    let ratio = overhead_ratio(sample.len(), |t, i| {
        let d = &sample[i];
        let pipe = if d.conn == 0 { &positive } else { &game };
        pipe.query(t, 0, &format!("QUERY {}", d.text)).map(drop)
    })?;
    tr.count("trace.overhead_ratio", 0, ratio);
    tr.count(
        "storage.edb_facts",
        0,
        (positive.edb_facts() + game.edb_facts()) as f64,
    );
    tr.count(
        "storage.idb_facts",
        0,
        (positive.idb_facts()? + game.idb_facts()?) as f64,
    );
    a.finish_traced(&dir, &tr, attempted)
}
