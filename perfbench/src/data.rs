//! Generated inputs: graphs, programs and update batches. Everything here
//! is a pure function of the `--seed` streams handed in, and the server
//! sees only what these functions produce.

use crate::rng::Rng;
use alexander_ir::{Const, Predicate, Program};
use alexander_parser::parse;
use alexander_storage::{Database, Tuple};
use std::collections::HashMap;

pub type Edge = (u32, u32);

/// Transitive closure over an acyclic `par` (the served recursive read).
pub const ANC: &str = "anc(X, Y) :- par(X, Y). anc(X, Y) :- par(X, Z), anc(Z, Y).";
/// Closure over the cyclic `link` graph: one large SCC, where DRed
/// over-deletes.
pub const REACH: &str = "reach(X, Y) :- link(X, Y). reach(X, Y) :- link(X, Z), reach(Z, Y).";
/// A non-recursive rule over `par`: maintained by exact support counts.
pub const GRAND: &str = "grand(X, Z) :- par(X, Y), par(Y, Z).";
/// Same generation over a tree.
pub const SG: &str = "sg(X, Y) :- flat(X, Y). sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).";
/// The win–move game: not stratified, decided by the conditional fixpoint.
pub const WIN: &str = "win(X) :- move(X, Y), !win(Y).";

pub fn program(src: &str) -> Program {
    parse(src).expect("benchmark programs parse").program
}

pub fn fact(pred: &str, (a, b): Edge) -> String {
    format!("{pred}(n{a}, n{b})")
}

/// A set of edges with O(1) membership, removal and uniform choice. The
/// list order, and so every draw, depends only on the operations applied.
#[derive(Clone, Debug, Default)]
pub struct EdgeSet {
    list: Vec<Edge>,
    pos: HashMap<Edge, usize>,
}

impl EdgeSet {
    pub fn insert(&mut self, e: Edge) -> bool {
        if self.pos.contains_key(&e) {
            return false;
        }
        self.pos.insert(e, self.list.len());
        self.list.push(e);
        true
    }

    pub fn remove(&mut self, e: Edge) -> bool {
        let Some(i) = self.pos.remove(&e) else {
            return false;
        };
        self.list.swap_remove(i);
        if let Some(&moved) = self.list.get(i) {
            self.pos.insert(moved, i);
        }
        true
    }

    pub fn contains(&self, e: Edge) -> bool {
        self.pos.contains_key(&e)
    }

    pub fn pick(&self, rng: &mut Rng) -> Edge {
        self.list[rng.below(self.list.len())]
    }

    pub fn edges(&self) -> &[Edge] {
        &self.list
    }

    pub fn len(&self) -> usize {
        self.list.len()
    }
}

/// A random DAG: `edges` distinct pairs over `nodes` nodes, each pointing
/// from the lower to the higher number.
pub fn random_dag(rng: &mut Rng, nodes: usize, edges: usize) -> EdgeSet {
    let mut set = EdgeSet::default();
    while set.len() < edges {
        if let Some(e) = dag_edge(rng, nodes) {
            set.insert(e);
        }
    }
    set
}

fn dag_edge(rng: &mut Rng, nodes: usize) -> Option<Edge> {
    let (a, b) = (rng.below(nodes) as u32, rng.below(nodes) as u32);
    (a != b).then(|| (a.min(b), a.max(b)))
}

/// The ring `0 → 1 → … → nodes-1 → 0`: it keeps `link` one SCC whatever
/// chords come and go.
pub fn ring(nodes: usize) -> Vec<Edge> {
    let n = nodes as u32;
    (0..n).map(|i| (i, (i + 1) % n)).collect()
}

/// `chords` random non-ring edges over `nodes` nodes.
pub fn random_chords(rng: &mut Rng, nodes: usize, chords: usize) -> EdgeSet {
    let mut set = EdgeSet::default();
    while set.len() < chords {
        if let Some(e) = chord(rng, nodes) {
            set.insert(e);
        }
    }
    set
}

fn chord(rng: &mut Rng, nodes: usize) -> Option<Edge> {
    let (a, b) = (rng.below(nodes) as u32, rng.below(nodes) as u32);
    (a != b && b != (a + 1) % nodes as u32).then_some((a, b))
}

/// The same-generation EDB over a complete binary tree of `depth` levels
/// below the root: `down` parent → child, `up` its reverse, and `flat`
/// between the two children of every parent, both ways.
pub struct SgTree {
    pub nodes: usize,
    pub up: Vec<Edge>,
    pub down: Vec<Edge>,
    pub flat: Vec<Edge>,
}

pub fn sg_tree(depth: u32) -> SgTree {
    let nodes = (1usize << (depth + 1)) - 1;
    let (mut up, mut down, mut flat) = (Vec::new(), Vec::new(), Vec::new());
    for p in 0..(nodes / 2) as u32 {
        let (l, r) = (2 * p + 1, 2 * p + 2);
        for c in [l, r] {
            down.push((p, c));
            up.push((c, p));
        }
        flat.push((l, r));
        flat.push((r, l));
    }
    SgTree {
        nodes,
        up,
        down,
        flat,
    }
}

/// A database holding binary relations given as edge lists.
pub fn database(relations: &[(&str, &[Edge])]) -> Database {
    let mut db = Database::new();
    for (name, edges) in relations {
        let pred = Predicate::new(name, 2);
        for &(a, b) in *edges {
            db.insert(
                pred,
                Tuple::new(vec![
                    Const::sym(&format!("n{a}")),
                    Const::sym(&format!("n{b}")),
                ]),
            );
        }
    }
    db
}

/// Which relation an update batch changes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rel {
    Par,
    Link,
}

/// One update batch: its deletions, then its insertions.
#[derive(Clone, Debug)]
pub struct Batch {
    pub rel: Rel,
    pub deletes: Vec<Edge>,
    pub inserts: Vec<Edge>,
}

impl Batch {
    pub fn pred(&self) -> &'static str {
        match self.rel {
            Rel::Par => "par",
            Rel::Link => "link",
        }
    }

    /// `(is_insert, fact)` in wire order.
    pub fn ops(&self) -> Vec<(bool, String)> {
        let p = self.pred();
        let dels = self.deletes.iter().map(|&e| (false, fact(p, e)));
        dels.chain(self.inserts.iter().map(|&e| (true, fact(p, e))))
            .collect()
    }
}

/// A seeded stream of update batches over a `par` DAG and, optionally,
/// the chords of a `link` ring. Batches delete four `par` edges and insert
/// four new ones; with a ring, every eighth batch swaps one chord instead.
/// Edge counts stay constant, `par` stays acyclic and `link` one SCC.
#[derive(Clone)]
pub struct Mutator {
    rng: Rng,
    pub par: EdgeSet,
    pub chords: EdgeSet,
    par_nodes: usize,
    link_nodes: usize,
    issued: u64,
}

pub const PAR_DELTA: usize = 4;

impl Mutator {
    /// `par`-only batches.
    pub fn new(rng: Rng, par: EdgeSet, par_nodes: usize) -> Mutator {
        Mutator {
            rng,
            par,
            chords: EdgeSet::default(),
            par_nodes,
            link_nodes: 0,
            issued: 0,
        }
    }

    /// Every eighth batch swaps one of `chords` on a ring of `link_nodes`.
    pub fn with_link(mut self, chords: EdgeSet, link_nodes: usize) -> Mutator {
        self.chords = chords;
        self.link_nodes = link_nodes;
        self
    }

    /// The same state, drawing from another stream.
    pub fn reseeded(self, rng: Rng) -> Mutator {
        Mutator { rng, ..self }
    }

    /// Draws the next batch and applies it to the mutator's own state.
    pub fn next_batch(&mut self) -> Batch {
        self.issued += 1;
        if self.link_nodes > 0 && self.issued.is_multiple_of(8) {
            let old = self.chords.pick(&mut self.rng);
            let new = loop {
                if let Some(e) = chord(&mut self.rng, self.link_nodes) {
                    if !self.chords.contains(e) {
                        break e;
                    }
                }
            };
            self.chords.remove(old);
            self.chords.insert(new);
            return Batch {
                rel: Rel::Link,
                deletes: vec![old],
                inserts: vec![new],
            };
        }
        let mut deletes = Vec::with_capacity(PAR_DELTA);
        while deletes.len() < PAR_DELTA {
            let e = self.par.pick(&mut self.rng);
            self.par.remove(e);
            deletes.push(e);
        }
        let mut inserts = Vec::with_capacity(PAR_DELTA);
        while inserts.len() < PAR_DELTA {
            if let Some(e) = dag_edge(&mut self.rng, self.par_nodes) {
                if !deletes.contains(&e) && self.par.insert(e) {
                    inserts.push(e);
                }
            }
        }
        Batch {
            rel: Rel::Par,
            deletes,
            inserts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_seeded_and_shaped() {
        let a = random_dag(&mut Rng::new(3, 1), 50, 100);
        let b = random_dag(&mut Rng::new(3, 1), 50, 100);
        assert_eq!(a.edges(), b.edges());
        assert_eq!(a.len(), 100);
        assert!(a.edges().iter().all(|&(x, y)| x < y));
        let c = random_chords(&mut Rng::new(3, 2), 10, 20);
        assert!(c.edges().iter().all(|&(x, y)| x != y && y != (x + 1) % 10));
        let t = sg_tree(3);
        assert_eq!((t.nodes, t.down.len(), t.flat.len()), (15, 14, 14));
    }

    #[test]
    fn edge_sets_stay_consistent_under_removal() {
        let mut s = EdgeSet::default();
        for e in [(1, 2), (2, 3), (3, 4)] {
            assert!(s.insert(e));
        }
        assert!(!s.insert((1, 2)));
        assert!(s.remove((1, 2)));
        assert!(!s.remove((1, 2)));
        assert!(s.contains((3, 4)) && s.contains((2, 3)));
        assert!(s.remove((3, 4)));
        assert_eq!(s.edges(), &[(2, 3)]);
    }

    #[test]
    fn batches_keep_edge_counts_and_shapes() {
        let par = random_dag(&mut Rng::new(5, 1), 200, 400);
        let chords = random_chords(&mut Rng::new(5, 2), 20, 20);
        let mut m = Mutator::new(Rng::new(5, 3), par, 200).with_link(chords, 20);
        for i in 1..=64u64 {
            let b = m.next_batch();
            if i.is_multiple_of(8) {
                assert_eq!((b.rel, b.deletes.len(), b.inserts.len()), (Rel::Link, 1, 1));
            } else {
                assert_eq!((b.rel, b.deletes.len(), b.inserts.len()), (Rel::Par, 4, 4));
                assert!(b.inserts.iter().all(|&(x, y)| x < y));
            }
            assert_eq!(b.ops().len(), b.deletes.len() + b.inserts.len());
        }
        assert_eq!((m.par.len(), m.chords.len()), (400, 20));
        let mut p = Mutator::new(Rng::new(5, 4), m.par, 200);
        assert!((0..16).all(|_| p.next_batch().rel == Rel::Par));
    }
}
