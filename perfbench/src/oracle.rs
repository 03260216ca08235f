//! Answer checks that do not use the engine: breadth-first reachability
//! over the benchmark's own edge lists, the levels of the same-generation
//! tree, and backward induction for the win–move game.

use crate::data::{Batch, Edge, Rel};
use std::collections::{BTreeSet, VecDeque};

/// A directed graph over nodes `0..n` kept as ordered adjacency sets.
#[derive(Clone, Debug)]
pub struct Graph {
    adj: Vec<BTreeSet<u32>>,
}

impl Graph {
    pub fn new(nodes: usize, edges: &[Edge]) -> Graph {
        let mut g = Graph {
            adj: vec![BTreeSet::new(); nodes],
        };
        for &e in edges {
            g.insert(e);
        }
        g
    }

    pub fn insert(&mut self, (a, b): Edge) {
        self.adj[a as usize].insert(b);
    }

    pub fn remove(&mut self, (a, b): Edge) {
        self.adj[a as usize].remove(&b);
    }

    pub fn apply(&mut self, b: &Batch) {
        for &e in &b.deletes {
            self.remove(e);
        }
        for &e in &b.inserts {
            self.insert(e);
        }
    }

    /// Nodes reachable from `src` by one or more edges, ascending.
    pub fn reach(&self, src: u32) -> Vec<u32> {
        let mut seen = vec![false; self.adj.len()];
        let mut queue = VecDeque::from([src]);
        let mut out = Vec::new();
        while let Some(u) = queue.pop_front() {
            for &v in &self.adj[u as usize] {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    out.push(v);
                    queue.push_back(v);
                }
            }
        }
        out.sort_unstable();
        out
    }
}

/// The answers to `sg(nK, X)` over [`crate::data::sg_tree`], whose nodes
/// are numbered level by level from the root: every other node on K's
/// level. Level `d` holds nodes `2^d - 1 ..= 2^(d+1) - 2`.
pub fn same_generation(k: u32) -> Vec<u32> {
    let first = (1u32 << (k + 1).ilog2()) - 1;
    (first..=2 * first).filter(|&y| y != k).collect()
}

/// The winning positions of the win–move game over a DAG whose edges all
/// point from a lower to a higher node: a node wins when it can move to a
/// node that does not. Nodes are decided from the highest down, so every
/// move's target is decided first.
pub fn winners(nodes: usize, moves: &[Edge]) -> BTreeSet<u32> {
    let g = Graph::new(nodes, moves);
    let mut win = vec![false; nodes];
    for a in (0..nodes).rev() {
        win[a] = g.adj[a].iter().any(|&b| !win[b as usize]);
    }
    (0..nodes as u32).filter(|&a| win[a as usize]).collect()
}

/// The `par` and `link` graphs of the update-mix, advanced batch by batch.
pub struct Replay {
    pub par: Graph,
    pub link: Graph,
}

impl Replay {
    pub fn apply(&mut self, b: &Batch) {
        match b.rel {
            Rel::Par => self.par.apply(b),
            Rel::Link => self.link.apply(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reach_follows_paths_and_cycles() {
        let g = Graph::new(5, &[(0, 1), (1, 2), (2, 0), (3, 4)]);
        assert_eq!(g.reach(0), vec![0, 1, 2]);
        assert_eq!(g.reach(3), vec![4]);
        assert!(g.reach(4).is_empty());
    }

    #[test]
    fn same_generation_matches_the_program() {
        use crate::data::{database, program, sg_tree, SG};
        use alexander_ir::{Const, Predicate};
        let t = sg_tree(3);
        let edb = database(&[("up", &t.up), ("down", &t.down), ("flat", &t.flat)]);
        let model = alexander_eval::eval_seminaive(&program(SG), &edb).unwrap();
        let id = |c: &Const| c.to_string()[1..].parse::<u32>().unwrap();
        let mut want = vec![Vec::new(); t.nodes];
        for row in model.db.relation(Predicate::new("sg", 2)).unwrap().iter() {
            want[id(&row[0]) as usize].push(id(&row[1]));
        }
        for (k, ys) in want.iter_mut().enumerate() {
            ys.sort_unstable();
            assert_eq!(same_generation(k as u32), *ys, "sg(n{k}, X)");
        }
    }

    #[test]
    fn winners_move_to_a_losing_node() {
        // 3 and 4 have no move and lose; 2 → 3 wins; 1 → 2 only loses;
        // 0 → 1 wins.
        let w = winners(5, &[(0, 1), (1, 2), (2, 3), (0, 4)]);
        assert_eq!(w.into_iter().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn replay_applies_deletes_then_inserts() {
        let mut r = Replay {
            par: Graph::new(4, &[(0, 1), (1, 2)]),
            link: Graph::new(2, &[]),
        };
        r.apply(&Batch {
            rel: Rel::Par,
            deletes: vec![(1, 2)],
            inserts: vec![(1, 3)],
        });
        assert_eq!(r.par.reach(0), vec![1, 3]);
    }
}
