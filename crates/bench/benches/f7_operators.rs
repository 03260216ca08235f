//! Criterion microbenchmarks for the rule executor's operators: batch hash
//! probes against the key-less projection index, built-in filters over
//! binding blocks, and head projection + single-hash emission. These time
//! the operator kernels in isolation; the end-to-end executor throughput is
//! experiment F7 in the harness.

use alexander_eval::BLOCK_ROWS;
use alexander_ir::{hash_row, Builtin, Const, RowHasher};
use alexander_storage::{Mask, Relation};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// A chain relation e(i, i+1) over integer constants, indexed on column 0.
fn chain_relation(n: usize) -> Relation {
    let mut rel = Relation::new(2);
    for i in 0..n {
        rel.insert_row(&[Const::int(i as i64), Const::int(i as i64 + 1)]);
    }
    rel.ensure_index(Mask::of_columns(&[0]));
    rel
}

fn bench_batch_probe(c: &mut Criterion) {
    let mut g = c.benchmark_group("f7_batch_probe");
    g.sample_size(20);
    for n in [1_000usize, 10_000, 100_000] {
        let rel = chain_relation(n);
        let mask = Mask::of_columns(&[0]);
        g.bench_with_input(BenchmarkId::new("block_of_keys", n), &n, |b, &n| {
            // One block's worth of probes, the executor's inner loop shape:
            // resolve the index once, then per key hash it in place, narrow
            // by a (non-trivial) id range, verify the candidate column.
            b.iter(|| {
                let ip = rel.index_probe(mask).expect("index built above");
                let mut hits = 0usize;
                for i in 0..BLOCK_ROWS {
                    let key = Const::int((i % n) as i64);
                    let mut h = RowHasher::new();
                    h.push(&key);
                    hits += ip
                        .probe_in(h.finish(), Some((0, n as u32)), |rep| rep[0] == key)
                        .len();
                }
                black_box(hits)
            })
        });
    }
    g.finish();
}

fn bench_batch_filter(c: &mut Criterion) {
    let mut g = c.benchmark_group("f7_batch_filter");
    g.sample_size(20);
    // A full binding block of (lhs, rhs) pairs; the filter keeps ~half.
    let rows: Vec<[Const; 2]> = (0..BLOCK_ROWS)
        .map(|i| [Const::int((i % 64) as i64), Const::int(32)])
        .collect();
    for b_in in [Builtin::Lt, Builtin::Neq] {
        g.bench_with_input(
            BenchmarkId::new("builtin", format!("{b_in:?}")),
            &b_in,
            |bch, &op| {
                bch.iter(|| {
                    let mut kept = 0usize;
                    for r in &rows {
                        if op.eval(r[0], r[1]) {
                            kept += 1;
                        }
                    }
                    black_box(kept)
                })
            },
        );
    }
    g.finish();
}

fn bench_head_project(c: &mut Criterion) {
    let mut g = c.benchmark_group("f7_head_project");
    g.sample_size(20);
    // Binding rows of width 3; the head keeps slots 0 and 2 — projection
    // plus the single `hash_row` the blocked emitter charges per head.
    let stride = 3usize;
    let bindings: Vec<Const> = (0..BLOCK_ROWS * stride)
        .map(|i| Const::int(i as i64))
        .collect();
    g.bench_with_input(
        BenchmarkId::new("project_and_hash", BLOCK_ROWS),
        &stride,
        |b, &stride| {
            let mut head: Vec<Const> = Vec::with_capacity(2);
            b.iter(|| {
                let mut acc = 0u64;
                for row in bindings.chunks_exact(stride) {
                    head.clear();
                    head.push(row[0]);
                    head.push(row[2]);
                    acc = acc.wrapping_add(hash_row(&head));
                }
                black_box(acc)
            })
        },
    );
    g.finish();
}

criterion_group!(
    benches,
    bench_batch_probe,
    bench_batch_filter,
    bench_head_project
);
criterion_main!(benches);
