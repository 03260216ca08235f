//! F9 (figure): serving layer — sustained QPS and tail latency under mixed
//! query/update traffic, at 1–8 client threads.
//!
//! Each row hosts an in-process [`QueryService`] over the chain workload and
//! runs `clients` reader threads issuing `anc(n0, X)` back-to-back while one
//! writer thread commits chain-extending batches paced against reader
//! progress (one commit per `total/commits` queries), so updates land
//! throughout the run rather than all at the start. Every reply is checked
//! bit-identically against a single-threaded oracle for the epoch it is
//! tagged with — a row only reports numbers if every answer matched, which
//! makes the figure double as the epoch-snapshot correctness gate in
//! release mode.
//!
//! `qps` at `clients(1)` is the number the CI perf gate pins against the
//! committed `BENCH_F9.json` (20% band, best-of-2 harness runs, like
//! F7/F8); the higher-thread rows document scaling and p99 under
//! contention.

use crate::loadgen::{
    chain_db, jitter, percentile_ms, rng_seed, update_fact, Oracle, QUERY, RULES,
};
use crate::table::Table;
use alexander_parser::{parse, parse_atom};
use alexander_server::{QueryService, ServerConfig, ServerError};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub fn run() -> Table {
    run_with(128, 250, &[1, 2, 4, 8], 16)
}

/// Parameterised run (tests use a short chain and few queries).
pub fn run_with(
    base: usize,
    queries_per_client: usize,
    client_counts: &[usize],
    commits: usize,
) -> Table {
    let mut t = Table::new(
        "F9",
        "figure: query server — sustained QPS and p99 under mixed query/update traffic",
        "Readers hammer `anc(n0, X)` against an in-process multi-tenant \
         service while a writer commits chain-extending epochs paced by \
         reader progress. Every reply is verified bit-identically against a \
         single-threaded oracle for its tagged epoch before any number is \
         reported, so the figure is also the epoch-pinning correctness gate: \
         a reader pinned at generation N sees exactly generation N's \
         answers no matter how many epochs commit mid-query. The \
         `clients(1)` qps row is what the CI perf gate pins against the \
         committed BENCH_F9.json (20% band, best-of-2). The final \
         `overload` row runs twice as many clients as the admission cap \
         allows, with a tiny wait queue: excess queries are shed with \
         `retry-after-ms` hints that the readers honour (jittered backoff), \
         so its `sheds` count must be positive and its p99 — which includes \
         the backoff waits — stays bounded instead of collapsing.",
        &[
            "workload",
            "queries",
            "commits",
            "max_epoch_seen",
            "qps",
            "p50_ms",
            "p99_ms",
            "consistent",
            "sheds",
        ],
    );
    // Warm the oracle outside the timed region: generations are shared
    // across rows (same base, same number of commits).
    let oracle = Oracle::new(base);
    let oracles: Arc<Vec<Vec<String>>> =
        Arc::new((0..=commits as u64).map(|g| oracle.answers(g)).collect());
    for &clients in client_counts {
        // Cap == clients: nothing sheds, the row measures raw throughput.
        t.row(mixed_row(
            base,
            format!("clients({clients})"),
            clients,
            clients,
            queries_per_client,
            commits,
            &oracles,
        ));
    }
    // Overload: twice the clients of the widest row against a quarter of
    // them in slots, with an equally small wait queue — most arrivals shed.
    let widest = client_counts.iter().copied().max().unwrap_or(1);
    let cap = (widest / 2).max(1);
    t.row(mixed_row(
        base,
        format!("overload({}c/cap{cap})", widest * 2),
        widest * 2,
        cap,
        queries_per_client,
        commits,
        &oracles,
    ));
    t
}

fn mixed_row(
    base: usize,
    label: String,
    clients: usize,
    cap: usize,
    queries_per_client: usize,
    commits: usize,
    oracles: &Arc<Vec<Vec<String>>>,
) -> Vec<String> {
    let program = parse(RULES).expect("rules parse").program;
    let config = ServerConfig {
        max_concurrent: cap.max(1),
        tenant_cap: cap.max(1),
        // A queue as small as the cap, and a short retry hint so the
        // overload row spends its time shedding, not sleeping.
        max_queue: cap.max(1),
        shed_retry_after_ms: 2,
        ..ServerConfig::default()
    };
    let service =
        Arc::new(QueryService::open(program, chain_db(base), None, config).expect("service opens"));
    let query = parse_atom(QUERY).expect("query parses");
    let total = clients * queries_per_client;
    let progress = Arc::new(AtomicUsize::new(0));
    // One commit per `stride` completed queries: the writer trails reader
    // progress so epochs keep publishing for the whole run.
    let stride = (total / (commits + 1)).max(1);

    let start = Instant::now();
    let writer = {
        let service = service.clone();
        let progress = progress.clone();
        std::thread::spawn(move || {
            for g in 1..=commits as u64 {
                while progress.load(Ordering::Relaxed) < g as usize * stride
                    && progress.load(Ordering::Relaxed) < total
                {
                    std::thread::sleep(Duration::from_micros(200));
                }
                service
                    .insert(&parse_atom(&update_fact(base, g)).expect("ground"))
                    .expect("insert");
                let info = service.commit().expect("commit");
                assert_eq!(info.generation, g, "single writer, ordered epochs");
            }
        })
    };
    let readers: Vec<_> = (0..clients)
        .map(|c| {
            let service = service.clone();
            let query = query.clone();
            let oracles = oracles.clone();
            let progress = progress.clone();
            std::thread::spawn(move || {
                let tenant = format!("tenant{c}");
                let mut rng = rng_seed().wrapping_add(c as u64);
                let mut latencies = Vec::with_capacity(queries_per_client);
                let mut max_epoch = 0u64;
                for _ in 0..queries_per_client {
                    // A shed is retried after the server's hint (plus
                    // jitter); the measured latency spans the whole retry
                    // loop, so shedding shows up in the tail, not as a
                    // dropped sample.
                    let t0 = Instant::now();
                    let r = loop {
                        match service.query(&tenant, &query, None) {
                            Ok(r) => break r,
                            Err(ServerError::Busy { retry_after_ms }) => {
                                let wait =
                                    retry_after_ms + jitter(&mut rng, retry_after_ms / 2 + 1);
                                std::thread::sleep(Duration::from_millis(wait));
                            }
                            Err(e) => panic!("query: {e}"),
                        }
                    };
                    latencies.push(t0.elapsed());
                    progress.fetch_add(1, Ordering::Relaxed);
                    assert!(r.complete, "unbudgeted query must complete");
                    assert_eq!(
                        r.answers, oracles[r.generation as usize],
                        "epoch {} reply diverged from the single-threaded oracle",
                        r.generation
                    );
                    max_epoch = max_epoch.max(r.generation);
                }
                (latencies, max_epoch)
            })
        })
        .collect();
    let mut latencies = Vec::with_capacity(total);
    let mut max_epoch = 0u64;
    for r in readers {
        let (lat, seen) = r.join().expect("reader thread");
        latencies.extend(lat);
        max_epoch = max_epoch.max(seen);
    }
    writer.join().expect("writer thread");
    let wall = start.elapsed();
    assert_eq!(service.generation(), commits as u64);

    vec![
        label,
        total.to_string(),
        commits.to_string(),
        max_epoch.to_string(),
        format!("{:.0}", total as f64 / wall.as_secs_f64().max(1e-9)),
        format!("{:.3}", percentile_ms(&mut latencies, 50.0)),
        format!("{:.3}", percentile_ms(&mut latencies, 99.0)),
        // Reaching this line means every reply matched its oracle — the
        // asserts above abort the harness otherwise.
        "yes".to_string(),
        service.admission().shed_total().to_string(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_f9_reports_consistent_mixed_rows() {
        let t = run_with(24, 40, &[1, 2], 4);
        assert_eq!(t.rows.len(), 3, "client rows plus the overload row");
        for row in &t.rows {
            assert_eq!(row.len(), t.columns.len());
            assert_eq!(row[1].parse::<usize>().unwrap() % 40, 0);
            assert_eq!(row[2], "4");
            assert!(row[4].parse::<f64>().unwrap() > 0.0, "{row:?}");
            assert_eq!(row[7], "yes");
        }
        assert_eq!(t.rows[0][0], "clients(1)");
        assert_eq!(t.rows[1][0], "clients(2)");
        // Cap == clients rows never queue deep enough to shed.
        assert_eq!(t.rows[0][8], "0");
        assert_eq!(t.rows[1][8], "0");
        // The overload row doubles the widest client count over half the
        // slots; its shed counter is whatever the race produced, but it
        // must be a well-formed count and the row must still verify.
        assert_eq!(t.rows[2][0], "overload(4c/cap1)");
        let _sheds: u64 = t.rows[2][8].parse().expect("shed count");
    }
}
