//! Closed-loop load: each client sends its next request only after the
//! previous reply arrived.

use crate::data::Mutator;
use crate::oracle::Replay;
use crate::pipeline::Pipeline;
use crate::report::{push_per_layer, Outcome};
use crate::rng::{stream, Deck, Rng};
use crate::sweep::sweep;
use crate::trace::{Reduced, Tracer};
use crate::wire::{query, Reply, Writer};
use alexander_bench::loadgen::Client;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Query connections of strategy-mix, which share the run's one CPU.
pub const CLIENTS: u64 = 2;
/// Commits a traced run replays at most in its commit probe.
const TRACED_PROBE_COMMITS: u64 = 2000;
/// Rounds a run alternates: each a read slice, then a commit slice.
pub const SLICES: u32 = 10;
/// Untimed warm-up before a timed read window, as a share of `--seconds`.
pub const WARMUP_SHARE: f64 = 0.1;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// This run's directory for store files, under the working directory.
    pub fn workdir(&self) -> io::Result<PathBuf> {
        let dir = Path::new(".perfbench").join(format!("{}-{}", self.workload, std::process::id()));
        if dir.exists() {
            fs::remove_dir_all(&dir)?;
        }
        fs::create_dir_all(&dir)?;
        Ok(dir)
    }

    /// The timed read and commit windows when `read_share` of
    /// `--seconds` goes to reads and the rest to commits.
    pub fn windows(&self, read_share: f64) -> (Duration, Duration) {
        (
            Duration::from_secs_f64(self.seconds * read_share),
            Duration::from_secs_f64(self.seconds * (1.0 - read_share)),
        )
    }

    pub fn warmup(&self) -> Duration {
        Duration::from_secs_f64(self.seconds * WARMUP_SHARE)
    }

    /// Client `c`'s seeded stream.
    fn client_rng(&self, c: u64) -> Rng {
        Rng::new(self.seed, stream::CLIENT + c)
    }

    /// Writes a trace as `.perfbench/trace-<workload><suffix>.jsonl`.
    fn write_trace(&self, suffix: &str, tr: &Tracer) -> io::Result<()> {
        let name = format!("trace-{}{suffix}.jsonl", self.workload);
        let mut out = io::BufWriter::new(fs::File::create(Path::new(".perfbench").join(name))?);
        tr.write_jsonl(&mut out)?;
        io::Write::flush(&mut out)
    }

    /// Ends a traced run whose operations all passed their oracles: runs
    /// the layer sweep in `dir`, removes `dir`, writes both traces and
    /// reads the per-layer metrics off them.
    pub fn finish_traced(
        &self,
        dir: &Path,
        tr: &Tracer,
        attempted: u64,
    ) -> Result<Outcome, String> {
        let swept = sweep(self.seed, dir);
        let _ = fs::remove_dir_all(dir);
        let swept = swept?;
        self.write_trace("", tr).map_err(|e| e.to_string())?;
        self.write_trace("-sweep", &swept)
            .map_err(|e| e.to_string())?;
        let mut out = Outcome {
            correct: true,
            attempted,
            ..Outcome::default()
        };
        push_per_layer(&mut out, &Reduced::of(tr), &Reduced::of(&swept));
        Ok(out)
    }
}

/// Sets up `repeats` times with `open`; returns the last set-up's result
/// and every set-up's time in seconds. Each earlier result is closed
/// before the next set-up starts. The count is fixed per workload, not
/// bounded by time, so the allocation churn behind `peak_rss_mb` does not
/// depend on how fast the host ran.
pub fn set_up<T>(
    repeats: usize,
    mut open: impl FnMut() -> Result<(T, f64), String>,
    mut close: impl FnMut(T),
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(repeats);
    loop {
        let (live, t) = open()?;
        times.push(t);
        if times.len() >= repeats {
            return Ok((live, times));
        }
        close(live);
    }
}

/// One query a client draws: which connection, its kind and key, the
/// query text and the answer argument holding the key's results.
pub struct Draw {
    pub conn: usize,
    pub cell: u16,
    pub key: u32,
    pub text: String,
    pub arg: usize,
}

/// Client `c`'s seeded query stream: a query kind dealt evenly from
/// `0..kinds`, then the query `draw` makes of it.
pub struct Queries {
    rng: Rng,
    deck: Deck,
}

impl Queries {
    pub fn new(args: &Args, c: u64, kinds: usize) -> Queries {
        Queries {
            rng: args.client_rng(c),
            deck: Deck::new(kinds),
        }
    }

    pub fn next(&mut self, draw: &dyn Fn(&mut Rng, usize) -> Draw) -> Draw {
        let kind = self.deck.deal(&mut self.rng);
        draw(&mut self.rng, kind)
    }
}

/// A closed-loop client: its seeded query stream and a connection to each
/// service it queries.
pub struct Reader {
    queries: Queries,
    conns: Vec<Client>,
}

impl Reader {
    pub fn connect(queries: Queries, addrs: &[String]) -> io::Result<Reader> {
        Ok(Reader {
            queries,
            conns: addrs
                .iter()
                .map(|a| Client::connect(a))
                .collect::<io::Result<_>>()?,
        })
    }

    pub fn quit(mut self) -> io::Result<()> {
        for c in &mut self.conns {
            c.request("QUIT")?;
        }
        Ok(())
    }
}

/// Runs every reader in its own thread, closed-loop: first for `warmup`,
/// untimed, then for the timed `window`. Returns every reply, warm-up
/// included, the round trip in ms of each query sent inside the window,
/// and the time from the window's start until the last reply arrived.
fn read_slice(
    readers: &mut [Reader],
    warmup: Duration,
    window: Duration,
    draw: &(dyn Fn(&mut Rng, usize) -> Draw + Sync),
) -> io::Result<(Vec<Reply>, Vec<f64>, Duration)> {
    let start = Instant::now() + warmup;
    let end = start + window;
    let per_reader = std::thread::scope(|s| {
        let handles: Vec<_> = readers
            .iter_mut()
            .map(|reader| {
                s.spawn(move || -> io::Result<(Vec<Reply>, Vec<f64>)> {
                    let (mut replies, mut timed) = (Vec::new(), Vec::new());
                    loop {
                        let sent = Instant::now();
                        if sent >= end {
                            return Ok((replies, timed));
                        }
                        let d = reader.queries.next(draw);
                        let conn = &mut reader.conns[d.conn];
                        let (reply, ms) = query(conn, d.conn, &d.text, d.cell, d.key, d.arg)?;
                        if sent >= start {
                            timed.push(ms);
                        }
                        replies.push(reply);
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect::<io::Result<Vec<_>>>()
    })?;
    let elapsed = start.elapsed();
    let (mut replies, mut timed) = (Vec::new(), Vec::new());
    for (r, t) in per_reader {
        replies.extend(r);
        timed.extend(t);
    }
    Ok((replies, timed, elapsed))
}

/// Commits batches from `writer` over `client`, back to back, until
/// `window` has passed. Each commit must publish the generation after
/// `generation`, which it advances. Returns each commit's time in ms and
/// the time until the last commit's reply arrived.
fn commit_slice(
    client: &mut Writer,
    writer: &mut Mutator,
    generation: &mut u64,
    window: Duration,
) -> Result<(Vec<f64>, Duration), String> {
    let start = Instant::now();
    let mut ms = Vec::new();
    while start.elapsed() < window {
        let c = client
            .commit(&writer.next_batch().ops())
            .map_err(|e| e.to_string())?;
        let want = *generation + 1;
        match c.generation {
            Some(g) if g == want => {}
            Some(g) => return Err(format!("commit published generation {g}, expected {want}")),
            None => return Err(format!("the commit of generation {want} failed")),
        }
        *generation = want;
        ms.push(c.ms);
    }
    Ok((ms, start.elapsed()))
}

/// Checks replies against the oracle state of the generation they were
/// read at. `writer` is a copy of the run's writer taken before the run:
/// it draws the committed batches again, and `replay` is advanced batch by
/// batch to each slice's generation before `check` sees its replies.
pub struct Checker<F> {
    writer: Mutator,
    replay: Replay,
    generation: u64,
    check: F,
}

impl<F: FnMut(&Replay, &Reply) -> Result<(), String>> Checker<F> {
    pub fn new(writer: Mutator, replay: Replay, check: F) -> Checker<F> {
        Checker {
            writer,
            replay,
            generation: 0,
            check,
        }
    }

    /// Checks the replies of a read slice that ran while `generation` was
    /// published on connection `committed` (the others stay at generation
    /// 0); returns how many were `ERR` or partial.
    fn slice(
        &mut self,
        replies: &[Reply],
        committed: usize,
        generation: u64,
    ) -> Result<u64, String> {
        while self.generation < generation {
            self.replay.apply(&self.writer.next_batch());
            self.generation += 1;
        }
        let mut failed = 0;
        for r in replies {
            let want = if r.conn == committed { generation } else { 0 };
            if !r.ok {
                failed += 1;
            } else if r.generation != want {
                return Err(format!(
                    "a read during generation {want} saw generation {}",
                    r.generation
                ));
            } else {
                (self.check)(&self.replay, r)?;
            }
        }
        Ok(failed)
    }
}

/// How a run alternates reads and commits: `readers` clients query
/// `addrs`, dealing from `kinds` query kinds with `draw`; one connection
/// commits batches to `addrs[commit_to]`; `read_share` of `--seconds`
/// goes to reads and the rest to commits.
pub struct Plan<'a> {
    pub readers: u64,
    pub addrs: &'a [String],
    pub kinds: usize,
    pub draw: &'a (dyn Fn(&mut Rng, usize) -> Draw + Sync),
    pub commit_to: usize,
    pub read_share: f64,
}

/// What a run measured and checked.
#[derive(Default)]
pub struct Run {
    /// Round trips of the queries sent inside the timed read slices, in ms.
    pub query_ms: Vec<f64>,
    /// Commit times, in ms.
    pub commit_ms: Vec<f64>,
    /// The timed read slices' and commit slices' lengths, each summed.
    pub read_time: Duration,
    pub commit_time: Duration,
    /// Every query sent, warm-up included.
    pub queries: u64,
    /// Queries answered with `ERR` or a partial answer.
    pub failed: u64,
}

/// Alternates reads and commits: `SLICES` rounds, each a read slice by the
/// plan's readers, then a commit slice in which one connection commits
/// `writer`'s batches back to back with no reads running. The first read
/// slice follows the untimed warm-up. Each read slice sees one generation,
/// and its replies are checked by `checker` right after it, untimed, so
/// the benchmark keeps only one slice's replies at a time.
pub fn interleave<F: FnMut(&Replay, &Reply) -> Result<(), String>>(
    a: &Args,
    plan: &Plan,
    mut writer: Mutator,
    checker: &mut Checker<F>,
) -> Result<Run, String> {
    let err = |e: io::Error| e.to_string();
    let (read_window, commit_window) = a.windows(plan.read_share);
    let mut readers = (0..plan.readers)
        .map(|c| Reader::connect(Queries::new(a, c, plan.kinds), plan.addrs))
        .collect::<io::Result<Vec<_>>>()
        .map_err(err)?;
    let mut client = Writer::connect(&plan.addrs[plan.commit_to]).map_err(err)?;
    let mut run = Run::default();
    let mut generation = 0;
    for round in 0..SLICES {
        let warmup = if round == 0 {
            a.warmup()
        } else {
            Duration::ZERO
        };
        let (replies, timed, took) =
            read_slice(&mut readers, warmup, read_window / SLICES, plan.draw).map_err(err)?;
        run.queries += replies.len() as u64;
        run.failed += checker.slice(&replies, plan.commit_to, generation)?;
        run.query_ms.extend(timed);
        run.read_time += took;
        let (committed, took) = commit_slice(
            &mut client,
            &mut writer,
            &mut generation,
            commit_window / SLICES,
        )?;
        run.commit_ms.extend(committed);
        run.commit_time += took;
    }
    for r in readers {
        r.quit().map_err(err)?;
    }
    client.quit().map_err(err)?;
    Ok(run)
}

/// The result of an untraced run: its set-up times, what it measured and
/// its peak resident set size.
pub fn outcome(setups: &[f64], run: &Run, rss: f64) -> Outcome {
    let mut out = Outcome {
        correct: true,
        attempted: run.queries + run.commit_ms.len() as u64,
        failed: run.failed,
        ..Outcome::default()
    };
    out.push_setup(setups);
    out.push_series("qps", "query", &run.query_ms, run.read_time);
    out.push_series("commits_per_s", "commit", &run.commit_ms, run.commit_time);
    out.push("peak_rss_mb", rss, "MiB", "ru_maxrss".to_string());
    out
}

/// `Ok` when `answers` are the `want`ed ones for `query`.
pub fn expect(query: &str, answers: &[u32], want: &[u32]) -> Result<(), String> {
    if answers == want {
        Ok(())
    } else {
        Err(format!(
            "{query}: {} answers, oracle has {}",
            answers.len(),
            want.len()
        ))
    }
}

/// Times each of `n` operations traced and untraced, alternating which
/// goes first, and returns traced time over untraced time.
pub fn overhead_ratio(
    n: usize,
    mut op: impl FnMut(&mut Tracer, usize) -> Result<(), String>,
) -> Result<f64, String> {
    let (mut traced, mut plain) = (Duration::ZERO, Duration::ZERO);
    let mut scratch = Tracer::new();
    for i in 0..n {
        for pass in 0..2 {
            let with_trace = (i + pass) % 2 == 0;
            let t = Instant::now();
            if with_trace {
                op(&mut scratch, i)?;
                traced += t.elapsed();
            } else {
                op(&mut Tracer::disabled(), i)?;
                plain += t.elapsed();
            }
        }
    }
    Ok(traced.as_secs_f64() / plain.as_secs_f64())
}

/// The traced commit probe: batches from `writer` replayed through `pipe`
/// until `window` has passed or `TRACED_PROBE_COMMITS` ran. Returns how
/// many ran.
pub fn replay_probe(
    tr: &mut Tracer,
    op: &mut u64,
    pipe: &mut Pipeline,
    mut writer: Mutator,
    window: Duration,
) -> Result<u64, String> {
    let end = Instant::now() + window;
    let mut commits = 0;
    while Instant::now() < end && commits < TRACED_PROBE_COMMITS {
        *op += 1;
        commits += 1;
        let g = pipe.commit(tr, *op, &writer.next_batch().ops())?;
        if g != commits {
            return Err(format!(
                "commit published generation {g}, expected {commits}"
            ));
        }
    }
    Ok(commits)
}

/// Sends `n` PINGs to an otherwise idle service, each in a span.
pub fn ping(tr: &mut Tracer, addr: &str, n: u64) -> io::Result<()> {
    let mut c = Client::connect(addr)?;
    for op in 0..n {
        let lines = tr.span("server.net.ping", op, |_| c.request("PING"))?;
        crate::wire::expect_ok(&lines, "PING")?;
    }
    c.request("QUIT")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::random_dag;
    use crate::oracle::Graph;

    fn reply(conn: usize, generation: u64, ok: bool, answers: Vec<u32>) -> Reply {
        Reply {
            conn,
            cell: 0,
            key: 0,
            generation,
            ok,
            answers,
        }
    }

    #[test]
    fn the_checker_replays_to_each_slice_and_checks_its_generation() {
        let par = random_dag(&mut Rng::new(1, 1), 30, 60);
        let writer = Mutator::new(Rng::new(1, 2), par.clone(), 30);
        let replay = Replay {
            par: Graph::new(30, par.edges()),
            link: Graph::new(0, &[]),
        };
        let mut checker = Checker::new(writer.clone(), replay, |rp: &Replay, r: &Reply| {
            expect("anc(n0, X)", &r.answers, &rp.par.reach(r.key))
        });
        let mut graph = Graph::new(30, par.edges());
        let mut again = writer;
        for _ in 0..2 {
            graph.apply(&again.next_batch());
        }
        let want = graph.reach(0);
        // Connection 0 is committed to; connection 1 stays at generation 0.
        let slice = [
            reply(0, 2, true, want.clone()),
            reply(1, 0, true, want.clone()),
            reply(0, 2, false, Vec::new()),
        ];
        assert_eq!(checker.slice(&slice, 0, 2), Ok(1));
        let stale = reply(0, 1, true, want.clone());
        assert!(checker.slice(&[stale], 0, 2).is_err());
        let mut wrong = want;
        wrong.push(29);
        assert!(checker.slice(&[reply(0, 2, true, wrong)], 0, 2).is_err());
    }
}
