//! The served side of a run: a [`QueryService`] on a loopback TCP port,
//! driven by `loadgen::Client` connections in closed loops.

use alexander_bench::loadgen::Client;
use alexander_ir::Program;
use alexander_server::{serve_tcp, QueryService, ServeHandle, ServerConfig};
use alexander_storage::Database;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A service and the listener serving it.
pub struct Served {
    service: Arc<QueryService>,
    handle: ServeHandle,
    pub addr: String,
}

impl Served {
    /// Opens the service and serves it on a loopback port; returns it with
    /// the open-to-ready time in seconds. Ready means listening: from then
    /// on the kernel queues connections.
    pub fn open(
        program: Program,
        edb: Database,
        store: Option<(&Path, &Path)>,
    ) -> io::Result<(Served, f64)> {
        let start = Instant::now();
        let service = QueryService::open(program, edb, store, ServerConfig::default())
            .map_err(|e| io::Error::other(format!("open: {e}")))?;
        let service = Arc::new(service);
        let handle = serve_tcp(service.clone(), "127.0.0.1:0")?;
        let addr = handle
            .tcp_addr()
            .ok_or_else(|| io::Error::other("listener has no TCP address"))?
            .to_string();
        let ready = start.elapsed().as_secs_f64();
        Ok((
            Served {
                service,
                handle,
                addr,
            },
            ready,
        ))
    }

    /// Confirms the service answers a PING over a fresh connection. Not
    /// part of `setup_s`: the accept loop's 2 ms poll would swamp a cheap
    /// set-up.
    pub fn confirm(&self) -> io::Result<()> {
        let mut c = Client::connect(&self.addr)?;
        expect_ok(&c.request("PING")?, "PING")?;
        c.request("QUIT")?;
        Ok(())
    }

    /// Stops the listener and waits for its sessions to end.
    pub fn close(self) {
        self.handle.shutdown_graceful(Duration::from_secs(5));
        // The last reference: dropping it stops a durable service's
        // supervisor thread.
        drop(self.service);
    }
}

fn terminal(lines: &[String]) -> &str {
    lines.last().map_or("", String::as_str)
}

pub fn expect_ok(lines: &[String], what: &str) -> io::Result<()> {
    if terminal(lines).starts_with("OK") {
        Ok(())
    } else {
        Err(io::Error::other(format!("{what}: {}", terminal(lines))))
    }
}

/// One query reply, kept until its read slice is checked.
#[derive(Clone, Debug)]
pub struct Reply {
    /// Which of the client's connections it came over.
    pub conn: usize,
    /// Workload-specific query kind (family and strategy).
    pub cell: u16,
    pub key: u32,
    pub generation: u64,
    /// `OK … complete`: neither an `ERR` nor a partial answer.
    pub ok: bool,
    /// Node ids at the answer's key argument, ascending.
    pub answers: Vec<u32>,
}

/// The node id at argument `arg` of every answer atom, ascending.
pub fn answer_ids(answers: &[String], arg: usize) -> Result<Vec<u32>, String> {
    let mut ids = answers
        .iter()
        .map(|a| {
            let inner = a
                .split_once('(')
                .and_then(|(_, r)| r.strip_suffix(')'))
                .ok_or_else(|| format!("malformed answer `{a}`"))?;
            inner
                .split(", ")
                .nth(arg)
                .and_then(|t| t.strip_prefix('n'))
                .and_then(|t| t.parse::<u32>().ok())
                .ok_or_else(|| format!("no node at argument {arg} of `{a}`"))
        })
        .collect::<Result<Vec<u32>, String>>()?;
    ids.sort_unstable();
    Ok(ids)
}

/// Sends one query line; returns the reply and its round-trip time in ms.
pub fn query(
    client: &mut Client,
    conn: usize,
    text: &str,
    cell: u16,
    key: u32,
    arg: usize,
) -> io::Result<(Reply, f64)> {
    let start = Instant::now();
    let r = client.query(text)?;
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let answers = answer_ids(&r.answers, arg).map_err(io::Error::other)?;
    let ok = r.ok && r.terminal.contains(" complete");
    Ok((
        Reply {
            conn,
            cell,
            key,
            generation: r.generation,
            ok,
            answers,
        },
        ms,
    ))
}

/// One committed batch as the writer saw it.
#[derive(Clone, Copy, Debug)]
pub struct Committed {
    /// The generation `COMMIT` published, or `None` when any line of the
    /// batch was answered with `ERR`.
    pub generation: Option<u64>,
    /// From sending the batch (one write of all its lines) to `COMMIT`'s `OK`.
    pub ms: f64,
}

/// The writer's connection. `loadgen::Client` waits for each reply
/// before it sends the next line; the writer instead pipelines a batch,
/// sending its `INSERT`/`DELETE` lines and `COMMIT` in one write and then
/// reading the replies. A commit then costs one round trip instead of one
/// per line, so its time is the server's work rather than a count of
/// thread wake-ups, which are what a shared host delays most.
pub struct Writer {
    conn: BufReader<TcpStream>,
}

impl Writer {
    pub fn connect(addr: &str) -> io::Result<Writer> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Writer {
            conn: BufReader::new(stream),
        })
    }

    /// Reads one reply: its lines up to the `OK`/`ERR` terminal; returns
    /// the terminal.
    fn reply(&mut self) -> io::Result<String> {
        loop {
            let mut l = String::new();
            if self.conn.read_line(&mut l)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed mid-reply",
                ));
            }
            if l.starts_with("OK") || l.starts_with("ERR") {
                return Ok(l.trim_end().to_string());
            }
        }
    }

    /// Sends a batch's `INSERT`/`DELETE` lines, then `COMMIT`, in one
    /// write, and reads every reply.
    pub fn commit(&mut self, ops: &[(bool, String)]) -> io::Result<Committed> {
        let mut lines = String::new();
        for (insert, fact) in ops {
            let verb = if *insert { "INSERT" } else { "DELETE" };
            lines.push_str(&format!("{verb} {fact}\n"));
        }
        lines.push_str("COMMIT\n");
        let start = Instant::now();
        self.conn.get_mut().write_all(lines.as_bytes())?;
        let mut ok = true;
        for _ in ops {
            ok &= self.reply()?.starts_with("OK pending");
        }
        let done = self.reply()?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let generation = done
            .strip_prefix("OK epoch ")
            .and_then(|r| r.split_whitespace().next())
            .and_then(|g| g.parse().ok())
            .filter(|_| ok);
        Ok(Committed { generation, ms })
    }

    pub fn quit(mut self) -> io::Result<()> {
        self.conn.get_mut().write_all(b"QUIT\n")?;
        self.reply().map(drop)
    }
}

/// Peak resident set size of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    // `struct rusage` on 64-bit Linux: two `timeval`s (4 words), then 14
    // longs of which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct RUsage([i64; 18]);
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut u = RUsage([0; 18]);
    // SAFETY: `u` is a writable, properly aligned buffer of the size of
    // `struct rusage` on this target, and RUSAGE_SELF (0) is a valid `who`.
    let rc = unsafe { getrusage(0, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    u.0[4] as f64 / 1024.0
}

/// Confines this thread, and every thread it starts from now on, to one
/// CPU: the highest-numbered one it may run on. Returns that CPU.
///
/// A closed-loop client and the server thread answering it take turns, so
/// one CPU serves them both. On two CPUs every request and every reply
/// woke a thread on the other CPU; on a virtual machine that wake-up waits
/// for the host to schedule the other virtual CPU, and the latency tail
/// then measured the host more than the program: in five runs of the same
/// seeds, update-mix's `query_p99_ms` spread by 0.41 unpinned and 0.13
/// pinned, and strategy-mix's `commit_p99_ms` by 0.30 and 0.08.
pub fn pin_to_one_cpu() -> io::Result<usize> {
    // A `cpu_set_t` of 1024 bits.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
    let size = std::mem::size_of::<CpuSet>();
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a writable `cpu_set_t` of `size` bytes, and pid 0
    // names the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut mask) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let cpu = (0..size * 8)
        .rev()
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .ok_or_else(|| io::Error::other("empty CPU affinity mask"))?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; `one` is a readable `cpu_set_t` of `size` bytes.
    if unsafe { sched_setaffinity(0, size, &one) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answer_ids_reads_the_chosen_argument() {
        let a = vec!["anc(n3, n17)".to_string(), "anc(n3, n4)".to_string()];
        assert_eq!(answer_ids(&a, 1).unwrap(), vec![4, 17]);
        assert_eq!(answer_ids(&["win(n9)".to_string()], 0).unwrap(), vec![9]);
        assert!(answer_ids(&["anc(n3, x)".to_string()], 1).is_err());
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
