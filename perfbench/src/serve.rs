//! The `avivd` side: starting the real binary on a Unix socket, closed-loop
//! clients speaking its NDJSON protocol, and the `stats` op.

use crate::check;
use aviv::jsonv::{self, Json};
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// How long `avivd` may take to answer its first `ping` or to exit after
/// `shutdown` before the benchmark gives up on it.
const PROCESS_TIMEOUT: Duration = Duration::from_secs(30);

/// A running `avivd`.
pub struct Server {
    child: Child,
    socket: PathBuf,
}

impl Server {
    /// Start `avivd` at `bin` on `socket` (one worker per connection),
    /// restoring from and persisting to `persist` when given. Returns the
    /// server and the time from spawn until its first `ping` was answered.
    ///
    /// # Errors
    ///
    /// The binary cannot be started or does not answer in time.
    pub fn start(
        bin: &Path,
        socket: &Path,
        persist: Option<&Path>,
    ) -> io::Result<(Server, Duration)> {
        let _ = std::fs::remove_file(socket);
        let mut cmd = Command::new(bin);
        cmd.arg("--socket").arg(socket).args(["--workers", "1"]);
        if let Some(p) = persist {
            cmd.arg("--persist").arg(p);
        }
        cmd.stdin(Stdio::null()).stdout(Stdio::null());
        let started = Instant::now();
        let child = cmd.spawn()?;
        let mut server = Server {
            child,
            socket: socket.to_path_buf(),
        };
        let mut client = loop {
            match UnixStream::connect(socket) {
                Ok(s) => break Client::new(s)?,
                Err(e) => {
                    if started.elapsed() > PROCESS_TIMEOUT {
                        return Err(e);
                    }
                    if let Some(status) = server.child.try_wait()? {
                        return Err(io::Error::other(format!("avivd exited early: {status}")));
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        };
        let pong = client.call("{\"op\":\"ping\"}")?;
        if !check::served_ok(pong) {
            return Err(io::Error::other(format!("bad ping answer: {pong}")));
        }
        let ready = started.elapsed();
        Ok((server, ready))
    }

    /// A new client connection.
    ///
    /// # Errors
    ///
    /// The socket refuses the connection.
    pub fn connect(&self) -> io::Result<Client> {
        Client::connect(&self.socket)
    }

    /// The server's socket.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Ask the server to shut down and wait until the process has ended.
    ///
    /// # Errors
    ///
    /// The request fails or the process does not end in time (it is then
    /// killed).
    pub fn shutdown(mut self) -> io::Result<()> {
        let answer = self
            .connect()
            .and_then(|mut c| c.call("{\"op\":\"shutdown\"}").map(str::to_string));
        let deadline = Instant::now() + PROCESS_TIMEOUT;
        loop {
            if let Some(status) = self.child.try_wait()? {
                answer?;
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("avivd exited with {status}")))
                };
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("avivd did not exit after shutdown"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// One client connection: one request in flight at a time.
pub struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    line: String,
}

impl Client {
    /// Connect to the server listening on `socket`.
    ///
    /// # Errors
    ///
    /// The socket refuses the connection.
    pub fn connect(socket: &Path) -> io::Result<Client> {
        Client::new(UnixStream::connect(socket)?)
    }

    fn new(stream: UnixStream) -> io::Result<Client> {
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
        })
    }

    /// Send one request line and wait for its whole response line.
    ///
    /// # Errors
    ///
    /// The connection fails or closes before answering.
    pub fn call(&mut self, request: &str) -> io::Result<&str> {
        self.writer.write_all(request.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "avivd closed the connection",
            ));
        }
        Ok(self.line.trim_end())
    }
}

/// The `stats` op's answer from the server on `socket`.
///
/// # Errors
///
/// The connection fails or the answer is not JSON.
pub fn stats(socket: &Path) -> io::Result<Stats> {
    Stats::parse(Client::connect(socket)?.call(STATS)?)
}

const STATS: &str = "{\"op\":\"stats\"}";

/// The fields of the `stats` answer the benchmark reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stats {
    /// Compiles waiting for a worker.
    pub queued: u64,
    /// Compiles a worker is running.
    pub in_flight: u64,
    /// Plan-cache hits since start.
    pub hits: u64,
    /// Plan-cache misses since start.
    pub misses: u64,
}

impl Stats {
    fn parse(line: &str) -> io::Result<Stats> {
        let json = jsonv::parse(line).map_err(|e| io::Error::other(format!("stats: {e}")))?;
        let num = |v: Option<&Json>| v.and_then(Json::as_u64).unwrap_or(0);
        let cache = json.get("cache");
        Ok(Stats {
            queued: num(json.get("queued")),
            in_flight: num(json.get("in_flight")),
            hits: num(cache.and_then(|c| c.get("hits"))),
            misses: num(cache.and_then(|c| c.get("misses"))),
        })
    }
}

/// What a set of closed-loop clients saw.
#[derive(Debug, Default)]
pub struct Session {
    /// Per completed request: its slot, when it was sent, and when its
    /// whole answer had arrived.
    pub done: Vec<(usize, Instant, Instant)>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests refused or answered `"ok":false`.
    pub failed: u64,
    /// Per request slot, every distinct response line seen.
    pub lines: Vec<Vec<String>>,
    /// Wall time from the first request to the last response, in s.
    pub elapsed_s: f64,
    /// Largest `queued` the `stats` monitor saw (0 without a monitor).
    pub queued_max: u64,
}

impl Session {
    /// Add the requests of another client's session on the same requests.
    fn merge(&mut self, other: Session) {
        self.done.extend(other.done);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (all, seen) in self.lines.iter_mut().zip(other.lines) {
            for l in seen {
                if !all.contains(&l) {
                    all.push(l);
                }
            }
        }
    }

    /// Per completed request: its slot and round trip in µs.
    pub fn rtt_us(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.done
            .iter()
            .map(|&(slot, sent, answered)| (slot, (answered - sent).as_secs_f64() * 1e6))
    }
}

/// Drive the server on `socket` with one closed-loop client per entry of
/// `plans`; each plan lists request slots (indices into `requests`) in
/// sending order.
/// Every client sends its whole list once, then again, until `deadline`
/// has passed at the end of a list (`None`: exactly once). With `monitor`,
/// one more connection polls `stats` every 20 ms for the queue length.
///
/// # Errors
///
/// A connection fails.
pub fn drive(
    socket: &Path,
    requests: &[String],
    plans: &[Vec<usize>],
    deadline: Option<Instant>,
    monitor: bool,
) -> io::Result<Session> {
    drive_paused(socket, requests, plans, deadline, monitor, 0, &mut || {})
}

/// [`drive`], with the time until `deadline` cut into `pauses + 1` equal
/// segments. After each segment but the last, every client finishes its
/// list and waits, keeping its connection, while the calling thread runs
/// `between`; then all resume. The session's `elapsed_s` leaves the
/// pauses out.
///
/// # Errors
///
/// A connection fails.
pub fn drive_paused(
    socket: &Path,
    requests: &[String],
    plans: &[Vec<usize>],
    deadline: Option<Instant>,
    monitor: bool,
    pauses: usize,
    between: &mut dyn FnMut(),
) -> io::Result<Session> {
    let done = AtomicBool::new(false);
    let started = Instant::now();
    let segment = deadline.map(|d| d.saturating_duration_since(started) / (pauses as u32 + 1));
    let barrier = Barrier::new(plans.len() + 1);
    let mut paused = Duration::ZERO;
    let (clients, queued_max) = std::thread::scope(|s| {
        // One connection for all polls: each new connection would cost
        // the server a session and its threads.
        let watcher = monitor.then(|| {
            s.spawn(|| -> io::Result<u64> {
                let mut client = Client::connect(socket)?;
                let mut max = 0;
                while !done.load(Ordering::SeqCst) {
                    max = max.max(Stats::parse(client.call(STATS)?)?.queued);
                    std::thread::sleep(Duration::from_millis(20));
                }
                Ok(max)
            })
        });
        let barrier = &barrier;
        let handles: Vec<_> = plans
            .iter()
            .map(|plan| {
                let client = Client::connect(socket);
                s.spawn(move || -> io::Result<Session> {
                    let mut out = Session {
                        lines: vec![Vec::new(); requests.len()],
                        ..Session::default()
                    };
                    let mut client = client;
                    // A failed client still meets the others at every
                    // pause, so that none of them waits for it forever.
                    for part in 0..=pauses {
                        if let Ok(c) = client.as_mut() {
                            let end = segment.map(|d| Instant::now() + d);
                            if let Err(e) = run_plan(c, requests, plan, end, &mut out) {
                                client = Err(e);
                            }
                        }
                        if part < pauses {
                            barrier.wait();
                            barrier.wait();
                        }
                    }
                    client.map(|_| out)
                })
            })
            .collect();
        for _ in 0..pauses {
            barrier.wait();
            let t0 = Instant::now();
            between();
            paused += t0.elapsed();
            barrier.wait();
        }
        let clients: Vec<io::Result<Session>> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(io::Error::other("client panicked")))
            })
            .collect();
        done.store(true, Ordering::SeqCst);
        let queued_max = watcher.map(|w| {
            w.join()
                .unwrap_or_else(|_| Err(io::Error::other("monitor panicked")))
        });
        (clients, queued_max)
    });
    let mut total = Session {
        lines: vec![Vec::new(); requests.len()],
        elapsed_s: (started.elapsed() - paused).as_secs_f64(),
        queued_max: queued_max.transpose()?.unwrap_or(0),
        ..Session::default()
    };
    for c in clients {
        total.merge(c?);
    }
    Ok(total)
}

/// One client's closed loop: send `plan` once, then again, until `end`
/// has passed at the end of the list (`None`: exactly once).
fn run_plan(
    client: &mut Client,
    requests: &[String],
    plan: &[usize],
    end: Option<Instant>,
    out: &mut Session,
) -> io::Result<()> {
    loop {
        for &slot in plan {
            let sent = Instant::now();
            let line = client.call(&requests[slot])?;
            let answered = Instant::now();
            out.attempted += 1;
            if check::served_ok(line) {
                out.done.push((slot, sent, answered));
            } else {
                out.failed += 1;
            }
            let seen = &mut out.lines[slot];
            if !seen.iter().any(|l| l == line) {
                seen.push(line.to_string());
            }
        }
        if end.is_none_or(|d| Instant::now() >= d) {
            return Ok(());
        }
    }
}

/// A compile request for the protocol: inline sources, no id (so that
/// equal requests get byte-equal answers).
pub fn compile_request(machine: &str, program: &str, preset: &str, validate: bool) -> String {
    format!(
        "{{\"op\":\"compile\",\"preset\":\"{preset}\",\"validate\":{validate},\"machine\":\"{}\",\"program\":\"{}\"}}",
        jsonv::escape(machine),
        jsonv::escape(program)
    )
}
