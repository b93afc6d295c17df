//! The untraced client run: set-up, the timed closed loops, and the
//! evidence each workload leaves for the answer checker and the replay.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bvq_prng::Rng;
use bvq_server::Json;

use crate::gen::{self, NamedDb, Read, Workload, Write};
use crate::proc::{self, clip, is_cached, is_ok, is_stream_header, Conn, ServerProc};

/// Set-ups per run; `setup_s` is the median of the quiet ones. A hot
/// set-up evaluates the whole pool and takes most of a second; the others
/// take milliseconds and need more samples for a steady median.
fn setups(workload: Workload) -> usize {
    match workload {
        Workload::Hot => 7,
        Workload::Cold | Workload::Churn => 11,
    }
}

/// One timed operation as the client saw it. Times are nanoseconds since
/// the start of the run.
#[derive(Clone, Debug)]
pub struct OpRec {
    /// Connection index.
    pub conn: usize,
    /// A mutation (`insert`/`delete`/`batch`) rather than a read.
    pub write: bool,
    /// Cold: sequence index; hot: pool rank; churn: pool index for reads,
    /// write index for writes.
    pub index: usize,
    /// When the request line was sent.
    pub start_ns: u64,
    /// When the first answer line arrived: the first line after a stream
    /// header, else the response line itself.
    pub first_ns: u64,
    /// When the last byte arrived (the `done` footer when streamed).
    pub end_ns: u64,
    /// The server answered `ok:true`.
    pub ok: bool,
    /// The server answered from its result cache.
    pub cached: bool,
    /// Response bytes, all lines.
    pub bytes: usize,
}

impl OpRec {
    /// Client latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    /// Time to the first answer line in milliseconds.
    pub fn first_ms(&self) -> f64 {
        (self.first_ns - self.start_ns) as f64 / 1e6
    }
}

/// What each workload leaves for the checker.
pub enum Evidence {
    /// Every cold read and all its response lines.
    Cold {
        /// The reads, in order.
        reads: Vec<Read>,
        /// Response lines per read (header, rows, footer; or one line).
        answers: Vec<Vec<String>>,
    },
    /// One response body per pool rank, plus any that differed from it.
    Hot {
        /// The pool.
        pool: Vec<Read>,
        /// The warm-up response of each rank.
        bodies: Vec<String>,
        /// Later responses whose body differed from the warm-up's.
        variants: Vec<(usize, String)>,
    },
    /// Subscription traffic, the write log, and a seeded sample of reads.
    Churn {
        /// The database epoch the subscriptions were installed at.
        e0: u64,
        /// The four subscribe acks.
        sub_acks: Vec<String>,
        /// Delta frames, in arrival order.
        frames: Vec<String>,
        /// The writes sent, in order.
        writes: Vec<Write>,
        /// The epoch each write's ack reported.
        write_epochs: Vec<u64>,
        /// The read pool.
        pool: Vec<Read>,
        /// `(index into the timed ops, response line)` of sampled reads.
        sampled: Vec<(usize, String)>,
    },
}

/// How long one set-up took, and whether the host was quiet meanwhile.
#[derive(Clone, Copy, Debug)]
pub struct SetupTime {
    /// Seconds from spawning the server to the first timed request.
    pub secs: f64,
    /// At most [`QUIET_STEAL`] of the host's CPU time was stolen.
    pub quiet: bool,
}

/// The outcome of one client run.
pub struct Run {
    /// Each set-up, in order; the last one served the run.
    pub setup_s: Vec<SetupTime>,
    /// The timed operations of every connection, by start time.
    pub ops: Vec<OpRec>,
    /// Samples across the timed window, from its start to after its last
    /// operation.
    pub ticks: Vec<Tick>,
    /// Server `VmHWM` at the end of the run, KiB.
    pub peak_rss_kb: u64,
    /// The server's `stats` snapshot at the end of the run.
    pub stats: Json,
    /// Lines the generator sent to the serving server.
    pub sent: u64,
    /// `ok:true` responses it received.
    pub ok: u64,
    /// `ok:false` responses it received.
    pub errors: u64,
    /// Transport failures and protocol surprises, described.
    pub failures: Vec<String>,
    /// Workload-specific evidence for the checker.
    pub evidence: Evidence,
}

/// The generator's own tally of lines sent and answers received.
#[derive(Default)]
struct Tally {
    sent: u64,
    ok: u64,
    errors: u64,
    failures: Vec<String>,
}

impl Tally {
    fn add(&mut self, other: Tally) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.errors += other.errors;
        self.failures.extend(other.failures);
    }

    /// Sends `line` and returns the response line (skipping delta frames
    /// into `frames`).
    fn call(
        &mut self,
        conn: &mut Conn,
        line: &str,
        frames: &mut Vec<String>,
    ) -> io::Result<String> {
        self.sent += 1;
        conn.send(line)?;
        loop {
            let resp = conn.recv()?;
            if resp.starts_with("{\"sub\":") {
                frames.push(resp);
                continue;
            }
            if is_ok(&resp) {
                self.ok += 1;
            } else {
                self.errors += 1;
            }
            return Ok(resp);
        }
    }
}

/// A started server, loaded and warmed, ready for the timed window.
struct Setup {
    proc: ServerProc,
    conns: Vec<Conn>,
    time: SetupTime,
    tally: Tally,
    e0: u64,
    sub_acks: Vec<String>,
    bodies: Vec<String>,
}

fn connections(workload: Workload) -> usize {
    match workload {
        Workload::Cold => 1,
        Workload::Hot | Workload::Churn => 2,
    }
}

/// Spawns the server and brings it to the state the timed window starts
/// from: databases loaded through `load_db`, the churn subscriptions
/// installed, the hot pool evaluated once.
fn setup(workload: Workload, bvq: &Path, dbs: &[NamedDb], hot_pool: &[Read]) -> io::Result<Setup> {
    let host0 = proc::host_ticks()?;
    let t0 = Instant::now();
    let proc = ServerProc::spawn(bvq, workload == Workload::Hot)?;
    let mut conns = Vec::new();
    for _ in 0..connections(workload) {
        conns.push(Conn::connect(&proc.addr)?);
    }
    let mut tally = Tally::default();
    let mut frames = Vec::new();
    let mut id = 0u64;
    for db in dbs {
        id += 1;
        let resp = tally.call(&mut conns[0], &db.load_line(id), &mut frames)?;
        if !is_ok(&resp) {
            tally.failures.push(format!("load_db {}: {resp}", db.name));
        }
    }
    let mut e0 = 0;
    let mut sub_acks = Vec::new();
    if workload == Workload::Churn {
        for sub in gen::churn_subs() {
            id += 1;
            let resp = tally.call(&mut conns[0], &sub.line(id, &dbs[0].name), &mut frames)?;
            let strategy = format!("\"strategy\":\"{}\"", sub.strategy);
            if !is_ok(&resp) || !resp.contains(&strategy) {
                tally
                    .failures
                    .push(format!("subscribe expected {strategy}: {}", clip(&resp)));
            }
            if let Some(e) = Json::parse(&resp)
                .ok()
                .and_then(|j| j.get("epoch")?.as_u64())
            {
                e0 = e;
            }
            sub_acks.push(resp);
        }
    }
    let mut bodies = Vec::new();
    for read in hot_pool {
        id += 1;
        bodies.push(tally.call(&mut conns[0], &read.line(id, dbs), &mut frames)?);
    }
    let secs = t0.elapsed().as_secs_f64();
    let host1 = proc::host_ticks()?;
    // A set-up of a few milliseconds spans a clock tick or two, so no
    // measured time at all counts as quiet.
    let (stolen, total) = (host1.0 - host0.0, host1.1 - host0.1);
    Ok(Setup {
        proc,
        conns,
        time: SetupTime {
            secs,
            quiet: stolen as f64 <= QUIET_STEAL * total as f64,
        },
        tally,
        e0,
        sub_acks,
        bodies,
    })
}

/// The part of a response after its `"cached"` flag: identical for every
/// serving of one cached answer.
fn body_after_cached(line: &str) -> &str {
    for flag in ["\"cached\":true", "\"cached\":false"] {
        if let Some(i) = line.find(flag) {
            return &line[i + flag.len()..];
        }
    }
    line
}

/// Interval between [`Tick`]s in the timed window.
const TICK: Duration = Duration::from_millis(500);

/// One sample taken during the timed window: the host's stolen and total
/// CPU time, and the server's CPU time.
#[derive(Clone, Copy, Debug)]
pub struct Tick {
    /// When, in nanoseconds since the start of the run.
    pub at_ns: u64,
    /// Host CPU time the hypervisor stole, in clock ticks.
    pub steal: u64,
    /// Host CPU time in all states, in clock ticks.
    pub total: u64,
    /// The server's user + sys CPU time, ms.
    pub server_cpu_ms: f64,
}

fn tick(pid: u32, t0: Instant) -> io::Result<Tick> {
    let (steal, total) = proc::host_ticks()?;
    Ok(Tick {
        at_ns: ns(t0),
        steal,
        total,
        server_cpu_ms: proc::cpu_ms(pid)?,
    })
}

/// A tick interval is quiet when the hypervisor stole at most this share
/// of the host's CPU time in it. On a shared host steal comes in bursts of
/// minutes that slow wall-clock figures by up to half (the parallel
/// evaluator waits for its slowest thread); outside them it stays at a
/// few percent.
const QUIET_STEAL: f64 = 0.04;
/// The timed window ends after `seconds` of quiet intervals, or after this
/// many times `seconds` when the host stays busy.
const WINDOW_CAP: f64 = 3.0;

/// Whether the interval between two ticks was quiet.
pub fn quiet(a: &Tick, b: &Tick) -> bool {
    let total = b.total.saturating_sub(a.total);
    total > 0 && (b.steal.saturating_sub(a.steal)) as f64 <= QUIET_STEAL * total as f64
}

/// Samples a [`Tick`] every [`TICK`] from `t0` until the window has held
/// `seconds` of quiet intervals or has lasted [`WINDOW_CAP`] times that,
/// then raises `stop`, also on error.
fn sample(pid: u32, t0: Instant, seconds: f64, stop: &AtomicBool) -> io::Result<Vec<Tick>> {
    let result = (|| {
        let mut ticks = vec![tick(pid, t0)?];
        let cap = Duration::from_secs_f64(seconds * WINDOW_CAP);
        let mut quiet_ns = 0;
        let mut next = t0 + TICK;
        while (quiet_ns as f64) < seconds * 1e9 && t0.elapsed() < cap {
            std::thread::sleep(next.saturating_duration_since(Instant::now()));
            let t = tick(pid, t0)?;
            let last = ticks[ticks.len() - 1];
            if quiet(&last, &t) {
                quiet_ns += t.at_ns - last.at_ns;
            }
            ticks.push(t);
            next += TICK;
        }
        Ok(ticks)
    })();
    stop.store(true, Ordering::SeqCst);
    result
}

fn ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Runs one workload end to end: [`setups`] set-ups (all but the last
/// shut down again), then closed-loop traffic on the last until the window
/// holds `seconds` of quiet intervals (see [`sample`]).
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    bvq: &Path,
    dbs: &[NamedDb],
) -> io::Result<Run> {
    let hot_pool = match workload {
        Workload::Hot => gen::hot_pool(seed),
        _ => Vec::new(),
    };
    let mut setup_s = Vec::new();
    for _ in 1..setups(workload) {
        let s = setup(workload, bvq, dbs, &hot_pool)?;
        setup_s.push(s.time);
        drop(s.conns);
        s.proc.shutdown()?;
    }
    let s = setup(workload, bvq, dbs, &hot_pool)?;
    setup_s.push(s.time);
    let Setup {
        proc,
        conns,
        tally: mut total,
        e0,
        sub_acks,
        bodies,
        ..
    } = s;

    let t0 = Instant::now();
    let pid = proc.pid();
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || sample(pid, t0, seconds, &stop))
    };
    let mut conns = conns.into_iter();
    let (mut ops, evidence) = match workload {
        Workload::Cold => {
            let (ops, tally, reads, answers) =
                cold_loop(conns.next().expect("one conn"), seed, dbs, t0, &stop);
            total.add(tally);
            (ops, Evidence::Cold { reads, answers })
        }
        Workload::Hot => {
            let (a, b) = (
                conns.next().expect("two conns"),
                conns.next().expect("two conns"),
            );
            let (r0, r1) = std::thread::scope(|sc| {
                let h0 = sc.spawn(|| hot_loop(a, 0, seed, dbs, &hot_pool, &bodies, t0, &stop));
                let h1 = sc.spawn(|| hot_loop(b, 1, seed, dbs, &hot_pool, &bodies, t0, &stop));
                (
                    h0.join().expect("hot loop 0"),
                    h1.join().expect("hot loop 1"),
                )
            });
            let mut ops = r0.0;
            ops.extend(r1.0);
            total.add(r0.1);
            total.add(r1.1);
            let mut variants = r0.2;
            variants.extend(r1.2);
            (
                ops,
                Evidence::Hot {
                    pool: hot_pool.clone(),
                    bodies,
                    variants,
                },
            )
        }
        Workload::Churn => {
            let (a, b) = (
                conns.next().expect("two conns"),
                conns.next().expect("two conns"),
            );
            let pool = gen::churn_pool(seed);
            let (wa, rb) = std::thread::scope(|sc| {
                let ha = sc.spawn(|| churn_writer(a, seed, dbs, t0, &stop));
                let hb = sc.spawn(|| churn_reader(b, seed, dbs, &pool, t0, &stop));
                (
                    ha.join().expect("churn writer"),
                    hb.join().expect("churn reader"),
                )
            });
            let (mut ops, tally_a, writes, write_epochs, frames) = wa;
            let (ops_b, tally_b, sampled_b) = rb;
            total.add(tally_a);
            total.add(tally_b);
            let offset = ops.len();
            ops.extend(ops_b);
            let sampled = sampled_b
                .into_iter()
                .map(|(i, l)| (i + offset, l))
                .collect();
            (
                ops,
                Evidence::Churn {
                    e0,
                    sub_acks,
                    frames,
                    writes,
                    write_epochs,
                    pool,
                    sampled,
                },
            )
        }
    };
    let mut ticks = sampler.join().expect("tick sampler")?;
    ticks.push(tick(pid, t0)?);

    // The stats snapshot goes over a control connection of its own, so no
    // delta frame can interleave with it.
    let mut control = Conn::connect(&proc.addr)?;
    let stats_line = total.call(&mut control, r#"{"op":"stats"}"#, &mut Vec::new())?;
    let stats = Json::parse(&stats_line)
        .ok()
        .and_then(|j| j.get("stats").cloned())
        .ok_or_else(|| io::Error::other(format!("bad stats response: {}", clip(&stats_line))))?;
    let peak_rss_kb = proc.peak_rss_kb()?;
    drop(control);
    proc.shutdown()?;

    // Sort by start time, keeping the churn sample indices valid.
    let mut order: Vec<usize> = (0..ops.len()).collect();
    order.sort_by_key(|&i| ops[i].start_ns);
    let mut evidence = evidence;
    if let Evidence::Churn { sampled, .. } = &mut evidence {
        let mut new_pos = vec![0; ops.len()];
        for (pos, &i) in order.iter().enumerate() {
            new_pos[i] = pos;
        }
        for (i, _) in sampled.iter_mut() {
            *i = new_pos[*i];
        }
    }
    let mut sorted: Vec<OpRec> = order.iter().map(|&i| ops[i].clone()).collect();
    std::mem::swap(&mut ops, &mut sorted);

    Ok(Run {
        setup_s,
        ops,
        ticks,
        peak_rss_kb,
        stats,
        sent: total.sent,
        ok: total.ok,
        errors: total.errors,
        failures: total.failures,
        evidence,
    })
}

type ColdOut = (Vec<OpRec>, Tally, Vec<Read>, Vec<Vec<String>>);

fn cold_loop(
    mut conn: Conn,
    seed: u64,
    dbs: &[NamedDb],
    t0: Instant,
    stop: &AtomicBool,
) -> ColdOut {
    let mut tally = Tally::default();
    let (mut ops, mut reads, mut answers) = (Vec::new(), Vec::new(), Vec::new());
    let mut seq = gen::ColdGen::new(seed);
    let mut id = 1_000_000u64;
    while !stop.load(Ordering::SeqCst) {
        let read = seq.next().expect("endless sequence");
        id += 1;
        let line = read.line(id, dbs);
        let start_ns = ns(t0);
        let step = (|| -> io::Result<(Vec<String>, u64, u64)> {
            tally.sent += 1;
            conn.send(&line)?;
            let head = conn.recv()?;
            let head_ns = ns(t0);
            let streamed = read.stream && is_ok(&head) && is_stream_header(&head);
            let mut lines = vec![head];
            if !streamed {
                return Ok((lines, head_ns, head_ns));
            }
            let mut first_ns = None;
            loop {
                let l = conn.recv()?;
                let at = ns(t0);
                first_ns.get_or_insert(at);
                let done = l.starts_with("{\"done\"");
                lines.push(l);
                if done {
                    return Ok((lines, first_ns.unwrap_or(at), at));
                }
            }
        })();
        match step {
            Ok((lines, first_ns, end_ns)) => {
                let ok = is_ok(&lines[0]);
                if ok {
                    tally.ok += 1;
                } else {
                    tally.errors += 1;
                }
                ops.push(OpRec {
                    conn: 0,
                    write: false,
                    index: reads.len(),
                    start_ns,
                    first_ns,
                    end_ns,
                    ok,
                    cached: is_cached(&lines[0]),
                    bytes: lines.iter().map(|l| l.len() + 1).sum(),
                });
                reads.push(read);
                answers.push(lines);
            }
            Err(e) => {
                tally.failures.push(format!("cold transport: {e}"));
                break;
            }
        }
    }
    (ops, tally, reads, answers)
}

type HotOut = (Vec<OpRec>, Tally, Vec<(usize, String)>);

#[allow(clippy::too_many_arguments)]
fn hot_loop(
    mut conn: Conn,
    c: usize,
    seed: u64,
    dbs: &[NamedDb],
    pool: &[Read],
    bodies: &[String],
    t0: Instant,
    stop: &AtomicBool,
) -> HotOut {
    let mut tally = Tally::default();
    let (mut ops, mut variants) = (Vec::new(), Vec::new());
    let mut ranks = gen::hot_ranks(seed, c);
    let mut id = 1_000_000 * (c as u64 + 1);
    let mut frames = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        let rank = ranks.next().expect("endless sequence");
        id += 1;
        let line = pool[rank].line(id, dbs);
        let start_ns = ns(t0);
        match tally.call(&mut conn, &line, &mut frames) {
            Ok(resp) => {
                let end_ns = ns(t0);
                if body_after_cached(&resp) != body_after_cached(&bodies[rank]) {
                    variants.push((rank, resp.clone()));
                }
                ops.push(OpRec {
                    conn: c,
                    write: false,
                    index: rank,
                    start_ns,
                    first_ns: end_ns,
                    end_ns,
                    ok: is_ok(&resp),
                    cached: is_cached(&resp),
                    bytes: resp.len() + 1,
                });
            }
            Err(e) => {
                tally.failures.push(format!("hot transport: {e}"));
                break;
            }
        }
    }
    (ops, tally, variants)
}

type WriterOut = (Vec<OpRec>, Tally, Vec<Write>, Vec<u64>, Vec<String>);

fn churn_writer(
    mut conn: Conn,
    seed: u64,
    dbs: &[NamedDb],
    t0: Instant,
    stop: &AtomicBool,
) -> WriterOut {
    let mut tally = Tally::default();
    let (mut ops, mut writes, mut epochs, mut frames) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut seq = gen::ChurnWrites::new(seed, &dbs[0].db);
    let mut id = 1_000_000u64;
    while !stop.load(Ordering::SeqCst) {
        let w = seq.next().expect("endless sequence");
        id += 1;
        let line = w.line(id, &dbs[0].name);
        let start_ns = ns(t0);
        match tally.call(&mut conn, &line, &mut frames) {
            Ok(resp) => {
                let end_ns = ns(t0);
                let epoch = Json::parse(&resp)
                    .ok()
                    .and_then(|j| j.get("epoch")?.as_u64())
                    .unwrap_or(0);
                ops.push(OpRec {
                    conn: 0,
                    write: true,
                    index: writes.len(),
                    start_ns,
                    first_ns: end_ns,
                    end_ns,
                    ok: is_ok(&resp),
                    cached: false,
                    bytes: resp.len() + 1,
                });
                writes.push(w);
                epochs.push(epoch);
            }
            Err(e) => {
                tally.failures.push(format!("churn writer transport: {e}"));
                return (ops, tally, writes, epochs, frames);
            }
        }
    }
    // Drain the delta frames still in flight: a round trip on this
    // connection, then read until the line stays quiet.
    let drained = (|| -> io::Result<()> {
        tally.call(&mut conn, r#"{"op":"subscriptions"}"#, &mut frames)?;
        conn.set_read_timeout(Some(Duration::from_millis(300)))?;
        while let Ok(l) = conn.recv() {
            frames.push(l);
        }
        Ok(())
    })();
    if let Err(e) = drained {
        tally.failures.push(format!("churn frame drain: {e}"));
    }
    (ops, tally, writes, epochs, frames)
}

type ReaderOut = (Vec<OpRec>, Tally, Vec<(usize, String)>);

/// One in four churn reads is checked against the reference, chosen by
/// a seeded draw so the sample is the same for every run of a seed.
const CHURN_SAMPLE: (u32, u32) = (1, 4);

fn churn_reader(
    mut conn: Conn,
    seed: u64,
    dbs: &[NamedDb],
    pool: &[Read],
    t0: Instant,
    stop: &AtomicBool,
) -> ReaderOut {
    let mut tally = Tally::default();
    let (mut ops, mut sampled) = (Vec::new(), Vec::new());
    let mut seq = gen::churn_reads(seed);
    let mut pick = Rng::seed_from_u64(gen::sub_seed(seed, 6));
    let mut id = 2_000_000u64;
    let mut frames = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        let idx = seq.next().expect("endless sequence");
        let keep = pick.gen_ratio(CHURN_SAMPLE.0, CHURN_SAMPLE.1);
        id += 1;
        let line = pool[idx].line(id, dbs);
        let start_ns = ns(t0);
        match tally.call(&mut conn, &line, &mut frames) {
            Ok(resp) => {
                let end_ns = ns(t0);
                ops.push(OpRec {
                    conn: 1,
                    write: false,
                    index: idx,
                    start_ns,
                    first_ns: end_ns,
                    end_ns,
                    ok: is_ok(&resp),
                    cached: is_cached(&resp),
                    bytes: resp.len() + 1,
                });
                if keep {
                    sampled.push((ops.len() - 1, resp));
                }
            }
            Err(e) => {
                tally.failures.push(format!("churn reader transport: {e}"));
                break;
            }
        }
    }
    (ops, tally, sampled)
}
