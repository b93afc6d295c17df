//! `bvqbench`: the end-to-end benchmark of the `bvq` query server.
//!
//! ```text
//! bvqbench --workload cold|hot|churn --seed N --seconds S --trace 0|1
//!          --bvq PATH/TO/bvq [--commit REV] [--out DIR]
//! ```
//!
//! Starts `bvq serve` as its own process, drives one seeded closed-loop
//! workload at it, checks every answer against an independent reference,
//! and prints each metric by name, unit and sample count. The last line
//! of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of the traced replay with `--trace 1`). See
//! `README.md` beside this package for the metrics and workloads.

mod check;
mod drive;
mod gen;
mod host;
mod proc;
mod replay;
#[cfg(test)]
mod selftest;

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use bvq_server::Json;

use crate::gen::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    bvq: PathBuf,
    commit: String,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut bvq, mut commit, mut out) = (None, "unknown".to_string(), PathBuf::from(".bench_out"));
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|_| "bad --seconds")?),
            "--trace" => trace = Some(value()? == "1"),
            "--bvq" => bvq = Some(PathBuf::from(value()?)),
            "--commit" => commit = value()?,
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        bvq: bvq.ok_or("--bvq is required")?,
        commit,
        out,
    })
}

/// The `q`-quantile of `xs` by linear interpolation between order
/// statistics.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// One metric as printed: name, value, unit, and the samples behind it.
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value is computed from.
    pub samples: usize,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// Samples needed for a p99 with at least ten samples beyond it.
const P99_SAMPLES: usize = 1000;

/// With less than this share of the window quiet, the whole window is
/// measured.
const MIN_QUIET: f64 = 0.25;

/// The parts of the timed window the end-to-end metrics are measured
/// over.
struct Window {
    /// Measured intervals, in nanoseconds since the start of the run.
    intervals: Vec<(u64, u64)>,
    /// Their total length in seconds.
    secs: f64,
    /// Server CPU time spent in them, ms.
    cpu_ms: f64,
    /// Host CPU time stolen over the whole window, percent.
    steal_pct: f64,
    /// Share of the window measured, percent.
    measured_pct: f64,
}

impl Window {
    /// The quiet intervals of the run's window, or the whole window when
    /// too little of it was quiet.
    fn of(run: &drive::Run) -> Window {
        let ticks = &run.ticks;
        let (first, last) = (ticks[0], ticks[ticks.len() - 1]);
        let mut intervals: Vec<(u64, u64)> = Vec::new();
        let mut cpu_ms = 0.0;
        for w in ticks.windows(2) {
            let (a, b) = (w[0], w[1]);
            if !drive::quiet(&a, &b) {
                continue;
            }
            cpu_ms += b.server_cpu_ms - a.server_cpu_ms;
            match intervals.last_mut() {
                Some((_, end)) if *end == a.at_ns => *end = b.at_ns,
                _ => intervals.push((a.at_ns, b.at_ns)),
            }
        }
        let span = (last.at_ns - first.at_ns) as f64;
        let mut quiet: f64 = intervals.iter().map(|(s, e)| (e - s) as f64).sum();
        if quiet < MIN_QUIET * span {
            intervals = vec![(first.at_ns, last.at_ns)];
            cpu_ms = last.server_cpu_ms - first.server_cpu_ms;
            quiet = span;
        }
        let stolen = (last.steal - first.steal) as f64;
        let total = last.total.saturating_sub(first.total).max(1) as f64;
        Window {
            intervals,
            secs: quiet / 1e9,
            cpu_ms,
            steal_pct: 100.0 * stolen / total,
            measured_pct: 100.0 * quiet / span.max(1.0),
        }
    }

    fn contains(&self, op: &drive::OpRec) -> bool {
        self.intervals
            .iter()
            .any(|&(s, e)| s <= op.start_ns && op.end_ns <= e)
    }
}

fn end_to_end(workload: Workload, run: &drive::Run, window: &Window) -> Vec<Metric> {
    let ops: Vec<&drive::OpRec> = run.ops.iter().filter(|o| window.contains(o)).collect();
    // The latency metrics time each workload's defining operation: reads
    // on cold and hot, acknowledged writes (after maintenance) on churn.
    let primary: Vec<f64> = ops
        .iter()
        .filter(|o| o.write == (workload == Workload::Churn))
        .map(|o| o.latency_ms())
        .collect();
    let first: Vec<f64> = ops
        .iter()
        .filter(|o| !o.write)
        .map(|o| o.first_ms())
        .collect();
    let done = ops.iter().filter(|o| o.ok).count();
    // Set-ups made while the host was quiet, unless fewer than three were.
    let mut setups: Vec<f64> = run
        .setup_s
        .iter()
        .filter(|s| s.quiet)
        .map(|s| s.secs)
        .collect();
    if setups.len() < 3 {
        setups = run.setup_s.iter().map(|s| s.secs).collect();
    }
    vec![
        Metric::new("setup_s", quantile(&setups, 0.5), "s", setups.len()),
        Metric::new("throughput_rps", done as f64 / window.secs, "1/s", done),
        Metric::new(
            "latency_p50_ms",
            quantile(&primary, 0.5),
            "ms",
            primary.len(),
        ),
        Metric::new(
            "latency_p99_ms",
            quantile(&primary, 0.99),
            "ms",
            primary.len(),
        ),
        Metric::new("first_row_p50_ms", quantile(&first, 0.5), "ms", first.len()),
        Metric::new(
            "cpu_ms_per_op",
            window.cpu_ms / done.max(1) as f64,
            "ms",
            done,
        ),
        Metric::new("peak_rss_mb", run.peak_rss_kb as f64 / 1024.0, "MB", 1),
    ]
}

/// Cross-checks the server's `stats` snapshot against the generator's
/// own counts; returns the disagreements.
fn stats_cross_check(run: &drive::Run) -> Vec<String> {
    let stat = |k: &str| run.stats.get(k).and_then(Json::as_u64).unwrap_or(u64::MAX);
    let cached = run.ops.iter().filter(|o| o.cached).count() as u64;
    let mut bad = Vec::new();
    for (name, server, client) in [
        ("requests", stat("requests"), run.sent),
        ("ok", stat("ok"), run.ok),
        ("errors", stat("errors"), run.errors),
        ("result_hits", stat("result_hits"), cached),
        ("overloaded", stat("overloaded"), 0),
        ("deadline_exceeded", stat("deadline_exceeded"), 0),
    ] {
        if server != client {
            bad.push(format!(
                "stats.{name} = {server}, generator counted {client}"
            ));
        }
    }
    bad
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })
            .collect(),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bvqbench: {e}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bvqbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn bench(args: &Args) -> Result<bool, String> {
    let wl = args.workload;
    let stamp = host::stamp(&args.commit);
    let dbs = match wl {
        Workload::Cold => gen::cold_dbs(args.seed),
        Workload::Hot => gen::hot_dbs(args.seed),
        Workload::Churn => gen::churn_dbs(args.seed),
    };
    let run = drive::run(wl, args.seed, args.seconds, &args.bvq, &dbs)
        .map_err(|e| format!("client run: {e}"))?;
    let verdict = check::check(&dbs, &run.ops, &run.evidence);
    let cross = stats_cross_check(&run);

    let attempted = run.sent;
    let failed = run.errors + verdict.wrong_ops + run.failures.len() as u64;
    let correct = failed == 0 && cross.is_empty();
    let errors_pct = 100.0 * failed as f64 / attempted.max(1) as f64;

    let mut out = std::io::stdout().lock();
    let say = |out: &mut std::io::StdoutLock, s: String| {
        let _ = writeln!(out, "{s}");
    };
    say(
        &mut out,
        format!(
            "bvqbench {} seed {} trace {}",
            wl.name(),
            args.seed,
            u8::from(args.trace)
        ),
    );
    say(&mut out, format!("host {}", stamp.to_string_compact()));
    let window = Window::of(&run);
    let e2e = end_to_end(wl, &run, &window);
    for m in &e2e {
        say(
            &mut out,
            format!(
                "  {:<18} {:>12.4} {:<4} n={}",
                m.name, m.value, m.unit, m.samples
            ),
        );
    }
    let latencies = |write: bool| -> Vec<f64> {
        run.ops
            .iter()
            .filter(|o| o.write == write && window.contains(o))
            .map(|o| o.latency_ms())
            .collect()
    };
    let (reads, writes) = (latencies(false), latencies(true));
    say(
        &mut out,
        format!(
            "  reads n={} p50 {:.4} ms p99 {:.4} ms; writes n={} p50 {:.4} ms p99 {:.4} ms",
            reads.len(),
            quantile(&reads, 0.5),
            quantile(&reads, 0.99),
            writes.len(),
            quantile(&writes, 0.5),
            quantile(&writes, 0.99)
        ),
    );
    let primary = if wl == Workload::Churn {
        writes.len()
    } else {
        reads.len()
    };
    if primary < P99_SAMPLES {
        say(
            &mut out,
            format!("  warning: {primary} latency samples; a p99 needs {P99_SAMPLES} to have ten beyond it"),
        );
    }
    say(
        &mut out,
        format!(
            "  errors_pct {errors_pct:.4} % ({failed} failed of {attempted} attempted; {} answers checked)",
            verdict.checked
        ),
    );
    say(
        &mut out,
        format!(
            "  host steal {:.1} % over the window; measured {:.0} % of it ({} of {} operations)",
            window.steal_pct,
            window.measured_pct,
            run.ops.iter().filter(|o| window.contains(o)).count(),
            run.ops.len()
        ),
    );
    for f in run
        .failures
        .iter()
        .chain(&verdict.failures)
        .chain(&cross)
        .take(20)
    {
        say(&mut out, format!("  FAIL {f}"));
    }

    let metrics = if args.trace {
        let traced =
            replay::traced(wl, args.seed, &dbs, &run).map_err(|e| format!("replay: {e}"))?;
        for m in &traced.metrics {
            say(
                &mut out,
                format!(
                    "  {:<26} {:>14.4} {:<6} n={}",
                    m.name, m.value, m.unit, m.samples
                ),
            );
        }
        let shares: Vec<String> = traced
            .shares
            .iter()
            .map(|(l, v)| format!("{l} {v:.1}%"))
            .collect();
        say(
            &mut out,
            format!(
                "  share of traced request time ({} replayed): {}",
                traced.requests,
                shares.join(", ")
            ),
        );
        let spans = args
            .out
            .join(format!("{}-seed{}-spans.jsonl", wl.name(), args.seed));
        write_file(&spans, &traced.spans_jsonl)?;
        say(&mut out, format!("  spans written to {}", spans.display()));
        traced.metrics
    } else {
        e2e
    };

    let record = Json::obj([
        ("workload", Json::str(wl.name())),
        ("seed", Json::num(args.seed)),
        ("trace", Json::Bool(args.trace)),
        ("host", stamp),
        ("metrics", metrics_json(&metrics)),
        ("steal_pct", Json::Num(window.steal_pct)),
        ("measured_pct", Json::Num(window.measured_pct)),
        ("server_stats", run.stats.clone()),
        ("attempted", Json::num(attempted)),
        ("failed", Json::num(failed)),
        ("checked", Json::num(verdict.checked)),
        (
            "stats_cross_check",
            Json::Arr(cross.iter().map(|s| Json::str(s.clone())).collect()),
        ),
    ]);
    let path = args.out.join(format!(
        "{}-seed{}-trace{}.json",
        wl.name(),
        args.seed,
        u8::from(args.trace)
    ));
    write_file(&path, &record.to_string_compact())?;

    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num(attempted)),
        ("failed", Json::num(failed)),
        ("metrics", metrics_json(&metrics)),
    ]);
    say(&mut out, result.to_string_compact());
    Ok(correct)
}

fn write_file(path: &std::path::Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}
