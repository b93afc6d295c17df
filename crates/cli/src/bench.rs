//! `bvq bench` — the perf-trajectory harness behind the committed
//! `BENCH_<n>.json` files and the CI regression gate.
//!
//! `bvq bench --json PATH` runs a fixed-seed suite of Table-2 workloads
//! (FO/FP/PFP queries, each timed on the interpreted and the compiled
//! engine), a symbolic-backend comparison (BDD vs dense wall time and
//! peak bytes), an in-process server cold/warm round-trip, and a short
//! fuzz sweep, and writes the measurements as integer metrics under a
//! committed schema (`bvq-bench/v1`). `bvq bench --gate OLD NEW`
//! compares two such files metric-by-metric and fails on regressions
//! beyond a threshold — unless the two files were recorded on machines
//! that are not comparable (different `nproc` / `overhead_only`), in
//! which case regressions demote to warnings.
//!
//! Metric direction is encoded in the key suffix: `_ns` and `_bytes`
//! are lower-is-better; `_qps`, `_per_s` and `_pct` are
//! higher-is-better. See EXPERIMENTS.md for how to read the files.

use std::time::Instant;

use bvq_cert::{check_text, CheckRequest};
use bvq_datalog::{eval_seminaive, parse_program};
use bvq_fuzz::{run_fuzz, FuzzConfig, Lang};
use bvq_ivm::{MutableDb, Mutation, StandingQuery};
use bvq_logic::parser::parse_query;
use bvq_logic::{patterns, Formula, Query, Term, Var};
use bvq_relation::{write_database, BackendMode, Database, EvalConfig, Tuple};
use bvq_server::exec::{execute, CompileMode, EvalOptions, ExecRequest};
use bvq_server::{Client, Json, Server, ServerConfig};

/// The committed file-format identifier. Bump only with a migration
/// note in EXPERIMENTS.md.
pub const BENCH_SCHEMA: &str = "bvq-bench/v1";

/// Entry point for `bvq bench …`.
pub fn run_bench_cmd(args: &[String]) -> Result<(), String> {
    let mut json_path: Option<String> = None;
    let mut gate_paths: Option<(String, String)> = None;
    let mut smoke = false;
    let mut seed: u64 = 0xB0DE;
    let mut threshold: u64 = 25;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--json" => json_path = Some(it.next().ok_or("--json needs a path")?.clone()),
            "--gate" => {
                let old = it.next().ok_or("--gate needs OLD and NEW paths")?.clone();
                let new = it.next().ok_or("--gate needs OLD and NEW paths")?.clone();
                gate_paths = Some((old, new));
            }
            "--smoke" => smoke = true,
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                seed = v.parse().map_err(|_| format!("bad --seed value `{v}`"))?;
            }
            "--threshold" => {
                let v = it.next().ok_or("--threshold needs a percentage")?;
                threshold = v
                    .parse()
                    .map_err(|_| format!("bad --threshold value `{v}`"))?;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if let Some((old, new)) = gate_paths {
        let read = |p: &str| -> Result<Json, String> {
            let text = std::fs::read_to_string(p).map_err(|e| format!("cannot read `{p}`: {e}"))?;
            Json::parse(&text).map_err(|e| format!("`{p}` is not valid bench JSON: {e:?}"))
        };
        let report = gate(&read(&old)?, &read(&new)?, threshold);
        print!("{}", report.render());
        return if report.failed() {
            Err(format!(
                "bench gate failed: {} metric(s) regressed more than {threshold}%",
                report.failures.len()
            ))
        } else {
            Ok(())
        };
    }
    let report = run_suite(seed, smoke);
    println!("{}", report.summary());
    if let Some(path) = json_path {
        std::fs::write(&path, report.to_json().to_string_compact())
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

/// One finished suite run: environment stamps plus ordered metrics.
pub struct BenchReport {
    /// The run seed.
    pub seed: u64,
    /// Whether the reduced smoke configuration ran.
    pub smoke: bool,
    /// Worker threads available on the recording machine.
    pub nproc: usize,
    /// `true` on single-core machines, where parallel speedups cannot
    /// manifest and timings measure overhead only — gates across
    /// differing values of this flag never fail hard.
    pub overhead_only: bool,
    /// `(name, value)` metrics; direction by key suffix.
    pub metrics: Vec<(String, u64)>,
}

impl BenchReport {
    /// The committed JSON form.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str(BENCH_SCHEMA)),
            ("seed", Json::num(self.seed)),
            ("smoke", Json::Bool(self.smoke)),
            ("nproc", Json::num(self.nproc as u64)),
            ("overhead_only", Json::Bool(self.overhead_only)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::num(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    /// A human-readable rendering of the metrics.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "bench: schema={BENCH_SCHEMA} seed={} smoke={} nproc={} overhead_only={}\n",
            self.seed, self.smoke, self.nproc, self.overhead_only
        );
        for (k, v) in &self.metrics {
            out.push_str(&format!("  {k} = {v}\n"));
        }
        out
    }
}

/// Runs the full suite (or the reduced `--smoke` configuration) with a
/// fixed seed and returns the report.
pub fn run_suite(seed: u64, smoke: bool) -> BenchReport {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut metrics: Vec<(String, u64)> = Vec::new();
    let (n_small, n_large, reps) = if smoke { (16, 32, 3) } else { (48, 96, 5) };

    // Table-2 query workloads: each timed interpreted vs compiled.
    let db_small = path_db(n_small);
    let db_large = path_db(n_large);
    let workloads: Vec<(&str, &Database, String)> = vec![
        (
            "fo_path",
            &db_large,
            "(x1,x2) exists x3. (E(x1,x3) & E(x3,x2) & ~P(x1))".to_string(),
        ),
        (
            "fp_reach",
            &db_large,
            Query::new(vec![Var(0)], patterns::reach_from_const(0)).to_string(),
        ),
        (
            "fp_fairness",
            &db_small,
            Query::sentence(patterns::fairness(Term::Const(0))).to_string(),
        ),
        (
            "pfp_reach",
            &db_small,
            Query::new(vec![Var(0)], patterns::pfp_reach(0)).to_string(),
        ),
    ];
    for (name, db, text) in &workloads {
        let request = |mode: CompileMode| -> ExecRequest {
            ExecRequest::query(text.clone()).with_opts(EvalOptions {
                compile: mode,
                ..EvalOptions::default()
            })
        };
        let interpreted = time_min(reps, || {
            execute(db, &request(CompileMode::Off)).expect("bench workload evaluates");
        });
        let compiled = time_min(reps, || {
            execute(db, &request(CompileMode::On)).expect("bench workload evaluates");
        });
        metrics.push((format!("{name}_interpreted_ns"), interpreted));
        metrics.push((format!("{name}_compiled_ns"), compiled));
        metrics.push((
            format!("{name}_speedup_pct"),
            interpreted.saturating_mul(100) / compiled.max(1),
        ));
    }

    // Width rewrite: a wastefully-named width-6 chain query evaluated
    // as written (n^6-bounded cylinders) against its certified width-2
    // rewrite from the hypergraph analyzer — the measurable payoff of
    // "variable minimization as a query optimization methodology".
    let rw_n = if smoke { 8 } else { 12 };
    metrics.extend(width_rewrite_workload(&path_db(rw_n), reps));

    // Symbolic backend: structured Table-2 workloads forced onto the
    // BDD and the dense backend — wall time plus peak working-set bytes
    // (`EvalStats::peak_bytes`: reachable node-store bytes vs bitset
    // bytes). On these regular graphs the symbolic representation is
    // the memory story; the `_ns` pair keeps its time honest.
    let (bdd_reach_n, bdd_fair_n) = if smoke { (384, 64) } else { (512, 80) };
    let db_bdd_reach = path_db(bdd_reach_n);
    let db_bdd_fair = path_db(bdd_fair_n);
    let bdd_workloads: Vec<(&str, &Database, String)> = vec![
        (
            "bdd_reach",
            &db_bdd_reach,
            Query::new(vec![Var(0)], patterns::reach_from_const(0)).to_string(),
        ),
        (
            "bdd_fairness",
            &db_bdd_fair,
            Query::sentence(patterns::fairness(Term::Const(0))).to_string(),
        ),
    ];
    for (name, db, text) in &bdd_workloads {
        let request = |backend: BackendMode| -> ExecRequest {
            ExecRequest::query(text.clone()).with_opts(EvalOptions {
                backend,
                ..EvalOptions::default()
            })
        };
        let peak = |backend: BackendMode| -> u64 {
            let out = execute(db, &request(backend)).expect("bench workload evaluates");
            (out.stats.peak_bytes as u64).max(1)
        };
        let bdd_peak = peak(BackendMode::Bdd);
        let dense_peak = peak(BackendMode::Dense);
        let bdd_ns = time_min(reps, || {
            execute(db, &request(BackendMode::Bdd)).expect("bench workload evaluates");
        });
        let dense_ns = time_min(reps, || {
            execute(db, &request(BackendMode::Dense)).expect("bench workload evaluates");
        });
        metrics.push((format!("{name}_bdd_ns"), bdd_ns));
        metrics.push((format!("{name}_dense_ns"), dense_ns));
        metrics.push((format!("{name}_bdd_peak_bytes"), bdd_peak));
        metrics.push((format!("{name}_dense_peak_bytes"), dense_peak));
        metrics.push((
            format!("{name}_mem_ratio_pct"),
            dense_peak.saturating_mul(100) / bdd_peak,
        ));
    }

    // Server round trips: one cold request, then warm repeats that hit
    // the result cache.
    let warm_reps: u64 = if smoke { 10 } else { 50 };
    if let Some((cold_ns, warm_qps)) = server_round_trips(&db_small, warm_reps) {
        metrics.push(("server_cold_ns".to_string(), cold_ns));
        metrics.push(("server_warm_qps".to_string(), warm_qps));
    }

    // IVM maintenance: a standing transitive closure kept up to date
    // under a single-tuple insert/delete cycle, against cold recompute.
    // Runs on a longer path than the query workloads: the incremental
    // advantage is the point, and it only shows at sizes where a cold
    // closure is genuinely expensive.
    let (ivm_n, ivm_cycles) = if smoke { (128, 12) } else { (192, 24) };
    metrics.extend(ivm_throughput(&path_db(ivm_n), ivm_cycles, reps));

    // Certificate checking (Theorem 3.5): the trusted checker replays an
    // `FP²` iteration-trace certificate for the path transitive closure
    // in `l·n²` membership tests, against the `n^{2l}`-flavored direct
    // re-evaluation the coordinator would otherwise pay per replica
    // answer. The `_pct` metric is the acceptance bar for fan-out being
    // worth it at all.
    let cert_n = if smoke { 192 } else { 256 };
    metrics.extend(cert_check_workload(&path_db(cert_n), reps));

    // Fuzz throughput: generation + every applicable oracle, all four
    // languages, no server.
    let fuzz_cases: u64 = if smoke { 5 } else { 25 };
    let start = Instant::now();
    let outcome = run_fuzz(&FuzzConfig {
        cases: fuzz_cases,
        seed,
        seed_text: seed.to_string(),
        langs: Lang::all().to_vec(),
        with_server: false,
        mutation: None,
        shrink_attempts: 100,
        stop_on_failure: true,
    })
    .expect("fuzz sweep runs");
    let elapsed = start.elapsed().as_nanos().max(1) as u64;
    let total: u64 = outcome.summaries.iter().map(|s| s.cases).sum();
    metrics.push((
        "fuzz_cases_per_s".to_string(),
        total.saturating_mul(1_000_000_000) / elapsed,
    ));

    BenchReport {
        seed,
        smoke,
        nproc,
        overhead_only: nproc == 1,
        metrics,
    }
}

/// Minimum wall time of `reps` runs, in nanoseconds (min discards
/// scheduler noise better than the mean on loaded CI machines).
fn time_min(reps: u64, mut f: impl FnMut()) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_nanos() as u64);
    }
    best.max(1)
}

/// Times a width-6 chain query (`∃x2…x6. E(x1,x2) ∧ … ∧ E(x5,x6)`, all
/// variables distinct) as written and as the analyzer's certified
/// width-2 rewrite; the `_pct` metric is the acceptance bar for the
/// rewrite being a real optimization, not just a static fact.
fn width_rewrite_workload(db: &Database, reps: u64) -> Vec<(String, u64)> {
    let chain = Formula::and_all(
        (0..5u32).map(|i| Formula::atom("E", [Term::Var(Var(i)), Term::Var(Var(i + 1))])),
    );
    let body = (1..=5u32).rev().fold(chain, |f, i| f.exists(Var(i)));
    let original = Query::new(vec![Var(0)], body);
    let analysis = bvq_analysis::analyze_query(&original);
    assert_eq!(
        analysis.certified,
        Some(true),
        "the chain workload must carry a validated width certificate"
    );
    let cert = analysis.certificate.expect("certified implies certificate");
    let rewritten = Query::new(original.output.clone(), cert.rewritten);
    let time_query = |q: &Query| -> u64 {
        let req = ExecRequest::query(q.to_string());
        time_min(reps, || {
            execute(db, &req).expect("bench workload evaluates");
        })
    };
    let original_ns = time_query(&original);
    let rewritten_ns = time_query(&rewritten);
    vec![
        ("width_rewrite_original_ns".to_string(), original_ns),
        ("width_rewrite_rewritten_ns".to_string(), rewritten_ns),
        (
            "width_rewrite_speedup_pct".to_string(),
            original_ns.saturating_mul(100) / rewritten_ns.max(1),
        ),
    ]
}

/// Times the three legs of certified fan-out on the path transitive
/// closure: producing an iteration-trace certificate (replica-side),
/// checking it with the trusted checker (coordinator-side), and the
/// direct re-evaluation the check replaces. `cert_check_speedup_pct`
/// is `direct / check × 100`; the smoke floor is 1000 (≥10×).
fn cert_check_workload(db: &Database, reps: u64) -> Vec<(String, u64)> {
    let text = "(x1, x2) [lfp T(x1, x2) . E(x1, x2) | exists x3. (E(x1, x3) & T(x3, x2))](x1, x2)";
    let query = parse_query(text).expect("bench TC query parses");
    let emit_ns = time_min(reps, || {
        bvq_core::certgen::certify_query(db, &query).expect("bench TC certifies");
    });
    let encoded = bvq_core::certgen::certify_query(db, &query)
        .expect("bench TC certifies")
        .encode();
    let check_ns = time_min(reps, || {
        check_text(db, &CheckRequest::Query(&query), &encoded).expect("bench cert checks");
    });
    let request = ExecRequest::query(text.to_string());
    let direct_ns = time_min(reps, || {
        execute(db, &request).expect("bench workload evaluates");
    });
    vec![
        ("cert_emit_ns".to_string(), emit_ns),
        ("cert_check_ns".to_string(), check_ns),
        ("cert_direct_eval_ns".to_string(), direct_ns),
        (
            "cert_check_speedup_pct".to_string(),
            direct_ns.saturating_mul(100) / check_ns.max(1),
        ),
    ]
}

/// The path database the workloads run on: a directed path `E` with
/// every third element marked `P`.
fn path_db(n: u32) -> Database {
    Database::builder(n as usize)
        .relation(
            "E",
            2,
            (0..n.saturating_sub(1)).map(|i| Tuple::from_slice(&[i, i + 1])),
        )
        .relation(
            "P",
            1,
            (0..n)
                .filter(|i| i % 3 == 1)
                .map(|i| Tuple::from_slice(&[i])),
        )
        .build()
}

/// Times incremental maintenance of a standing transitive-closure
/// query on the path database against cold re-evaluation. Each cycle
/// inserts the chord edge `E(0,2)` (redundant for reachability, so the
/// IDB delta is small but DRed still propagates the edge delta) and
/// then deletes it (forcing overdelete/rederive). Update latencies
/// cover snapshotting, copy-on-write apply, and maintenance — the full
/// cost a server pays per mutation.
fn ivm_throughput(db: &Database, cycles: u64, reps: u64) -> Vec<(String, u64)> {
    let program = parse_program("T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).")
        .expect("bench TC program parses");
    let cfg = EvalConfig::sequential();
    let mut mdb = MutableDb::new(db.clone());
    let mut sq = StandingQuery::install(program.clone(), "T", mdb.db(), &cfg)
        .expect("bench standing query installs");
    let chord = |delete: bool| -> Mutation {
        if delete {
            Mutation::Delete {
                rel: "E".into(),
                tuple: vec![0, 2],
            }
        } else {
            Mutation::Insert {
                rel: "E".into(),
                tuple: vec![0, 2],
            }
        }
    };
    let mut latencies: Vec<u64> = Vec::with_capacity(2 * cycles as usize);
    let (mut insert_best, mut delete_best) = (u64::MAX, u64::MAX);
    let run_start = Instant::now();
    for _ in 0..cycles {
        for delete in [false, true] {
            let m = chord(delete);
            let old = mdb.snapshot();
            let start = Instant::now();
            let delta = mdb
                .apply(std::slice::from_ref(&m))
                .expect("bench mutation applies");
            sq.apply(&old.db, mdb.db(), &delta, &cfg)
                .expect("bench maintenance succeeds");
            let ns = (start.elapsed().as_nanos() as u64).max(1);
            latencies.push(ns);
            if delete {
                delete_best = delete_best.min(ns);
            } else {
                insert_best = insert_best.min(ns);
            }
        }
    }
    let run_ns = (run_start.elapsed().as_nanos() as u64).max(1);
    let cold_ns = time_min(reps, || {
        eval_seminaive(&program, mdb.db()).expect("bench recompute succeeds");
    });
    latencies.sort_unstable();
    let quantile = |q: f64| -> u64 {
        let idx = ((latencies.len() - 1) as f64 * q).round() as usize;
        latencies[idx]
    };
    vec![
        ("ivm_insert_update_ns".to_string(), insert_best),
        ("ivm_delete_update_ns".to_string(), delete_best),
        ("ivm_cold_recompute_ns".to_string(), cold_ns),
        (
            "ivm_speedup_pct".to_string(),
            cold_ns.saturating_mul(100) / insert_best.max(1),
        ),
        (
            "ivm_mutations_per_s".to_string(),
            (2 * cycles).saturating_mul(1_000_000_000) / run_ns,
        ),
        ("ivm_update_p50_ns".to_string(), quantile(0.5)),
        ("ivm_update_p99_ns".to_string(), quantile(0.99)),
    ]
}

/// One cold and `warm_reps` warm server round trips; `None` when the
/// loopback server cannot start (sandboxed environments).
fn server_round_trips(db: &Database, warm_reps: u64) -> Option<(u64, u64)> {
    let mut handle = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServerConfig::default()
    })
    .ok()?;
    let mut client = Client::connect(handle.addr()).ok()?;
    let resp = client.load_db("bench", &write_database(db)).ok()?;
    if !Client::is_ok(&resp) {
        handle.shutdown();
        return None;
    }
    let query = Query::new(vec![Var(0)], patterns::reach_from_const(0)).to_string();
    let start = Instant::now();
    let first = client.eval("bench", &query).ok()?;
    let cold_ns = (start.elapsed().as_nanos() as u64).max(1);
    if !Client::is_ok(&first) {
        handle.shutdown();
        return None;
    }
    let start = Instant::now();
    for _ in 0..warm_reps {
        let resp = client.eval("bench", &query).ok()?;
        if !Client::is_ok(&resp) {
            handle.shutdown();
            return None;
        }
    }
    let elapsed = (start.elapsed().as_nanos() as u64).max(1);
    let _ = client.shutdown();
    handle.shutdown();
    Some((cold_ns, warm_reps.saturating_mul(1_000_000_000) / elapsed))
}

/// Whether a bigger value of this metric is better, by key suffix.
fn higher_is_better(key: &str) -> bool {
    key.ends_with("_qps") || key.ends_with("_per_s") || key.ends_with("_pct")
}

/// The gate's verdict on one metric pair.
pub struct GateRow {
    /// Metric key.
    pub key: String,
    /// Value in the baseline file.
    pub old: u64,
    /// Value in the fresh file.
    pub new: u64,
    /// Signed percentage change, positive = improvement.
    pub delta_pct: i64,
    /// Whether the change regressed past the threshold.
    pub regressed: bool,
}

/// The regression gate's full output.
pub struct GateReport {
    /// One row per metric shared by both files.
    pub rows: Vec<GateRow>,
    /// Hard failures (regressions on comparable machines).
    pub failures: Vec<String>,
    /// Demoted or environmental warnings.
    pub warnings: Vec<String>,
}

impl GateReport {
    /// Whether the gate should fail the build.
    pub fn failed(&self) -> bool {
        !self.failures.is_empty()
    }

    /// A markdown delta table plus failure/warning lines — what CI
    /// appends to the job summary.
    pub fn render(&self) -> String {
        let mut out =
            String::from("| metric | old | new | delta | status |\n|---|---|---|---|---|\n");
        for r in &self.rows {
            out.push_str(&format!(
                "| {} | {} | {} | {:+}% | {} |\n",
                r.key,
                r.old,
                r.new,
                r.delta_pct,
                if r.regressed { "REGRESSED" } else { "ok" }
            ));
        }
        for w in &self.warnings {
            out.push_str(&format!("warning: {w}\n"));
        }
        for f in &self.failures {
            out.push_str(&format!("FAIL: {f}\n"));
        }
        if self.failures.is_empty() {
            out.push_str("gate: ok\n");
        }
        out
    }
}

/// Compares two `bvq-bench/v1` files: every metric present in both is
/// diffed, and a change worse than `threshold_pct` percent fails the
/// gate — demoted to a warning when the files come from machines that
/// are not comparable (`nproc` or `overhead_only` differ) or from
/// different schema versions.
pub fn gate(old: &Json, new: &Json, threshold_pct: u64) -> GateReport {
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    let mut warnings = Vec::new();
    let schema_of = |j: &Json| j.get("schema").and_then(Json::as_str).map(str::to_string);
    let nproc_of = |j: &Json| j.get("nproc").and_then(Json::as_u64);
    let overhead_of = |j: &Json| j.get("overhead_only").and_then(Json::as_bool);
    let mut comparable = true;
    if schema_of(old) != schema_of(new) {
        warnings.push(format!(
            "schema mismatch ({:?} vs {:?}) — comparisons are advisory",
            schema_of(old),
            schema_of(new)
        ));
        comparable = false;
    }
    if nproc_of(old) != nproc_of(new) || overhead_of(old) != overhead_of(new) {
        warnings.push(format!(
            "recorded on non-comparable machines (nproc {:?} → {:?}, overhead_only {:?} → {:?}) — regressions demoted to warnings",
            nproc_of(old),
            nproc_of(new),
            overhead_of(old),
            overhead_of(new)
        ));
        comparable = false;
    }
    let metric = |j: &Json, key: &str| -> Option<u64> {
        j.get("metrics")
            .and_then(|m| m.get(key))
            .and_then(Json::as_u64)
    };
    let old_keys: Vec<String> = match old.get("metrics") {
        Some(Json::Obj(pairs)) => pairs.iter().map(|(k, _)| k.clone()).collect(),
        _ => Vec::new(),
    };
    for key in old_keys {
        let (Some(a), Some(b)) = (metric(old, &key), metric(new, &key)) else {
            continue;
        };
        // Positive delta = improvement, in the metric's own direction.
        let delta_pct = if higher_is_better(&key) {
            (b as i128 - a as i128) * 100 / (a.max(1) as i128)
        } else {
            (a as i128 - b as i128) * 100 / (a.max(1) as i128)
        } as i64;
        let regressed = delta_pct < -(threshold_pct as i64);
        if regressed {
            let msg = format!("{key}: {a} → {b} ({delta_pct:+}%, threshold -{threshold_pct}%)");
            if comparable {
                failures.push(msg);
            } else {
                warnings.push(msg);
            }
        }
        rows.push(GateRow {
            key,
            old: a,
            new: b,
            delta_pct,
            regressed,
        });
    }
    if rows.is_empty() {
        warnings.push("no shared metrics — nothing gated".to_string());
    }
    GateReport {
        rows,
        failures,
        warnings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(nproc: u64, metrics: &[(&str, u64)]) -> Json {
        Json::obj([
            ("schema", Json::str(BENCH_SCHEMA)),
            ("seed", Json::num(0)),
            ("smoke", Json::Bool(true)),
            ("nproc", Json::num(nproc)),
            ("overhead_only", Json::Bool(nproc == 1)),
            (
                "metrics",
                Json::Obj(
                    metrics
                        .iter()
                        .map(|(k, v)| (k.to_string(), Json::num(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn gate_passes_on_identical_reports() {
        let r = report(
            1,
            &[("fp_reach_compiled_ns", 1000), ("server_warm_qps", 50)],
        );
        let g = gate(&r, &r, 25);
        assert!(!g.failed(), "{}", g.render());
        assert_eq!(g.rows.len(), 2);
    }

    #[test]
    fn gate_fails_on_a_2x_slowdown() {
        let old = report(1, &[("fp_reach_compiled_ns", 1000)]);
        let new = report(1, &[("fp_reach_compiled_ns", 2000)]);
        let g = gate(&old, &new, 25);
        assert!(g.failed());
        assert!(g.render().contains("REGRESSED"), "{}", g.render());
        // Direction flips for higher-is-better metrics: halving QPS
        // regresses, doubling latency-style `_ns` regresses.
        let old = report(1, &[("server_warm_qps", 100)]);
        let new = report(1, &[("server_warm_qps", 50)]);
        assert!(gate(&old, &new, 25).failed());
        let improved = report(1, &[("server_warm_qps", 200)]);
        assert!(!gate(&old, &improved, 25).failed());
    }

    #[test]
    fn gate_demotes_on_non_comparable_machines() {
        let old = report(8, &[("fp_reach_compiled_ns", 1000)]);
        let new = report(1, &[("fp_reach_compiled_ns", 5000)]);
        let g = gate(&old, &new, 25);
        assert!(!g.failed(), "{}", g.render());
        assert!(!g.warnings.is_empty());
        assert!(g.rows[0].regressed, "still reported in the table");
    }

    #[test]
    fn bench_report_json_schema_round_trips() {
        let r = BenchReport {
            seed: 7,
            smoke: true,
            nproc: 2,
            overhead_only: false,
            metrics: vec![
                ("fp_reach_compiled_ns".to_string(), 1234),
                ("ivm_speedup_pct".to_string(), 1500),
            ],
        };
        let j = Json::parse(&r.to_json().to_string_compact()).unwrap();
        assert_eq!(j.get("schema").and_then(Json::as_str), Some(BENCH_SCHEMA));
        assert_eq!(j.get("seed").and_then(Json::as_u64), Some(7));
        assert_eq!(j.get("smoke").and_then(Json::as_bool), Some(true));
        assert_eq!(j.get("nproc").and_then(Json::as_u64), Some(2));
        assert_eq!(j.get("overhead_only").and_then(Json::as_bool), Some(false));
        let metric = |k: &str| {
            j.get("metrics")
                .and_then(|m| m.get(k))
                .and_then(Json::as_u64)
        };
        assert_eq!(metric("fp_reach_compiled_ns"), Some(1234));
        assert_eq!(metric("ivm_speedup_pct"), Some(1500));
        // The parsed file is what the gate reads: identical files pass.
        let g = gate(&j, &j, 25);
        assert!(!g.failed(), "{}", g.render());
        assert_eq!(g.rows.len(), 2);
    }

    /// Runs the whole smoke suite and asserts its acceptance floors.
    /// Debug-build timings say nothing about those floors, so this runs
    /// in release only: `cargo test --release -p bvq-cli smoke_suite`.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "timing floors need a release build")]
    fn smoke_suite_meets_the_acceptance_floors() {
        let r = run_suite(7, true);
        let has = |k: &str| r.metrics.iter().any(|(m, _)| m == k);
        for key in [
            "fo_path_interpreted_ns",
            "fo_path_compiled_ns",
            "fp_reach_speedup_pct",
            "fp_fairness_compiled_ns",
            "pfp_reach_compiled_ns",
            "width_rewrite_original_ns",
            "width_rewrite_rewritten_ns",
            "width_rewrite_speedup_pct",
            "bdd_reach_bdd_ns",
            "bdd_reach_dense_ns",
            "bdd_reach_bdd_peak_bytes",
            "bdd_reach_dense_peak_bytes",
            "bdd_fairness_bdd_ns",
            "bdd_fairness_dense_ns",
            "bdd_fairness_bdd_peak_bytes",
            "bdd_fairness_dense_peak_bytes",
            "ivm_insert_update_ns",
            "ivm_delete_update_ns",
            "ivm_cold_recompute_ns",
            "ivm_speedup_pct",
            "ivm_mutations_per_s",
            "ivm_update_p50_ns",
            "ivm_update_p99_ns",
            "cert_emit_ns",
            "cert_check_ns",
            "cert_direct_eval_ns",
            "cert_check_speedup_pct",
            "fuzz_cases_per_s",
        ] {
            assert!(has(key), "missing metric {key}\n{}", r.summary());
        }
        // The acceptance bar for incremental maintenance: a single-tuple
        // insert updates the standing closure ≥10× faster than a cold
        // re-evaluation, even in the reduced smoke configuration.
        let speedup = r
            .metrics
            .iter()
            .find(|(k, _)| k == "ivm_speedup_pct")
            .map(|(_, v)| *v)
            .unwrap();
        assert!(
            speedup >= 1000,
            "ivm_speedup_pct = {speedup} (< 1000)\n{}",
            r.summary()
        );
        // The acceptance bar for certified fan-out: the trusted checker
        // validates a correct FP iteration-trace certificate for the
        // n=192 path transitive closure ≥10× faster than re-evaluating
        // the query, even in the reduced smoke configuration.
        let cert = r
            .metrics
            .iter()
            .find(|(k, _)| k == "cert_check_speedup_pct")
            .map(|(_, v)| *v)
            .unwrap();
        assert!(
            cert >= 1000,
            "cert_check_speedup_pct = {cert} (< 1000)\n{}",
            r.summary()
        );
        // The acceptance bar for the symbolic backend: on both
        // structured workloads the BDD peak working set is ≥10× under
        // the dense bitset, even in the reduced smoke configuration.
        for name in ["bdd_reach", "bdd_fairness"] {
            let ratio = r
                .metrics
                .iter()
                .find(|(k, _)| *k == format!("{name}_mem_ratio_pct"))
                .map(|(_, v)| *v)
                .unwrap();
            assert!(
                ratio >= 1000,
                "{name}_mem_ratio_pct = {ratio} (< 1000)\n{}",
                r.summary()
            );
        }
        // The acceptance bar for the width rewriter: the certified
        // width-2 plan evaluates ≥2× faster than the width-6 original,
        // even in the reduced smoke configuration.
        let rw = r
            .metrics
            .iter()
            .find(|(k, _)| k == "width_rewrite_speedup_pct")
            .map(|(_, v)| *v)
            .unwrap();
        assert!(
            rw >= 200,
            "width_rewrite_speedup_pct = {rw} (< 200)\n{}",
            r.summary()
        );
        assert_eq!(r.overhead_only, r.nproc == 1);
        // The JSON form round-trips through the parser.
        let j = Json::parse(&r.to_json().to_string_compact()).unwrap();
        assert_eq!(j.get("schema").and_then(Json::as_str), Some(BENCH_SCHEMA));
        assert!(j.get("metrics").is_some());
    }
}
