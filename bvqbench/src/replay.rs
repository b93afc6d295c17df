//! The traced run's second half: an in-process replay of the client
//! run's request sequence through each layer's public functions, with one
//! span per call and counts taken at the same boundaries.
//!
//! The replay reads the layers from outside: it calls the functions the
//! server calls, in the order the server calls them, and times each call.
//! Each request follows the cache hit or miss it had in the client run.
//! Spans are sequential children of their request, so a layer's self time
//! is the sum of its spans, and what the client saw beyond all of them is
//! the residual: socket, queue hop and locks.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use bvq_core::PlanChoice;
use bvq_ivm::{AnswerDelta, MutableDb, Snapshot, StandingQuery};
use bvq_relation::{parse_database, Database, EvalConfig, EvalStats, Relation, Tuple};
use bvq_server::exec::{self, Answer, ExecRequest, Prepared};
use bvq_server::protocol::{ok_response, parse_request};
use bvq_server::{Json, Language};

use crate::drive::{OpRec, Run};
use crate::gen::{self, Body, NamedDb, Read, Workload};
use crate::{quantile, Metric};

/// Cold requests replayed: a fixed prefix of the seeded sequence, so the
/// exact counts repeat for every run of a seed.
pub const COLD_REPLAY: usize = 150;
/// Hot requests replayed after the warm-up pass.
pub const HOT_REPLAY: usize = 3000;
/// Churn writes replayed, with the reads the client run sent meanwhile.
pub const CHURN_REPLAY: usize = 300;

/// The traced run's output.
pub struct Traced {
    /// The per-layer metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Each layer's share of the client time of the workload's defining
    /// operations, in percent, ending with the residual.
    pub shares: Vec<(&'static str, f64)>,
    /// Requests replayed.
    pub requests: usize,
    /// Client spans and layer spans, one JSON object per line.
    pub spans_jsonl: String,
}

/// The layers, in reporting order; a span's layer is its name up to the
/// first dot.
pub const LAYERS: &[&str] = &[
    "server", "lint", "exec", "core", "datalog", "eso", "cert", "ivm",
];

/// A layer span inside one replayed request.
struct SpanRec {
    req: usize,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// The answer a request produced, as the server keeps it for encoding.
#[derive(Clone)]
struct Payload {
    language: Language,
    k: usize,
    width: usize,
    answer: Answer,
    certificate: Option<String>,
}

/// Exact counts and per-call timings collected by the replay.
#[derive(Default)]
struct Tally {
    calls: BTreeMap<&'static str, (u64, u64)>,
    tuples: u64,
    ops: u64,
    rounds: u64,
    work: u128,
    bound: u128,
    plans: u64,
    compiled: u64,
    cert_bytes: u64,
    certified: u64,
    delta_rows: u64,
    writes: u64,
    reads: u64,
}

impl Tally {
    fn mean(&self, name: &str, per: u64, scale: f64) -> f64 {
        let total = self.calls.get(name).map_or(0, |c| c.0);
        if per == 0 {
            0.0
        } else {
            total as f64 / per as f64 / scale
        }
    }

    fn count(&self, name: &str) -> u64 {
        self.calls.get(name).map_or(0, |c| c.1)
    }

    fn record_stats(&mut self, stats: &EvalStats) {
        self.tuples += stats.total_tuples;
        self.ops += stats.operator_applications;
    }
}

struct Replay<'a> {
    t0: Instant,
    spans: Vec<SpanRec>,
    tally: Tally,
    req: usize,
    dbs: &'a [NamedDb],
}

impl<'a> Replay<'a> {
    fn new(dbs: &'a [NamedDb]) -> Replay<'a> {
        Replay {
            t0: Instant::now(),
            spans: Vec::new(),
            tally: Tally::default(),
            req: 0,
            dbs,
        }
    }

    /// Times `f` as a span of the current request.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.t0.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(SpanRec {
            req: self.req,
            name,
            start_ns: start,
            end_ns: end,
        });
        let c = self.tally.calls.entry(name).or_default();
        c.0 += end - start;
        c.1 += 1;
        out
    }

    /// Evaluates a request on a result-cache miss: planning, evaluation
    /// and certificate production, each in its own layer.
    fn evaluate(
        &mut self,
        db: &Database,
        prepared: &Prepared,
        req: &ExecRequest,
    ) -> Result<Payload, String> {
        let mut plain = req.clone();
        plain.opts.certificate = false;
        let eval_span = match prepared {
            Prepared::Query(plan) => {
                let allow_pfp = plan.language == Language::Pfp;
                let qp = self.span("core.plan", || {
                    bvq_core::plan_query(db, &plan.query, plan.k, allow_pfp, None)
                });
                self.tally.plans += 1;
                if matches!(qp.map(|p| p.choice()), Ok(PlanChoice::Compiled(_))) {
                    self.tally.compiled += 1;
                }
                "core.eval"
            }
            Prepared::Datalog(_) => "datalog.eval",
            Prepared::Eso(_) => "eso.eval",
        };
        let out = self
            .span(eval_span, || exec::execute_prepared(db, prepared, &plain))
            .map_err(|e| e.to_string())?;
        self.tally.record_stats(&out.stats);
        if let Prepared::Query(plan) = prepared {
            self.tally.rounds += out.stats.fixpoint_iterations;
            self.tally.work += u128::from(out.stats.total_tuples);
            self.tally.bound += u128::from(out.stats.operator_applications)
                * (db.domain_size() as u128).pow(plan.k as u32);
        }
        let certificate = if req.opts.certificate {
            let cert = self
                .span("cert.emit", || match (prepared, &req.kind) {
                    (Prepared::Query(plan), _) => bvq_core::certgen::certify_query(db, &plan.query),
                    (Prepared::Datalog(p), exec::ExecKind::Datalog { output, .. }) => {
                        bvq_core::certgen::certify_datalog(db, &p.program, output)
                    }
                    _ => Err(bvq_cert::CertError::Unsupported("not certifiable".into())),
                })
                .map_err(|e| e.to_string())?
                .encode();
            self.tally.cert_bytes += cert.len() as u64;
            self.tally.certified += 1;
            // The trusted checker's cost, recorded beside the request: the
            // server never runs it on its own certificates.
            let checked = self.span("cert.check", || {
                exec::check_certificate(db, prepared, req, &cert)
            });
            checked.map_err(|e| format!("own certificate rejected: {e}"))?;
            Some(cert)
        } else {
            None
        };
        Ok(Payload {
            language: out.language,
            k: out.k,
            width: out.width,
            answer: out.answer,
            certificate,
        })
    }

    /// Renders a response the way the server does: a header with the
    /// answer, or a header, one line per row and a footer when streamed.
    fn encode(&mut self, id: u64, p: &Payload, cached: bool, stream: bool) -> usize {
        self.span("server.encode", || {
            let row =
                |t: &Tuple| Json::Arr(t.as_slice().iter().map(|&e| Json::num(e as u64)).collect());
            let mut fields: Vec<(String, Json)> = vec![
                ("language".into(), Json::str(p.language.label())),
                ("cached".into(), Json::Bool(cached)),
            ];
            if p.k > 0 {
                fields.push(("k".into(), Json::num(p.k as u64)));
            }
            if p.width > 0 {
                fields.push(("width".into(), Json::num(p.width as u64)));
            }
            if let Some(cert) = &p.certificate {
                fields.push(("certified".into(), Json::Bool(true)));
                fields.push(("certificate".into(), Json::str(cert.clone())));
            }
            let id = Json::num(id);
            match &p.answer {
                Answer::Boolean(b) => {
                    fields.push(("boolean".into(), Json::Bool(*b)));
                    ok_response(&id, fields).to_string_compact().len()
                }
                Answer::Text(t) => {
                    fields.push(("text".into(), Json::str(t.clone())));
                    ok_response(&id, fields).to_string_compact().len()
                }
                Answer::Rows(rel) => {
                    let rows = rel.sorted();
                    let count = Json::num(rows.len() as u64);
                    if stream {
                        fields.push(("stream".into(), Json::Bool(true)));
                        fields.push(("count".into(), count.clone()));
                        let mut bytes = ok_response(&id, fields).to_string_compact().len();
                        for t in &rows {
                            bytes += Json::Obj(vec![("row".into(), row(t))])
                                .to_string_compact()
                                .len();
                        }
                        bytes
                            + Json::obj([("done", Json::Bool(true)), ("count", count)])
                                .to_string_compact()
                                .len()
                    } else {
                        fields.push(("count".into(), count));
                        fields.push(("rows".into(), Json::Arr(rows.iter().map(row).collect())));
                        ok_response(&id, fields).to_string_compact().len()
                    }
                }
            }
        })
    }

    /// One read request through the serving path: decode, admission
    /// lint, cache key, plan cache, result cache, evaluation, encode.
    fn read(
        &mut self,
        read: &Read,
        snap: &Snapshot,
        admission: bool,
        hit: bool,
        plans: &mut HashMap<String, Arc<Prepared>>,
        results: &mut HashMap<(String, u64), Payload>,
    ) -> Result<(), String> {
        let id = self.req as u64;
        self.tally.reads += 1;
        let line = read.line(id, self.dbs);
        self.span("server.decode", || parse_request(&line))
            .map_err(|(_, e)| e.message)?;
        let req = read.exec_request();
        let db: &Database = &snap.db;
        if admission {
            let report = self.span("lint.admit", || exec::lint_with_db(db, &req, None));
            if report.has_errors() {
                return Err(format!("admission rejected {}", read.text()));
            }
        }
        let key = self.span("server.cache_key", || req.cache_key());
        let prepared = match plans.get(&key) {
            Some(p) => p.clone(),
            None => {
                let p = Arc::new(
                    self.span("exec.prepare", || exec::prepare_request(&req))
                        .map_err(|e| e.to_string())?,
                );
                plans.insert(key.clone(), p.clone());
                p
            }
        };
        let fp = self.span("server.cache_key", || {
            snap.dep_fingerprint(&prepared.referenced_relations())
        });
        let rkey = (key, fp);
        let payload = match results.get(&rkey) {
            Some(p) if hit => p.clone(),
            // A hit in the client run that this replay has not cached
            // yet (its interleaving differs): build the payload outside
            // every span, then encode it as the hit it was.
            None if hit => {
                let mut scratch = Replay::new(self.dbs);
                scratch.evaluate(db, &prepared, &req)?
            }
            _ => {
                let p = self.evaluate(db, &prepared, &req)?;
                results.insert(rkey, p.clone());
                p
            }
        };
        self.encode(id, &payload, hit, read.stream);
        Ok(())
    }
}

/// A local standing query: a Datalog view, or a formula kept by
/// re-evaluate-and-diff.
enum LocalSub {
    Datalog(StandingQuery, &'static str),
    Rediff {
        prepared: Prepared,
        req: ExecRequest,
        deps: Vec<String>,
        answer: Relation,
    },
}

fn answer_relation(a: Answer) -> Relation {
    match a {
        Answer::Rows(r) => r,
        Answer::Boolean(b) => Relation::boolean(b),
        Answer::Text(_) => Relation::new(0),
    }
}

fn install_subs(db: &Database, cfg: &EvalConfig) -> Result<Vec<LocalSub>, String> {
    gen::churn_subs()
        .into_iter()
        .map(|s| match s.body {
            Body::Datalog { program, output } => {
                let p = bvq_datalog::parse_program(&program).map_err(|e| e.to_string())?;
                let sq = StandingQuery::install(p, &output, db, cfg).map_err(|e| e.to_string())?;
                let name = if s.strategy == "dred" {
                    "ivm.dred"
                } else {
                    "ivm.counting"
                };
                Ok(LocalSub::Datalog(sq, name))
            }
            Body::Query(q) | Body::Eso(q) => {
                let req = ExecRequest::query(q);
                let prepared = exec::prepare_request(&req).map_err(|e| e.to_string())?;
                let out = exec::execute_prepared(db, &prepared, &req).map_err(|e| e.to_string())?;
                Ok(LocalSub::Rediff {
                    deps: prepared.referenced_relations(),
                    prepared,
                    req,
                    answer: answer_relation(out.answer),
                })
            }
        })
        .collect()
}

/// Mean `relation.load_ms`: db-text to [`Database`] plus its fingerprint,
/// per database, median of five passes.
fn load_ms(dbs: &[NamedDb]) -> Result<f64, String> {
    let mut per_pass = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        for d in dbs {
            let db = parse_database(&d.text).map_err(|e| e.to_string())?;
            std::hint::black_box(db.fingerprint());
        }
        per_pass.push(t.elapsed().as_secs_f64() * 1e3 / dbs.len() as f64);
    }
    Ok(quantile(&per_pass, 0.5))
}

fn snapshot(db: &Database) -> Snapshot {
    MutableDb::new(db.clone()).snapshot()
}

/// Replays a workload and returns the replay with, per replayed request,
/// the client run's op it follows (if the client run had one).
fn replay<'a>(
    workload: Workload,
    seed: u64,
    dbs: &'a [NamedDb],
    ops: &[OpRec],
) -> Result<(Replay<'a>, Vec<Option<usize>>), String> {
    let mut r = Replay::new(dbs);
    let mut follows = Vec::new();
    let mut plans = HashMap::new();
    let mut results = HashMap::new();
    match workload {
        Workload::Cold => {
            let snaps: Vec<Snapshot> = dbs.iter().map(|d| snapshot(&d.db)).collect();
            for (i, read) in gen::ColdGen::new(seed).take(COLD_REPLAY).enumerate() {
                r.req = i;
                r.read(
                    &read,
                    &snaps[read.db],
                    false,
                    false,
                    &mut plans,
                    &mut results,
                )?;
                follows.push((i < ops.len()).then_some(i));
            }
        }
        Workload::Hot => {
            let snap = snapshot(&dbs[0].db);
            let pool = gen::hot_pool(seed);
            // The warm-up pass fills the caches; its spans are dropped.
            for read in &pool {
                r.read(read, &snap, true, false, &mut plans, &mut results)?;
            }
            r.spans.clear();
            r.tally = Tally::default();
            for (i, op) in ops.iter().take(HOT_REPLAY).enumerate() {
                r.req = i;
                r.read(
                    &pool[op.index],
                    &snap,
                    true,
                    op.cached,
                    &mut plans,
                    &mut results,
                )?;
                follows.push(Some(i));
            }
        }
        Workload::Churn => churn(&mut r, seed, ops, &mut follows, &mut plans, &mut results)?,
    }
    Ok((r, follows))
}

fn churn(
    r: &mut Replay<'_>,
    seed: u64,
    ops: &[OpRec],
    follows: &mut Vec<Option<usize>>,
    plans: &mut HashMap<String, Arc<Prepared>>,
    results: &mut HashMap<(String, u64), Payload>,
) -> Result<(), String> {
    let dbs = r.dbs;
    let cfg = EvalConfig::from_env();
    let mut m = MutableDb::new(dbs[0].db.clone());
    let mut subs = install_subs(m.db(), &cfg)?;
    let pool = gen::churn_pool(seed);
    let writes: Vec<gen::Write> = gen::ChurnWrites::new(seed, &dbs[0].db)
        .take(CHURN_REPLAY)
        .collect();
    // The client run's ops in start order, up to the last replayed write;
    // writes beyond what the client run managed replay on their own.
    let mut events: Vec<(Option<usize>, bool, usize)> = Vec::new();
    let mut writes_seen = 0;
    for (i, op) in ops.iter().enumerate() {
        if writes_seen == writes.len() {
            break;
        }
        if op.write {
            writes_seen += 1;
        }
        events.push((Some(i), op.write, op.index));
    }
    for j in writes_seen..writes.len() {
        events.push((None, true, j));
    }
    for (n, (op, is_write, index)) in events.into_iter().enumerate() {
        r.req = n;
        follows.push(op);
        if !is_write {
            let hit = op.is_some_and(|i| ops[i].cached);
            r.read(&pool[index], &m.snapshot(), false, hit, plans, results)?;
            continue;
        }
        let w = &writes[index];
        r.tally.writes += 1;
        let line = w.line(n as u64, &dbs[0].name);
        r.span("server.decode", || parse_request(&line))
            .map_err(|(_, e)| e.message)?;
        let old = m.db().clone();
        let muts = w.mutations();
        let delta = r
            .span("ivm.apply", || m.apply(&muts))
            .map_err(|e| e.to_string())?;
        let new = m.db().clone();
        let mut frames = Vec::new();
        for sub in subs.iter_mut() {
            let d = match sub {
                LocalSub::Datalog(sq, name) => r
                    .span(name, || sq.apply(&old, &new, &delta, &cfg))
                    .map_err(|e| e.to_string())?,
                LocalSub::Rediff {
                    prepared,
                    req,
                    deps,
                    answer,
                } => {
                    if !delta.rels.iter().any(|(rel, _)| deps.contains(rel)) {
                        continue;
                    }
                    let out = r
                        .span("ivm.rediff", || exec::execute_prepared(&new, prepared, req))
                        .map_err(|e| e.to_string())?;
                    r.tally.record_stats(&out.stats);
                    let fresh = answer_relation(out.answer);
                    let d = AnswerDelta::diff(answer, &fresh);
                    *answer = fresh;
                    d
                }
            };
            r.tally.delta_rows += (d.added.len() + d.removed.len()) as u64;
            if !d.is_empty() {
                frames.push(d);
            }
        }
        let epoch = m.epoch();
        r.span("server.encode", || {
            let ack = ok_response(
                &Json::num(n as u64),
                vec![
                    ("db".into(), Json::str(dbs[0].name.clone())),
                    ("epoch".into(), Json::num(epoch)),
                    ("added".into(), Json::num(delta.total_added() as u64)),
                    ("removed".into(), Json::num(delta.total_removed() as u64)),
                    ("notified".into(), Json::num(frames.len() as u64)),
                ],
            );
            let rows = |rel: &Relation| {
                Json::Arr(
                    rel.sorted()
                        .iter()
                        .map(|t| {
                            Json::Arr(t.as_slice().iter().map(|&e| Json::num(e as u64)).collect())
                        })
                        .collect(),
                )
            };
            let mut bytes = ack.to_string_compact().len();
            for d in &frames {
                bytes += Json::obj([
                    ("epoch", Json::num(epoch)),
                    ("add", rows(&d.added)),
                    ("del", rows(&d.removed)),
                ])
                .to_string_compact()
                .len();
            }
            bytes
        });
    }
    Ok(())
}

/// The per-layer metrics, in `BENCHMARK.json` order.
pub const METRICS: &[(&str, &str)] = &[
    ("server.decode_us", "us"),
    ("server.cache_key_us", "us"),
    ("server.encode_us", "us"),
    ("server.response_kb", "KB"),
    ("server.residual_us", "us"),
    ("server.plan_hit_pct", "%"),
    ("server.result_hit_pct", "%"),
    ("lint.admit_us", "us"),
    ("exec.prepare_us", "us"),
    ("core.plan_us", "us"),
    ("core.compiled_pct", "%"),
    ("core.eval_ms", "ms"),
    ("core.rounds", "count"),
    ("core.work_vs_bound_pct", "%"),
    ("relation.tuples", "count"),
    ("relation.ops", "count"),
    ("relation.load_ms", "ms"),
    ("datalog.eval_ms", "ms"),
    ("eso.eval_ms", "ms"),
    ("cert.emit_ms", "ms"),
    ("cert.check_ms", "ms"),
    ("cert.kb", "KB"),
    ("ivm.apply_us", "us"),
    ("ivm.dred_ms", "ms"),
    ("ivm.counting_ms", "ms"),
    ("ivm.rediff_ms", "ms"),
    ("ivm.delta_rows", "count"),
    ("client.latency_p50_ms", "ms"),
    ("client.write_p50_ms", "ms"),
    ("client.write_p99_ms", "ms"),
];

fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

/// The replay's exact counts with no client run to follow:
/// `relation.tuples`, `relation.ops`, `core.rounds`, `ivm.delta_rows`.
#[cfg(test)]
pub fn exact_counts(workload: Workload, seed: u64, dbs: &[NamedDb]) -> Result<[u64; 4], String> {
    let (r, _) = replay(workload, seed, dbs, &[])?;
    let t = &r.tally;
    Ok([t.tuples, t.ops, t.rounds, t.delta_rows])
}

/// Whether a span counts as request time. The trusted checker never runs
/// on the server's own certificates, and `core.plan` repeats planning that
/// `core.eval` also does inside `execute_prepared`.
fn request_time(s: &SpanRec) -> bool {
    s.name != "cert.check" && s.name != "core.plan"
}

/// Runs the replay for a finished client run and computes every
/// per-layer metric.
pub fn traced(workload: Workload, seed: u64, dbs: &[NamedDb], run: &Run) -> Result<Traced, String> {
    let (r, follows) = replay(workload, seed, dbs, &run.ops)?;
    let t = &r.tally;
    let requests = follows.len() as u64;

    // Layer time per request, and the residual against the client run's
    // latency.
    let mut per_req = vec![0u64; follows.len()];
    for s in r.spans.iter().filter(|s| request_time(s)) {
        per_req[s.req] += s.end_ns - s.start_ns;
    }
    let (mut residual_ns, mut followed) = (0i64, 0u64);
    for (i, op) in follows.iter().enumerate() {
        if let Some(op) = op {
            let o = &run.ops[*op];
            residual_ns += (o.end_ns - o.start_ns) as i64 - per_req[i] as i64;
            followed += 1;
        }
    }
    // Shares are of the client time of the workload's defining operations
    // (reads on cold and hot, writes on churn), like the latency metrics.
    // Requests the client run never sent (the tail of a short run) count
    // in neither part.
    let is_primary = |req: usize| {
        follows[req].is_some_and(|i| run.ops[i].write == (workload == Workload::Churn))
    };
    let client_ns: u64 = (0..follows.len())
        .filter(|&i| is_primary(i))
        .map(|i| follows[i].map_or(0, |o| run.ops[o].end_ns - run.ops[o].start_ns))
        .sum();
    let mut layer_ns: BTreeMap<&str, u64> = BTreeMap::new();
    for s in r
        .spans
        .iter()
        .filter(|s| request_time(s) && is_primary(s.req))
    {
        let layer = s.name.split('.').next().unwrap_or(s.name);
        *layer_ns.entry(layer).or_default() += s.end_ns - s.start_ns;
    }
    let share = |layer: &str| pct(*layer_ns.get(layer).unwrap_or(&0) as f64, client_ns as f64);
    let layers_ns: u64 = layer_ns.values().sum();

    let stat = |k: &str| run.stats.get(k).and_then(Json::as_u64).unwrap_or(0) as f64;
    let primary: Vec<f64> = run
        .ops
        .iter()
        .filter(|o| o.write == (workload == Workload::Churn))
        .map(|o| o.latency_ms())
        .collect();
    let writes: Vec<f64> = run
        .ops
        .iter()
        .filter(|o| o.write)
        .map(|o| o.latency_ms())
        .collect();
    let kb: Vec<f64> = run.ops.iter().map(|o| o.bytes as f64 / 1024.0).collect();
    let core_evals = t.count("core.eval");
    let value = |name: &str| -> f64 {
        match name {
            "server.decode_us" => t.mean("server.decode", requests, 1e3),
            "server.cache_key_us" => t.mean("server.cache_key", t.reads, 1e3),
            "server.encode_us" => t.mean("server.encode", requests, 1e3),
            "server.response_kb" => kb.iter().sum::<f64>() / kb.len().max(1) as f64,
            "server.residual_us" => residual_ns as f64 / followed.max(1) as f64 / 1e3,
            "server.plan_hit_pct" => {
                pct(stat("plan_hits"), stat("plan_hits") + stat("plan_misses"))
            }
            "server.result_hit_pct" => pct(
                stat("result_hits"),
                stat("result_hits") + stat("result_misses"),
            ),
            "lint.admit_us" => t.mean("lint.admit", t.reads, 1e3),
            "exec.prepare_us" => t.mean("exec.prepare", t.reads, 1e3),
            "core.plan_us" => t.mean("core.plan", t.plans, 1e3),
            "core.compiled_pct" => pct(t.compiled as f64, t.plans as f64),
            "core.eval_ms" => t.mean("core.eval", core_evals, 1e6),
            "core.rounds" => t.rounds as f64,
            "core.work_vs_bound_pct" => pct(t.work as f64, t.bound as f64),
            "relation.tuples" => t.tuples as f64,
            "relation.ops" => t.ops as f64,
            "datalog.eval_ms" => t.mean("datalog.eval", t.count("datalog.eval"), 1e6),
            "eso.eval_ms" => t.mean("eso.eval", t.count("eso.eval"), 1e6),
            "cert.emit_ms" => t.mean("cert.emit", t.certified, 1e6),
            "cert.check_ms" => t.mean("cert.check", t.certified, 1e6),
            "cert.kb" => t.cert_bytes as f64 / 1024.0 / t.certified.max(1) as f64,
            "ivm.apply_us" => t.mean("ivm.apply", t.writes, 1e3),
            "ivm.dred_ms" => t.mean("ivm.dred", t.writes, 1e6),
            "ivm.counting_ms" => t.mean("ivm.counting", t.writes, 1e6),
            "ivm.rediff_ms" => t.mean("ivm.rediff", t.writes, 1e6),
            "ivm.delta_rows" => t.delta_rows as f64,
            "client.latency_p50_ms" => quantile(&primary, 0.5),
            "client.write_p50_ms" => quantile(&writes, 0.5),
            "client.write_p99_ms" => quantile(&writes, 0.99),
            other => panic!("no per-layer metric named `{other}`"),
        }
    };
    let load = load_ms(dbs)?;
    let metrics = METRICS
        .iter()
        .map(|&(name, unit)| {
            let v = if name == "relation.load_ms" {
                load
            } else {
                value(name)
            };
            let samples = match name.split('.').next() {
                Some("client") => primary.len(),
                Some("relation") if name == "relation.load_ms" => dbs.len(),
                _ => requests as usize,
            };
            Metric::new(name, v, unit, samples)
        })
        .collect();

    let mut jsonl = String::new();
    for (i, o) in run.ops.iter().enumerate() {
        jsonl.push_str(
            &Json::obj([
                ("kind", Json::str("client")),
                ("id", Json::num(i as u64)),
                ("conn", Json::num(o.conn as u64)),
                ("op", Json::str(if o.write { "write" } else { "read" })),
                ("start_us", Json::Num(o.start_ns as f64 / 1e3)),
                ("first_us", Json::Num(o.first_ns as f64 / 1e3)),
                ("end_us", Json::Num(o.end_ns as f64 / 1e3)),
                ("ok", Json::Bool(o.ok)),
                ("cached", Json::Bool(o.cached)),
            ])
            .to_string_compact(),
        );
        jsonl.push('\n');
    }
    for s in &r.spans {
        let parent = follows[s.req].map_or(Json::Null, |i| Json::num(i as u64));
        jsonl.push_str(
            &Json::obj([
                ("kind", Json::str("layer")),
                ("req", Json::num(s.req as u64)),
                ("client_id", parent),
                ("name", Json::str(s.name)),
                ("start_us", Json::Num(s.start_ns as f64 / 1e3)),
                ("end_us", Json::Num(s.end_ns as f64 / 1e3)),
            ])
            .to_string_compact(),
        );
        jsonl.push('\n');
    }
    let mut shares: Vec<(&'static str, f64)> = LAYERS.iter().map(|&l| (l, share(l))).collect();
    shares.push((
        "residual",
        pct(client_ns as f64 - layers_ns as f64, client_ns as f64),
    ));
    Ok(Traced {
        metrics,
        shares,
        requests: follows.len(),
        spans_jsonl: jsonl,
    })
}
