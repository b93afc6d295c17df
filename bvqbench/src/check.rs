//! Answer checking against references the engine under test did not
//! produce:
//!
//! - FO: `NaiveEvaluator`, the unbounded named-column evaluator;
//! - FP/PFP: the claim of `bvq_cert::certify_query`, whose evaluator is
//!   self-contained;
//! - Datalog: `bvq_datalog::eval_naive`;
//! - ESO two-colourability: the bipartiteness test below;
//! - every served certificate: the trusted checker `check_text`.
//!
//! All of it runs after the timed window closes.

use std::collections::{BTreeSet, VecDeque};

use bvq_cert::{CheckRequest, CheckedAnswer, Claim};
use bvq_core::NaiveEvaluator;
use bvq_logic::parser::parse_query;
use bvq_relation::Database;
use bvq_server::Json;

use crate::drive::{Evidence, OpRec};
use crate::gen::{Body, NamedDb, Read};
use crate::proc::clip;

/// An answer in comparable form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Ans {
    /// A sentence's truth value.
    Bool(bool),
    /// Answer rows, sorted.
    Rows(BTreeSet<Vec<u32>>),
}

fn rows_of<'a>(it: impl Iterator<Item = &'a bvq_relation::Tuple>) -> Ans {
    Ans::Rows(it.map(|t| t.as_slice().to_vec()).collect())
}

/// The reference answer of `body` on `db`.
pub fn reference(db: &Database, body: &Body) -> Result<Ans, String> {
    match body {
        Body::Query(text) => {
            let q = parse_query(text).map_err(|e| e.to_string())?;
            if q.formula.is_first_order() {
                let (rel, _) = NaiveEvaluator::new(db)
                    .eval_query(&q)
                    .map_err(|e| e.to_string())?;
                Ok(if q.output.is_empty() {
                    Ans::Bool(rel.as_boolean())
                } else {
                    rows_of(rel.iter())
                })
            } else {
                let cert = bvq_cert::certify_query(db, &q).map_err(|e| e.to_string())?;
                Ok(match cert.claim {
                    Claim::Boolean(b) => Ans::Bool(b),
                    Claim::Rows { rows, .. } => rows_of(rows.iter()),
                })
            }
        }
        Body::Datalog { program, output } => {
            let p = bvq_datalog::parse_program(program).map_err(|e| e.to_string())?;
            let out = bvq_datalog::eval_naive(&p, db).map_err(|e| e.to_string())?;
            let rel = out
                .get(output)
                .ok_or_else(|| format!("no output `{output}`"))?;
            Ok(rows_of(rel.iter()))
        }
        Body::Eso(_) => Ok(Ans::Bool(bipartite(db))),
    }
}

/// Whether the undirected graph of `E` is two-colourable. A self-loop is
/// an odd cycle.
pub fn bipartite(db: &Database) -> bool {
    let n = db.domain_size();
    let mut adj = vec![Vec::new(); n];
    for t in db.relation_by_name("E").expect("graph has E").iter() {
        let (a, b) = (t.as_slice()[0] as usize, t.as_slice()[1] as usize);
        if a == b {
            return false;
        }
        adj[a].push(b);
        adj[b].push(a);
    }
    let mut colour: Vec<Option<bool>> = vec![None; n];
    for s in 0..n {
        if colour[s].is_some() {
            continue;
        }
        colour[s] = Some(false);
        let mut queue = VecDeque::from([s]);
        while let Some(v) = queue.pop_front() {
            let cv = colour[v].expect("queued nodes are coloured");
            for &w in &adj[v] {
                match colour[w] {
                    None => {
                        colour[w] = Some(!cv);
                        queue.push_back(w);
                    }
                    Some(cw) if cw == cv => return false,
                    Some(_) => {}
                }
            }
        }
    }
    true
}

fn json_rows(rows: &Json) -> Option<BTreeSet<Vec<u32>>> {
    rows.as_arr()?
        .iter()
        .map(|r| {
            r.as_arr()?
                .iter()
                .map(|e| e.as_u64().map(|v| v as u32))
                .collect::<Option<Vec<u32>>>()
        })
        .collect()
}

/// A served answer: the answer plus the certificate, when one came with
/// it.
pub struct Served {
    /// The answer.
    pub ans: Ans,
    /// The certificate text.
    pub certificate: Option<String>,
}

/// Parses a response: one line, or a stream header, its rows and the
/// `done` footer.
pub fn served(lines: &[String]) -> Result<Served, String> {
    let head = Json::parse(&lines[0]).map_err(|e| format!("bad response json: {e}"))?;
    if !head.get("ok").is_some_and(Json::is_true) {
        return Err(format!("error response: {}", clip(&lines[0])));
    }
    let certificate = head
        .get("certificate")
        .and_then(Json::as_str)
        .map(str::to_string);
    let ans = if let Some(b) = head.get("boolean").and_then(Json::as_bool) {
        Ans::Bool(b)
    } else if let Some(text) = head.get("text").and_then(Json::as_str) {
        if text.contains("sentence: true") {
            Ans::Bool(true)
        } else if text.contains("sentence: false") {
            Ans::Bool(false)
        } else {
            return Err(format!("unrecognised ESO report: {}", clip(text)));
        }
    } else if head.get("stream").is_some_and(Json::is_true) {
        let count = head.get("count").and_then(Json::as_u64);
        let mut rows = BTreeSet::new();
        let mut footer = None;
        for l in &lines[1..] {
            let j = Json::parse(l).map_err(|e| format!("bad stream line: {e}"))?;
            if let Some(r) = j.get("row") {
                let row = json_rows(&Json::Arr(vec![r.clone()]))
                    .and_then(|s| s.into_iter().next())
                    .ok_or("bad row")?;
                rows.insert(row);
            } else {
                footer = j.get("count").and_then(Json::as_u64);
            }
        }
        if count != Some(rows.len() as u64) || footer != count {
            return Err(format!(
                "stream count mismatch: header {count:?}, footer {footer:?}, rows {}",
                rows.len()
            ));
        }
        Ans::Rows(rows)
    } else {
        let rows = head
            .get("rows")
            .and_then(json_rows)
            .ok_or("response has no answer")?;
        Ans::Rows(rows)
    };
    Ok(Served { ans, certificate })
}

/// Checks a served certificate with the trusted checker and returns the
/// answer it proves.
pub fn check_certificate(db: &Database, body: &Body, cert: &str) -> Result<Ans, String> {
    let checked = match body {
        Body::Query(text) => {
            let q = parse_query(text).map_err(|e| e.to_string())?;
            bvq_cert::check_text(db, &CheckRequest::Query(&q), cert)
        }
        Body::Datalog { program, output } => {
            let p = bvq_datalog::parse_program(program).map_err(|e| e.to_string())?;
            bvq_cert::check_text(
                db,
                &CheckRequest::Datalog {
                    program: &p,
                    output,
                },
                cert,
            )
        }
        Body::Eso(_) => return Err("ESO certificates are not requested".into()),
    }
    .map_err(|e| format!("certificate rejected: {e}"))?;
    Ok(match checked {
        CheckedAnswer::Boolean(b) => Ans::Bool(b),
        CheckedAnswer::Rows(rel) => rows_of(rel.iter()),
    })
}

/// Checks one served read against its reference (and its certificate,
/// if any).
fn check_read(db: &Database, read: &Read, lines: &[String]) -> Result<(), String> {
    let got = served(lines)?;
    let want = reference(db, &read.body)?;
    if got.ans != want {
        return Err(format!(
            "{}: answer differs from the reference",
            read.family
        ));
    }
    if !read.certified {
        return Ok(());
    }
    let cert = got
        .certificate
        .ok_or_else(|| format!("{}: no certificate served", read.family))?;
    if check_certificate(db, &read.body, &cert)? != want {
        return Err(format!(
            "{}: certificate proves another answer",
            read.family
        ));
    }
    Ok(())
}

/// The checker's verdict: how many answers it checked and what failed.
#[derive(Default)]
pub struct Verdict {
    /// Answers checked.
    pub checked: u64,
    /// Timed operations whose answer was wrong.
    pub wrong_ops: u64,
    /// Descriptions of the failures (the first few are printed).
    pub failures: Vec<String>,
}

impl Verdict {
    fn fail(&mut self, ops: u64, what: String) {
        self.wrong_ops += ops;
        self.failures.push(what);
    }
}

/// Checks every answer a run left as evidence.
pub fn check(dbs: &[NamedDb], ops: &[OpRec], evidence: &Evidence) -> Verdict {
    let mut v = Verdict::default();
    match evidence {
        Evidence::Cold { reads, answers } => {
            // The server is idle by now: check on two threads.
            let half = reads.len().div_ceil(2);
            let results: Vec<Result<(), String>> = std::thread::scope(|s| {
                let handles: Vec<_> = reads
                    .chunks(half.max(1))
                    .zip(answers.chunks(half.max(1)))
                    .map(|(rs, ls)| {
                        s.spawn(move || {
                            rs.iter()
                                .zip(ls)
                                .map(|(read, lines)| check_read(&dbs[read.db].db, read, lines))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("checker thread"))
                    .collect()
            });
            for r in results {
                v.checked += 1;
                if let Err(e) = r {
                    v.fail(1, e);
                }
            }
        }
        Evidence::Hot {
            pool,
            bodies,
            variants,
        } => {
            // Every timed response equals its rank's warm-up body except
            // the listed variants, so checking those covers them all.
            let mut uses = vec![0u64; pool.len()];
            for op in ops {
                uses[op.index] += 1;
            }
            for (rank, read) in pool.iter().enumerate() {
                v.checked += 1 + uses[rank];
                if let Err(e) = check_read(&dbs[read.db].db, read, &bodies[rank..=rank]) {
                    v.fail(1 + uses[rank], format!("rank {rank}: {e}"));
                }
            }
            for (rank, line) in variants {
                let read = &pool[*rank];
                if let Err(e) = check_read(&dbs[read.db].db, read, std::slice::from_ref(line)) {
                    v.fail(1, format!("rank {rank} variant: {e}"));
                }
            }
        }
        Evidence::Churn {
            e0,
            sub_acks,
            frames,
            writes,
            write_epochs,
            pool,
            sampled,
        } => check_churn(
            &mut v,
            &dbs[0].db,
            ops,
            (*e0, sub_acks, frames),
            writes,
            write_epochs,
            pool,
            sampled,
        ),
    }
    v
}

/// Every epoch of the churn database: index `i` is the state after the
/// first `i` writes.
pub fn churn_epochs(db: &Database, writes: &[crate::gen::Write]) -> Result<Vec<Database>, String> {
    let mut m = bvq_ivm::MutableDb::new(db.clone());
    let mut states = vec![db.clone()];
    for w in writes {
        m.apply(&w.mutations()).map_err(|e| e.to_string())?;
        states.push(m.db().clone());
    }
    Ok(states)
}

#[allow(clippy::too_many_arguments)]
fn check_churn(
    v: &mut Verdict,
    db: &Database,
    ops: &[OpRec],
    (e0, sub_acks, frames): (u64, &[String], &[String]),
    writes: &[crate::gen::Write],
    write_epochs: &[u64],
    pool: &[Read],
    sampled: &[(usize, String)],
) {
    // Each write is effective, so write i lands at epoch e0 + i + 1.
    for (i, &e) in write_epochs.iter().enumerate() {
        if e != e0 + i as u64 + 1 {
            v.fail(
                1,
                format!("write {i} acked epoch {e}, expected {}", e0 + i as u64 + 1),
            );
        }
    }
    let states = match churn_epochs(db, writes) {
        Ok(s) => s,
        Err(e) => return v.fail(1, format!("replaying the writes: {e}")),
    };
    let last = states.last().expect("initial state");

    // Subscriptions: initial answer plus every delta equals the reference
    // on the final database.
    let subs = crate::gen::churn_subs();
    let mut answers: Vec<(u64, BTreeSet<Vec<u32>>)> = Vec::new();
    for ack in sub_acks {
        let j = Json::parse(ack).unwrap_or(Json::Null);
        let id = j.get("sub").and_then(Json::as_u64).unwrap_or(0);
        let rows = j.get("rows").and_then(json_rows).unwrap_or_default();
        answers.push((id, rows));
    }
    for f in frames {
        let Ok(j) = Json::parse(f) else {
            v.fail(1, format!("bad delta frame: {}", clip(f)));
            continue;
        };
        let Some(id) = j.get("sub").and_then(Json::as_u64) else {
            continue;
        };
        let Some((_, rows)) = answers.iter_mut().find(|(s, _)| *s == id) else {
            v.fail(1, format!("frame for unknown subscription {id}"));
            continue;
        };
        for r in j.get("del").and_then(json_rows).unwrap_or_default() {
            rows.remove(&r);
        }
        rows.extend(j.get("add").and_then(json_rows).unwrap_or_default());
    }
    for (sub, (_, rows)) in subs.iter().zip(&answers) {
        v.checked += 1;
        match reference(last, &sub.body) {
            Ok(Ans::Rows(want)) if want == *rows => {}
            Ok(_) => v.fail(
                1,
                format!("{} subscription diverged from the reference", sub.strategy),
            ),
            Err(e) => v.fail(1, e),
        }
    }

    // Sampled reads: equal to the reference at some epoch between the
    // last write acked before the read was sent and the first write acked
    // after it returned.
    let acks: Vec<u64> = ops.iter().filter(|o| o.write).map(|o| o.end_ns).collect();
    for (i, line) in sampled {
        let op = &ops[*i];
        let read = &pool[op.index];
        v.checked += 1;
        let lo = acks.partition_point(|&t| t <= op.start_ns);
        let hi = (acks.partition_point(|&t| t < op.end_ns) + 1).min(states.len() - 1);
        let got = match served(std::slice::from_ref(line)) {
            Ok(s) => s.ans,
            Err(e) => {
                v.fail(1, e);
                continue;
            }
        };
        let matched =
            (lo..=hi).any(|e| reference(&states[e], &read.body).ok() == Some(got.clone()));
        if !matched {
            v.fail(
                1,
                format!("{} read matches no epoch in {lo}..={hi}", read.family),
            );
        }
    }
}
