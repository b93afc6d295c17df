//! Seeded workload generation: the databases each workload loads and the
//! request sequences its connections send.
//!
//! Everything here is a pure function of the seed. The server only ever
//! sees the generated text, and the reference checker and the traced
//! replay regenerate the same sequences from the same seed.

use std::collections::HashSet;

use bvq_prng::Rng;
use bvq_relation::{write_database, Database, Relation, Tuple};
use bvq_server::exec::ExecRequest;
use bvq_server::Json;

/// The three traffic mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Ad-hoc analytical queries that never repeat, one connection.
    Cold,
    /// Zipf draws from a fixed pool that fits the result cache.
    Hot,
    /// Mutations under four standing queries beside cached reads.
    Churn,
}

impl Workload {
    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "cold" => Some(Workload::Cold),
            "hot" => Some(Workload::Hot),
            "churn" => Some(Workload::Churn),
            _ => None,
        }
    }

    /// The workload's name as given on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Cold => "cold",
            Workload::Hot => "hot",
            Workload::Churn => "churn",
        }
    }
}

/// A database the workload loads through `load_db`.
pub struct NamedDb {
    /// The name requests address it by.
    pub name: String,
    /// Its db-text, exactly as sent to the server.
    pub text: String,
    /// The same database, parsed locally for references and replay.
    pub db: Database,
}

impl NamedDb {
    fn new(name: &str, db: Database) -> NamedDb {
        NamedDb {
            name: name.to_string(),
            text: write_database(&db),
            db,
        }
    }

    /// The `load_db` request line.
    pub fn load_line(&self, id: u64) -> String {
        Json::obj([
            ("op", Json::str("load_db")),
            ("id", Json::num(id)),
            ("name", Json::str(self.name.clone())),
            ("text", Json::str(self.text.clone())),
        ])
        .to_string_compact()
    }
}

/// What a read asks for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Body {
    /// An FO/FP/PFP query (`eval`).
    Query(String),
    /// A Datalog program and its output predicate (`datalog`).
    Datalog {
        /// Program text.
        program: String,
        /// Output predicate.
        output: String,
    },
    /// An ESO sentence (`eso`).
    Eso(String),
}

/// One read request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Read {
    /// The query family, for per-family reporting.
    pub family: &'static str,
    /// Index into the workload's databases.
    pub db: usize,
    /// What to evaluate.
    pub body: Body,
    /// Stream the rows (`"stream": true`).
    pub stream: bool,
    /// Ask for a certificate (`eval_certified`).
    pub certified: bool,
}

impl Read {
    /// The request line sent to the server. Default flags only: never
    /// `trace` or `no_cache`.
    pub fn line(&self, id: u64, dbs: &[NamedDb]) -> String {
        let mut fields: Vec<(String, Json)> = Vec::new();
        let mut push = |k: &str, v: Json| fields.push((k.to_string(), v));
        let (op, target) = match &self.body {
            Body::Query(_) => ("eval", "eval"),
            Body::Datalog { .. } => ("datalog", "datalog"),
            Body::Eso(_) => ("eso", "eso"),
        };
        push(
            "op",
            Json::str(if self.certified { "eval_certified" } else { op }),
        );
        push("id", Json::num(id));
        push("db", Json::str(dbs[self.db].name.clone()));
        if self.certified {
            push("target", Json::str(target));
        }
        match &self.body {
            Body::Query(q) | Body::Eso(q) => push("query", Json::str(q.clone())),
            Body::Datalog { program, output } => {
                push("program", Json::str(program.clone()));
                push("output", Json::str(output.clone()));
            }
        }
        if self.stream {
            push("stream", Json::Bool(true));
        }
        Json::Obj(fields).to_string_compact()
    }

    /// The in-process request the server builds from [`Read::line`].
    pub fn exec_request(&self) -> ExecRequest {
        let mut req = match &self.body {
            Body::Query(q) => ExecRequest::query(q.clone()),
            Body::Eso(q) => ExecRequest::eso(q.clone()),
            Body::Datalog { program, output } => {
                ExecRequest::datalog(program.clone(), output.clone())
            }
        };
        req.opts.certificate = self.certified;
        req
    }

    /// The request's text, for uniqueness checks and logs.
    pub fn text(&self) -> &str {
        match &self.body {
            Body::Query(q) | Body::Eso(q) => q,
            Body::Datalog { program, .. } => program,
        }
    }
}

/// One tuple mutation inside a write.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mut {
    /// Relation name (`E` or `P`).
    pub rel: &'static str,
    /// The tuple.
    pub tuple: Vec<u32>,
    /// Delete instead of insert.
    pub delete: bool,
}

/// One write: a single `insert`/`delete`, or a `batch`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Write {
    /// The mutations, applied atomically.
    pub muts: Vec<Mut>,
}

impl Write {
    /// The request line sent to the server.
    pub fn line(&self, id: u64, db: &str) -> String {
        let tuple = |m: &Mut| Json::Arr(m.tuple.iter().map(|&e| Json::num(e as u64)).collect());
        if let [m] = self.muts.as_slice() {
            return Json::obj([
                ("op", Json::str(if m.delete { "delete" } else { "insert" })),
                ("id", Json::num(id)),
                ("db", Json::str(db)),
                ("rel", Json::str(m.rel)),
                ("tuple", tuple(m)),
            ])
            .to_string_compact();
        }
        let muts = self
            .muts
            .iter()
            .map(|m| {
                Json::obj([
                    ("rel", Json::str(m.rel)),
                    ("tuple", tuple(m)),
                    ("delete", Json::Bool(m.delete)),
                ])
            })
            .collect();
        Json::obj([
            ("op", Json::str("batch")),
            ("id", Json::num(id)),
            ("db", Json::str(db)),
            ("muts", Json::Arr(muts)),
        ])
        .to_string_compact()
    }

    /// The same write as [`bvq_ivm::Mutation`]s.
    pub fn mutations(&self) -> Vec<bvq_ivm::Mutation> {
        self.muts
            .iter()
            .map(|m| {
                let (rel, tuple) = (m.rel.to_string(), m.tuple.clone());
                if m.delete {
                    bvq_ivm::Mutation::Delete { rel, tuple }
                } else {
                    bvq_ivm::Mutation::Insert { rel, tuple }
                }
            })
            .collect()
    }
}

/// A standing query connection A of `churn` subscribes.
#[derive(Clone, Debug)]
pub struct Sub {
    /// Maintenance strategy the server should pick (checked against the
    /// subscribe ack).
    pub strategy: &'static str,
    /// The subscribed request.
    pub body: Body,
}

impl Sub {
    /// The `subscribe` request line.
    pub fn line(&self, id: u64, db: &str) -> String {
        let mut fields = vec![
            ("op", Json::str("subscribe")),
            ("id", Json::num(id)),
            ("db", Json::str(db)),
        ];
        match &self.body {
            Body::Query(q) | Body::Eso(q) => fields.push(("query", Json::str(q.clone()))),
            Body::Datalog { program, output } => {
                fields.push(("target", Json::str("datalog")));
                fields.push(("program", Json::str(program.clone())));
                fields.push(("output", Json::str(output.clone())));
            }
        }
        Json::obj(fields).to_string_compact()
    }
}

/// Mixes a workload seed with a stream label, so every generator draws
/// from its own independent stream.
pub fn sub_seed(seed: u64, label: u64) -> u64 {
    let mut z = seed ^ label.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn pair(rng: &mut Rng, n: usize) -> (u32, u32) {
    let c = rng.gen_range(0..n as u32);
    let mut d = rng.gen_range(0..n as u32 - 1);
    if d >= c {
        d += 1;
    }
    (c, d)
}

fn query(family: &'static str, db: usize, text: String) -> Read {
    Read {
        family,
        db,
        body: Body::Query(text),
        stream: false,
        certified: false,
    }
}

fn datalog(family: &'static str, db: usize, program: String, output: &str) -> Read {
    Read {
        family,
        db,
        body: Body::Datalog {
            program,
            output: output.to_string(),
        },
        stream: false,
        certified: false,
    }
}

fn reach_fp(c: u32, d: u32) -> String {
    format!("(x1) [lfp S(x1). ((x1 = {c} | x1 = {d}) | exists x2. (S(x2) & E(x2,x1)))](x1)")
}

fn tc_anchored(c: u32, d: u32) -> String {
    format!("T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).\nA(y) :- T({c},y).\nA(y) :- T({d},y).")
}

/// A random graph on `n` nodes in which every node has exactly three
/// out-edges to distinct other nodes, one of them on a random Hamiltonian
/// cycle, with a unary `P` on exactly a third of the nodes. It matches
/// `graph_db(GraphKind::Sparse(3), ..)` in density, but its degrees are
/// fixed and it is strongly connected, so answer sizes (a transitive
/// closure is always all n² pairs) and query costs move far less from
/// seed to seed.
fn graph(n: usize, seed: u64) -> Database {
    let mut rng = Rng::seed_from_u64(seed);
    let mut cycle: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut cycle);
    let mut e = Relation::new(2);
    for (i, &a) in cycle.iter().enumerate() {
        e.insert(Tuple::from_slice(&[a, cycle[(i + 1) % n]]));
    }
    for a in 0..n as u32 {
        let mut picked = 1;
        while picked < 3 {
            let b = rng.gen_range(0..n as u32);
            if b != a && e.insert(Tuple::from_slice(&[a, b])) {
                picked += 1;
            }
        }
    }
    let mut nodes: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut nodes);
    let p = Relation::from_tuples(1, nodes[..n / 3].iter().map(|&i| [i]));
    Database::builder(n)
        .relation_from("E", e)
        .relation_from("P", p)
        .build()
}

/// A graph on `n` nodes whose undirected version is bipartite (edges only
/// run between the even and the odd nodes), plus, when `odd` is set, one
/// edge that closes an odd cycle. The ESO family's reference answer is a
/// bipartiteness test, so both answers must occur.
fn two_colour_db(n: usize, seed: u64, odd: bool) -> Database {
    let mut rng = Rng::seed_from_u64(seed);
    let mut e = Relation::new(2);
    for a in 0..n as u32 {
        for b in 0..n as u32 {
            if (a + b) % 2 == 1 && rng.gen_ratio(1, 6) {
                e.insert(Tuple::from_slice(&[a, b]));
            }
        }
    }
    // A spanning path over alternating sides keeps the graph connected.
    for a in 0..n as u32 - 1 {
        e.insert(Tuple::from_slice(&[a, a + 1]));
    }
    if odd {
        e.insert(Tuple::from_slice(&[0, 2]));
    }
    Database::builder(n).relation_from("E", e).build()
}

/// Cold: the base databases. Each is loaded in [`COLD_REPLICAS`] seeded
/// copies, so a run's cost averages over several graphs of each size.
pub const COLD_BASES: &[(&str, usize)] = &[
    ("g48", 48),
    ("g96", 96),
    ("f40", 40),
    ("p96", 96),
    ("bip20", 20),
    ("odd20", 20),
];
/// Cold: copies of each base database.
pub const COLD_REPLICAS: usize = 3;

/// The `cold` databases: copy `r` of base `b` is at `b * COLD_REPLICAS + r`.
pub fn cold_dbs(seed: u64) -> Vec<NamedDb> {
    let mut dbs = Vec::new();
    for (b, &(base, n)) in COLD_BASES.iter().enumerate() {
        for r in 0..COLD_REPLICAS {
            let s = sub_seed(seed, 100 + (b * COLD_REPLICAS + r) as u64);
            let db = match base {
                "bip20" => two_colour_db(n, s, false),
                "odd20" => two_colour_db(n, s, true),
                _ => graph(n, s),
            };
            dbs.push(NamedDb::new(
                &format!("{base}{}", (b'a' + r as u8) as char),
                db,
            ));
        }
    }
    dbs
}

/// The cold mix as a cycle of 20 requests, so every run sends the
/// families in exactly these shares whatever the seed: 25% FO³ joins,
/// 20% FP² reachability, 10% FP² fairness, 10% PFP² reachability, 5% FP³
/// transitive closure, 15% Datalog, 5% ESO² two-colourability and 10%
/// `eval_certified`. The seed picks the graphs and the constants.
const COLD_CYCLE: [&str; 20] = [
    "fo3", "fp2", "datalog", "fo3", "pfp2", "fair", "fo3", "fp2", "cert", "eso", "fo3", "datalog",
    "fp2", "pfp2", "fp3_tc", "fo3", "fair", "fp2", "datalog", "cert",
];

/// The `cold` read sequence: an endless stream of analytical queries in
/// which no query text ever repeats, so every request misses both the
/// plan cache (keyed by text) and the result cache.
pub struct ColdGen {
    rng: Rng,
    used: HashSet<String>,
    i: usize,
}

impl ColdGen {
    /// The sequence for `seed`.
    pub fn new(seed: u64) -> ColdGen {
        ColdGen {
            rng: Rng::seed_from_u64(sub_seed(seed, 1)),
            used: HashSet::new(),
            i: 0,
        }
    }

    /// Request `self.i` of the cycle, with fresh constants.
    fn draw(&mut self) -> Read {
        let (pos, round) = (self.i % COLD_CYCLE.len(), self.i / COLD_CYCLE.len());
        let family = COLD_CYCLE[pos];
        // `k` numbers this family's requests, so variants alternate evenly.
        let per_cycle = COLD_CYCLE.iter().filter(|&&f| f == family).count();
        let k = round * per_cycle + COLD_CYCLE[..pos].iter().filter(|&&f| f == family).count();
        let db = |base: usize| base * COLD_REPLICAS + round % COLD_REPLICAS;
        let rng = &mut self.rng;
        let mut pick = |base: usize| pair(rng, COLD_BASES[base].1);
        let mut read = match family {
            "fo3" => {
                let (c, d) = pick(0);
                let text = match k % 3 {
                    0 => format!(
                        "(x1) exists x2. ((E(x1,x2) & ~x2 = {d}) & exists x3. (E(x2,x3) & ~E(x3,{c})))"
                    ),
                    1 => format!(
                        "(x1) exists x2. (E({c},x2) & exists x3. (E(x2,x3) & (E(x3,x1) & ~x1 = {d})))"
                    ),
                    _ => format!(
                        "(x1,x2) (exists x3. (((E(x1,x3) & E(x3,x2)) & ~E(x1,x2)) & ~x3 = {c}) & ~x2 = {d})"
                    ),
                };
                query("fo3_join", db(0), text)
            }
            "fp2" => {
                let (c, d) = pick(1);
                query("fp2_reach", db(1), reach_fp(c, d))
            }
            "fair" => {
                let (c, d) = pick(2);
                query(
                    "fp2_fairness",
                    db(2),
                    format!(
                        "() [lfp S(x1). [gfp T(x3). forall x2. (~E(x3,x2) | (S(x2) | ((P(x2) | x2 = {d}) & T(x2))))](x1)]({c})"
                    ),
                )
            }
            "pfp2" => {
                let (c, d) = pick(3);
                query(
                    "pfp2_reach",
                    db(3),
                    format!(
                        "(x1) [pfp S(x1). (((x1 = {c} | x1 = {d}) | S(x1)) | exists x2. (S(x2) & E(x2,x1)))](x1)"
                    ),
                )
            }
            "fp3_tc" => {
                let (c, d) = pick(2);
                query(
                    "fp3_tc",
                    db(2),
                    format!(
                        "(x1) [lfp T(x1, x2). (E(x1, x2) | exists x3. ((E(x1, x3) & ~x3 = {d}) & T(x3, x2)))]({c}, x1)"
                    ),
                )
            }
            "datalog" => {
                let (c, d) = pick(0);
                if k % 2 == 0 {
                    datalog("datalog_tc", db(0), tc_anchored(c, d), "A")
                } else {
                    datalog(
                        "datalog_sg",
                        db(0),
                        format!(
                            "S(x,y) :- E(z,x), E(z,y).\nS(x,y) :- E(a,x), S(a,b), E(b,y).\nA(y) :- S({c},y).\nA(y) :- S({d},y)."
                        ),
                        "A",
                    )
                }
            }
            "eso" => {
                let base = 4 + k % 2;
                let (c, d) = pick(base);
                Read {
                    family: "eso2_two_colour",
                    db: db(base),
                    body: Body::Eso(format!(
                        "exists2 C/1. ((C({c}) & (~E({c},{d}) | ~C({d}))) & forall x1. forall x2. (~E(x1,x2) | ((C(x1) & ~C(x2)) | (~C(x1) & C(x2)))))"
                    )),
                    stream: false,
                    certified: false,
                }
            }
            _ if k % 2 == 0 => {
                let (c, d) = pick(1);
                Read {
                    certified: true,
                    ..query("cert_fp2_reach", db(1), reach_fp(c, d))
                }
            }
            _ => {
                let (c, d) = pick(0);
                Read {
                    certified: true,
                    ..datalog("cert_datalog_tc", db(0), tc_anchored(c, d), "A")
                }
            }
        };
        // Row answers stream; booleans and ESO reports are one line.
        read.stream = !matches!(read.family, "fp2_fairness" | "eso2_two_colour");
        read
    }
}

impl Iterator for ColdGen {
    type Item = Read;

    fn next(&mut self) -> Option<Read> {
        // Every family has thousands of distinct texts per run's worth of
        // requests; running out means a template lost its constants.
        for _ in 0..10_000 {
            let read = self.draw();
            if self.used.insert(read.text().to_string()) {
                self.i += 1;
                return Some(read);
            }
        }
        panic!("cold request {} has no fresh query text left", self.i);
    }
}

/// Hot: pool size; fits the server's default 256-entry result cache.
pub const HOT_POOL: usize = 128;
/// Hot: domain size of the one graph.
pub const HOT_N: usize = 96;

/// The `hot` database.
pub fn hot_dbs(seed: u64) -> Vec<NamedDb> {
    vec![NamedDb::new("h96", graph(HOT_N, sub_seed(seed, 200)))]
}

/// The `hot` pool: [`HOT_POOL`] distinct reads over one graph. Pool rank
/// `r` always uses template `r % 8`, so the Zipf weight each template
/// receives (and with it the answer-size mix) does not depend on the
/// seed; the seed picks the graph and the constants.
pub fn hot_pool(seed: u64) -> Vec<Read> {
    let mut rng = Rng::seed_from_u64(sub_seed(seed, 2));
    let mut used = HashSet::new();
    let mut pool = Vec::with_capacity(HOT_POOL);
    while pool.len() < HOT_POOL {
        let (c, d) = pair(&mut rng, HOT_N);
        let read = match pool.len() % 8 {
            0 => query(
                "fo_unary",
                0,
                format!("(x1) exists x2. (E(x1,x2) & (P(x2) | x2 = {c}))"),
            ),
            1 => query(
                "fo_boolean",
                0,
                format!("() exists x1. (E({c},x1) & E(x1,{d}))"),
            ),
            2 => query(
                "fo_two_hop",
                0,
                format!("(x1,x2) exists x3. (E(x1,x3) & (E(x3,x2) & ~x3 = {c}))"),
            ),
            3 => query("fp_reach", 0, reach_fp(c, d)),
            4 => datalog(
                "datalog_reach",
                0,
                format!("R(y) :- E({c},y).\nR(y) :- E({d},y).\nR(z) :- R(y), E(y,z)."),
                "R",
            ),
            5 => query(
                "fo_binary",
                0,
                format!("(x1,x2) (E(x1,x2) | (P(x1) & x2 = {c}))"),
            ),
            6 => datalog(
                "datalog_tc",
                0,
                format!(
                    "T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).\nA(x,y) :- T(x,y).\nA(x,y) :- E({c},x), E(y,{d})."
                ),
                "A",
            ),
            _ => query(
                "fp_boolean",
                0,
                format!("() [lfp S(x1). (x1 = {c} | exists x2. (S(x2) & E(x2,x1)))]({d})"),
            ),
        };
        if used.insert(read.text().to_string()) {
            pool.push(read);
        }
    }
    pool
}

/// Zipf(s = 1) sampler over ranks `0..n`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The sampler over `n` ranks.
    pub fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / r as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The rank sequence of `hot` connection `conn`.
pub fn hot_ranks(seed: u64, conn: usize) -> impl Iterator<Item = usize> {
    let zipf = Zipf::new(HOT_POOL);
    let mut rng = Rng::seed_from_u64(sub_seed(seed, 10 + conn as u64));
    std::iter::from_fn(move || Some(zipf.sample(&mut rng)))
}

/// Churn: domain size of the one graph.
pub const CHURN_N: usize = 32;
/// Churn: read pool size.
pub const CHURN_POOL: usize = 32;

/// The `churn` database.
pub fn churn_dbs(seed: u64) -> Vec<NamedDb> {
    vec![NamedDb::new("c32", graph(CHURN_N, sub_seed(seed, 300)))]
}

/// The four standing queries of `churn` connection A, one per
/// maintenance path.
pub fn churn_subs() -> Vec<Sub> {
    let dl = |program: &str, output: &str| Body::Datalog {
        program: program.to_string(),
        output: output.to_string(),
    };
    vec![
        Sub {
            strategy: "dred",
            body: dl("T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).", "T"),
        },
        Sub {
            strategy: "counting",
            body: dl("H(x,z) :- E(x,y), E(y,z).", "H"),
        },
        Sub {
            strategy: "rediff",
            body: Body::Query(
                "(x1) exists x2. (E(x1,x2) & exists x3. (E(x2,x3) & E(x3,x1)))".to_string(),
            ),
        },
        Sub {
            strategy: "rediff",
            body: Body::Query("(x1) (P(x1) & exists x2. (P(x2) & ~x1 = x2))".to_string()),
        },
    ]
}

/// The `churn` read pool of connection B: half the texts read `E`, half
/// read only `P`.
pub fn churn_pool(seed: u64) -> Vec<Read> {
    let mut rng = Rng::seed_from_u64(sub_seed(seed, 3));
    let mut used = HashSet::new();
    let mut pool = Vec::with_capacity(CHURN_POOL);
    while pool.len() < CHURN_POOL {
        let (c, d) = pair(&mut rng, CHURN_N);
        let i = pool.len();
        let read = if i % 2 == 0 {
            match (i / 2) % 4 {
                0 => query(
                    "e_unary",
                    0,
                    format!("(x1) exists x2. (E(x1,x2) & (P(x2) | x2 = {c}))"),
                ),
                1 => query("e_reach", 0, reach_fp(c, d)),
                2 => datalog(
                    "e_datalog_reach",
                    0,
                    format!("R(y) :- E({c},y).\nR(z) :- R(y), E(y,z)."),
                    "R",
                ),
                _ => query(
                    "e_boolean",
                    0,
                    format!("() exists x1. (E({c},x1) & E(x1,{d}))"),
                ),
            }
        } else {
            let text = match (i / 2) % 4 {
                0 => format!("(x1) (P(x1) | x1 = {c})"),
                1 => format!("(x1) (P(x1) & ~x1 = {c})"),
                2 => format!("() (P({c}) | P({d}))"),
                _ => format!("(x1,x2) ((P(x1) & P(x2)) & (x1 = {c} | x2 = {d}))"),
            };
            query("p_only", 0, text)
        };
        if used.insert(read.text().to_string()) {
            pool.push(read);
        }
    }
    pool
}

/// The read sequence (pool indices) of `churn` connection B.
pub fn churn_reads(seed: u64) -> impl Iterator<Item = usize> {
    let mut rng = Rng::seed_from_u64(sub_seed(seed, 4));
    std::iter::from_fn(move || Some(rng.gen_range(0..CHURN_POOL)))
}

/// The write sequence of `churn` connection A. Every mutation is
/// effective (an insert of an absent tuple or a delete of a present one),
/// so each write advances the epoch by exactly one. 45% of writes delete a
/// live edge and 45% insert an edge; they alternate, and each insert
/// rewires the source of the edge deleted just before, so |E| and every
/// out-degree stay put and the graph keeps its shape for the whole run.
/// The other 10% are batches of four touching both `E` and `P`: one edge
/// rewired within the batch plus two `P` flips.
pub struct ChurnWrites {
    rng: Rng,
    n: u32,
    edges: Vec<(u32, u32)>,
    edge_set: HashSet<(u32, u32)>,
    labels: HashSet<u32>,
    /// The source of the edge the last single delete removed.
    rewire: Option<u32>,
}

impl ChurnWrites {
    /// The sequence for `seed`, starting from database `db`.
    pub fn new(seed: u64, db: &Database) -> ChurnWrites {
        let e = db.relation_by_name("E").expect("churn graph has E");
        let p = db.relation_by_name("P").expect("churn graph has P");
        let edges: Vec<(u32, u32)> = e
            .sorted()
            .iter()
            .map(|t| (t.as_slice()[0], t.as_slice()[1]))
            .collect();
        ChurnWrites {
            rng: Rng::seed_from_u64(sub_seed(seed, 5)),
            n: db.domain_size() as u32,
            edge_set: edges.iter().copied().collect(),
            edges,
            labels: p.sorted().iter().map(|t| t.as_slice()[0]).collect(),
            rewire: None,
        }
    }

    /// Inserts an absent edge out of `a`, other than `avoid`.
    fn edge_insert(&mut self, a: u32, avoid: Option<&Mut>) -> Mut {
        loop {
            let b = self.rng.gen_range(0..self.n);
            if b == a || avoid.is_some_and(|m| m.tuple == [a, b]) {
                continue;
            }
            if self.edge_set.insert((a, b)) {
                self.edges.push((a, b));
                return Mut {
                    rel: "E",
                    tuple: vec![a, b],
                    delete: false,
                };
            }
        }
    }

    fn edge_delete(&mut self) -> Mut {
        let i = self.rng.gen_range(0..self.edges.len());
        let e = self.edges.swap_remove(i);
        self.edge_set.remove(&e);
        Mut {
            rel: "E",
            tuple: vec![e.0, e.1],
            delete: true,
        }
    }

    fn label_flip(&mut self, taken: &[Mut]) -> Mut {
        loop {
            let v = self.rng.gen_range(0..self.n);
            if taken.iter().any(|m| m.rel == "P" && m.tuple[0] == v) {
                continue;
            }
            let delete = !self.labels.insert(v);
            if delete {
                self.labels.remove(&v);
            }
            return Mut {
                rel: "P",
                tuple: vec![v],
                delete,
            };
        }
    }
}

impl Iterator for ChurnWrites {
    type Item = Write;

    fn next(&mut self) -> Option<Write> {
        let muts = if self.rng.gen_ratio(1, 10) {
            let deleted = self.edge_delete();
            let inserted = self.edge_insert(deleted.tuple[0], Some(&deleted));
            let mut muts = vec![deleted, inserted];
            let p1 = self.label_flip(&muts);
            muts.push(p1);
            let p2 = self.label_flip(&muts);
            muts.push(p2);
            muts
        } else if let Some(a) = self.rewire.take() {
            vec![self.edge_insert(a, None)]
        } else {
            let deleted = self.edge_delete();
            self.rewire = Some(deleted.tuple[0]);
            vec![deleted]
        };
        Some(Write { muts })
    }
}
