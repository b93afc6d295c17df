//! Determinism self-test: one seed gives one request sequence and one set
//! of exact counts; another seed changes the sequence but not the metric
//! names. Runs without a server (`cargo test --release` in this package).

use bvq_server::Json;

use crate::drive::{Evidence, Run};
use crate::gen::{self, NamedDb, Workload};
use crate::replay;

fn dbs(workload: Workload, seed: u64) -> Vec<NamedDb> {
    match workload {
        Workload::Cold => gen::cold_dbs(seed),
        Workload::Hot => gen::hot_dbs(seed),
        Workload::Churn => gen::churn_dbs(seed),
    }
}

/// Every line each workload's connections would send first, in order.
fn sequence(seed: u64) -> Vec<String> {
    let mut lines = Vec::new();
    let cold = dbs(Workload::Cold, seed);
    lines.extend(cold.iter().map(|d| d.load_line(0)));
    lines.extend(gen::ColdGen::new(seed).take(300).map(|r| r.line(0, &cold)));
    let hot = dbs(Workload::Hot, seed);
    let pool = gen::hot_pool(seed);
    for conn in 0..2 {
        lines.extend(
            gen::hot_ranks(seed, conn)
                .take(500)
                .map(|i| pool[i].line(0, &hot)),
        );
    }
    let churn = dbs(Workload::Churn, seed);
    lines.extend(
        gen::ChurnWrites::new(seed, &churn[0].db)
            .take(500)
            .map(|w| w.line(0, "c")),
    );
    let reads = gen::churn_pool(seed);
    lines.extend(
        gen::churn_reads(seed)
            .take(500)
            .map(|i| reads[i].line(0, &churn)),
    );
    lines
}

#[test]
fn one_seed_gives_one_request_sequence() {
    assert_eq!(sequence(7), sequence(7));
}

#[test]
fn another_seed_changes_the_sequence() {
    assert_ne!(sequence(7), sequence(8));
}

#[test]
fn one_seed_gives_identical_exact_counts() {
    for workload in [Workload::Cold, Workload::Churn] {
        let d = dbs(workload, 7);
        let first = replay::exact_counts(workload, 7, &d).expect("replay");
        let again = replay::exact_counts(workload, 7, &d).expect("replay");
        assert_eq!(first, again, "{workload:?}");
        let [tuples, ops, rounds, delta_rows] = first;
        if workload == Workload::Cold {
            assert!(tuples > 0 && ops > 0 && rounds > 0, "cold counts {first:?}");
        } else {
            assert!(delta_rows > 0, "churn counts {first:?}");
        }
    }
}

fn empty_run() -> Run {
    Run {
        setup_s: Vec::new(),
        ops: Vec::new(),
        ticks: Vec::new(),
        peak_rss_kb: 0,
        stats: Json::Null,
        sent: 0,
        ok: 0,
        errors: 0,
        failures: Vec::new(),
        evidence: Evidence::Cold {
            reads: Vec::new(),
            answers: Vec::new(),
        },
    }
}

#[test]
fn another_seed_keeps_the_metric_names() {
    let names = |seed: u64| -> Vec<&'static str> {
        let d = dbs(Workload::Cold, seed);
        replay::traced(Workload::Cold, seed, &d, &empty_run())
            .expect("replay")
            .metrics
            .iter()
            .map(|m| m.name)
            .collect()
    };
    let expected: Vec<&str> = replay::METRICS.iter().map(|m| m.0).collect();
    assert_eq!(names(7), expected);
    assert_eq!(names(8), expected);
}
