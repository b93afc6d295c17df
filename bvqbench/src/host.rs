//! The host stamp stored with every run, so figures from different hosts
//! are never compared silently. It is printed and stored, never gated.

use std::hint::black_box;
use std::time::Instant;

use bvq_relation::BitSet;
use bvq_server::Json;

/// Nanoseconds one pass of the calibration kernel takes: an odometer over
/// all `64^3` points of a `k = 3` cylinder, setting the points whose
/// digits satisfy a fixed predicate in a [`BitSet`] and counting them.
/// This is the inner shape of a dense cylinder operator, so its time
/// scales with the host the way the engine's does. Median of 7 passes.
pub fn calibration_ns() -> u64 {
    const N: usize = 64;
    let mut samples: Vec<u64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            let mut set = BitSet::new(N * N * N);
            let mut digits = [0usize; 3];
            for point in 0..N * N * N {
                if (digits[0] + 2 * digits[1] + 3 * digits[2]) % 5 < 2 {
                    set.insert(point);
                }
                // Advance the odometer: the last digit turns fastest.
                for d in digits.iter_mut().rev() {
                    *d += 1;
                    if *d < N {
                        break;
                    }
                    *d = 0;
                }
            }
            black_box(set.count());
            t.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The stamp: `nproc`, CPU model, rustc version, the source revision
/// given on the command line, and the calibration time.
pub fn stamp(commit: &str) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("nproc", Json::num(nproc as u64)),
        ("cpu_model", Json::str(cpu_model())),
        ("rustc", Json::str(rustc_version())),
        ("commit", Json::str(commit)),
        ("calibration_ns", Json::num(calibration_ns())),
    ])
}
