//! Exact-repeat self-test: a script is a pure function of its seed, and
//! one seed run twice gives the same SQL and the same value for every
//! byte or count metric. Run with `cargo test --release` (the tables are
//! full size; only the scripts are short).

use perfbench::config::{self, Workload};
use perfbench::layers::{LayerData, Pass};
use perfbench::stats::Metric;
use perfbench::{inproc, script, served};

const LEN: usize = 60;

fn sql(w: Workload, seed: u64) -> Vec<String> {
    script::instance(w, seed, LEN)
        .script
        .into_iter()
        .map(|s| s.sql)
        .collect()
}

/// Metrics that must repeat exactly: every byte or count metric, and the
/// write and space amplification.
fn exact(pass: &Pass, data: &LayerData) -> Vec<Metric> {
    let mut out: Vec<Metric> = data
        .per_layer()
        .into_iter()
        .filter(|m| matches!(m.unit, "bytes" | "count"))
        .collect();
    out.extend(
        pass.end_to_end(&[1.0], 1.0)
            .into_iter()
            .filter(|m| matches!(m.name, "write_amp" | "space_amp")),
    );
    out
}

fn run(w: Workload, seed: u64) -> Vec<Metric> {
    let inst = script::instance(w, seed, LEN);
    let (_, pass, _, data) = match w {
        Workload::ServedPoint => served::run(&inst, true),
        _ => inproc::run(&inst, true),
    }
    .expect("run completes");
    assert_eq!(pass.failed, 0, "{}: oracle mismatch", w.name());
    assert!(pass.attempted >= 2 * LEN as u64);
    exact(&pass, &data)
}

#[test]
fn scripts_are_a_function_of_the_seed() {
    for w in Workload::ALL {
        assert_eq!(sql(w, 7), sql(w, 7), "{}", w.name());
        assert_ne!(sql(w, 7), sql(w, 8), "{}", w.name());
        let inst = script::instance(w, 7, LEN);
        assert_eq!(inst.load_sql(), script::instance(w, 7, LEN).load_sql());
        assert_eq!(inst.table.rows.len(), config::spec(w).rows);
    }
}

#[test]
fn same_seed_repeats_every_byte_and_count_metric() {
    for w in Workload::ALL {
        let first = run(w, 7);
        let second = run(w, 7);
        assert!(!first.is_empty());
        assert_eq!(first, second, "{}", w.name());
    }
}

#[test]
fn environment_record_matches_the_config() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/ENVIRONMENT.json"))
        .expect("ENVIRONMENT.json is committed beside the benchmark");
    assert!(text.contains(&config::describe_threads()));
    for w in Workload::ALL {
        assert!(text.contains(&config::describe_workload(w)), "{}", w.name());
    }
}
