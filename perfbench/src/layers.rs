//! Per-layer attribution gathered by a traced pass, turned into the
//! `per_layer` metrics, plus the end-to-end metrics of an untraced pass.

use crate::config::Spec;
use crate::script::Class;
use crate::stats::{mean, median, quantile, ratio, Metric};
use crate::trace::{Delta, Probe, Tracer};

/// One executed statement of an untraced pass.
#[derive(Debug, Clone)]
pub struct Rec {
    pub class: Class,
    /// Latency in ms (open-loop phases: from the scheduled send time,
    /// less the load generator's lag).
    pub ms: f64,
    pub ok: bool,
}

/// Everything an untraced pass yields for the end-to-end metrics.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Statements the latency percentiles are taken over.
    pub recs: Vec<Rec>,
    /// Seconds over which `completed` and `good` were counted.
    pub window_s: f64,
    pub completed: u64,
    /// Completed OK within the latency limit.
    pub good: u64,
    /// Throughput and goodput, per second: `completed` and `good` over
    /// `window_s`.
    pub stmts_per_s: f64,
    pub goodput_qps: f64,
    /// Statements sent and how many failed (errors or oracle misses,
    /// including a final-state mismatch).
    pub attempted: u64,
    pub failed: u64,
    /// DFS plus kvstore bytes written over the script.
    pub written_bytes: u64,
    /// Logical bytes of the cells the script changed.
    pub changed_bytes: u64,
    /// DFS plus attached bytes stored at script end.
    pub stored_bytes: u64,
    /// Logical bytes of the live rows at script end.
    pub live_bytes: u64,
    /// Summed service time of every statement (send to completion), ms.
    pub busy_ms: f64,
    /// Open-loop generator lag: send time minus the time the connection
    /// was free to send (the later of the schedule and its previous
    /// completion), ms.
    pub lag_ms: Vec<f64>,
}

impl Pass {
    fn latencies(&self, class: Option<Class>) -> Vec<f64> {
        self.recs
            .iter()
            .filter(|r| class.is_none_or(|c| r.class == c))
            .map(|r| r.ms)
            .collect()
    }

    /// Counts a statement against the latency limit.
    pub fn count(&mut self, ok: bool, ms: f64, spec: &Spec) {
        self.completed += 1;
        if ok && ms <= spec.latency_limit_ms {
            self.good += 1;
        }
    }

    /// The sample counts behind the percentiles and the throughput.
    pub fn samples(&self) -> String {
        format!(
            "samples: {} dml, {} query, {} in all; {} statements in {:.2} s of throughput window",
            self.latencies(Some(Class::Dml)).len(),
            self.latencies(Some(Class::Query)).len(),
            self.recs.len(),
            self.completed,
            self.window_s
        )
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub fn end_to_end(&self, setup_s: &[f64], peak_rss_mb: f64) -> Vec<Metric> {
        let dml = self.latencies(Some(Class::Dml));
        let query = self.latencies(Some(Class::Query));
        let all = self.latencies(None);
        let m = |name, unit, value| Metric { name, unit, value };
        vec![
            m("setup_s", "s", median(setup_s)),
            m("stmts_per_s", "1/s", self.stmts_per_s),
            m("dml_mean_ms", "ms", mean(&dml)),
            m("dml_p95_ms", "ms", quantile(&dml, 0.95)),
            m("query_mean_ms", "ms", mean(&query)),
            m("query_p95_ms", "ms", quantile(&query, 0.95)),
            m("served_mean_ms", "ms", mean(&all)),
            m("served_p95_ms", "ms", quantile(&all, 0.95)),
            m("served_goodput_qps", "1/s", self.goodput_qps),
            m(
                "write_amp",
                "x",
                ratio(self.written_bytes as f64, self.changed_bytes as f64),
            ),
            m(
                "space_amp",
                "x",
                ratio(self.stored_bytes as f64, self.live_bytes as f64),
            ),
            m("peak_rss_mb", "MiB", peak_rss_mb),
        ]
    }
}

/// What a traced pass gathers.
#[derive(Debug, Clone, Default)]
pub struct LayerData {
    pub parse_us: Vec<f64>,
    /// Per SELECT: `Session::execute` over the projected store scan.
    pub sql_overhead: Vec<f64>,
    pub map_reduce_ms: Vec<f64>,
    /// Per checkpoint probe, its step times.
    pub probes: Vec<Probe>,
    pub dml: u64,
    pub edit_dml: u64,
    pub fold_ms: Vec<f64>,
    pub fold_bytes: Vec<f64>,
    /// Per fold: DFS bytes written over (replication × master bytes).
    pub fold_fraction: Vec<f64>,
    pub dml_shards: Vec<f64>,
    pub select_shards: Vec<f64>,
    /// Counter deltas summed over every statement, and over EDIT DML.
    pub total: Delta,
    pub edit_total: Delta,
    pub stmts: u64,
    pub sstables: u64,
    /// Client round trip minus in-process execute, point SELECTs (ms).
    pub wire_ms: f64,
    pub lag_ms: Vec<f64>,
    /// Summed statement time of the traced and the untraced pass (ms).
    pub traced_ms: f64,
    pub untraced_ms: f64,
}

impl LayerData {
    /// Folds one statement's counter delta into the totals.
    pub fn add(&mut self, delta: Delta, edit: Option<bool>) {
        self.stmts += 1;
        self.total += delta;
        if edit.is_some() {
            self.dml += 1;
        }
        if edit == Some(true) {
            self.edit_dml += 1;
            self.edit_total += delta;
        }
    }

    /// The per-layer metrics, in `BENCHMARK.json` order.
    pub fn per_layer(&self) -> Vec<Metric> {
        let col = |f: fn(&Probe) -> f64| -> Vec<f64> { self.probes.iter().map(f).collect() };
        // The union read takes footers from the table's cache, so only
        // the row decode is subtracted from it, not the footer parse.
        let merge: Vec<f64> = self
            .probes
            .iter()
            .map(|p| p.scan - p.decode - p.attached)
            .collect();
        let t = &self.total;
        let e = &self.edit_total;
        let stmts = self.stmts as f64;
        let edits = self.edit_dml as f64;
        let m = |name, unit, value| Metric { name, unit, value };
        vec![
            m("hiveql.parse_us", "us", median(&self.parse_us)),
            m("hiveql.sql_overhead_ratio", "x", median(&self.sql_overhead)),
            m("engine.map_reduce_ms", "ms", median(&self.map_reduce_ms)),
            m("dualtable.scan_ms", "ms", median(&col(|p| p.scan))),
            m("dualtable.union_merge_ms", "ms", median(&merge)),
            m(
                "dualtable.edit_plan_frac",
                "frac",
                ratio(self.edit_dml as f64, self.dml as f64),
            ),
            m("dualtable.fold_ms", "ms", median(&self.fold_ms)),
            m(
                "dualtable.fold_bytes_written",
                "bytes",
                median(&self.fold_bytes),
            ),
            m(
                "dualtable.fold_table_fraction",
                "frac",
                median(&self.fold_fraction),
            ),
            m(
                "shard.shards_touched_per_dml",
                "count",
                mean(&self.dml_shards),
            ),
            m(
                "shard.shards_scanned_per_select",
                "count",
                mean(&self.select_shards),
            ),
            m(
                "orcfile.decode_ms",
                "ms",
                median(&col(|p| p.open + p.decode)),
            ),
            m(
                "orcfile.footer_cache_hit_ratio",
                "frac",
                ratio(
                    t.footer_hits as f64,
                    (t.footer_hits + t.footer_misses) as f64,
                ),
            ),
            m("dfs.fetch_ms", "ms", median(&col(|p| p.fetch))),
            m(
                "dfs.block_cache_hit_ratio",
                "frac",
                ratio(t.cache_hits as f64, (t.cache_hits + t.cache_misses) as f64),
            ),
            m(
                "dfs.bytes_read_per_stmt",
                "bytes",
                ratio(t.dfs_read as f64, stmts),
            ),
            m(
                "dfs.bytes_written_per_stmt",
                "bytes",
                ratio(t.dfs_written as f64, stmts),
            ),
            m(
                "kvstore.attached_scan_ms",
                "ms",
                median(&col(|p| p.attached)),
            ),
            m(
                "kvstore.bytes_written_per_edit",
                "bytes",
                ratio(e.kv_written as f64, edits),
            ),
            m(
                "kvstore.group_commits_per_edit",
                "count",
                ratio(e.group_commits as f64, edits),
            ),
            m("kvstore.sstables", "count", self.sstables as f64),
            m("server.wire_ms", "ms", self.wire_ms),
            m("server.schedule_lag_ms", "ms", quantile(&self.lag_ms, 0.95)),
            m("server.stmts_shed", "count", t.shed as f64),
            m("server.stmts_timed_out", "count", t.timed_out as f64),
            m(
                "trace.overhead_ratio",
                "x",
                ratio(self.traced_ms, self.untraced_ms),
            ),
        ]
    }
}

/// The traced run's report: per-layer self time and tracing overhead.
pub fn report(tracer: &Tracer, data: &LayerData) -> String {
    let mut out =
        String::from("span                                 count    total_ms     self_ms\n");
    for (name, count, total, self_ms) in tracer.self_times() {
        out += &format!("{name:<34} {count:>8} {total:>11.1} {self_ms:>11.1}\n");
    }
    out += &format!(
        "statement time traced {:.1} ms vs untraced {:.1} ms: overhead ratio {:.3}\n",
        data.traced_ms,
        data.untraced_ms,
        ratio(data.traced_ms, data.untraced_ms)
    );
    out
}
