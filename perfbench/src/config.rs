//! Every fixed parameter of the benchmark: workload sizes, pinned thread
//! counts, cache and memtable budgets, the served workload's offered rate
//! and latency limit. `perfbench/ENVIRONMENT.json` records the same values
//! (`--describe` prints it; a test keeps the two in step).

use dt_dfs::DfsConfig;
use dt_kvstore::KvConfig;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    GridEdit,
    TpchScan,
    ServedPoint,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::GridEdit,
        Workload::TpchScan,
        Workload::ServedPoint,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GridEdit => "grid_edit",
            Workload::TpchScan => "tpch_scan",
            Workload::ServedPoint => "served_point",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Threads for every pool whose default comes from
/// `available_parallelism`: `DualTableConfig::write_threads`,
/// `ExecConfig::job` (mappers and reducers) and `ServerConfig::workers`.
pub const THREADS: usize = 2;

/// Fresh set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 9;

/// `grid_edit` folds with `COMPACT TABLE … INCREMENTAL` at every
/// statement position that is a multiple of this.
pub const FOLD_EVERY: usize = 50;

/// Traced runs record probe spans every this many statements (just
/// before each fold on `grid_edit`).
pub const PROBE_EVERY: usize = FOLD_EVERY;

/// Range shards of the served table, and client connections.
pub const SERVED_SHARDS: usize = 4;
pub const SERVED_CONNS: usize = 2;
/// Open-loop offered rate of `served_point`, statements per second: about
/// a ninth of the closed-loop saturation rate (~360/s on a 2-core host).
/// Statements start 25 ms apart, alternating between the connections, so
/// an 8 ms UPDATE or 6 ms range aggregate is over before the next
/// statement starts even when the shared host runs at a third of its
/// speed. When they overlapped, the share of point SELECTs that waited
/// behind them, and with it every open-loop percentile, moved from run
/// to run.
pub const SERVED_RATE: f64 = 40.0;
/// Share of a `served_point` script sent in the open-loop phase; the
/// rest is the closed-loop saturation phase.
pub const SERVED_OPEN_SHARE: f64 = 0.15;

/// Per-workload sizes and budgets.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Rows loaded at set-up.
    pub rows: usize,
    /// Rows per master file (one `INSERT` per file at load).
    pub rows_per_file: usize,
    /// DFS block-cache capacity.
    pub block_cache_bytes: u64,
    /// Attached-tier memtable flush threshold.
    pub memtable_bytes: usize,
    /// Script statements per `--seconds` of run time: the script length
    /// is `stmts_per_second × seconds`, fixed before the run starts.
    pub stmts_per_second: f64,
    /// A statement slower than this misses `served_goodput_qps`.
    pub latency_limit_ms: f64,
    /// Where the environment lives.
    pub env_kind: &'static str,
    /// What a write must reach before it is acknowledged.
    pub flush_policy: &'static str,
}

pub fn spec(w: Workload) -> Spec {
    match w {
        Workload::GridEdit => Spec {
            rows: 20_000,
            rows_per_file: 1_000,
            block_cache_bytes: 64 << 20,
            memtable_bytes: 256 << 10,
            stmts_per_second: 24.0,
            latency_limit_ms: 100.0,
            env_kind: "in_memory",
            flush_policy: "in-memory tiers; WAL group commit into memory, no fsync",
        },
        Workload::TpchScan => Spec {
            rows: 15_000,
            rows_per_file: 1_000,
            block_cache_bytes: 512 << 10,
            memtable_bytes: 4 << 20,
            stmts_per_second: 20.0,
            latency_limit_ms: 125.0,
            env_kind: "in_memory",
            flush_policy: "in-memory tiers; WAL group commit into memory, no fsync",
        },
        Workload::ServedPoint => Spec {
            rows: 20_000,
            rows_per_file: 1_000,
            block_cache_bytes: 64 << 20,
            memtable_bytes: 4 << 20,
            stmts_per_second: 200.0,
            latency_limit_ms: 50.0,
            env_kind: "on_disk (temporary directory inside the checkout)",
            flush_policy: "on-disk files written without fsync (the engine has no fsync)",
        },
    }
}

/// The DFS configuration of a workload: defaults plus its block cache.
pub fn dfs_config(w: Workload) -> DfsConfig {
    DfsConfig {
        block_cache_bytes: spec(w).block_cache_bytes,
        ..DfsConfig::default()
    }
}

/// The KV configuration of a workload: defaults plus its memtable size.
pub fn kv_config(w: Workload) -> KvConfig {
    KvConfig {
        memtable_flush_bytes: spec(w).memtable_bytes,
        ..KvConfig::default()
    }
}

/// Script length for a run of `seconds`.
pub fn script_len(w: Workload, seconds: u64) -> usize {
    (spec(w).stmts_per_second * seconds as f64).round().max(1.0) as usize
}

/// The static part of one workload's environment record.
pub fn describe_workload(w: Workload) -> String {
    let s = spec(w);
    let mut e = format!(
        "\"{}\": {{\"rows\": {}, \"rows_per_file\": {}, \"block_cache_bytes\": {}, \
         \"memtable_bytes\": {}, \"stmts_per_second_of_run\": {}, \"latency_limit_ms\": {}, \
         \"env_kind\": \"{}\", \"flush_policy\": \"{}\"",
        w.name(),
        s.rows,
        s.rows_per_file,
        s.block_cache_bytes,
        s.memtable_bytes,
        s.stmts_per_second,
        s.latency_limit_ms,
        s.env_kind,
        s.flush_policy
    );
    match w {
        Workload::GridEdit => e += &format!(", \"fold_every\": {FOLD_EVERY}"),
        Workload::TpchScan => {}
        Workload::ServedPoint => {
            e += &format!(
                ", \"shards\": {SERVED_SHARDS}, \"connections\": {SERVED_CONNS}, \
                 \"open_loop_rate_per_s\": {SERVED_RATE}, \"open_loop_share\": {SERVED_OPEN_SHARE}, \
                 \"maintenance_daemon\": false"
            )
        }
    }
    e
}

/// The pinned-thread part of the environment record.
pub fn describe_threads() -> String {
    format!(
        "\"pinned_threads\": {{\"DualTableConfig.write_threads\": {THREADS}, \
         \"ExecConfig.job.max_mappers\": {THREADS}, \"ExecConfig.job.num_reducers\": {THREADS}, \
         \"ServerConfig.workers\": {THREADS}}}"
    )
}

/// The environment record as JSON: host `nproc`, pinned threads, and per
/// workload its sizes, budgets, env kind, flush policy, served rate and
/// latency limit, plus the master bytes `master_bytes(w)` measured after
/// loading (to set against the block cache).
pub fn describe(master_bytes: impl Fn(Workload) -> u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = String::from("{\n");
    out += &format!("  \"nproc\": {nproc},\n");
    out += &format!("  {},\n", describe_threads());
    out += "  \"unpinned\": \"ShardedTable::scan_scatter uses JobConfig::default() (available_parallelism) and cannot be set from outside the engine\",\n";
    out += &format!("  \"setups_per_run\": {SETUPS},\n");
    out += "  \"workloads\": {\n";
    let entries: Vec<String> = Workload::ALL
        .iter()
        .map(|&w| {
            format!(
                "    {}, \"master_bytes\": {}}}",
                describe_workload(w),
                master_bytes(w)
            )
        })
        .collect();
    out += &entries.join(",\n");
    out += "\n  }\n}\n";
    out
}
