//! Tracing from outside the engine: spans recorded by the benchmark's own
//! code around calls into each module's public functions, and counter
//! snapshots read from each module's public counters.
//!
//! Spans stay in memory until the run ends and are then written to one
//! JSON-lines file. Nothing here runs in an untraced run.

use std::io::Write as _;
use std::ops::ControlFlow;
use std::time::Instant;

use dt_common::{HealthSnapshot, IoStatsSnapshot, RecordId, Result, ShardHealthSnapshot};
use dt_orcfile::OrcReader;
use dualtable::{DualTableEnv, DualTableStore};

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Position of the statement in the script (probes: the position
    /// they precede).
    pub stmt: Option<usize>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// The in-memory span store. A tracer that is off records nothing, and
/// callers skip every extra call and counter read it would feed.
pub struct Tracer {
    pub on: bool,
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self::with_origin(on, Instant::now())
    }

    /// A tracer whose timestamps count from `origin` (one per client
    /// thread, merged afterwards with [`Tracer::absorb`]).
    pub fn with_origin(on: bool, origin: Instant) -> Self {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
        }
    }

    /// Appends `other`'s spans (same origin), keeping parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`]. Off: returns a dummy
    /// id that [`Tracer::end`] ignores.
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        stmt: Option<usize>,
    ) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            stmt,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        if let Some(s) = self.spans.get_mut(id) {
            s.end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Duration (ms) of span `id`.
    pub fn ms(&self, id: usize) -> f64 {
        self.spans.get(id).map_or(0.0, Span::ms)
    }

    /// Summed duration (ms) of the direct children of `id` named in
    /// `names`.
    pub fn children_ms(&self, id: usize, names: &[&str]) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(id) && names.contains(&s.name))
            .map(Span::ms)
            .sum()
    }

    /// `(name, count, total ms, self ms)` per span name: self time is a
    /// span's duration minus its direct children's.
    pub fn self_times(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        let mut out: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            match out.iter_mut().find(|e| e.0 == s.name) {
                Some(e) => {
                    e.1 += 1;
                    e.2 += s.ms();
                    e.3 += s.ms() - child_ms[i];
                }
                None => out.push((s.name, 1, s.ms(), s.ms() - child_ms[i])),
            }
        }
        out.sort_by(|a, b| b.3.total_cmp(&a.3));
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                f,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"stmt\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.stmt)
            )?;
        }
        f.flush()
    }
}

/// A snapshot of every public counter the benchmark reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub dfs: IoStatsSnapshot,
    pub kv: IoStatsSnapshot,
    pub shard: ShardHealthSnapshot,
    pub server: HealthSnapshot,
    pub footer_hits: u64,
    pub footer_misses: u64,
}

impl Counters {
    /// Reads the counters of `env` and of the tables `stores`.
    pub fn read(env: &DualTableEnv, stores: &[DualTableStore]) -> Counters {
        let report = env.health_report();
        let mut c = Counters {
            dfs: env.dfs.stats().snapshot(),
            kv: env.kv.stats().snapshot(),
            shard: report.shard,
            server: report.server,
            ..Counters::default()
        };
        for s in stores {
            let f = s.footer_cache_stats();
            c.footer_hits += f.hits;
            c.footer_misses += f.misses;
        }
        c
    }

    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &Counters) -> Delta {
        Delta {
            dfs_read: self.dfs.bytes_read - earlier.dfs.bytes_read,
            dfs_written: self.dfs.bytes_written - earlier.dfs.bytes_written,
            cache_hits: self.dfs.cache_hits - earlier.dfs.cache_hits,
            cache_misses: self.dfs.cache_misses - earlier.dfs.cache_misses,
            kv_written: self.kv.bytes_written - earlier.kv.bytes_written,
            group_commits: self.kv.group_commits - earlier.kv.group_commits,
            scatter_scans: self.shard.scatter_scans - earlier.shard.scatter_scans,
            shards_pruned: self.shard.shards_pruned_by_range - earlier.shard.shards_pruned_by_range,
            footer_hits: self.footer_hits - earlier.footer_hits,
            footer_misses: self.footer_misses - earlier.footer_misses,
            shed: self.server.stmts_shed - earlier.server.stmts_shed,
            timed_out: self.server.stmts_timed_out - earlier.server.stmts_timed_out,
        }
    }
}

/// The change of the counters over an interval.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Delta {
    pub dfs_read: u64,
    pub dfs_written: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub kv_written: u64,
    pub group_commits: u64,
    pub scatter_scans: u64,
    pub shards_pruned: u64,
    pub footer_hits: u64,
    pub footer_misses: u64,
    pub shed: u64,
    pub timed_out: u64,
}

impl std::ops::AddAssign for Delta {
    fn add_assign(&mut self, o: Delta) {
        self.dfs_read += o.dfs_read;
        self.dfs_written += o.dfs_written;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.kv_written += o.kv_written;
        self.group_commits += o.group_commits;
        self.scatter_scans += o.scatter_scans;
        self.shards_pruned += o.shards_pruned;
        self.footer_hits += o.footer_hits;
        self.footer_misses += o.footer_misses;
        self.shed += o.shed;
        self.timed_out += o.timed_out;
    }
}

/// DFS paths of a table's current master files, read through public
/// APIs: the committed generation from the metadata table and the file
/// IDs from the store, laid out as `/warehouse/<table>/gen-<g>/part-<id>`.
pub fn master_paths(store: &DualTableStore) -> Result<Vec<String>> {
    let env = store.env();
    let gen = env.meta.generation(store.name())?;
    Ok(store
        .master_file_ids()?
        .into_iter()
        .map(|id| format!("/warehouse/{}/gen-{gen:010}/part-{id:010}", store.name()))
        .collect())
}

/// Attached-tier store names of `stores` in the KV cluster.
fn attached_names(env: &DualTableEnv, stores: &[DualTableStore]) -> Vec<String> {
    let names = env.kv.table_names();
    stores
        .iter()
        .filter_map(|s| {
            let want = format!("att_{}", s.name());
            names.iter().find(|n| **n == want).cloned()
        })
        .collect()
}

/// SSTables across the attached stores of `stores`.
pub fn sstables(env: &DualTableEnv, stores: &[DualTableStore]) -> u64 {
    attached_names(env, stores)
        .iter()
        .filter_map(|n| env.kv.table(n).ok())
        .map(|t| t.sstable_count() as u64)
        .sum()
}

/// Approximate bytes held by the attached stores of `stores`.
pub fn attached_bytes(env: &DualTableEnv, stores: &[DualTableStore]) -> u64 {
    attached_names(env, stores)
        .iter()
        .filter_map(|n| env.kv.table(n).ok())
        .map(|t| t.approximate_bytes())
        .sum()
}

/// Repetitions of each read step in a probe.
const PROBE_REPS: usize = 3;

/// The times (ms) of one checkpoint probe's steps (read steps: the
/// fastest of [`PROBE_REPS`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct Probe {
    /// Full UNION READ of every store (footers from the table's cache).
    pub scan: f64,
    /// `OrcReader::open` of every master file (footer parse).
    pub open: f64,
    /// `rows()` over every opened master file.
    pub decode: f64,
    /// `Store::scan` over the attached ranges of dirty master files.
    pub attached: f64,
    /// `Dfs::read_to_vec` of every master file.
    pub fetch: f64,
}

/// One checkpoint probe: the layers of a full-table read, each timed on
/// its own through its module's public API.
pub fn probe(
    tracer: &mut Tracer,
    env: &DualTableEnv,
    stores: &[DualTableStore],
    stmt: usize,
) -> Result<Probe> {
    let root = tracer.begin("probe", None, Some(stmt));
    let mut paths = Vec::new();
    for s in stores {
        paths.extend(master_paths(s)?);
    }
    let fetch = tracer.begin("dfs.fetch", Some(root), Some(stmt));
    for p in &paths {
        std::hint::black_box(env.dfs.read_to_vec(p)?);
    }
    tracer.end(fetch);
    let open = tracer.begin("orcfile.open", Some(root), Some(stmt));
    let readers = paths
        .iter()
        .map(|p| OrcReader::open(&env.dfs, p))
        .collect::<Result<Vec<_>>>()?;
    tracer.end(open);
    // The read steps repeat, interleaved, and each keeps its fastest
    // repetition: the union read minus the decode minus the attached scan
    // is a small difference of large times, and one repetition of each
    // leaves it at the mercy of the host's speed swings.
    let mut probe = Probe {
        open: tracer.ms(open),
        fetch: tracer.ms(fetch),
        scan: f64::MAX,
        decode: f64::MAX,
        attached: f64::MAX,
    };
    // The attached ranges a union read visits: those of the master files
    // the presence index marks dirty (every file when there is no index).
    let mut dirty = Vec::new();
    for s in stores {
        let index = s.presence_index()?;
        let name = format!("att_{}", s.name());
        for file in s.master_file_ids()? {
            if index.as_ref().is_none_or(|p| p.is_dirty(file)) {
                dirty.push((name.clone(), file));
            }
        }
    }
    for _ in 0..PROBE_REPS {
        let decode = tracer.begin("orcfile.decode", Some(root), Some(stmt));
        for reader in &readers {
            for row in reader.rows(None, None)? {
                std::hint::black_box(row?);
            }
        }
        tracer.end(decode);
        let attached = tracer.begin("kvstore.attached_scan", Some(root), Some(stmt));
        for (name, file) in &dirty {
            let start = RecordId::file_start(*file).to_key();
            let end = RecordId::file_start(file.wrapping_add(1)).to_key();
            for entry in env.kv.table(name)?.scan(Some(&start), Some(&end))? {
                std::hint::black_box(entry?);
            }
        }
        tracer.end(attached);
        let scan = tracer.begin("dualtable.scan", Some(root), Some(stmt));
        for s in stores {
            let mut n = 0u64;
            s.for_each(&dualtable::UnionReadOptions::all(), |_, row| {
                n += row.len() as u64;
                Ok(ControlFlow::Continue(()))
            })?;
            std::hint::black_box(n);
        }
        tracer.end(scan);
        probe.decode = probe.decode.min(tracer.ms(decode));
        probe.attached = probe.attached.min(tracer.ms(attached));
        probe.scan = probe.scan.min(tracer.ms(scan));
    }
    tracer.end(root);
    Ok(probe)
}
