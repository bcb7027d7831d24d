//! The in-process workloads (`grid_edit`, `tpch_scan`): one client, one
//! `Session`, a fresh in-memory environment per pass.

use std::collections::HashMap;
use std::time::Instant;

use dt_common::{Deadline, Result, Row, Schema};
use dt_dfs::Dfs;
use dt_engine::{run_map_reduce, JobConfig, JobCounters};
use dt_hiveql::ast::Statement;
use dt_hiveql::exec::extract_pushdown;
use dt_hiveql::expr::Binding;
use dt_hiveql::{ExecConfig, QueryResult, Session, SessionConfig, TableHandle};
use dt_kvstore::KvCluster;
use dt_orcfile::ColumnPredicate;
use dualtable::{DualTableEnv, DualTableStore, UnionReadOptions};

use crate::config::{self, Workload, THREADS};
use crate::layers::{LayerData, Pass, Rec};
use crate::oracle::{check, final_state_ok, Answer};
use crate::script::{Action, Instance, Query};
use crate::stats::ratio;
use crate::trace::{self, Counters, Tracer};

/// The session configuration every workload uses: the workload's file
/// size and every thread pool pinned to [`THREADS`].
pub fn session_config(w: Workload) -> SessionConfig {
    let rows_per_file = config::spec(w).rows_per_file;
    let mut c = SessionConfig {
        rows_per_file,
        ..SessionConfig::default()
    };
    c.dualtable.rows_per_file = rows_per_file;
    c.dualtable.write_threads = THREADS;
    c.exec.job = JOB;
    c
}

/// The pinned map-reduce job shape.
const JOB: JobConfig = JobConfig {
    max_mappers: THREADS,
    num_reducers: THREADS,
};

/// The storage behind a table handle (one store, or one per shard).
pub fn stores_of(handle: &TableHandle) -> Vec<DualTableStore> {
    match handle {
        TableHandle::Dual(s) => vec![s.clone()],
        TableHandle::Sharded(t) => t.shards().to_vec(),
        _ => Vec::new(),
    }
}

/// Creates the table in `session`, loads it and runs the untimed
/// warm-up scan.
pub fn create_and_load(session: &mut Session, inst: &Instance, load: &[String]) -> Result<()> {
    session.execute(&inst.ddl)?;
    for sql in load {
        session.execute(sql)?;
    }
    session.execute(&format!("SELECT COUNT(*) FROM {}", inst.table.name))?;
    Ok(())
}

/// A loaded, warmed-up in-process environment.
pub struct Built {
    pub session: Session,
    pub handle: TableHandle,
    pub stores: Vec<DualTableStore>,
}

impl Built {
    pub fn env(&self) -> &DualTableEnv {
        self.session.env()
    }
}

/// Set-up: a fresh in-memory environment, created, loaded and warmed up.
pub fn build(inst: &Instance, load: &[String]) -> Result<Built> {
    let w = inst.workload;
    let env = DualTableEnv::new(
        Dfs::in_memory(config::dfs_config(w)),
        KvCluster::in_memory(config::kv_config(w)),
    )?;
    let mut session = Session::with_env(env);
    session.config = session_config(w);
    create_and_load(&mut session, inst, load)?;
    let handle = session.table(&inst.table.name)?;
    let stores = stores_of(&handle);
    Ok(Built {
        session,
        handle,
        stores,
    })
}

pub fn answer(r: &QueryResult) -> Answer {
    Answer {
        affected: r.affected,
        rows: r.rows().to_vec(),
        message: r.message.clone().unwrap_or_default(),
    }
}

/// The pushdown predicates the SQL layer derives for a SELECT.
pub fn pushdown(sql: &str, table: &str, schema: &Schema) -> Vec<ColumnPredicate> {
    match dt_hiveql::parse(sql) {
        Ok(Statement::Select(s)) => s
            .where_clause
            .map(|w| extract_pushdown(&w, &Binding::from_schema(table, schema), schema))
            .unwrap_or_default(),
        _ => Vec::new(),
    }
}

/// The storage-layer scan a SELECT needs: its projection and pushed
/// predicates, straight through the DualTable API.
pub fn scan_projected(
    handle: &TableHandle,
    projection: &[usize],
    preds: &[ColumnPredicate],
) -> Result<Vec<Row>> {
    let preds = (!preds.is_empty()).then_some(preds);
    match handle {
        TableHandle::Sharded(t) => t.scan_scatter(Some(projection), preds, &Deadline::never()),
        TableHandle::Dual(s) => {
            let mut opts = UnionReadOptions::all().with_projection(projection.to_vec());
            opts.predicates = preds.map(<[ColumnPredicate]>::to_vec);
            Ok(s.scan(&opts)?.into_iter().map(|(_, r)| r).collect())
        }
        _ => Ok(Vec::new()),
    }
}

/// Q1's aggregation on the engine alone: `run_map_reduce` over the rows
/// the projected scan returned, split like the executor splits them.
fn q1_map_reduce(rows: &[Row], ship_max: i32) -> Result<usize> {
    type Acc = (f64, f64, f64, i64);
    let split = ExecConfig::default().agg_split_rows;
    let splits: Vec<Vec<Row>> = rows.chunks(split).map(<[Row]>::to_vec).collect();
    // Projection order: quantity, price, discount, flag, status, ship date.
    let out = run_map_reduce(
        &JOB,
        &JobCounters::new(),
        splits,
        |chunk: Vec<Row>, emit: &mut dyn FnMut((String, String), Acc)| {
            let mut local: HashMap<(String, String), Acc> = HashMap::new();
            for r in &chunk {
                if r[5].as_i64().unwrap_or(i64::MAX) > i64::from(ship_max) {
                    continue;
                }
                let f = |c: usize| r[c].as_f64().unwrap_or(0.0);
                let key = (
                    r[3].as_str().unwrap_or("").to_string(),
                    r[4].as_str().unwrap_or("").to_string(),
                );
                let g = local.entry(key).or_default();
                g.0 += f(0);
                g.1 += f(1);
                g.2 += f(1) * (1.0 - f(2));
                g.3 += 1;
            }
            for (k, v) in local {
                emit(k, v);
            }
            Ok(())
        },
        |key, parts: Vec<Acc>| {
            let mut t: Acc = Default::default();
            for p in parts {
                t.0 += p.0;
                t.1 += p.1;
                t.2 += p.2;
                t.3 += p.3;
            }
            Ok(vec![(key, t)])
        },
    )?;
    Ok(out.len())
}

/// Master bytes across `stores`.
pub fn master_bytes(stores: &[DualTableStore]) -> u64 {
    stores
        .iter()
        .filter_map(|s| s.stats().ok())
        .map(|s| s.master_bytes)
        .sum()
}

/// Runs the script once. With the tracer on, also records spans, counter
/// deltas and checkpoint probes into `tracer` and `data`.
pub fn run_pass(
    inst: &Instance,
    built: &mut Built,
    tracer: &mut Tracer,
    data: &mut LayerData,
) -> Pass {
    let spec = config::spec(inst.workload);
    let replication = f64::from(config::dfs_config(inst.workload).replication);
    let mut model = inst.table.clone();
    let mut pass = Pass::default();
    let start = Counters::read(built.env(), &built.stores);
    for (i, st) in inst.script.iter().enumerate() {
        if tracer.on && (i + 1).is_multiple_of(config::PROBE_EVERY) {
            data.probes
                .extend(trace::probe(tracer, built.env(), &built.stores, i).ok());
        }
        // Traced: the statement span holds the parse, the counter reads,
        // the execution and the extra attribution calls; the oracle
        // check runs after it closes.
        let span = tracer.begin(st.span_name(), None, Some(i));
        let mut before = None;
        if tracer.on {
            let parse = tracer.begin("hiveql.parse", Some(span), Some(i));
            std::hint::black_box(dt_hiveql::parse(&st.sql).is_ok());
            tracer.end(parse);
            data.parse_us.push(tracer.ms(parse) * 1e3);
            let master = match st.action {
                Action::Fold => master_bytes(&built.stores),
                _ => 0,
            };
            before = Some((master, Counters::read(built.env(), &built.stores)));
        }
        let exec = tracer.begin("execute", Some(span), Some(i));
        let t0 = Instant::now();
        let result = built.session.execute(&st.sql);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        tracer.end(exec);
        let traced = before
            .map(|(master, b)| (master, Counters::read(built.env(), &built.stores).since(&b)));
        if let (Some(_), Action::Query(q)) = (traced, &st.action) {
            attribute_select(tracer, data, built, inst, q, &st.sql, span, tracer.ms(exec));
        }
        tracer.end(span);
        let checked = match &result {
            Ok(r) => check(st, &answer(r), &mut model),
            Err(e) => {
                eprintln!("statement {i} failed: {e}: {}", st.sql);
                Default::default()
            }
        };
        pass.attempted += 1;
        pass.failed += u64::from(!checked.ok);
        pass.changed_bytes += checked.changed_bytes;
        pass.recs.push(Rec {
            class: st.class(),
            ms,
            ok: checked.ok,
        });
        pass.count(checked.ok, ms, &spec);
        pass.window_s += ms / 1e3;
        pass.busy_ms += ms;
        let Some((master, delta)) = traced else {
            continue;
        };
        data.add(delta, checked.edit);
        data.dml_shards.extend(checked.shards.map(|n| n as f64));
        match &st.action {
            Action::Fold => {
                data.fold_ms.push(tracer.ms(exec));
                data.fold_bytes.push(delta.dfs_written as f64);
                data.fold_fraction
                    .push(delta.dfs_written as f64 / (replication * master as f64).max(1.0));
            }
            Action::Query(_) if delta.scatter_scans > 0 => {
                let scanned = built.stores.len() as u64 * delta.scatter_scans - delta.shards_pruned;
                data.select_shards.push(scanned as f64);
            }
            _ => {}
        }
        data.traced_ms += tracer.ms(span)
            - tracer.children_ms(
                span,
                &[
                    "hiveql.parse",
                    "dualtable.scan_projected",
                    "engine.map_reduce",
                ],
            );
    }
    pass.stmts_per_s = ratio(pass.completed as f64, pass.window_s);
    pass.goodput_qps = ratio(pass.good as f64, pass.window_s);
    let delta = Counters::read(built.env(), &built.stores).since(&start);
    pass.written_bytes = delta.dfs_written + delta.kv_written;
    if !final_state_ok(&built.handle, &model) {
        pass.failed += 1;
    }
    pass.stored_bytes =
        built.env().dfs.total_bytes() + trace::attached_bytes(built.env(), &built.stores);
    pass.live_bytes = model.live_bytes();
    data.sstables = trace::sstables(built.env(), &built.stores);
    pass
}

/// The extra calls made for one traced SELECT: the projected storage
/// scan (for the SQL-overhead ratio) and, for Q1, the engine's
/// map-reduce over the scanned rows.
#[allow(clippy::too_many_arguments)]
fn attribute_select(
    tracer: &mut Tracer,
    data: &mut LayerData,
    built: &Built,
    inst: &Instance,
    q: &Query,
    sql: &str,
    span: usize,
    exec_ms: f64,
) {
    let i = tracer.spans[span].stmt;
    let preds = pushdown(sql, &inst.table.name, &inst.table.schema);
    let scan = tracer.begin("dualtable.scan_projected", Some(span), i);
    let rows = scan_projected(&built.handle, &q.projection(), &preds);
    tracer.end(scan);
    data.sql_overhead.push(exec_ms / tracer.ms(scan).max(1e-6));
    if let (Query::Q1 { ship_max }, Ok(rows)) = (q, rows) {
        let mr = tracer.begin("engine.map_reduce", Some(span), i);
        let groups = q1_map_reduce(&rows, *ship_max);
        tracer.end(mr);
        if groups.is_ok() {
            data.map_reduce_ms.push(tracer.ms(mr));
        }
    }
}

/// One run of an in-process workload: [`config::SETUPS`] timed set-ups
/// and an untraced pass; traced, an untraced and a traced pass, each on a
/// fresh set-up. Returns the set-up times, the pass the result comes from
/// (with the untraced pass's failures folded in when traced), and the
/// trace.
pub fn run(inst: &Instance, traced: bool) -> Result<(Vec<f64>, Pass, Tracer, LayerData)> {
    let load = inst.load_sql();
    let mut data = LayerData::default();
    let mut off = Tracer::new(false);
    if traced {
        let untraced = run_pass(inst, &mut build(inst, &load)?, &mut off, &mut data);
        let mut tracer = Tracer::new(true);
        let mut pass = run_pass(inst, &mut build(inst, &load)?, &mut tracer, &mut data);
        data.untraced_ms = untraced.busy_ms;
        pass.attempted += untraced.attempted;
        pass.failed += untraced.failed;
        return Ok((Vec::new(), pass, tracer, data));
    }
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..config::SETUPS {
        drop(built.take());
        let t0 = Instant::now();
        built = Some(build(inst, &load)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut built = built.expect("at least one set-up");
    let pass = run_pass(inst, &mut built, &mut off, &mut data);
    Ok((setup_s, pass, off, data))
}
