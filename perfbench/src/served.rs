//! The served workload (`served_point`): `dt_server::Server` in-process on
//! loopback over an on-disk environment, driven by two client
//! connections — first an open loop at a fixed offered rate, then a
//! closed-loop saturation phase.

use std::path::{Path, PathBuf};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use dt_common::{Error, Result};
use dt_dfs::Dfs;
use dt_hiveql::{Session, SharedCatalog, TableHandle};
use dt_kvstore::KvCluster;
use dt_server::{Client, Response, Server, ServerConfig};
use dualtable::{DualTableEnv, DualTableStore};

use crate::config::{self, SERVED_CONNS, THREADS};
use crate::inproc::{create_and_load, pushdown, scan_projected, session_config, stores_of};
use crate::layers::{LayerData, Pass, Rec};
use crate::model::TableModel;
use crate::oracle::{check, final_state_ok, Answer, Checked};
use crate::script::{Action, Class, Instance, Query, Stmt};
use crate::stats::ratio;
use crate::trace::{self, Counters, Delta, Tracer};

/// A running server over a loaded, warmed-up on-disk environment.
/// Dropping it shuts the server down and removes its directory.
pub struct ServedBuilt {
    server: Option<Server>,
    env: DualTableEnv,
    catalog: SharedCatalog,
    handle: TableHandle,
    stores: Vec<DualTableStore>,
    dir: PathBuf,
}

impl Drop for ServedBuilt {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn server_config(inst: &Instance) -> ServerConfig {
    ServerConfig {
        workers: THREADS,
        queue_depth: 16,
        default_deadline_ms: 0,
        compaction: false,
        session: session_config(inst.workload),
        ..ServerConfig::default()
    }
}

/// Set-up: a fresh on-disk environment under `dir`, created and loaded
/// in-process, then served, then warmed up over the wire.
pub fn build(inst: &Instance, load: &[String], dir: &Path) -> Result<ServedBuilt> {
    let w = inst.workload;
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(Error::Io)?;
    let env = DualTableEnv::new(
        Dfs::on_disk(dir.join("dfs"), config::dfs_config(w))?,
        KvCluster::on_disk(dir.join("kv"), config::kv_config(w))?,
    )?;
    let catalog = SharedCatalog::new();
    let mut session = Session::with_shared(env.clone(), catalog.clone());
    session.config = session_config(w);
    create_and_load(&mut session, inst, load)?;
    let handle = session.table(&inst.table.name)?;
    let stores = stores_of(&handle);
    let server = Server::start(
        "127.0.0.1:0",
        env.clone(),
        catalog.clone(),
        server_config(inst),
    )?;
    let built = ServedBuilt {
        server: Some(server),
        env,
        catalog,
        handle,
        stores,
        dir: dir.to_path_buf(),
    };
    let mut client = built.connect()?;
    query(
        &mut client,
        &format!("SELECT COUNT(*) FROM {}", inst.table.name),
    )?;
    drop(client);
    Ok(built)
}

impl ServedBuilt {
    fn connect(&self) -> Result<Client> {
        let addr = self
            .server
            .as_ref()
            .map(Server::local_addr)
            .expect("server is running");
        Client::connect(addr).map_err(Error::Io)
    }
}

fn query(client: &mut Client, sql: &str) -> Result<Response> {
    client
        .query(sql)
        .map_err(|e| Error::Internal(format!("{e}")))
}

fn answer(r: &Response) -> Answer {
    Answer {
        affected: r.affected,
        rows: r.rows.clone(),
        message: r.message.clone(),
    }
}

/// One statement as a connection saw it.
struct Sent {
    i: usize,
    class: Class,
    open_loop: bool,
    /// Seconds since the pass origin: scheduled send (open loop), the
    /// time the connection was free to send (the later of the schedule
    /// and its previous completion), actual send, completion.
    scheduled: f64,
    ready: f64,
    sent: f64,
    done: f64,
    checked: Checked,
}

/// Per-connection attribution from a traced pass.
#[derive(Default)]
struct ConnTrace {
    data: LayerData,
    client_point_ms: Vec<f64>,
    inproc_point_ms: Vec<f64>,
}

/// Everything one connection thread needs.
struct Shared<'a> {
    inst: &'a Instance,
    built: &'a ServedBuilt,
    model: Mutex<TableModel>,
    /// Traced passes run one statement at a time across connections, so
    /// every counter delta belongs to exactly one statement.
    attribution: Mutex<()>,
    barrier: Barrier,
    origin: Instant,
    open_len: usize,
}

/// One client connection's share of the script. Statement errors count
/// as failed statements; nothing returns early, so both connections
/// always reach the phase barrier.
fn connection(
    shared: &Shared<'_>,
    mut client: Client,
    conn: usize,
    traced: bool,
) -> (Vec<Sent>, Tracer, ConnTrace) {
    let inst = shared.inst;
    let mut tracer = Tracer::with_origin(traced, shared.origin);
    let mut ct = ConnTrace::default();
    let mut session = Session::with_shared(shared.built.env.clone(), shared.built.catalog.clone());
    session.config = session_config(inst.workload);
    let mut sent = Vec::new();
    let mut prev_done = 0.0f64;
    let mine = |open: bool| {
        inst.script
            .iter()
            .enumerate()
            .filter(move |(i, s)| s.conn == conn && (*i < shared.open_len) == open)
    };
    for open_loop in [true, false] {
        if !open_loop {
            shared.barrier.wait();
        }
        for (i, st) in mine(open_loop) {
            let scheduled = if open_loop {
                let at = i as f64 / config::SERVED_RATE;
                let now = shared.origin.elapsed().as_secs_f64();
                if at > now {
                    std::thread::sleep(Duration::from_secs_f64(at - now));
                }
                at
            } else {
                shared.origin.elapsed().as_secs_f64()
            };
            let guard = traced.then(|| shared.attribution.lock().expect("no statement panicked"));
            let (response, s, d, delta) = if traced {
                traced_statement(
                    shared,
                    &mut client,
                    &mut session,
                    &mut tracer,
                    &mut ct,
                    i,
                    st,
                )
            } else {
                let s = shared.origin.elapsed().as_secs_f64();
                let r = query(&mut client, &st.sql);
                (r, s, shared.origin.elapsed().as_secs_f64(), None)
            };
            let checked = match &response {
                Ok(r) => {
                    let mut model = shared.model.lock().expect("no oracle check panicked");
                    check(st, &answer(r), &mut model)
                }
                Err(e) => {
                    eprintln!("statement {i} failed: {e}: {}", st.sql);
                    Checked::default()
                }
            };
            drop(guard);
            if let Some(delta) = delta {
                ct.data.add(delta, checked.edit);
                ct.data.dml_shards.extend(checked.shards.map(|n| n as f64));
            }
            sent.push(Sent {
                i,
                class: st.class(),
                open_loop,
                scheduled,
                ready: scheduled.max(prev_done),
                sent: s,
                done: d,
                checked,
            });
            prev_done = d;
        }
    }
    (sent, tracer, ct)
}

/// One traced statement: parse, counters, the round trip, and for
/// SELECTs the in-process execute and projected scan of the same SQL.
fn traced_statement(
    shared: &Shared<'_>,
    client: &mut Client,
    session: &mut Session,
    tracer: &mut Tracer,
    ct: &mut ConnTrace,
    i: usize,
    st: &Stmt,
) -> (Result<Response>, f64, f64, Option<Delta>) {
    let built = shared.built;
    let inst = shared.inst;
    if (i + 1).is_multiple_of(config::PROBE_EVERY) {
        ct.data
            .probes
            .extend(trace::probe(tracer, &built.env, &built.stores, i).ok());
    }
    let span = tracer.begin(st.span_name(), None, Some(i));
    let parse = tracer.begin("hiveql.parse", Some(span), Some(i));
    std::hint::black_box(dt_hiveql::parse(&st.sql).is_ok());
    tracer.end(parse);
    ct.data.parse_us.push(tracer.ms(parse) * 1e3);
    let before = Counters::read(&built.env, &built.stores);
    let exec = tracer.begin("server.client_query", Some(span), Some(i));
    let s = shared.origin.elapsed().as_secs_f64();
    let response = query(client, &st.sql);
    let d = shared.origin.elapsed().as_secs_f64();
    tracer.end(exec);
    let delta = Counters::read(&built.env, &built.stores).since(&before);
    if let Action::Query(q) = &st.action {
        if delta.scatter_scans > 0 {
            let scanned = built.stores.len() as u64 * delta.scatter_scans - delta.shards_pruned;
            ct.data.select_shards.push(scanned as f64);
        }
        if let Query::Point { .. } = q {
            let local = tracer.begin("hiveql.session_execute", Some(span), Some(i));
            std::hint::black_box(session.execute(&st.sql).is_ok());
            tracer.end(local);
            ct.client_point_ms.push(tracer.ms(exec));
            ct.inproc_point_ms.push(tracer.ms(local));
        }
        let preds = pushdown(&st.sql, &inst.table.name, &inst.table.schema);
        let scan = tracer.begin("dualtable.scan_projected", Some(span), Some(i));
        std::hint::black_box(scan_projected(&built.handle, &q.projection(), &preds).is_ok());
        tracer.end(scan);
        ct.data
            .sql_overhead
            .push(tracer.ms(exec) / tracer.ms(scan).max(1e-6));
    }
    tracer.end(span);
    ct.data.traced_ms += tracer.ms(span)
        - tracer.children_ms(
            span,
            &[
                "hiveql.parse",
                "hiveql.session_execute",
                "dualtable.scan_projected",
            ],
        );
    (response, s, d, Some(delta))
}

/// Runs the two-phase script once over `built`.
fn run_pass(
    inst: &Instance,
    built: &ServedBuilt,
    traced: bool,
) -> Result<(Pass, Tracer, LayerData)> {
    let spec = config::spec(inst.workload);
    let shared = Shared {
        inst,
        built,
        model: Mutex::new(inst.table.clone()),
        attribution: Mutex::new(()),
        barrier: Barrier::new(SERVED_CONNS),
        origin: Instant::now(),
        open_len: (inst.script.len() as f64 * config::SERVED_OPEN_SHARE).round() as usize,
    };
    let start = Counters::read(&built.env, &built.stores);
    let clients = (0..SERVED_CONNS)
        .map(|_| built.connect())
        .collect::<Result<Vec<Client>>>()?;
    let results: Vec<Result<(Vec<Sent>, Tracer, ConnTrace)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, client)| {
                let shared = &shared;
                scope.spawn(move || connection(shared, client, c, traced))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| Error::Internal("client thread panicked".into()))
            })
            .collect()
    });
    let mut pass = Pass::default();
    let mut tracer = Tracer::with_origin(traced, shared.origin);
    let mut data = LayerData::default();
    let (mut client_ms, mut inproc_ms) = (Vec::new(), Vec::new());
    let mut all = Vec::new();
    for r in results {
        let (sent, t, ct) = r?;
        all.extend(sent);
        tracer.absorb(t);
        merge(&mut data, ct.data);
        client_ms.extend(ct.client_point_ms);
        inproc_ms.extend(ct.inproc_point_ms);
    }
    all.sort_by_key(|s| s.i);
    data.wire_ms = crate::stats::median(&client_ms) - crate::stats::median(&inproc_ms);
    let (mut sat_start, mut sat_end) = (f64::MAX, 0.0f64);
    for s in &all {
        pass.attempted += 1;
        pass.failed += u64::from(!s.checked.ok);
        pass.changed_bytes += s.checked.changed_bytes;
        pass.busy_ms += (s.done - s.sent) * 1e3;
        if s.open_loop {
            // From the scheduled send, less the generator's own lateness
            // (`lag_ms`): waiting for the connection's previous statement
            // counts, an oversleeping client thread does not.
            pass.recs.push(Rec {
                class: s.class,
                ms: (s.done - s.scheduled - (s.sent - s.ready)) * 1e3,
                ok: s.checked.ok,
            });
            pass.lag_ms.push((s.sent - s.ready) * 1e3);
        } else {
            pass.count(s.checked.ok, (s.done - s.sent) * 1e3, &spec);
            sat_start = sat_start.min(s.sent);
            sat_end = sat_end.max(s.done);
        }
    }
    pass.window_s = (sat_end - sat_start).max(0.0);
    pass.stmts_per_s = ratio(pass.completed as f64, pass.window_s);
    pass.goodput_qps = ratio(pass.good as f64, pass.window_s);
    let delta = Counters::read(&built.env, &built.stores).since(&start);
    pass.written_bytes = delta.dfs_written + delta.kv_written;
    let model = shared.model.into_inner().expect("no oracle check panicked");
    if !final_state_ok(&built.handle, &model) {
        pass.failed += 1;
    }
    pass.stored_bytes =
        built.env.dfs.total_bytes() + trace::attached_bytes(&built.env, &built.stores);
    pass.live_bytes = model.live_bytes();
    data.sstables = trace::sstables(&built.env, &built.stores);
    Ok((pass, tracer, data))
}

fn merge(into: &mut LayerData, from: LayerData) {
    into.parse_us.extend(from.parse_us);
    into.sql_overhead.extend(from.sql_overhead);
    into.probes.extend(from.probes);
    into.dml += from.dml;
    into.edit_dml += from.edit_dml;
    into.dml_shards.extend(from.dml_shards);
    into.select_shards.extend(from.select_shards);
    into.total += from.total;
    into.edit_total += from.edit_total;
    into.stmts += from.stmts;
    into.traced_ms += from.traced_ms;
}

/// Work directory for set-up `n` of this process, inside the checkout.
fn work_dir(n: usize) -> PathBuf {
    PathBuf::from(".perfbench-work").join(format!("{}-{n}", std::process::id()))
}

/// One run of `served_point` (see [`crate::inproc::run`]).
pub fn run(inst: &Instance, traced: bool) -> Result<(Vec<f64>, Pass, Tracer, LayerData)> {
    let load = inst.load_sql();
    let result = run_inner(inst, traced, &load);
    let _ = std::fs::remove_dir(".perfbench-work");
    result
}

fn run_inner(
    inst: &Instance,
    traced: bool,
    load: &[String],
) -> Result<(Vec<f64>, Pass, Tracer, LayerData)> {
    if traced {
        let (untraced, _, _) = run_pass(inst, &build(inst, load, &work_dir(0))?, false)?;
        let (mut pass, tracer, mut data) = run_pass(inst, &build(inst, load, &work_dir(1))?, true)?;
        data.untraced_ms = untraced.busy_ms;
        data.lag_ms = untraced.lag_ms;
        pass.attempted += untraced.attempted;
        pass.failed += untraced.failed;
        return Ok((Vec::new(), pass, tracer, data));
    }
    let mut setup_s = Vec::new();
    let mut built = None;
    for n in 0..config::SETUPS {
        drop(built.take());
        let t0 = Instant::now();
        built = Some(build(inst, load, &work_dir(n))?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let built = built.expect("at least one set-up");
    let (pass, tracer, data) = run_pass(inst, &built, false)?;
    Ok((setup_s, pass, tracer, data))
}
