//! Seeded statement scripts. A script is a fixed list of statements
//! generated from `(workload, seed, length)` alone; the engine only ever
//! sees the rendered SQL. Every statement also carries its structured
//! form, which the model replays to predict the engine's answer.

use dt_common::{DataType, Rng64, Row, Schema, Value};
use dt_workloads::{htap, smartgrid, tpch};

use crate::config::{self, Workload};
use crate::model::{render_where, sql_lit, Op, Pred, TableModel};

/// Statement class; each class has its own latency distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Dml,
    Query,
    Fold,
}

/// The structured form of one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    Update {
        preds: Vec<Pred>,
        sets: Vec<(usize, Value)>,
    },
    Delete {
        preds: Vec<Pred>,
    },
    Query(Query),
    Fold,
}

/// Query shapes, each with a model-side oracle.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Grid read-after-update: one day's rows per organization.
    DaySlice { day: i32 },
    /// TPC-H Q1 (pricing summary) up to a ship date.
    Q1 { ship_max: i32 },
    /// TPC-H Q6 (forecast revenue change).
    Q6 {
        lo: i32,
        hi: i32,
        disc: i64,
        qty: f64,
    },
    /// `COUNT(*)` over the whole table.
    Count,
    /// One row by key.
    Point { key: i64 },
    /// Count and sum over a key range.
    RangeAgg { lo: i64, hi: i64 },
}

/// One scripted statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    pub sql: String,
    pub action: Action,
    /// Client connection that sends it (served workload; 0 elsewhere).
    pub conn: usize,
}

impl Stmt {
    /// The traced run's span name for this statement: its class and,
    /// for queries, its shape.
    pub fn span_name(&self) -> &'static str {
        match &self.action {
            Action::Update { .. } => "stmt.update",
            Action::Delete { .. } => "stmt.delete",
            Action::Fold => "stmt.fold",
            Action::Query(q) => match q {
                Query::DaySlice { .. } => "stmt.day_slice",
                Query::Q1 { .. } => "stmt.q1",
                Query::Q6 { .. } => "stmt.q6",
                Query::Count => "stmt.count",
                Query::Point { .. } => "stmt.point",
                Query::RangeAgg { .. } => "stmt.range_agg",
            },
        }
    }

    pub fn class(&self) -> Class {
        match self.action {
            Action::Update { .. } | Action::Delete { .. } => Class::Dml,
            Action::Query(_) => Class::Query,
            Action::Fold => Class::Fold,
        }
    }
}

// Column ordinals of the three tables.
const G_YHLX: usize = 0;
const G_RQ: usize = 1;
const G_DWDM: usize = 2;
const G_RCJL: usize = 4;
const G_CJFS: usize = 5;
const G_FLR00: usize = 6;
const G_FLR01: usize = 7;

const L_PARTKEY: usize = 1;
const L_QUANTITY: usize = 4;
const L_PRICE: usize = 5;
const L_DISCOUNT: usize = 6;
const L_TAX: usize = 7;
const L_RETURNFLAG: usize = 8;
const L_LINESTATUS: usize = 9;
const L_SHIPDATE: usize = 10;

const R_KEY: usize = 0;
const R_RCJL: usize = 2;
const R_STATUS: usize = 3;

/// `lineitem` ship dates span [DATE_1992, DATE_1992 + 2556) in the
/// generator.
const SHIP_FIRST: i32 = 8035;
const SHIP_SPAN: i64 = 2556;

const USER_TYPES: [&str; 4] = ["resident", "industry", "commerce", "agric"];
const METHODS: [&str; 4] = ["HPLC", "230M", "GPRS", "PLC"];

impl Query {
    /// The WHERE conjuncts the query filters on.
    pub fn preds(&self) -> Vec<Pred> {
        match *self {
            Query::DaySlice { day } => vec![Pred::cmp(G_RQ, Op::Eq, Value::Date(day))],
            Query::Q1 { ship_max } => vec![Pred::cmp(L_SHIPDATE, Op::Le, Value::Date(ship_max))],
            Query::Q6 { lo, hi, disc, qty } => vec![
                Pred::cmp(L_SHIPDATE, Op::Ge, Value::Date(lo)),
                Pred::cmp(L_SHIPDATE, Op::Lt, Value::Date(hi)),
                Pred::between(
                    L_DISCOUNT,
                    Value::Float64((disc - 1) as f64 / 100.0),
                    Value::Float64((disc + 1) as f64 / 100.0),
                ),
                Pred::cmp(L_QUANTITY, Op::Lt, Value::Float64(qty)),
            ],
            Query::Count => Vec::new(),
            Query::Point { key } => vec![Pred::cmp(R_KEY, Op::Eq, Value::Int64(key))],
            Query::RangeAgg { lo, hi } => {
                vec![Pred::between(R_KEY, Value::Int64(lo), Value::Int64(hi))]
            }
        }
    }

    /// Columns the query reads (its projection at the storage layer).
    pub fn projection(&self) -> Vec<usize> {
        match self {
            Query::DaySlice { .. } => vec![G_RQ, G_DWDM, G_RCJL],
            Query::Q1 { .. } => vec![
                L_QUANTITY,
                L_PRICE,
                L_DISCOUNT,
                L_RETURNFLAG,
                L_LINESTATUS,
                L_SHIPDATE,
            ],
            Query::Q6 { .. } => vec![L_QUANTITY, L_PRICE, L_DISCOUNT, L_SHIPDATE],
            Query::Count => vec![0],
            Query::Point { .. } => vec![0, 1, 2, 3],
            Query::RangeAgg { .. } => vec![R_KEY, R_RCJL],
        }
    }

    fn sql(&self, table: &TableModel) -> String {
        let t = &table.name;
        let w = render_where(&table.schema, &self.preds());
        match self {
            Query::DaySlice { .. } => format!(
                "SELECT dwdm, COUNT(*), SUM(rcjl) FROM {t} WHERE {w} GROUP BY dwdm ORDER BY dwdm"
            ),
            Query::Q1 { .. } => format!(
                "SELECT l_returnflag, l_linestatus, SUM(l_quantity), SUM(l_extendedprice), \
                 SUM(l_extendedprice * (1 - l_discount)), COUNT(*) FROM {t} WHERE {w} \
                 GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus"
            ),
            Query::Q6 { .. } => {
                format!("SELECT SUM(l_extendedprice * l_discount) FROM {t} WHERE {w}")
            }
            Query::Count => format!("SELECT COUNT(*) FROM {t}"),
            Query::Point { .. } => format!("SELECT zdjh, rq, rcjl, status FROM {t} WHERE {w}"),
            Query::RangeAgg { .. } => format!("SELECT COUNT(*), SUM(rcjl) FROM {t} WHERE {w}"),
        }
    }

    /// The model's answer, in the engine's output order.
    pub fn expected(&self, table: &TableModel) -> Vec<Row> {
        let preds = self.preds();
        let rows = table.select(&preds);
        let f = |r: &Row, c: usize| r[c].as_f64().unwrap_or(0.0);
        match self {
            Query::DaySlice { .. } => {
                let mut groups: std::collections::BTreeMap<String, (i64, f64)> = Default::default();
                for r in rows {
                    let g = groups
                        .entry(r[G_DWDM].as_str().unwrap_or("").to_string())
                        .or_default();
                    g.0 += 1;
                    g.1 += f(r, G_RCJL);
                }
                groups
                    .into_iter()
                    .map(|(k, (n, s))| vec![Value::Utf8(k), Value::Int64(n), Value::Float64(s)])
                    .collect()
            }
            Query::Q1 { .. } => {
                type Acc = (f64, f64, f64, i64);
                let mut groups: std::collections::BTreeMap<(String, String), Acc> =
                    Default::default();
                for r in rows {
                    let key = (
                        r[L_RETURNFLAG].as_str().unwrap_or("").to_string(),
                        r[L_LINESTATUS].as_str().unwrap_or("").to_string(),
                    );
                    let g = groups.entry(key).or_default();
                    g.0 += f(r, L_QUANTITY);
                    g.1 += f(r, L_PRICE);
                    g.2 += f(r, L_PRICE) * (1.0 - f(r, L_DISCOUNT));
                    g.3 += 1;
                }
                groups
                    .into_iter()
                    .map(|((rf, ls), (q, p, d, n))| {
                        vec![
                            Value::Utf8(rf),
                            Value::Utf8(ls),
                            Value::Float64(q),
                            Value::Float64(p),
                            Value::Float64(d),
                            Value::Int64(n),
                        ]
                    })
                    .collect()
            }
            Query::Q6 { .. } => {
                let mut sum = 0.0;
                let mut n = 0;
                for r in rows {
                    sum += f(r, L_PRICE) * f(r, L_DISCOUNT);
                    n += 1;
                }
                vec![vec![if n == 0 {
                    Value::Null
                } else {
                    Value::Float64(sum)
                }]]
            }
            Query::Count => vec![vec![Value::Int64(rows.count() as i64)]],
            Query::Point { .. } => rows.cloned().collect(),
            Query::RangeAgg { .. } => {
                let mut sum = 0.0;
                let mut n = 0i64;
                for r in rows {
                    sum += f(r, R_RCJL);
                    n += 1;
                }
                vec![vec![Value::Int64(n), Value::Float64(sum)]]
            }
        }
    }
}

/// A workload instance: the initial table, its DDL and load statements,
/// and the script.
pub struct Instance {
    pub workload: Workload,
    /// The table as loaded (the model starts here).
    pub table: TableModel,
    pub ddl: String,
    pub script: Vec<Stmt>,
}

impl Instance {
    /// `INSERT … VALUES` statements loading the initial rows,
    /// `rows_per_file` rows each (one master file per statement).
    pub fn load_sql(&self) -> Vec<String> {
        let per = config::spec(self.workload).rows_per_file;
        self.table
            .rows
            .chunks(per)
            .map(|chunk| {
                let values: Vec<String> = chunk
                    .iter()
                    .map(|r| {
                        let cells: Vec<String> = r.iter().map(sql_lit).collect();
                        format!("({})", cells.join(", "))
                    })
                    .collect();
                format!(
                    "INSERT INTO {} VALUES {}",
                    self.table.name,
                    values.join(", ")
                )
            })
            .collect()
    }
}

fn ddl(table: &TableModel, suffix: &str) -> String {
    let cols: Vec<String> = table
        .schema
        .fields()
        .iter()
        .map(|f| {
            let ty = match f.data_type {
                DataType::Int64 => "BIGINT",
                DataType::Float64 => "DOUBLE",
                DataType::Utf8 => "STRING",
                DataType::Bool => "BOOLEAN",
                DataType::Date => "DATE",
            };
            format!("{} {ty}", f.name)
        })
        .collect();
    format!(
        "CREATE TABLE {} ({}) STORED AS DUALTABLE{suffix}",
        table.name,
        cols.join(", ")
    )
}

fn model(name: &str, schema: Schema, rows: impl Iterator<Item = Row>) -> TableModel {
    let mut t = TableModel::new(name, schema);
    t.rows = rows.collect();
    t
}

fn stmt(table: &TableModel, action: Action, conn: usize) -> Stmt {
    let t = &table.name;
    let sql = match &action {
        Action::Update { preds, sets } => {
            let sets: Vec<String> = sets
                .iter()
                .map(|(c, v)| format!("{} = {}", table.schema.field(*c).name, sql_lit(v)))
                .collect();
            format!(
                "UPDATE {t} SET {} WHERE {}",
                sets.join(", "),
                render_where(&table.schema, preds)
            )
        }
        Action::Delete { preds } => {
            format!(
                "DELETE FROM {t} WHERE {}",
                render_where(&table.schema, preds)
            )
        }
        Action::Query(q) => q.sql(table),
        Action::Fold => format!("COMPACT TABLE {t} INCREMENTAL"),
    };
    Stmt { sql, action, conn }
}

/// Builds the workload instance for `seed` with a script of `len`
/// statements.
pub fn instance(workload: Workload, seed: u64, len: usize) -> Instance {
    let spec = config::spec(workload);
    // Separate streams for data and script, both derived from the seed.
    let mut rng = Rng64::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED_0F5C);
    match workload {
        Workload::GridEdit => {
            // `flr_01` carries each row's load position (a record number),
            // so a range on it selects rows of known master files.
            let rows = smartgrid::tj_gbsjwzl_mx_rows(spec.rows, seed)
                .enumerate()
                .map(|(i, mut row)| {
                    row[G_FLR01] = Value::Int64(i as i64);
                    row
                });
            let table = model("tj_gbsjwzl_mx", smartgrid::tj_gbsjwzl_mx_schema(), rows);
            let ddl = ddl(&table, "");
            let script = grid_script(&table, &mut rng, len);
            Instance {
                workload,
                table,
                ddl,
                script,
            }
        }
        Workload::TpchScan => {
            let table = model(
                "lineitem",
                tpch::lineitem_schema(),
                tpch::lineitem_rows(spec.rows, tpch::orders_rows_for(spec.rows), seed),
            );
            let ddl = ddl(&table, "");
            let script = tpch_script(&table, &mut rng, len);
            Instance {
                workload,
                table,
                ddl,
                script,
            }
        }
        Workload::ServedPoint => {
            let mut table = model(
                "readings",
                htap::readings_schema(),
                htap::seed_rows(spec.rows, seed),
            );
            table.key_is_position = true;
            let splits: Vec<String> = (1..config::SERVED_SHARDS)
                .map(|i| (i * spec.rows / config::SERVED_SHARDS).to_string())
                .collect();
            let ddl = ddl(
                &table,
                &format!(" SHARDED BY RANGE (zdjh) SPLIT AT ({})", splits.join(", ")),
            );
            let script = served_script(&table, &mut rng, len);
            Instance {
                workload,
                table,
                ddl,
                script,
            }
        }
    }
}

/// The kinds of one block of statements: `counts[k]` of kind `k`, in
/// seeded random order. Every block of a script has the same mix, so
/// scripts of different seeds differ in order and keys but not in how
/// much of each kind of work they hold.
fn shuffled_block(rng: &mut Rng64, counts: &[usize]) -> Vec<usize> {
    let mut kinds: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(k, &n)| std::iter::repeat_n(k, n))
        .collect();
    for i in (1..kinds.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        kinds.swap(i, j);
    }
    kinds
}

/// `grid_edit`, in blocks of [`config::FOLD_EVERY`]: 29 Table IV-style
/// EDIT DMLs (~59%), 20 day-slice GROUP BYs that mostly re-read the day
/// last written (~41%), then `COMPACT TABLE … INCREMENTAL`.
///
/// Each block's DMLs correct one window of two master files (recent
/// readings), rotating over files 2–19 from block to block, at 0.1–5% of
/// the table each. The fold at the block's end (two files per cycle)
/// folds exactly that window, so every block starts from a clean table and
/// the script's latency does not drift; the fold's cost against the two
/// dirty files it folds is what `dualtable.fold_table_fraction` reports.
/// Files 0–1 hold the rows the cost model samples; keeping the window off
/// them keeps every DML on the EDIT plan.
fn grid_script(table: &TableModel, rng: &mut Rng64, len: usize) -> Vec<Stmt> {
    const QUERY: usize = 0;
    const U3: usize = 1;
    const U4: usize = 2;
    const SWEEP: usize = 3;
    const DELETE: usize = 4;
    // Rows per sweep: 0.1% to 5% of the table.
    const SWEEP_ROWS: [i64; 7] = [20, 60, 120, 200, 350, 600, 1_000];
    let per_file = config::spec(Workload::GridEdit).rows_per_file as i64;
    let windows = (table.rows.len() as i64 / per_file - 2) / 2;
    let base = smartgrid::BASE_DATE as i32;
    let mut last_day = base;
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let block = (out.len() / config::FOLD_EVERY) as i64;
        let lo = (2 + 2 * (block % windows)) * per_file;
        let hi = lo + 2 * per_file - 1;
        let window = || Pred::between(G_FLR01, Value::Int64(lo), Value::Int64(hi));
        let kinds = shuffled_block(rng, &[20, 12, 7, 7, 3]);
        let mut sweeps = SWEEP_ROWS.to_vec();
        for i in (1..sweeps.len()).rev() {
            sweeps.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        for kind in kinds {
            let action = match kind {
                QUERY => {
                    // Read-after-update: most slices re-read the day last written.
                    let day = if rng.chance(0.7) {
                        last_day
                    } else {
                        base + rng.range_i64(0, smartgrid::DAYS - 1) as i32
                    };
                    Action::Query(Query::DaySlice { day })
                }
                U3 => {
                    // U#3-style: a new sampling rate for one day of the window.
                    last_day = base + rng.range_i64(0, smartgrid::DAYS - 1) as i32;
                    Action::Update {
                        preds: vec![Pred::cmp(G_RQ, Op::Eq, Value::Date(last_day)), window()],
                        sets: vec![(G_RCJL, Value::Float64(rng.range_i64(90, 100) as f64))],
                    }
                }
                U4 => {
                    // U#4-style: a new collection method for a BETWEEN range
                    // of days and one user type.
                    last_day = base + rng.range_i64(0, smartgrid::DAYS - 4) as i32;
                    let user = Value::Utf8((*rng.choose(&USER_TYPES)).into());
                    Action::Update {
                        preds: vec![
                            Pred::between(G_RQ, Value::Date(last_day), Value::Date(last_day + 3)),
                            Pred::cmp(G_YHLX, Op::Eq, user),
                            window(),
                        ],
                        sets: vec![(G_CJFS, Value::Utf8((*rng.choose(&METHODS)).into()))],
                    }
                }
                SWEEP => {
                    let rows = sweeps.pop().expect("one size per sweep statement");
                    let start = lo + rng.range_i64(0, 2 * per_file - rows);
                    Action::Update {
                        preds: vec![Pred::between(
                            G_FLR01,
                            Value::Int64(start),
                            Value::Int64(start + rows - 1),
                        )],
                        sets: vec![(
                            G_FLR00,
                            Value::Float64(rng.range_i64(0, 100_000) as f64 / 100.0),
                        )],
                    }
                }
                DELETE => {
                    // D#-style small delete (0.1%).
                    let start = lo + rng.range_i64(0, 2 * per_file - 20);
                    Action::Delete {
                        preds: vec![Pred::between(
                            G_FLR01,
                            Value::Int64(start),
                            Value::Int64(start + 19),
                        )],
                    }
                }
                _ => unreachable!("grid block kinds are 0..5"),
            };
            out.push(stmt(table, action, 0));
        }
        out.push(stmt(table, Action::Fold, 0));
    }
    out.truncate(len);
    out
}

/// `tpch_scan`, in blocks of 20: 11 Q1, 2 Q6 and one `COUNT(*)` (70%
/// aggregates, Q1 most, so the query percentiles sit inside Q1's latency
/// mode) and 6 OVERWRITE-sized UPDATEs touching 30–50% of `lineitem`
/// (30%, so a run holds over 100 UPDATEs and its DML p95 has a
/// tail of several samples).
fn tpch_script(table: &TableModel, rng: &mut Rng64, len: usize) -> Vec<Stmt> {
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        // The six UPDATEs touch 30%, 40% and 50% of the rows, two each.
        let mut shares = shuffled_block(rng, &[0, 0, 0, 2, 2, 2]);
        for kind in shuffled_block(rng, &[11, 2, 1, 6]) {
            let action = match kind {
                0 => {
                    // Q1's cutoff sits in the last year: ~85–99% of rows.
                    let ship_max = SHIP_FIRST + (SHIP_SPAN - rng.range_i64(1, 365)) as i32;
                    Action::Query(Query::Q1 { ship_max })
                }
                1 => {
                    let lo = SHIP_FIRST + rng.range_i64(0, SHIP_SPAN - 365) as i32;
                    Action::Query(Query::Q6 {
                        lo,
                        hi: lo + 365,
                        disc: rng.range_i64(2, 8),
                        qty: rng.range_i64(20, 30) as f64,
                    })
                }
                2 => Action::Query(Query::Count),
                _ => {
                    let (col, value) = if rng.chance(0.5) {
                        (
                            L_DISCOUNT,
                            Value::Float64(rng.range_i64(0, 10) as f64 / 100.0),
                        )
                    } else {
                        (L_TAX, Value::Float64(rng.range_i64(0, 8) as f64 / 100.0))
                    };
                    Action::Update {
                        preds: vec![Pred::ModLt {
                            col: L_PARTKEY,
                            m: 10,
                            r: shares.pop().expect("one share per UPDATE") as i64,
                        }],
                        sets: vec![(col, value)],
                    }
                }
            };
            out.push(stmt(table, action, 0));
        }
    }
    out.truncate(len);
    out
}

/// `served_point`, in blocks of 20: 11 point SELECTs, 6 five-row
/// `BETWEEN` UPDATEs and 3 2,000-key range aggregates, sent by two
/// connections. Statement `i` goes to connection `i % 2`, and each
/// connection reads and writes only the 5-key blocks it owns, so the
/// final state and every point read are independent of how the two
/// connections interleave.
fn served_script(table: &TableModel, rng: &mut Rng64, len: usize) -> Vec<Stmt> {
    let keys = table.rows.len() as i64;
    let conns = config::SERVED_CONNS as i64;
    let blocks = keys / 5;
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        for kind in shuffled_block(rng, &[11, 6, 3]) {
            let conn = out.len() % config::SERVED_CONNS;
            let mut block = || rng.range_i64(0, blocks / conns - 1) * conns + conn as i64;
            let action = match kind {
                0 => {
                    let key = block() * 5 + rng.range_i64(0, 4);
                    Action::Query(Query::Point { key })
                }
                1 => {
                    let lo = block() * 5;
                    Action::Update {
                        preds: vec![Pred::between(R_KEY, Value::Int64(lo), Value::Int64(lo + 4))],
                        sets: vec![(R_STATUS, Value::Int64(rng.range_i64(1, 10)))],
                    }
                }
                _ => {
                    let lo = rng.range_i64(0, keys - 2_000);
                    Action::Query(Query::RangeAgg { lo, hi: lo + 1_999 })
                }
            };
            out.push(stmt(table, action, conn));
        }
    }
    out.truncate(len);
    out
}
