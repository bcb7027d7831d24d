//! The benchmark's own model of each table: predicates that render to SQL
//! *and* evaluate in Rust, and an in-memory copy of the table that every
//! DML is replayed on. The model is the oracle: affected-row counts,
//! query results and the final table state are all checked against it.

use std::cmp::Ordering;

use dt_common::{Row, Schema, Value};

/// Comparison operator of a [`Pred::Cmp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Eq,
    Lt,
    Le,
    Gt,
    Ge,
}

impl Op {
    fn sql(self) -> &'static str {
        match self {
            Op::Eq => "=",
            Op::Lt => "<",
            Op::Le => "<=",
            Op::Gt => ">",
            Op::Ge => ">=",
        }
    }

    fn holds(self, ord: Ordering) -> bool {
        match self {
            Op::Eq => ord == Ordering::Equal,
            Op::Lt => ord == Ordering::Less,
            Op::Le => ord != Ordering::Greater,
            Op::Gt => ord == Ordering::Greater,
            Op::Ge => ord != Ordering::Less,
        }
    }
}

/// One conjunct of a WHERE clause. Literals always carry the column's own
/// type, so SQL and the model compare the same way.
#[derive(Debug, Clone, PartialEq)]
pub enum Pred {
    /// `col <op> lit`
    Cmp { col: usize, op: Op, lit: Value },
    /// `col BETWEEN lo AND hi`
    Between { col: usize, lo: Value, hi: Value },
    /// `col % m < r` (integer column)
    ModLt { col: usize, m: i64, r: i64 },
}

impl Pred {
    pub fn cmp(col: usize, op: Op, lit: Value) -> Pred {
        Pred::Cmp { col, op, lit }
    }

    pub fn between(col: usize, lo: Value, hi: Value) -> Pred {
        Pred::Between { col, lo, hi }
    }

    fn matches(&self, row: &Row) -> bool {
        match self {
            Pred::Cmp { col, op, lit } => op.holds(row[*col].total_cmp(lit)),
            Pred::Between { col, lo, hi } => {
                row[*col].total_cmp(lo) != Ordering::Less
                    && row[*col].total_cmp(hi) != Ordering::Greater
            }
            Pred::ModLt { col, m, r } => row[*col].as_i64().is_some_and(|v| v % m < *r),
        }
    }

    fn render(&self, schema: &Schema) -> String {
        let name = |c: &usize| schema.field(*c).name.clone();
        match self {
            Pred::Cmp { col, op, lit } => format!("{} {} {}", name(col), op.sql(), sql_lit(lit)),
            Pred::Between { col, lo, hi } => {
                format!("{} BETWEEN {} AND {}", name(col), sql_lit(lo), sql_lit(hi))
            }
            Pred::ModLt { col, m, r } => format!("{} % {m} < {r}", name(col)),
        }
    }
}

/// `true` iff `row` satisfies every conjunct.
pub fn matches(row: &Row, preds: &[Pred]) -> bool {
    preds.iter().all(|p| p.matches(row))
}

/// The conjunction as SQL text (without the `WHERE` keyword).
pub fn render_where(schema: &Schema, preds: &[Pred]) -> String {
    preds
        .iter()
        .map(|p| p.render(schema))
        .collect::<Vec<_>>()
        .join(" AND ")
}

/// A literal in the dialect's syntax. Floats use Rust's shortest
/// round-trip form, so the parsed literal is bit-identical to `v`.
pub fn sql_lit(v: &Value) -> String {
    match v {
        Value::Null => "NULL".into(),
        Value::Int64(i) => i.to_string(),
        Value::Float64(f) => format!("{f:?}"),
        Value::Utf8(s) => format!("'{}'", s.replace('\'', "''")),
        Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.into(),
        Value::Date(d) => format!("DATE {d}"),
    }
}

/// Logical (unencoded) size of one cell: 8 bytes per fixed-width value,
/// the UTF-8 length of a string. The denominator of write and space
/// amplification.
pub fn logical_bytes(v: &Value) -> u64 {
    match v {
        Value::Null => 1,
        Value::Bool(_) => 1,
        Value::Date(_) => 4,
        Value::Int64(_) | Value::Float64(_) => 8,
        Value::Utf8(s) => s.len() as u64,
    }
}

fn row_bytes(row: &Row) -> u64 {
    row.iter().map(logical_bytes).sum()
}

/// The benchmark's copy of one table.
#[derive(Debug, Clone)]
pub struct TableModel {
    pub name: String,
    pub schema: Schema,
    pub rows: Vec<Row>,
    /// Column 0 holds each row's position (`rows[k][0] == k`), so key
    /// predicates on it can skip straight to the matching rows. Only set
    /// for tables that are never deleted from.
    pub key_is_position: bool,
}

/// What one modelled DML did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Change {
    /// Rows matched (the expected affected-row count).
    pub rows: u64,
    /// Logical bytes of the cells changed.
    pub bytes: u64,
}

impl TableModel {
    pub fn new(name: &str, schema: Schema) -> Self {
        TableModel {
            name: name.to_string(),
            schema,
            rows: Vec::new(),
            key_is_position: false,
        }
    }

    /// The rows that can match `preds`: all of them, or for a
    /// position-keyed table the slice its key conjuncts allow.
    fn candidates(&self, preds: &[Pred]) -> std::ops::Range<usize> {
        let mut range = 0..self.rows.len();
        if !self.key_is_position {
            return range;
        }
        let pos = |v: &Value| {
            v.as_i64()
                .map(|k| k.clamp(0, self.rows.len() as i64) as usize)
        };
        for p in preds {
            let (lo, hi) = match p {
                Pred::Cmp {
                    col: 0,
                    op: Op::Eq,
                    lit,
                } => (pos(lit), pos(lit).map(|k| k + 1)),
                Pred::Between { col: 0, lo, hi } => (pos(lo), pos(hi).map(|k| k + 1)),
                _ => continue,
            };
            if let (Some(lo), Some(hi)) = (lo, hi) {
                range = range.start.max(lo)..range.end.min(hi).max(range.start.max(lo));
            }
        }
        range
    }

    /// `UPDATE … SET col = lit, … WHERE preds`.
    pub fn update(&mut self, preds: &[Pred], sets: &[(usize, Value)]) -> Change {
        let mut change = Change::default();
        let range = self.candidates(preds);
        for row in self.rows[range].iter_mut().filter(|r| matches(r, preds)) {
            change.rows += 1;
            for (col, v) in sets {
                change.bytes += logical_bytes(v);
                row[*col] = v.clone();
            }
        }
        change
    }

    /// `DELETE … WHERE preds`: every cell of a deleted row counts as
    /// changed.
    pub fn delete(&mut self, preds: &[Pred]) -> Change {
        let mut change = Change::default();
        self.rows.retain(|r| {
            if matches(r, preds) {
                change.rows += 1;
                change.bytes += row_bytes(r);
                false
            } else {
                true
            }
        });
        change
    }

    /// Logical bytes of the live rows.
    pub fn live_bytes(&self) -> u64 {
        self.rows.iter().map(row_bytes).sum()
    }

    /// Rows matching `preds`.
    pub fn select<'a>(&'a self, preds: &'a [Pred]) -> impl Iterator<Item = &'a Row> + 'a {
        self.rows[self.candidates(preds)]
            .iter()
            .filter(move |r| matches(r, preds))
    }
}

/// Sorts rows into a canonical order (for multiset comparison).
pub fn sort_rows(rows: &mut [Row]) {
    rows.sort_by(|a, b| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| *o != Ordering::Equal)
            .unwrap_or(Ordering::Equal)
    });
}

/// Value equality for result checking: exact for integers, strings and
/// dates; floats agree to a relative 1e-9 (aggregation order differs
/// between the engine and the model).
pub fn value_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float64(_), _) | (_, Value::Float64(_)) => match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0),
            _ => false,
        },
        _ => a.total_cmp(b) == Ordering::Equal && a.is_null() == b.is_null(),
    }
}

/// Row-list equality under [`value_eq`].
pub fn rows_eq(a: &[Row], b: &[Row]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.len() == y.len() && x.iter().zip(y).all(|(u, v)| value_eq(u, v)))
}
