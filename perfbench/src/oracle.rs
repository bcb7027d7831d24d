//! Checks every engine answer against the model.

use dt_common::{Deadline, Row};
use dt_hiveql::TableHandle;

use crate::model::{rows_eq, sort_rows, TableModel};
use crate::script::{Action, Stmt};

/// What the engine answered, in-process or over the wire.
#[derive(Debug, Clone, Default)]
pub struct Answer {
    pub affected: u64,
    pub rows: Vec<Row>,
    pub message: String,
}

/// The verdict on one statement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checked {
    pub ok: bool,
    /// DML only: every shard that ran the statement took the EDIT plan.
    pub edit: Option<bool>,
    /// DML on a sharded table: shards that ran the statement.
    pub shards: Option<u64>,
    /// Logical bytes of the cells the statement changed.
    pub changed_bytes: u64,
}

/// The engine's own account of the plan, from the DML message:
/// `"… via Edit plan"` (one table) or `"… across 4 shard(s) (EDIT×4)"`.
fn plan_of(message: &str) -> (Option<bool>, Option<u64>) {
    let edit = if message.contains("via Edit plan") {
        Some(true)
    } else if message.contains("via Overwrite plan") {
        Some(false)
    } else if message.contains("EDIT×") || message.contains("OVERWRITE×") {
        Some(!message.contains("OVERWRITE×"))
    } else {
        None
    };
    let shards = message
        .split(" across ")
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok());
    (edit, shards)
}

/// Checks `answer` to `stmt` against `model`, applying the statement to
/// the model first when it is a DML.
pub fn check(stmt: &Stmt, answer: &Answer, model: &mut TableModel) -> Checked {
    let mut out = Checked::default();
    match &stmt.action {
        Action::Update { preds, sets } => {
            let change = model.update(preds, sets);
            out.changed_bytes = change.bytes;
            out.ok = answer.affected == change.rows;
            (out.edit, out.shards) = plan_of(&answer.message);
        }
        Action::Delete { preds } => {
            let change = model.delete(preds);
            out.changed_bytes = change.bytes;
            out.ok = answer.affected == change.rows;
            (out.edit, out.shards) = plan_of(&answer.message);
        }
        Action::Query(q) => out.ok = rows_eq(&answer.rows, &q.expected(model)),
        Action::Fold => out.ok = true,
    }
    if !out.ok {
        eprintln!(
            "oracle mismatch: {} -> affected {} rows {:?}",
            stmt.sql,
            answer.affected,
            answer.rows.iter().take(3).collect::<Vec<_>>()
        );
    }
    out
}

/// `true` iff the table holds exactly the model's rows (as a multiset).
pub fn final_state_ok(handle: &TableHandle, model: &TableModel) -> bool {
    let Ok(mut actual) = handle.scan_deadline(None, None, &Deadline::never()) else {
        eprintln!("oracle: final scan of {} failed", model.name);
        return false;
    };
    let mut expected = model.rows.clone();
    sort_rows(&mut actual);
    sort_rows(&mut expected);
    let ok = rows_eq(&actual, &expected);
    if !ok {
        eprintln!(
            "oracle: final state of {} differs ({} rows vs {} modelled)",
            model.name,
            actual.len(),
            expected.len()
        );
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::plan_of;

    #[test]
    fn plans_parse_from_messages() {
        assert_eq!(plan_of("updated 3 rows via Edit plan"), (Some(true), None));
        assert_eq!(
            plan_of("deleted 3 rows via Overwrite plan"),
            (Some(false), None)
        );
        assert_eq!(
            plan_of("updated 5 rows across 4 shard(s) (EDIT×4)"),
            (Some(true), Some(4))
        );
        assert_eq!(
            plan_of("updated 5 rows across 2 shard(s) (EDIT×1, OVERWRITE×1)"),
            (Some(false), Some(2))
        );
        assert_eq!(plan_of("COMPACT done"), (None, None));
    }
}
