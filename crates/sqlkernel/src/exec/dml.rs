//! DML execution: `INSERT`, `UPDATE`, `DELETE`.
//!
//! A statement binds once against its target table ([`DmlPlan::bind`])
//! and then runs any number of times — once per execution, or once per
//! parameter set of a batch. `UPDATE` and `DELETE` bind into the
//! compiled [`UpdatePlan`] / [`DeletePlan`], so interpreted and compiled
//! DML share one implementation. `INSERT` binds its `VALUES` cells
//! against the empty schema.
//!
//! Every statement runs in two phases through [`write_rows`]: a collect
//! phase under a shared guard on the target — subqueries may re-read it
//! or read other tables — that evaluates predicates and new values
//! against an immutable view, then an apply phase under the exclusive
//! guard that writes the collected changes, each recording an undo
//! entry for statement atomicity. This sidesteps the Halloween problem
//! (an `UPDATE` whose predicate matches its own output). Every caller
//! holds the target's statement mutex (or the exclusive catalog-shape
//! lock), so no other writer slips into the guard gap, and the new
//! versions stay unstamped — invisible to readers — until the statement
//! commits. One path serves every entry point, subqueries or not.

use crate::ast::*;
use crate::bound::{bind, eval_bound, BoundCtx, BoundExpr};
use crate::catalog::Catalog;
use crate::error::{SqlError, SqlResult};
use crate::expr::RowSchema;
use crate::plan::{
    bind_delete, bind_update, run_delete_plan, run_update_plan, write_rows, DeletePlan, RowChange,
    UpdatePlan,
};
use crate::storage::Table;
use crate::txn::UndoLog;
use crate::types::Value;

/// A bound `INSERT`: target positions plus the bound source.
pub(crate) struct InsertPlan<'s> {
    table: &'s str,
    width: usize,
    positions: Vec<usize>,
    source: InsertRows<'s>,
}

enum InsertRows<'s> {
    Values(Vec<Vec<BoundExpr>>),
    Select(&'s SelectStmt),
}

/// One bound DML statement.
pub(crate) enum DmlPlan<'s> {
    Insert(InsertPlan<'s>),
    Update(UpdatePlan),
    Delete(DeletePlan),
}

impl<'s> DmlPlan<'s> {
    /// Bind `stmt` (an `INSERT`, `UPDATE`, or `DELETE`) against its
    /// target table, read under a shared guard. Shape errors — unknown
    /// columns, aggregates — surface here, before any row is read.
    pub(crate) fn bind(catalog: &Catalog, stmt: &'s Statement) -> SqlResult<DmlPlan<'s>> {
        let target = stmt
            .dml_table()
            .ok_or_else(|| SqlError::Semantic("not a DML statement".into()))?;
        let table = catalog.table(target)?;
        match stmt {
            Statement::Insert(s) => Ok(DmlPlan::Insert(plan_insert(&table, s)?)),
            Statement::Update(s) => Ok(DmlPlan::Update(bind_update(&table, s)?)),
            Statement::Delete(s) => Ok(DmlPlan::Delete(bind_delete(&table, s)?)),
            _ => unreachable!("only DML statements have a target table"),
        }
    }

    /// Run both phases through [`write_rows`], which takes the target
    /// table's guards per phase.
    pub(crate) fn run(&self, ctx: &BoundCtx<'_>, undo: &mut UndoLog) -> SqlResult<usize> {
        match self {
            DmlPlan::Insert(p) => write_rows(ctx, p.table, undo, |_, _| collect_insert(ctx, p)),
            DmlPlan::Update(p) => run_update_plan(ctx, p, undo),
            DmlPlan::Delete(p) => run_delete_plan(ctx, p, undo),
        }
    }
}

/// Resolve the column list and bind every `VALUES` cell.
fn plan_insert<'s>(table: &Table, stmt: &'s InsertStmt) -> SqlResult<InsertPlan<'s>> {
    let width = table.schema.columns.len();

    // Map provided columns → schema positions.
    let positions: Vec<usize> = match &stmt.columns {
        Some(cols) => {
            let mut out = Vec::with_capacity(cols.len());
            for c in cols {
                let i = table.schema.resolve(c)?;
                if out.contains(&i) {
                    return Err(SqlError::Semantic(format!(
                        "column '{c}' listed twice in INSERT"
                    )));
                }
                out.push(i);
            }
            out
        }
        None => (0..width).collect(),
    };

    let source = match &stmt.source {
        InsertSource::Values(rows) => {
            let empty = RowSchema::empty();
            InsertRows::Values(
                rows.iter()
                    .map(|exprs| exprs.iter().map(|e| bind(e, &empty)).collect())
                    .collect::<SqlResult<_>>()?,
            )
        }
        InsertSource::Select(sel) => InsertRows::Select(sel),
    };
    Ok(InsertPlan {
        table: &stmt.table,
        width,
        positions,
        source,
    })
}

/// Collect phase of an `INSERT`: compute the full rows to insert.
fn collect_insert(ctx: &BoundCtx<'_>, plan: &InsertPlan<'_>) -> SqlResult<Vec<RowChange>> {
    let source_rows: Vec<Vec<Value>> = match &plan.source {
        InsertRows::Values(rows) => {
            let mut out = Vec::with_capacity(rows.len());
            for exprs in rows {
                let mut row = Vec::with_capacity(exprs.len());
                for e in exprs {
                    row.push(eval_bound(e, ctx)?);
                }
                out.push(row);
            }
            out
        }
        InsertRows::Select(sel) => super::select::run_select(ctx, sel)?.rows,
    };

    let mut full_rows = Vec::with_capacity(source_rows.len());
    for src in source_rows {
        if src.len() != plan.positions.len() {
            return Err(SqlError::Semantic(format!(
                "INSERT expects {} values per row, got {}",
                plan.positions.len(),
                src.len()
            )));
        }
        let mut row = vec![Value::Null; plan.width];
        for (v, &pos) in src.into_iter().zip(&plan.positions) {
            row[pos] = v;
        }
        full_rows.push(RowChange::Insert(row));
    }
    Ok(full_rows)
}
