//! DML execution: `INSERT`, `UPDATE`, `DELETE`.
//!
//! A statement binds once against its target table ([`DmlPlan::bind`])
//! and then runs any number of times — once per execution, or once per
//! parameter set of a batch. `UPDATE` and `DELETE` bind into the
//! compiled [`UpdatePlan`] / [`DeletePlan`] and run through the plan
//! module's collect/apply loops, so interpreted and compiled DML share
//! one implementation. `INSERT` binds its `VALUES` cells against the
//! empty schema.
//!
//! Mutations run in two phases: an immutable phase that evaluates
//! predicates and new values against a snapshot view, then a mutable phase
//! that applies the collected changes. This sidesteps the Halloween
//! problem (an `UPDATE` whose predicate matches its own output) and lets
//! every change record an undo entry for statement atomicity.
//!
//! [`DmlPlan::run`] acquires the target table's guards itself (shared
//! for the collect phase — subqueries may re-read the same table —
//! exclusive for the apply phase) and relies on the catalog-shape write
//! lock to make the guard gap invisible. [`DmlPlan::run_on`] executes
//! both phases against a guard the *caller* already holds, which is what
//! the fast path under the shared catalog-shape lock uses; it is only
//! safe for subquery-free statements, since a subquery would re-enter
//! the catalog's table map.

use std::collections::HashMap;

use crate::ast::*;
use crate::bound::{bind, eval_bound, BoundCtx, BoundExpr};
use crate::catalog::Catalog;
use crate::error::{SqlError, SqlResult};
use crate::expr::RowSchema;
use crate::plan::{
    bind_delete, bind_update, run_delete_plan, run_delete_plan_on, run_update_plan,
    run_update_plan_on, DeletePlan, UpdatePlan,
};
use crate::storage::Table;
use crate::txn::{UndoLog, UndoOp};
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
    /// [`DmlPlan::bind`] under a shared guard on the target table.
    pub(crate) fn bind_in(catalog: &Catalog, stmt: &'s Statement) -> SqlResult<DmlPlan<'s>> {
        let name = match stmt {
            Statement::Insert(s) => &s.table,
            Statement::Update(s) => &s.table,
            Statement::Delete(s) => &s.table,
            _ => return Err(SqlError::Semantic("not a DML statement".into())),
        };
        DmlPlan::bind(&*catalog.table(name)?, stmt)
    }

    /// Bind `stmt` (an `INSERT`, `UPDATE`, or `DELETE`) against its
    /// target table. Shape errors — unknown columns, aggregates — surface
    /// here, before any row is read.
    pub(crate) fn bind(table: &Table, stmt: &'s Statement) -> SqlResult<DmlPlan<'s>> {
        match stmt {
            Statement::Insert(s) => Ok(DmlPlan::Insert(bind_insert(table, s)?)),
            Statement::Update(s) => Ok(DmlPlan::Update(bind_update(table, s)?)),
            Statement::Delete(s) => Ok(DmlPlan::Delete(bind_delete(table, s)?)),
            _ => Err(SqlError::Semantic("not a DML statement".into())),
        }
    }

    /// Run both phases, taking the target table's guards per phase.
    pub(crate) fn run(
        &self,
        catalog: &Catalog,
        params: &[Value],
        named_params: &HashMap<String, Value>,
        undo: &mut UndoLog,
    ) -> SqlResult<usize> {
        match self {
            DmlPlan::Insert(p) => {
                let rows = collect_insert(catalog, p, params, named_params)?;
                let mut table = catalog.table_mut(p.table)?;
                apply_insert(catalog, &mut table, rows, undo)
            }
            DmlPlan::Update(p) => run_update_plan(catalog, p, params, named_params, undo),
            DmlPlan::Delete(p) => run_delete_plan(catalog, p, params, named_params, undo),
        }
    }

    /// Run both phases against a table guard the caller holds. The
    /// statement must be subquery-free (and an `INSERT` must be `VALUES`).
    pub(crate) fn run_on(
        &self,
        catalog: &Catalog,
        table: &mut Table,
        params: &[Value],
        named_params: &HashMap<String, Value>,
        undo: &mut UndoLog,
    ) -> SqlResult<usize> {
        match self {
            DmlPlan::Insert(p) => {
                let rows = collect_insert(catalog, p, params, named_params)?;
                apply_insert(catalog, table, rows, undo)
            }
            DmlPlan::Update(p) => run_update_plan_on(catalog, table, p, params, named_params, undo),
            DmlPlan::Delete(p) => run_delete_plan_on(catalog, table, p, params, named_params, undo),
        }
    }
}

/// Bind and execute one DML statement; returns the rows affected.
pub(crate) fn run(
    catalog: &Catalog,
    stmt: &Statement,
    params: &[Value],
    named_params: &HashMap<String, Value>,
    undo: &mut UndoLog,
) -> SqlResult<usize> {
    DmlPlan::bind_in(catalog, stmt)?.run(catalog, params, named_params, undo)
}

/// Bind and execute one DML statement against a held table guard; see
/// [`DmlPlan::run_on`].
pub(crate) fn run_on(
    catalog: &Catalog,
    table: &mut Table,
    stmt: &Statement,
    params: &[Value],
    named_params: &HashMap<String, Value>,
    undo: &mut UndoLog,
) -> SqlResult<usize> {
    DmlPlan::bind(table, stmt)?.run_on(catalog, table, params, named_params, undo)
}

/// Resolve the column list and bind every `VALUES` cell.
fn bind_insert<'s>(table: &Table, stmt: &'s InsertStmt) -> SqlResult<InsertPlan<'s>> {
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

/// Phase 1 of an `INSERT`: compute the full rows to insert.
fn collect_insert(
    catalog: &Catalog,
    plan: &InsertPlan<'_>,
    params: &[Value],
    named_params: &HashMap<String, Value>,
) -> SqlResult<Vec<Vec<Value>>> {
    let source_rows: Vec<Vec<Value>> = match &plan.source {
        InsertRows::Values(rows) => {
            let ctx = BoundCtx {
                catalog,
                params,
                named_params,
                row: None,
            };
            let mut out = Vec::with_capacity(rows.len());
            for exprs in rows {
                let mut row = Vec::with_capacity(exprs.len());
                for e in exprs {
                    row.push(eval_bound(e, &ctx)?);
                }
                out.push(row);
            }
            out
        }
        InsertRows::Select(sel) => {
            super::select::run_select(catalog, sel, params, named_params)?.rows
        }
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
        full_rows.push(row);
    }
    Ok(full_rows)
}

/// Phase 2 of an `INSERT`: apply under the caller's exclusive guard.
fn apply_insert(
    catalog: &Catalog,
    table: &mut Table,
    rows: Vec<Vec<Value>>,
    undo: &mut UndoLog,
) -> SqlResult<usize> {
    let table_name = table.schema.name.clone();
    let mut n = 0;
    for row in rows {
        let id = table.insert(row)?;
        undo.record(UndoOp::Insert {
            table: table_name.clone(),
            row_id: id,
        });
        n += 1;
        catalog.fault_row_applied()?;
    }
    Ok(n)
}
