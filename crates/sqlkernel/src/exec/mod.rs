//! Statement execution dispatcher.
//!
//! [`execute`] runs one non-transaction-control statement against a
//! catalog, recording undo entries as it goes. Transaction control
//! (`BEGIN`/`COMMIT`/`ROLLBACK`) is owned by [`crate::db::Connection`],
//! which also provides statement-level atomicity by rolling the statement
//! undo log back on error.

pub mod batch;
pub mod ddl;
pub mod dml;
pub mod select;

use std::collections::HashMap;

use crate::ast::Statement;
use crate::bound::BoundCtx;
use crate::catalog::Catalog;
use crate::db::StatementResult;
use crate::error::{SqlError, SqlResult};
use crate::storage::Snapshot;
use crate::txn::UndoLog;
use crate::types::Value;

/// Execute one statement, reading and writing rows under `snapshot`.
/// `params` are `?` host parameters, `named_params` are `:name` bindings
/// (lower-cased keys; used inside procedure bodies).
pub fn execute(
    catalog: &mut Catalog,
    snapshot: &Snapshot,
    stmt: &Statement,
    params: &[Value],
    named_params: &HashMap<String, Value>,
    undo: &mut UndoLog,
) -> SqlResult<StatementResult> {
    match stmt {
        Statement::Select(s) => {
            let ctx = BoundCtx::new(catalog, snapshot, params, named_params);
            let rs = select::run_select(&ctx, s)?;
            Ok(StatementResult::Rows(rs))
        }
        Statement::Insert(_) | Statement::Update(_) | Statement::Delete(_) => {
            let ctx = BoundCtx::new(catalog, snapshot, params, named_params);
            let n = dml::DmlPlan::bind(catalog, stmt)?.run(&ctx, undo)?;
            Ok(StatementResult::Affected(n))
        }
        Statement::CreateTable(s) => {
            ddl::create_table(catalog, snapshot, s, params, undo)?;
            Ok(StatementResult::Ddl)
        }
        Statement::DropTable { name, if_exists } => {
            ddl::drop_table(catalog, name, *if_exists, undo)?;
            Ok(StatementResult::Ddl)
        }
        Statement::CreateIndex {
            name,
            table,
            columns,
            unique,
            if_not_exists,
        } => {
            ddl::create_index(catalog, name, table, columns, *unique, *if_not_exists, undo)?;
            Ok(StatementResult::Ddl)
        }
        Statement::DropIndex { name, if_exists } => {
            ddl::drop_index(catalog, name, *if_exists, undo)?;
            Ok(StatementResult::Ddl)
        }
        Statement::CreateSequence {
            name,
            start,
            increment,
            if_not_exists,
        } => {
            ddl::create_sequence(catalog, name, *start, *increment, *if_not_exists, undo)?;
            Ok(StatementResult::Ddl)
        }
        Statement::DropSequence { name, if_exists } => {
            ddl::drop_sequence(catalog, name, *if_exists, undo)?;
            Ok(StatementResult::Ddl)
        }
        Statement::CreateProcedure(s) => {
            ddl::create_procedure(catalog, s, undo)?;
            Ok(StatementResult::Ddl)
        }
        Statement::DropProcedure { name, if_exists } => {
            ddl::drop_procedure(catalog, name, *if_exists, undo)?;
            Ok(StatementResult::Ddl)
        }
        Statement::CreateView {
            name,
            if_not_exists,
            query,
        } => {
            ddl::create_view(catalog, name, query, *if_not_exists, undo)?;
            Ok(StatementResult::Ddl)
        }
        Statement::DropView { name, if_exists } => {
            ddl::drop_view(catalog, name, *if_exists, undo)?;
            Ok(StatementResult::Ddl)
        }
        Statement::Call { name, args } => {
            let rows =
                ddl::call_procedure(catalog, snapshot, name, args, params, named_params, undo)?;
            match rows {
                Some(rs) => Ok(StatementResult::Rows(rs)),
                None => Ok(StatementResult::Affected(0)),
            }
        }
        Statement::Begin | Statement::Commit | Statement::Rollback => Err(SqlError::Txn(
            "transaction control must go through a connection".into(),
        )),
    }
}
