//! `SELECT` execution: scan → join → filter → group/aggregate → project →
//! distinct → order → limit.
//!
//! The executor is a straightforward materializing pipeline, and the
//! reference the compiled executors are held to for access path and
//! emission order. It evaluates through the same bound expressions as
//! they do: once the FROM output's [`RowSchema`] is known, every row
//! expression of the statement is bound against it in one pass
//! ([`bind_select`]), so shape errors surface before any row is
//! evaluated. Joins use a hash join whenever the `ON` clause contains at
//! least one pure left-column = right-column equality; remaining
//! conjuncts become a residual filter. Grouped aggregation hashes on the
//! `GROUP BY` key values and materializes one *virtual row* per group —
//! the representative source row followed by one slot per aggregate call
//! site, under the [`AGG_BINDING`] binding — which is the representation
//! the compiled hash aggregator uses too.

use std::collections::HashMap;
use std::sync::Arc;

use crate::ast::*;
use crate::bound::{bind, bind_eval, eval_bound, eval_bound_predicate, BoundCtx, BoundExpr};
use crate::db::QueryResult;
use crate::error::{SqlError, SqlResult};
use crate::expr::{aggregate_key, is_aggregate_name, RowSchema};
use crate::plan::{bound_usize, BoundAggSpec, Evals, OrderKey, AGG_BINDING};
use crate::storage::Row;
use crate::types::Value;

/// A materialized intermediate row set. Rows are `Arc`-shared: a base
/// table scan hands out pointers to stored rows, and derived rows (joins,
/// views, subqueries) are allocated once and shared from then on.
#[derive(Debug, Clone)]
pub(crate) struct Rows {
    pub schema: RowSchema,
    pub rows: Vec<Arc<Row>>,
}

/// Run a `SELECT` under `ctx`'s snapshot and materialize its result.
/// The statement is uncorrelated: `ctx`'s row, if any, is not visible
/// to it.
pub fn run_select(ctx: &BoundCtx<'_>, stmt: &SelectStmt) -> SqlResult<QueryResult> {
    if !stmt.unions.is_empty() {
        return run_union(ctx, stmt);
    }

    let ctx = BoundCtx { row: None, ..*ctx };
    let catalog = ctx.catalog;
    let (offset, limit) = offset_limit(stmt, &ctx)?;

    // 1. FROM — with an index fast path (point lookup or range walk) for
    //    single-table statements. A range walk emits rows in key order
    //    and reports that order, letting an ORDER BY over the same column
    //    skip the sort below.
    let (input, index_order) = match &stmt.from {
        Some(from) if from.joins.is_empty() => {
            match try_index_scan(from, stmt.where_clause.as_ref(), &stmt.order_by, &ctx)? {
                Some((rows, ord)) => (rows, ord),
                None => (build_from(from, &ctx)?, None),
            }
        }
        Some(from) => (build_from(from, &ctx)?, None),
        None => (
            Rows {
                schema: RowSchema::empty(),
                rows: vec![Arc::new(Vec::new())],
            },
            None,
        ),
    };

    // Bind every row expression once, against the FROM output.
    if stmt
        .where_clause
        .as_ref()
        .is_some_and(Expr::contains_aggregate)
    {
        return Err(SqlError::Semantic(
            "aggregates are not allowed in WHERE".into(),
        ));
    }
    let bound = bind_select(stmt, &input.schema)?;

    // 2. WHERE
    let mut rows = input.rows;
    if let Some(pred) = &bound.filter {
        rows = filter_rows(rows, pred, &ctx)?;
    }

    // 3. GROUP BY / aggregates: one virtual row per group.
    if let Some(grouping) = &bound.grouping {
        rows = group_rows(grouping, &rows, input.schema.len(), &ctx)?;
    }

    // 3b. HAVING
    if let Some(having) = &bound.having {
        rows = filter_rows(rows, having, &ctx)?;
    }

    // 4. Projection (also computes ORDER BY keys against source rows).
    // Did an index range walk already emit rows in ORDER BY order?
    let order_served = bound.order_served(stmt, &input.schema, index_order);

    // Limit pushdown: once WHERE/HAVING/grouping have run, nothing below
    // drops or reorders rows when the scan already serves the ORDER BY
    // (and DISTINCT is absent), so only the first OFFSET+LIMIT candidates
    // can reach the output.
    if order_served && !stmt.distinct {
        if let Some(n) = limit {
            rows.truncate(n.saturating_add(offset.unwrap_or(0)));
        }
    }

    // ORDER BY + LIMIT with no index order: accumulate through a bounded
    // top-K heap instead of materialize-then-sort. (DISTINCT must see
    // every row before truncation, so it keeps the full sort.)
    let descs: Vec<bool> = stmt.order_by.iter().map(|o| o.desc).collect();
    let mut topk = match limit {
        Some(n) if !stmt.order_by.is_empty() && !order_served && !stmt.distinct => {
            catalog.note_topk_sort();
            Some(TopK::new(
                n.saturating_add(offset.unwrap_or(0)),
                descs.clone(),
            ))
        }
        _ => None,
    };

    let mut out_rows: Vec<(Vec<Value>, Vec<Value>)> = Vec::with_capacity(rows.len());
    for (seq, row) in rows.iter().enumerate() {
        let rc = BoundCtx {
            row: Some(row),
            ..ctx
        };
        let mut out = Vec::with_capacity(bound.projections.len());
        for e in &bound.projections {
            out.push(eval_bound(e, &rc)?);
        }
        let mut keys = Vec::with_capacity(bound.order.len());
        for (key, _) in &bound.order {
            keys.push(match key {
                OrderKey::Output(i) => out[*i].clone(),
                OrderKey::Row(e) => eval_bound(e, &rc)?,
            });
        }
        match &mut topk {
            Some(t) => t.push(keys, seq, out),
            None => out_rows.push((out, keys)),
        }
    }

    // 5. DISTINCT
    if stmt.distinct {
        let mut seen: std::collections::HashSet<Vec<Value>> = std::collections::HashSet::new();
        out_rows.retain(|(r, _)| seen.insert(r.clone()));
    }

    // 6. ORDER BY
    let mut rows: Vec<Vec<Value>> = match topk {
        Some(t) => t.into_sorted_rows(),
        None => {
            if !stmt.order_by.is_empty() && !order_served {
                out_rows.sort_by(|(_, ka), (_, kb)| cmp_keys(ka, kb, &descs));
            }
            out_rows.into_iter().map(|(r, _)| r).collect()
        }
    };

    // 7. OFFSET / LIMIT
    if let Some(n) = offset {
        rows = rows.into_iter().skip(n).collect();
    }
    if let Some(n) = limit {
        rows.truncate(n);
    }

    Ok(QueryResult {
        columns: bound.columns,
        rows,
    })
}

/// Keep the rows on which `pred` holds (NULL and FALSE both drop).
fn filter_rows(
    rows: Vec<Arc<Row>>,
    pred: &BoundExpr,
    ctx: &BoundCtx<'_>,
) -> SqlResult<Vec<Arc<Row>>> {
    let mut kept = Vec::with_capacity(rows.len());
    for row in rows {
        let rc = BoundCtx {
            row: Some(&row),
            ..*ctx
        };
        if eval_bound_predicate(pred, &rc)? {
            kept.push(row);
        }
    }
    Ok(kept)
}

/// OFFSET / LIMIT are row-independent: bind and evaluate them exactly
/// once per statement, up front. Negative values are rejected here.
fn offset_limit(
    stmt: &SelectStmt,
    ctx: &BoundCtx<'_>,
) -> SqlResult<(Option<usize>, Option<usize>)> {
    let once = |e: Option<&Expr>, what: &str| -> SqlResult<Option<usize>> {
        e.map(|e| bound_usize(&bind(e, &RowSchema::empty())?, ctx, &mut Evals(0), what))
            .transpose()
    };
    Ok((
        once(stmt.offset.as_ref(), "OFFSET")?,
        once(stmt.limit.as_ref(), "LIMIT")?,
    ))
}

/// Execute a select with `UNION` arms: run every core, combine, then
/// apply the trailing DISTINCT-like dedup, ORDER BY (output columns or
/// ordinals only) and LIMIT/OFFSET.
fn run_union(ctx: &BoundCtx<'_>, stmt: &SelectStmt) -> SqlResult<QueryResult> {
    let mut head = stmt.clone();
    head.unions = Vec::new();
    head.order_by = Vec::new();
    head.limit = None;
    head.offset = None;

    let (offset, limit) = offset_limit(stmt, ctx)?;

    let mut combined = run_select(ctx, &head)?;
    for arm in &stmt.unions {
        let rs = run_select(ctx, &arm.select)?;
        if rs.columns.len() != combined.columns.len() {
            return Err(SqlError::Semantic(format!(
                "UNION arms have {} and {} columns",
                combined.columns.len(),
                rs.columns.len()
            )));
        }
        combined.rows.extend(rs.rows);
        if !arm.all {
            let mut seen = std::collections::HashSet::new();
            combined.rows.retain(|r| seen.insert(r.clone()));
        }
    }

    if !stmt.order_by.is_empty() {
        // Keys must reference output columns (by name or ordinal).
        let mut keyed: Vec<(Vec<Value>, Vec<Value>)> = Vec::with_capacity(combined.rows.len());
        for row in combined.rows {
            let mut keys = Vec::with_capacity(stmt.order_by.len());
            for item in &stmt.order_by {
                let key = match &item.expr {
                    Expr::Literal(Value::Int(n)) if *n >= 1 && (*n as usize) <= row.len() => {
                        row[*n as usize - 1].clone()
                    }
                    Expr::Column { table: None, name } => {
                        let i = combined
                            .columns
                            .iter()
                            .position(|c| c.eq_ignore_ascii_case(name))
                            .ok_or_else(|| {
                                SqlError::Semantic(format!(
                                    "ORDER BY after UNION must name an output column ('{name}')"
                                ))
                            })?;
                        row[i].clone()
                    }
                    _ => {
                        return Err(SqlError::Semantic(
                            "ORDER BY after UNION supports output columns and ordinals only".into(),
                        ))
                    }
                };
                keys.push(key);
            }
            keyed.push((row, keys));
        }
        let descs: Vec<bool> = stmt.order_by.iter().map(|o| o.desc).collect();
        keyed.sort_by(|(_, ka), (_, kb)| cmp_keys(ka, kb, &descs));
        combined = QueryResult {
            columns: combined.columns,
            rows: keyed.into_iter().map(|(r, _)| r).collect(),
        };
    }

    if let Some(n) = offset {
        combined.rows = combined.rows.into_iter().skip(n).collect();
    }
    if let Some(n) = limit {
        combined.rows.truncate(n);
    }
    Ok(combined)
}

/// Expand the projection list into output column names + expressions.
fn projection_plan(stmt: &SelectStmt, schema: &RowSchema) -> SqlResult<(Vec<String>, Vec<Expr>)> {
    let mut columns = Vec::new();
    let mut exprs = Vec::new();
    for item in &stmt.projections {
        match item {
            SelectItem::Wildcard => {
                if schema.is_empty() {
                    return Err(SqlError::Semantic("SELECT * without FROM".into()));
                }
                for (binding, name) in schema.columns() {
                    columns.push(name.clone());
                    exprs.push(Expr::Column {
                        table: binding.clone(),
                        name: name.clone(),
                    });
                }
            }
            SelectItem::QualifiedWildcard(binding) => {
                let positions = schema.binding_positions(binding);
                if positions.is_empty() {
                    return Err(SqlError::NotFound(format!("table alias '{binding}'")));
                }
                for i in positions {
                    let (b, name) = &schema.columns()[i];
                    columns.push(name.clone());
                    exprs.push(Expr::Column {
                        table: b.clone(),
                        name: name.clone(),
                    });
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = match alias {
                    Some(a) => a.clone(),
                    None => derive_column_name(expr, columns.len()),
                };
                columns.push(name);
                exprs.push(expr.clone());
            }
        }
    }
    Ok((columns, exprs))
}

fn derive_column_name(expr: &Expr, ordinal: usize) -> String {
    match expr {
        Expr::Column { name, .. } => name.clone(),
        Expr::Function { name, .. } => name.to_ascii_lowercase(),
        _ => format!("col{}", ordinal + 1),
    }
}

/// Rows produced by an index scan, plus `(column ordinal, descending)`
/// when the access path already emitted them in `ORDER BY` order.
type ServedScan = (Rows, Option<(usize, bool)>);

/// Index fast path: for single-table statements, serve the scan through a
/// B-tree index instead of a full walk — a point lookup for an equality
/// conjunct, a range walk for `<`/`<=`/`>`/`>=`/`BETWEEN` conjuncts, or a
/// whole-index walk when only an `ORDER BY` over an indexed column asks
/// for key order. The full WHERE still runs afterwards, so this is purely
/// an access-path optimization. Range and whole-index walks emit rows in
/// key order and return `Some((col, desc))` so the caller can skip the
/// sort. Returns `None` when inapplicable.
fn try_index_scan(
    from: &FromClause,
    where_clause: Option<&Expr>,
    order_by: &[OrderItem],
    ctx: &BoundCtx<'_>,
) -> SqlResult<Option<ServedScan>> {
    let TableSource::Named(name) = &from.base.source else {
        return Ok(None);
    };
    if let Some(pred) = where_clause {
        if pred.contains_aggregate() {
            return Ok(None);
        }
    }
    // Views (and unknown names) fall through to the general scan path,
    // which produces the proper view expansion or error.
    let catalog = ctx.catalog;
    let Ok(table) = catalog.table(name) else {
        return Ok(None);
    };
    let binding = from.base.binding_name().unwrap_or(name).to_string();

    let mut conjuncts = Vec::new();
    if let Some(pred) = where_clause {
        flatten_and(pred, &mut conjuncts);
    }
    let schema = RowSchema::new(
        table
            .schema
            .columns
            .iter()
            .map(|c| (Some(binding.clone()), c.name.clone()))
            .collect(),
    );

    // Equality probe first: a point lookup beats any range walk.
    if let Some((col, value_expr)) = find_eq_candidate(&conjuncts, &binding, &table) {
        let index = table.find_index(&[col]).expect("candidate implies index");
        let key = bind_eval(value_expr, ctx)?;
        catalog.note_index_scan();
        // `col = NULL` is never true.
        let rows: Vec<Arc<Row>> = if key.is_null() {
            Vec::new()
        } else {
            table
                .index_eq_entries(
                    Some(ctx.snapshot),
                    index,
                    &crate::storage::SortKey(vec![key]),
                )
                .into_iter()
                .map(|(_, row)| Arc::clone(row))
                .collect()
        };
        return Ok(Some((Rows { schema, rows }, None)));
    }

    let order_hint = naive_order_hint(order_by, &binding, &table);

    // Range walk over the first indexed column with a range conjunct.
    if let Some(spec) = find_range_candidate(&conjuncts, &binding, &table) {
        let index = table
            .find_index(&[spec.col])
            .expect("candidate implies index");
        let lower = match &spec.lower {
            Some((e, inc)) => Some((bind_eval(e, ctx)?, *inc)),
            None => None,
        };
        let upper = match &spec.upper {
            Some((e, inc)) => Some((bind_eval(e, ctx)?, *inc)),
            None => None,
        };
        // Walk backwards when a single-item ORDER BY … DESC targets the
        // range column, so the emission order serves the sort.
        let rev = order_hint.is_some_and(|(c, desc)| c == spec.col && desc);
        let rows: Vec<Arc<Row>> = table
            .index_range_entries(
                Some(ctx.snapshot),
                index,
                lower.as_ref().map(|(v, i)| (v, *i)),
                upper.as_ref().map(|(v, i)| (v, *i)),
                rev,
                false,
                None,
            )
            .into_iter()
            .map(|(_, row)| Arc::clone(row))
            .collect();
        catalog.note_range_scan();
        return Ok(Some((Rows { schema, rows }, Some((spec.col, rev)))));
    }

    // Pure ORDER BY over an indexed column: a whole-index walk emits all
    // rows already sorted — NULL keys included, in their NULLS-first
    // (or, descending, NULLS-last) sort position.
    if let Some((col, desc)) = order_hint {
        if let Some(index) = table.find_index(&[col]) {
            let rows: Vec<Arc<Row>> = table
                .index_range_entries(Some(ctx.snapshot), index, None, None, desc, true, None)
                .into_iter()
                .map(|(_, row)| Arc::clone(row))
                .collect();
            catalog.note_range_scan();
            return Ok(Some((Rows { schema, rows }, Some((col, desc)))));
        }
    }
    Ok(None)
}

/// First conjunct of the form `col = row-independent-expr` (either side)
/// over a column with a single-column index. Shared with the plan
/// compiler, which must pick the same access path as the interpreter so
/// both emit rows in the same order.
pub(crate) fn find_eq_candidate<'a>(
    conjuncts: &'a [Expr],
    binding: &str,
    table: &crate::storage::Table,
) -> Option<(usize, &'a Expr)> {
    for c in conjuncts {
        let Expr::Binary {
            left,
            op: BinOp::Eq,
            right,
        } = c
        else {
            continue;
        };
        // One side must be a column of this table, the other a
        // row-independent expression.
        let (col, value_expr) = match (left.as_ref(), right.as_ref()) {
            (Expr::Column { table: t, name: n }, e) if is_row_independent(e) => {
                match resolve_local(binding, t.as_deref(), n, table) {
                    Some(pos) => (pos, e),
                    None => continue,
                }
            }
            (e, Expr::Column { table: t, name: n }) if is_row_independent(e) => {
                match resolve_local(binding, t.as_deref(), n, table) {
                    Some(pos) => (pos, e),
                    None => continue,
                }
            }
            _ => continue,
        };
        if table.find_index(&[col]).is_some() {
            return Some((col, value_expr));
        }
    }
    None
}

/// What one conjunct contributes to a single-column range. Bounds are
/// `(expr, inclusive)`.
enum RangeConstraint<'a> {
    Lower(&'a Expr, bool),
    Upper(&'a Expr, bool),
    Both((&'a Expr, bool), (&'a Expr, bool)),
}

fn range_conjunct<'a>(
    c: &'a Expr,
    binding: &str,
    table: &crate::storage::Table,
) -> Option<(usize, RangeConstraint<'a>)> {
    match c {
        Expr::Binary { left, op, right }
            if matches!(op, BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq) =>
        {
            // col <op> value
            if let Expr::Column { table: t, name: n } = left.as_ref() {
                if is_row_independent(right) {
                    let col = resolve_local(binding, t.as_deref(), n, table)?;
                    let rc = match op {
                        BinOp::Lt => RangeConstraint::Upper(right, false),
                        BinOp::LtEq => RangeConstraint::Upper(right, true),
                        BinOp::Gt => RangeConstraint::Lower(right, false),
                        BinOp::GtEq => RangeConstraint::Lower(right, true),
                        _ => unreachable!(),
                    };
                    return Some((col, rc));
                }
            }
            // value <op> col — same constraint with the sides flipped.
            if let Expr::Column { table: t, name: n } = right.as_ref() {
                if is_row_independent(left) {
                    let col = resolve_local(binding, t.as_deref(), n, table)?;
                    let rc = match op {
                        BinOp::Lt => RangeConstraint::Lower(left, false),
                        BinOp::LtEq => RangeConstraint::Lower(left, true),
                        BinOp::Gt => RangeConstraint::Upper(left, false),
                        BinOp::GtEq => RangeConstraint::Upper(left, true),
                        _ => unreachable!(),
                    };
                    return Some((col, rc));
                }
            }
            None
        }
        Expr::Between {
            expr,
            low,
            high,
            negated: false,
        } => {
            if let Expr::Column { table: t, name: n } = expr.as_ref() {
                if is_row_independent(low) && is_row_independent(high) {
                    let col = resolve_local(binding, t.as_deref(), n, table)?;
                    return Some((col, RangeConstraint::Both((low, true), (high, true))));
                }
            }
            None
        }
        _ => None,
    }
}

/// A resolved range-scan candidate: the indexed column plus at most one
/// lower and one upper bound taken from the conjuncts. Remaining
/// conjuncts (including further bounds on the same column) stay in the
/// residual WHERE, which always re-runs.
pub(crate) struct RangeSpec<'a> {
    pub col: usize,
    pub lower: Option<(&'a Expr, bool)>,
    pub upper: Option<(&'a Expr, bool)>,
}

/// First indexed column constrained by a range conjunct, with its first
/// lower and first upper bound. Deterministic — the plan compiler calls
/// this too and must agree with the interpreter on the access path.
pub(crate) fn find_range_candidate<'a>(
    conjuncts: &'a [Expr],
    binding: &str,
    table: &crate::storage::Table,
) -> Option<RangeSpec<'a>> {
    let mut target = None;
    for c in conjuncts {
        if let Some((col, _)) = range_conjunct(c, binding, table) {
            if table.find_index(&[col]).is_some() {
                target = Some(col);
                break;
            }
        }
    }
    let col = target?;
    let mut lower: Option<(&Expr, bool)> = None;
    let mut upper: Option<(&Expr, bool)> = None;
    for c in conjuncts {
        match range_conjunct(c, binding, table) {
            Some((c2, rc)) if c2 == col => match rc {
                RangeConstraint::Lower(e, inc) => {
                    if lower.is_none() {
                        lower = Some((e, inc));
                    }
                }
                RangeConstraint::Upper(e, inc) => {
                    if upper.is_none() {
                        upper = Some((e, inc));
                    }
                }
                RangeConstraint::Both(lo, hi) => {
                    if lower.is_none() {
                        lower = Some(lo);
                    }
                    if upper.is_none() {
                        upper = Some(hi);
                    }
                }
            },
            _ => {}
        }
    }
    Some(RangeSpec { col, lower, upper })
}

/// Cheap syntactic check: does the (single-item) ORDER BY name a column of
/// the scanned table directly? Used only to pick the walk direction — the
/// authoritative skip-sort decision re-resolves against the projection
/// (aliases can shadow source columns).
pub(crate) fn naive_order_hint(
    order_by: &[OrderItem],
    binding: &str,
    table: &crate::storage::Table,
) -> Option<(usize, bool)> {
    if order_by.len() != 1 {
        return None;
    }
    let item = &order_by[0];
    if let Expr::Column { table: t, name: n } = &item.expr {
        let col = resolve_local(binding, t.as_deref(), n, table)?;
        return Some((col, item.desc));
    }
    None
}

/// Does this ORDER BY item sort by exactly the given source column?
/// Mirrors [`bind_select`]'s ORDER BY resolution — ordinal literal, then
/// output alias, then source expression — so an alias shadowing a source
/// column is honored.
fn order_targets_column(
    expr: &Expr,
    out_columns: &[String],
    proj_exprs: &[Expr],
    schema: &RowSchema,
    col: usize,
) -> bool {
    let target = match expr {
        Expr::Literal(Value::Int(n)) => {
            if *n >= 1 && (*n as usize) <= proj_exprs.len() {
                &proj_exprs[*n as usize - 1]
            } else {
                return false;
            }
        }
        Expr::Column { table: None, name } => {
            match out_columns
                .iter()
                .position(|c| c.eq_ignore_ascii_case(name))
            {
                Some(i) => &proj_exprs[i],
                None => expr,
            }
        }
        e => e,
    };
    match target {
        Expr::Column { table, name } => schema.resolve(table.as_deref(), name).ok() == Some(col),
        _ => false,
    }
}

/// Does the expression avoid column references and aggregates (i.e. can
/// it be evaluated once per statement)? Subqueries are conservatively
/// rejected to keep the fast path cheap to test for.
fn is_row_independent(e: &Expr) -> bool {
    let mut independent = true;
    e.walk(&mut |node| {
        if matches!(
            node,
            Expr::Column { .. }
                | Expr::InSubquery { .. }
                | Expr::Exists { .. }
                | Expr::ScalarSubquery(_)
        ) {
            independent = false;
        }
        if let Expr::Function { name, .. } = node {
            if is_aggregate_name(name) || name == "NEXTVAL" {
                independent = false;
            }
        }
    });
    independent
}

fn resolve_local(
    binding: &str,
    qualifier: Option<&str>,
    column: &str,
    table: &crate::storage::Table,
) -> Option<usize> {
    if let Some(q) = qualifier {
        if !q.eq_ignore_ascii_case(binding) {
            return None;
        }
    }
    table.schema.col_index(column)
}

// ---------------------------------------------------------------- FROM / joins

fn build_from(from: &FromClause, ctx: &BoundCtx<'_>) -> SqlResult<Rows> {
    let mut left = scan_table_ref(&from.base, ctx)?;
    for join in &from.joins {
        let right = scan_table_ref(&join.table, ctx)?;
        left = join_rows(left, right, join, ctx)?;
    }
    Ok(left)
}

fn scan_table_ref(tref: &TableRef, ctx: &BoundCtx<'_>) -> SqlResult<Rows> {
    let catalog = ctx.catalog;
    match &tref.source {
        TableSource::Named(name) => {
            // Views shadow nothing: names are unique across tables and
            // views (enforced by DDL), so check views first.
            if catalog.has_view(name) {
                let view = catalog.view(name)?.clone();
                let rs = run_select(&ctx.view_expansion()?, &view.query)?;
                let binding = tref.binding_name().unwrap_or(name).to_string();
                let schema = RowSchema::new(
                    rs.columns
                        .iter()
                        .map(|c| (Some(binding.clone()), c.clone()))
                        .collect(),
                );
                return Ok(Rows {
                    schema,
                    rows: rs.rows.into_iter().map(Arc::new).collect(),
                });
            }
            let table = catalog.table(name)?;
            let binding = tref.binding_name().unwrap_or(name).to_string();
            let schema = RowSchema::new(
                table
                    .schema
                    .columns
                    .iter()
                    .map(|c| (Some(binding.clone()), c.name.clone()))
                    .collect(),
            );
            catalog.note_full_scan();
            // Arc clones: the scan shares stored rows, no deep copy.
            let rows: Vec<Arc<Row>> = table.scan(Some(ctx.snapshot)).map(Arc::clone).collect();
            catalog.note_full_scan_rows(rows.len() as u64);
            Ok(Rows { schema, rows })
        }
        TableSource::Subquery(sub) => {
            let rs = run_select(ctx, sub)?;
            let binding = tref
                .alias
                .clone()
                .expect("parser enforces derived-table alias");
            let schema = RowSchema::new(
                rs.columns
                    .iter()
                    .map(|c| (Some(binding.clone()), c.clone()))
                    .collect(),
            );
            Ok(Rows {
                schema,
                rows: rs.rows.into_iter().map(Arc::new).collect(),
            })
        }
    }
}

/// Split an `ON` conjunction into hashable equi-pairs and a residual.
/// Shared with the plan compiler, which reuses the exact same pair
/// extraction so compiled joins hash on the same keys the interpreter does.
pub(crate) fn split_equi_join(
    on: &Expr,
    left: &RowSchema,
    right: &RowSchema,
) -> (Vec<(usize, usize)>, Vec<Expr>) {
    let mut conjuncts = Vec::new();
    flatten_and(on, &mut conjuncts);
    let mut pairs = Vec::new();
    let mut residual = Vec::new();
    for c in conjuncts {
        if let Expr::Binary {
            left: a,
            op: BinOp::Eq,
            right: b,
        } = &c
        {
            if let (
                Expr::Column {
                    table: ta,
                    name: na,
                },
                Expr::Column {
                    table: tb,
                    name: nb,
                },
            ) = (a.as_ref(), b.as_ref())
            {
                let la = left.resolve(ta.as_deref(), na);
                let rb = right.resolve(tb.as_deref(), nb);
                if let (Ok(i), Ok(j)) = (la, rb) {
                    pairs.push((i, j));
                    continue;
                }
                let lb = left.resolve(tb.as_deref(), nb);
                let ra = right.resolve(ta.as_deref(), na);
                if let (Ok(i), Ok(j)) = (lb, ra) {
                    pairs.push((i, j));
                    continue;
                }
            }
        }
        residual.push(c);
    }
    (pairs, residual)
}

pub(crate) fn flatten_and(e: &Expr, out: &mut Vec<Expr>) {
    if let Expr::Binary {
        left,
        op: BinOp::And,
        right,
    } = e
    {
        flatten_and(left, out);
        flatten_and(right, out);
    } else {
        out.push(e.clone());
    }
}

fn join_rows(left: Rows, right: Rows, join: &Join, ctx: &BoundCtx<'_>) -> SqlResult<Rows> {
    // Combined schema: left columns then right columns.
    let mut schema = left.schema.clone();
    for (b, n) in right.schema.columns() {
        schema.push(b.clone(), n.clone());
    }

    let left_width = left.schema.len();
    let right_width = right.schema.len();

    let mut out = Vec::new();
    match join.kind {
        JoinKind::Cross => {
            for l in &left.rows {
                for r in &right.rows {
                    let mut row = Vec::with_capacity(left_width + right_width);
                    row.extend(l.iter().cloned());
                    row.extend(r.iter().cloned());
                    out.push(Arc::new(row));
                }
            }
        }
        JoinKind::Inner | JoinKind::Left | JoinKind::Right => {
            let on = join
                .on
                .as_ref()
                .expect("parser enforces ON for non-cross joins");
            let (pairs, residual) = split_equi_join(on, &left.schema, &right.schema);
            let residual: Vec<BoundExpr> = residual
                .iter()
                .map(|c| bind(c, &schema))
                .collect::<SqlResult<_>>()?;

            // Track which right rows matched (for RIGHT join padding).
            let mut right_matched = vec![false; right.rows.len()];

            // Build hash table on the right side when we have equi-pairs.
            // Keys borrow the right rows' values; probes borrow the left
            // row's — no per-row `Vec<Value>` key clones on either side.
            let hash: Option<HashMap<Vec<&Value>, Vec<usize>>> = if pairs.is_empty() {
                None
            } else {
                let mut h: HashMap<Vec<&Value>, Vec<usize>> = HashMap::new();
                for (ri, r) in right.rows.iter().enumerate() {
                    let key: Vec<&Value> = pairs.iter().map(|(_, j)| &r[*j]).collect();
                    if key.iter().any(|v| v.is_null()) {
                        continue; // NULL never equi-joins
                    }
                    h.entry(key).or_default().push(ri);
                }
                Some(h)
            };

            // Candidate list for the no-equi-pair nested loop, built once
            // instead of per outer row.
            let all_right: Vec<usize> = if hash.is_none() {
                (0..right.rows.len()).collect()
            } else {
                Vec::new()
            };
            let mut probe_key: Vec<&Value> = Vec::with_capacity(pairs.len());

            for l in &left.rows {
                let candidates: &[usize] = match &hash {
                    Some(h) => {
                        probe_key.clear();
                        probe_key.extend(pairs.iter().map(|(i, _)| &l[*i]));
                        if probe_key.iter().any(|v| v.is_null()) {
                            &[]
                        } else {
                            h.get(&probe_key).map(Vec::as_slice).unwrap_or(&[])
                        }
                    }
                    None => all_right.as_slice(),
                };
                let mut matched = false;
                for &ri in candidates {
                    let r = &right.rows[ri];
                    let mut row = Vec::with_capacity(left_width + right_width);
                    row.extend(l.iter().cloned());
                    row.extend(r.iter().cloned());
                    let ok = if residual.is_empty() && hash.is_some() {
                        true
                    } else {
                        let rc = BoundCtx {
                            row: Some(&row),
                            ..*ctx
                        };
                        let mut pass = true;
                        // With no equi-pairs the full ON is the residual set.
                        for cond in &residual {
                            if !eval_bound_predicate(cond, &rc)? {
                                pass = false;
                                break;
                            }
                        }
                        pass
                    };
                    if ok {
                        matched = true;
                        right_matched[ri] = true;
                        out.push(Arc::new(row));
                    }
                }
                if !matched && join.kind == JoinKind::Left {
                    let mut row: Vec<Value> = l.iter().cloned().collect();
                    row.extend(std::iter::repeat_n(Value::Null, right_width));
                    out.push(Arc::new(row));
                }
            }
            if join.kind == JoinKind::Right {
                for (ri, m) in right_matched.iter().enumerate() {
                    if !m {
                        let mut row: Vec<Value> =
                            std::iter::repeat_n(Value::Null, left_width).collect();
                        row.extend(right.rows[ri].iter().cloned());
                        out.push(Arc::new(row));
                    }
                }
            }
        }
    }
    Ok(Rows { schema, rows: out })
}

// ---------------------------------------------------------------- grouping

/// One aggregate call site found in the statement; [`bind_select`]
/// lowers each spec into a synthetic virtual-row column.
struct AggSpec {
    key: String,
    name: String,
    arg: Option<Expr>,
    distinct: bool,
}

fn collect_aggregates(stmt: &SelectStmt) -> Vec<AggSpec> {
    let mut specs: Vec<AggSpec> = Vec::new();
    let mut visit = |e: &Expr| {
        e.walk(&mut |node| {
            if let Expr::Function {
                name,
                args,
                distinct,
                star,
            } = node
            {
                if is_aggregate_name(name) {
                    let key = aggregate_key(node);
                    if specs.iter().any(|s| s.key == key) {
                        return;
                    }
                    let arg = if *star { None } else { args.first().cloned() };
                    specs.push(AggSpec {
                        key,
                        name: name.clone(),
                        arg,
                        distinct: *distinct,
                    });
                }
            }
        });
    };
    for p in &stmt.projections {
        if let SelectItem::Expr { expr, .. } = p {
            visit(expr);
        }
    }
    if let Some(h) = &stmt.having {
        visit(h);
    }
    for o in &stmt.order_by {
        visit(&o.expr);
    }
    specs
}

/// Does this statement aggregate? Any GROUP BY, or an aggregate call in
/// the projection, HAVING, or ORDER BY.
fn needs_grouping(stmt: &SelectStmt) -> bool {
    !stmt.group_by.is_empty()
        || stmt.projections.iter().any(|p| match p {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            _ => false,
        })
        || stmt.having.as_ref().is_some_and(|h| h.contains_aggregate())
        || stmt.order_by.iter().any(|o| o.expr.contains_aggregate())
}

/// The grouping half of a bound `SELECT`: GROUP BY keys over the source
/// row, and one aggregate spec per slot of the virtual row.
pub(crate) struct Grouping {
    pub(crate) group_by: Vec<BoundExpr>,
    pub(crate) specs: Vec<BoundAggSpec>,
}

/// Every row expression of one `SELECT` core, bound against the schema
/// of its FROM output. Shared by the interpreter, which reports a bind
/// error, and the plan compiler, which declines on one — so both run
/// exactly the same bound expressions.
pub(crate) struct BoundSelect {
    /// WHERE, over the source row.
    pub(crate) filter: Option<BoundExpr>,
    /// `Some` for grouped statements. HAVING, projections and ORDER BY
    /// keys then see the virtual row: the source row followed by one
    /// `#agg` slot per aggregate call site.
    pub(crate) grouping: Option<Grouping>,
    pub(crate) having: Option<BoundExpr>,
    pub(crate) columns: Vec<String>,
    /// The projection list with wildcards expanded, as written.
    pub(crate) proj_exprs: Vec<Expr>,
    pub(crate) projections: Vec<BoundExpr>,
    /// `(key source, descending)` per ORDER BY item.
    pub(crate) order: Vec<(OrderKey, bool)>,
}

impl BoundSelect {
    /// Does a scan that emits rows in `index_order` (`(col, desc)`)
    /// already serve the ORDER BY? Never for grouped statements.
    pub(crate) fn order_served(
        &self,
        stmt: &SelectStmt,
        schema: &RowSchema,
        index_order: Option<(usize, bool)>,
    ) -> bool {
        self.grouping.is_none()
            && stmt.order_by.len() == 1
            && index_order.is_some_and(|(col, rev)| {
                stmt.order_by[0].desc == rev
                    && order_targets_column(
                        &stmt.order_by[0].expr,
                        &self.columns,
                        &self.proj_exprs,
                        schema,
                        col,
                    )
            })
    }
}

/// Bind a `SELECT` core's row expressions against `schema`, in pipeline
/// order: WHERE, GROUP BY keys, aggregate arguments, HAVING, projection,
/// ORDER BY. Aggregate call sites are discovered in projection → HAVING
/// → ORDER BY order and deduplicated by [`aggregate_key`]; slot `i` of
/// the virtual row holds spec `i`. A nested aggregate or `*` under
/// anything but COUNT is a bind error.
///
/// ORDER BY items resolve as follows: an ordinal literal names an output
/// column (out of range is an error), a bare name matching an output
/// alias names that column, and anything else is an expression over the
/// (virtual) source row.
pub(crate) fn bind_select(stmt: &SelectStmt, schema: &RowSchema) -> SqlResult<BoundSelect> {
    let filter = stmt
        .where_clause
        .as_ref()
        .map(|w| bind(w, schema))
        .transpose()?;

    let mut grouping = None;
    let mut keys = Vec::new();
    if needs_grouping(stmt) {
        let group_by = stmt
            .group_by
            .iter()
            .map(|e| bind(e, schema))
            .collect::<SqlResult<_>>()?;
        let mut specs = Vec::new();
        for s in collect_aggregates(stmt) {
            let arg = match &s.arg {
                Some(e) => Some(bind(e, schema)?),
                None if s.name == "COUNT" => None,
                None => {
                    return Err(SqlError::Semantic(format!(
                        "{}(*) is only valid for COUNT",
                        s.name
                    )))
                }
            };
            keys.push(s.key);
            specs.push(BoundAggSpec {
                name: s.name,
                arg,
                distinct: s.distinct,
            });
        }
        grouping = Some(Grouping { group_by, specs });
    }

    // Without aggregates the virtual row is the source row itself.
    let virt_schema;
    let post_schema = if keys.is_empty() {
        schema
    } else {
        let mut cols = schema.columns().to_vec();
        cols.extend((0..keys.len()).map(|i| (Some(AGG_BINDING.to_string()), format!("#{i}"))));
        virt_schema = RowSchema::new(cols);
        &virt_schema
    };
    let bind_post = |e: &Expr| {
        if keys.is_empty() {
            bind(e, schema)
        } else {
            bind(&rewrite_aggs(e, &keys), post_schema)
        }
    };

    let having = stmt.having.as_ref().map(bind_post).transpose()?;
    let (columns, proj_exprs) = projection_plan(stmt, schema)?;
    let projections = proj_exprs
        .iter()
        .map(bind_post)
        .collect::<SqlResult<Vec<_>>>()?;

    let mut order = Vec::with_capacity(stmt.order_by.len());
    for item in &stmt.order_by {
        let key = match &item.expr {
            Expr::Literal(Value::Int(n)) => {
                if *n >= 1 && (*n as usize) <= columns.len() {
                    OrderKey::Output(*n as usize - 1)
                } else {
                    return Err(SqlError::Semantic(format!(
                        "ORDER BY ordinal {n} out of range"
                    )));
                }
            }
            Expr::Column { table: None, name } => {
                match columns.iter().position(|c| c.eq_ignore_ascii_case(name)) {
                    Some(i) => OrderKey::Output(i),
                    None => OrderKey::Row(bind_post(&item.expr)?),
                }
            }
            e => OrderKey::Row(bind_post(e)?),
        };
        order.push((key, item.desc));
    }

    Ok(BoundSelect {
        filter,
        grouping,
        having,
        columns,
        proj_exprs,
        projections,
        order,
    })
}

/// Replace every aggregate call site in `e` with a reference to its
/// synthetic column (`"#agg"."#<i>"`, where `i` is the spec's slot).
/// Call sites were deduplicated by [`aggregate_key`], so textually equal
/// aggregates share a slot. Subqueries are left untouched (their aggregates are their
/// own; the AST walk that collected specs does not descend either).
fn rewrite_aggs(e: &Expr, keys: &[String]) -> Expr {
    if let Expr::Function { name, .. } = e {
        if is_aggregate_name(name) {
            let key = aggregate_key(e);
            let i = keys
                .iter()
                .position(|k| *k == key)
                .expect("every aggregate call site was collected");
            return Expr::Column {
                table: Some(AGG_BINDING.to_string()),
                name: format!("#{i}"),
            };
        }
    }
    match e {
        Expr::Literal(_)
        | Expr::Column { .. }
        | Expr::Param(_)
        | Expr::NamedParam(_)
        | Expr::Exists { .. }
        | Expr::ScalarSubquery(_) => e.clone(),
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(rewrite_aggs(expr, keys)),
        },
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(rewrite_aggs(left, keys)),
            op: *op,
            right: Box::new(rewrite_aggs(right, keys)),
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(rewrite_aggs(expr, keys)),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(rewrite_aggs(expr, keys)),
            list: list.iter().map(|x| rewrite_aggs(x, keys)).collect(),
            negated: *negated,
        },
        Expr::InSubquery {
            expr,
            subquery,
            negated,
        } => Expr::InSubquery {
            expr: Box::new(rewrite_aggs(expr, keys)),
            subquery: subquery.clone(),
            negated: *negated,
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Expr::Between {
            expr: Box::new(rewrite_aggs(expr, keys)),
            low: Box::new(rewrite_aggs(low, keys)),
            high: Box::new(rewrite_aggs(high, keys)),
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(rewrite_aggs(expr, keys)),
            pattern: Box::new(rewrite_aggs(pattern, keys)),
            negated: *negated,
        },
        Expr::Case {
            operand,
            branches,
            else_branch,
        } => Expr::Case {
            operand: operand.as_ref().map(|o| Box::new(rewrite_aggs(o, keys))),
            branches: branches
                .iter()
                .map(|(w, t)| (rewrite_aggs(w, keys), rewrite_aggs(t, keys)))
                .collect(),
            else_branch: else_branch
                .as_ref()
                .map(|e| Box::new(rewrite_aggs(e, keys))),
        },
        Expr::Function {
            name,
            args,
            distinct,
            star,
        } => Expr::Function {
            name: name.clone(),
            args: args.iter().map(|a| rewrite_aggs(a, keys)).collect(),
            distinct: *distinct,
            star: *star,
        },
    }
}

/// Hash rows into groups by their GROUP BY key (a single global group
/// if there is none) and materialize one virtual row per group, in
/// first-seen order: the representative row (first member, or all-NULL
/// for the empty global group) followed by one slot per aggregate.
fn group_rows(
    grouping: &Grouping,
    rows: &[Arc<Row>],
    width: usize,
    ctx: &BoundCtx<'_>,
) -> SqlResult<Vec<Arc<Row>>> {
    let mut order: Vec<Vec<Value>> = Vec::new();
    let mut groups: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    for (i, row) in rows.iter().enumerate() {
        let rc = BoundCtx {
            row: Some(row),
            ..*ctx
        };
        let mut key = Vec::with_capacity(grouping.group_by.len());
        for g in &grouping.group_by {
            key.push(eval_bound(g, &rc)?);
        }
        if !groups.contains_key(&key) {
            order.push(key.clone());
        }
        groups.entry(key).or_default().push(i);
    }

    // No rows and no GROUP BY → one empty group (global aggregates).
    if groups.is_empty() && grouping.group_by.is_empty() {
        order.push(Vec::new());
        groups.insert(Vec::new(), Vec::new());
    }

    let mut out = Vec::with_capacity(order.len());
    for key in order {
        let members = &groups[&key];
        let mut aggs = Vec::with_capacity(grouping.specs.len());
        for spec in &grouping.specs {
            aggs.push(compute_aggregate(spec, members, rows, ctx)?);
        }
        let mut virt = match members.first() {
            Some(&i) => (*rows[i]).clone(),
            None => vec![Value::Null; width],
        };
        virt.extend(aggs);
        out.push(Arc::new(virt));
    }
    Ok(out)
}

fn compute_aggregate(
    spec: &BoundAggSpec,
    members: &[usize],
    rows: &[Arc<Row>],
    ctx: &BoundCtx<'_>,
) -> SqlResult<Value> {
    // COUNT(*) counts rows directly; binding rejected `*` elsewhere.
    let Some(arg) = &spec.arg else {
        return Ok(Value::Int(members.len() as i64));
    };
    let mut values = Vec::with_capacity(members.len());
    for &i in members {
        let rc = BoundCtx {
            row: Some(&rows[i]),
            ..*ctx
        };
        let v = eval_bound(arg, &rc)?;
        if !v.is_null() {
            values.push(v);
        }
    }
    combine_agg_values(&spec.name, &mut values, spec.distinct)
}

/// Fold a group's already-collected non-NULL argument values into one
/// aggregate result. Shared by the interpreter (above) and the batch
/// executor's hash aggregator — keeping the combine step single-sourced
/// is what makes their results byte-identical, including the
/// first-of-equals tie behavior of MIN and last-of-equals of MAX.
pub(crate) fn combine_agg_values(
    name: &str,
    values: &mut Vec<Value>,
    distinct: bool,
) -> SqlResult<Value> {
    if distinct {
        let mut seen = std::collections::HashSet::new();
        values.retain(|v| seen.insert(v.clone()));
    }

    match name {
        "COUNT" => Ok(Value::Int(values.len() as i64)),
        "SUM" | "AVG" => {
            if values.is_empty() {
                return Ok(Value::Null);
            }
            let all_int = values.iter().all(|v| matches!(v, Value::Int(_)));
            let mut total = 0f64;
            for v in values.iter() {
                total += v.as_f64().ok_or_else(|| {
                    SqlError::Semantic(format!("{name}() over non-numeric value"))
                })?;
            }
            if name == "AVG" {
                Ok(Value::Float(total / values.len() as f64))
            } else if all_int {
                Ok(Value::Int(total as i64))
            } else {
                Ok(Value::Float(total))
            }
        }
        "MIN" => Ok(values
            .iter()
            .min_by(|a, b| a.total_cmp(b))
            .cloned()
            .unwrap_or(Value::Null)),
        "MAX" => Ok(values
            .iter()
            .max_by(|a, b| a.total_cmp(b))
            .cloned()
            .unwrap_or(Value::Null)),
        other => Err(SqlError::Semantic(format!("unknown aggregate '{other}'"))),
    }
}

// ---------------------------------------------------------------- ordering

/// Compare two ORDER BY key vectors under per-key direction flags.
pub(crate) fn cmp_keys(ka: &[Value], kb: &[Value], descs: &[bool]) -> std::cmp::Ordering {
    for ((a, b), desc) in ka.iter().zip(kb).zip(descs) {
        let ord = a.total_cmp(b);
        let ord = if *desc { ord.reverse() } else { ord };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

/// Bounded top-K accumulator for `ORDER BY … LIMIT n`: keeps the `k`
/// smallest `(keys, seq)` entries under the ORDER BY comparator in a
/// max-heap, so each insertion costs O(log k) instead of sorting all `n`
/// rows. `seq` is the arrival position; using it as the final tiebreaker
/// makes the kept set and its order exactly what a stable full sort
/// followed by truncation would produce.
pub(crate) struct TopK {
    k: usize,
    descs: Vec<bool>,
    /// Max-heap: `heap[0]` is the largest kept entry.
    heap: Vec<(Vec<Value>, usize, Vec<Value>)>,
}

impl TopK {
    pub(crate) fn new(k: usize, descs: Vec<bool>) -> TopK {
        TopK {
            k,
            descs,
            heap: Vec::new(),
        }
    }

    fn cmp_entries(
        &self,
        a: &(Vec<Value>, usize, Vec<Value>),
        b: &(Vec<Value>, usize, Vec<Value>),
    ) -> std::cmp::Ordering {
        cmp_keys(&a.0, &b.0, &self.descs).then(a.1.cmp(&b.1))
    }

    pub(crate) fn push(&mut self, keys: Vec<Value>, seq: usize, row: Vec<Value>) {
        if self.k == 0 {
            return;
        }
        let entry = (keys, seq, row);
        if self.heap.len() < self.k {
            self.heap.push(entry);
            self.sift_up(self.heap.len() - 1);
        } else if self.cmp_entries(&entry, &self.heap[0]).is_lt() {
            self.heap[0] = entry;
            self.sift_down(0);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.cmp_entries(&self.heap[i], &self.heap[parent]).is_gt() {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let mut largest = i;
            for child in [2 * i + 1, 2 * i + 2] {
                if child < self.heap.len()
                    && self
                        .cmp_entries(&self.heap[child], &self.heap[largest])
                        .is_gt()
                {
                    largest = child;
                }
            }
            if largest == i {
                break;
            }
            self.heap.swap(i, largest);
            i = largest;
        }
    }

    /// The kept rows in final ORDER BY order.
    pub(crate) fn into_sorted_rows(self) -> Vec<Vec<Value>> {
        let descs = self.descs;
        let mut entries = self.heap;
        entries.sort_by(|a, b| cmp_keys(&a.0, &b.0, &descs).then(a.1.cmp(&b.1)));
        entries.into_iter().map(|(_, _, r)| r).collect()
    }
}
