//! Compiled statement plans.
//!
//! [`compile`] turns a parsed `SELECT`, `UPDATE`, or `DELETE` into a
//! [`CompiledPlan`]: the access path (point lookup, range walk,
//! whole-index walk, or full scan) chosen once, every expression bound
//! to row ordinals ([`BoundExpr`]) with constants folded, and the
//! projection / ORDER BY shape fixed. Executing a compiled plan skips
//! name resolution entirely — the per-row work is ordinal loads and
//! value operations.
//!
//! Compilation is best-effort and *must not change semantics*. The
//! expressions are bound by the same code the interpreter binds with
//! (`exec::select::bind_select`, [`bind_update`], [`bind_delete`]), so
//! both evaluate identical bound trees; what compilation adds is the
//! batch executor and its access paths. Anything the compiler does not
//! handle — views, derived tables, unions, subqueries under joins — and
//! any bind error yields [`CompiledPlan::Unsupported`], and the caller
//! falls back to the interpreter, which reports errors canonically. The
//! compiler chooses the access path with the *same* helper functions
//! the interpreter uses (`find_eq_candidate`, `find_range_candidate`,
//! `naive_order_hint`), so for any statement both executors emit rows in
//! the same order; the differential tests in `tests/plan_cache.rs` hold
//! them byte-identical. Compiled and interpreted `UPDATE`/`DELETE` run
//! one set of collect loops ([`run_update_plan`], [`run_delete_plan`]),
//! and every DML statement — `INSERT` included, whichever entry point
//! it came in through — applies through one loop, [`write_rows`].
//!
//! Plans are cached per statement, keyed by the catalog's schema
//! [`epoch`](crate::catalog::Catalog::epoch). Any DDL — including
//! `CREATE INDEX` / `DROP INDEX`, which silently change the best access
//! path — bumps the epoch and forces a re-bind on next execution.

use crate::ast::{
    BinOp, DeleteStmt, Expr, FromClause, JoinKind, OrderItem, SelectItem, SelectStmt, Statement,
    TableSource, UpdateStmt,
};
use crate::bound::{
    as_col_cmps, bind, eval_bound, eval_bound_predicate, infallible_predicate, BoundCtx, BoundExpr,
    OwnedColCmp,
};
use crate::catalog::Catalog;
use crate::error::{SqlError, SqlResult};
use crate::exec::select::{
    bind_select, find_eq_candidate, find_range_candidate, flatten_and, naive_order_hint,
    split_equi_join,
};
use crate::expr::RowSchema;
use crate::storage::{Row, RowId, Table};
use crate::sync::TableLock;
use crate::txn::{UndoLog, UndoOp};
use crate::types::Value;

/// Synthetic binding under which aggregate results appear in the virtual
/// row schema of an [`AggPlan`]. Contains `#`, which the parser cannot
/// produce in an identifier, so it can never capture a user column.
pub(crate) const AGG_BINDING: &str = "#agg";

/// How a compiled single-table `SELECT` reaches its rows.
#[derive(Debug)]
pub(crate) enum Access {
    /// Walk the whole table in rowid order.
    Full,
    /// Point lookup: `col = key` over a single-column index.
    IndexEq { col: usize, key: BoundExpr },
    /// Range walk over a single-column index. Bounds are
    /// `(expr, inclusive)`; `rev` walks the key order backwards.
    IndexRange {
        col: usize,
        lower: Option<(BoundExpr, bool)>,
        upper: Option<(BoundExpr, bool)>,
        rev: bool,
    },
    /// Whole-index walk taken purely for `ORDER BY` key order
    /// (NULL keys included in their sort position).
    IndexOrder { col: usize, desc: bool },
}

/// One base-table side of a compiled join: how to scan it and which
/// pushed-down conjuncts to apply while gathering. Pushing never removes
/// a conjunct from the WHERE clause or an ON residual — the prefilter is
/// purely an optimization, so the retained copies keep the output (and
/// its error positions) byte-identical to the interpreter's.
#[derive(Debug)]
pub(crate) struct JoinSide {
    /// Catalog table name, as written.
    pub(crate) table: String,
    /// Access path chosen from the pushed conjuncts (never `IndexOrder`:
    /// join sides are re-sorted to rowid order, so order is irrelevant
    /// and every key below is a plan constant).
    pub(crate) access: Access,
    /// Pushed conjuncts, column ordinals local to this side's schema.
    pub(crate) prefilter: Vec<OwnedColCmp>,
    /// Number of columns this side contributes to the combined row.
    pub(crate) width: usize,
}

/// One join step: combines the accumulated left rows (sides `0..=i`)
/// with side `i+1`. Pair extraction reuses the interpreter's
/// `split_equi_join`, so both executors hash on the same keys and
/// evaluate the same residual conjuncts in the same order.
#[derive(Debug)]
pub(crate) struct JoinStep {
    pub(crate) kind: JoinKind,
    /// `(ordinal in accumulated left row, ordinal local to the new side)`
    /// equi-key pairs; empty means nested loop over the full `ON`.
    pub(crate) pairs: Vec<(usize, usize)>,
    /// Non-equi `ON` conjuncts, bound against the combined row, in the
    /// interpreter's flatten order.
    pub(crate) residual: Vec<BoundExpr>,
    /// The new side has a single-column index on the lone equi-key, and
    /// the join kind allows probing it (INNER/LEFT): the executor may
    /// run this step as an index nested loop when the outer side is
    /// small. RIGHT would still need the full scan for its end pads.
    pub(crate) inl_eligible: bool,
    /// Width of the accumulated left row entering this step.
    pub(crate) left_width: usize,
}

/// A compiled multi-table `FROM`: base-table sides joined left-to-right.
#[derive(Debug)]
pub(crate) struct JoinPlan {
    /// `sides[0]` is the base table; `steps[i]` joins `sides[i + 1]`.
    pub(crate) sides: Vec<JoinSide>,
    /// Total conjuncts pushed into side scans (for `pushed_predicates`).
    pub(crate) pushed: u64,
    pub(crate) steps: Vec<JoinStep>,
}

/// Where a compiled `SELECT` gets its input rows: one base table scan,
/// or a chain of joins over base tables.
#[derive(Debug)]
pub(crate) enum InputPlan {
    Single { table: String, access: Access },
    Join(JoinPlan),
}

/// Where one ORDER BY sort key comes from, resolved at bind time: ordinal
/// literal → output column; bare name matching an output alias → output
/// column; anything else → expression over the source row.
#[derive(Debug)]
pub(crate) enum OrderKey {
    /// The already-projected output value at this position.
    Output(usize),
    /// An expression evaluated against the source row.
    Row(BoundExpr),
}

/// A compiled `SELECT` over one table or a join chain. Executed
/// batch-at-a-time by [`crate::exec::batch::run_select_batched`].
#[derive(Debug)]
pub struct SelectPlan {
    pub(crate) input: InputPlan,
    /// The full WHERE clause; always re-checked, so the access path is
    /// purely an optimization.
    pub(crate) filter: Option<BoundExpr>,
    pub(crate) columns: Vec<String>,
    pub(crate) projections: Vec<BoundExpr>,
    pub(crate) distinct: bool,
    /// `(key source, descending)` per ORDER BY item.
    pub(crate) order: Vec<(OrderKey, bool)>,
    /// Does the access path already emit rows in ORDER BY order?
    pub(crate) order_served: bool,
    pub(crate) limit: Option<BoundExpr>,
    pub(crate) offset: Option<BoundExpr>,
}

/// One aggregate call site, argument pre-bound against the base row.
/// `arg == None` encodes `COUNT(*)`; binding rejects `*` under any other
/// aggregate.
#[derive(Debug)]
pub(crate) struct BoundAggSpec {
    /// Upper-cased aggregate name (the parser canonicalizes case).
    pub(crate) name: String,
    pub(crate) arg: Option<BoundExpr>,
    pub(crate) distinct: bool,
}

/// A compiled single-table grouped `SELECT`, executed through the
/// one-pass hash aggregator in [`crate::exec::batch::run_agg_plan`].
///
/// Aggregate call sites in the projection / HAVING / ORDER BY are
/// rewritten at bind time into references to *synthetic columns*
/// appended after the base row: the executor materializes one virtual
/// row per group — representative base row values followed by one slot
/// per aggregate — and every downstream expression is bound against
/// that widened schema. The interpreter's grouping uses the same virtual
/// rows, bound by the same `bind_select`.
#[derive(Debug)]
pub struct AggPlan {
    pub(crate) input: InputPlan,
    pub(crate) filter: Option<BoundExpr>,
    /// GROUP BY key expressions over the base row.
    pub(crate) group_by: Vec<BoundExpr>,
    /// Aggregate call sites in the interpreter's discovery order
    /// (projections, then HAVING, then ORDER BY), deduplicated by call
    /// site; slot `i` of the virtual row tail holds spec `i`'s value.
    pub(crate) specs: Vec<BoundAggSpec>,
    /// Width of the base row; aggregate slots start here.
    pub(crate) base_width: usize,
    /// HAVING over the virtual row (aggregates already rewritten).
    pub(crate) having: Option<BoundExpr>,
    pub(crate) columns: Vec<String>,
    pub(crate) projections: Vec<BoundExpr>,
    pub(crate) distinct: bool,
    pub(crate) order: Vec<(OrderKey, bool)>,
    pub(crate) limit: Option<BoundExpr>,
    pub(crate) offset: Option<BoundExpr>,
}

/// A compiled `UPDATE`: filter plus `(column ordinal, value)` pairs.
#[derive(Debug)]
pub struct UpdatePlan {
    table: String,
    filter: Option<BoundExpr>,
    assignments: Vec<(usize, BoundExpr)>,
}

/// A compiled `DELETE`.
#[derive(Debug)]
pub struct DeletePlan {
    table: String,
    filter: Option<BoundExpr>,
}

/// The result of compiling one statement against one catalog epoch.
#[derive(Debug)]
pub enum CompiledPlan {
    /// Boxed: a `SelectPlan` is an order of magnitude larger than the
    /// other variants, and plans are built once then executed many times.
    Select(Box<SelectPlan>),
    /// Grouped/aggregating `SELECT`, run through the hash aggregator.
    Aggregate(Box<AggPlan>),
    Update(UpdatePlan),
    Delete(DeletePlan),
    /// Compilation declined; execute through the interpreter.
    Unsupported,
}

/// Compile a statement against the current catalog state. Never fails:
/// anything outside the compilable subset, or that fails to bind, is
/// `Unsupported`.
pub fn compile(catalog: &Catalog, stmt: &Statement) -> CompiledPlan {
    match stmt {
        Statement::Select(s) => compile_select(catalog, s).unwrap_or(CompiledPlan::Unsupported),
        Statement::Update(u) => compile_update(catalog, u).unwrap_or(CompiledPlan::Unsupported),
        Statement::Delete(d) => compile_delete(catalog, d).unwrap_or(CompiledPlan::Unsupported),
        _ => CompiledPlan::Unsupported,
    }
}

/// Row schema of a base-table scan: every column under the scan binding.
fn table_row_schema(table: &Table, binding: &str) -> RowSchema {
    RowSchema::new(
        table
            .schema
            .columns
            .iter()
            .map(|c| (Some(binding.to_string()), c.name.clone()))
            .collect(),
    )
}

fn bind_opt(expr: Option<&Expr>, schema: &RowSchema) -> SqlResult<Option<BoundExpr>> {
    expr.map(|e| bind(e, schema)).transpose()
}

/// Choose the access path exactly as the interpreter's `try_index_scan`
/// does — same candidate search over the same flattened conjunct list —
/// so both executors emit rows in the same physical order. Returns the
/// access plus `(col, desc)` when the path serves that key order.
/// `None` when a bound expression fails to bind (decline compilation).
fn choose_access(
    where_clause: Option<&Expr>,
    order_by: &[OrderItem],
    binding: &str,
    table: &Table,
    schema: &RowSchema,
) -> Option<(Access, Option<(usize, bool)>)> {
    let mut conjuncts = Vec::new();
    if let Some(pred) = where_clause {
        flatten_and(pred, &mut conjuncts);
    }
    let order_hint = naive_order_hint(order_by, binding, table);
    if let Some((col, value_expr)) = find_eq_candidate(&conjuncts, binding, table) {
        let key = bind(value_expr, schema).ok()?;
        Some((Access::IndexEq { col, key }, None))
    } else if let Some(spec) = find_range_candidate(&conjuncts, binding, table) {
        let rev = order_hint.is_some_and(|(c, desc)| c == spec.col && desc);
        let bind_bound = |b: Option<(&Expr, bool)>| match b {
            Some((e, inc)) => bind(e, schema).ok().map(|be| Some((be, inc))),
            None => Some(None),
        };
        Some((
            Access::IndexRange {
                col: spec.col,
                lower: bind_bound(spec.lower)?,
                upper: bind_bound(spec.upper)?,
                rev,
            },
            Some((spec.col, rev)),
        ))
    } else if let Some((col, desc)) =
        order_hint.filter(|(col, _)| table.find_index(&[*col]).is_some())
    {
        Some((Access::IndexOrder { col, desc }, Some((col, desc))))
    } else {
        Some((Access::Full, None))
    }
}

/// Does any expression position of this statement run a subquery?
/// Compiled joins hold several table guards at once; a subquery would
/// re-enter the executor (and the catalog's table map) under those
/// guards, so join compilation declines the whole statement instead.
fn stmt_contains_subquery(stmt: &SelectStmt) -> bool {
    stmt.projections.iter().any(|p| match p {
        SelectItem::Expr { expr, .. } => expr.contains_subquery(),
        _ => false,
    }) || stmt
        .where_clause
        .as_ref()
        .is_some_and(Expr::contains_subquery)
        || stmt.group_by.iter().any(Expr::contains_subquery)
        || stmt.having.as_ref().is_some_and(Expr::contains_subquery)
        || stmt.order_by.iter().any(|o| o.expr.contains_subquery())
        || stmt.limit.as_ref().is_some_and(Expr::contains_subquery)
        || stmt.offset.as_ref().is_some_and(Expr::contains_subquery)
        || stmt.from.as_ref().is_some_and(|f| {
            f.joins
                .iter()
                .any(|j| j.on.as_ref().is_some_and(Expr::contains_subquery))
        })
}

/// A compiled FROM clause: the input plan, the combined row schema
/// every downstream expression binds against, and the single-table
/// index-order hint (`(col, desc)`) consumed by the `order_served`
/// check — join inputs never serve an order.
type CompiledInput = (InputPlan, RowSchema, Option<(usize, bool)>);

/// Compile the FROM clause into an input plan plus the combined row
/// schema every downstream expression binds against.
fn compile_input(catalog: &Catalog, stmt: &SelectStmt, from: &FromClause) -> Option<CompiledInput> {
    let TableSource::Named(name) = &from.base.source else {
        return None;
    };
    if catalog.has_view(name) {
        return None;
    }
    if from.joins.is_empty() {
        let table = catalog.table(name).ok()?;
        let binding = from.base.binding_name().unwrap_or(name).to_string();
        let schema = table_row_schema(&table, &binding);
        let (access, index_order) = choose_access(
            stmt.where_clause.as_ref(),
            &stmt.order_by,
            &binding,
            &table,
            &schema,
        )?;
        return Some((
            InputPlan::Single {
                table: name.clone(),
                access,
            },
            schema,
            index_order,
        ));
    }
    let (join, schema) = compile_join(catalog, stmt, from)?;
    Some((InputPlan::Join(join), schema, None))
}

/// The side whose column range contains every cmp ordinal, if exactly
/// one side does. Ordinals are in combined-row space here; the caller
/// rebases them to the side's local schema when pushing.
fn side_of(cmps: &[OwnedColCmp], offsets: &[usize], widths: &[usize]) -> Option<usize> {
    let first = cmps.first()?.col;
    let s = offsets.partition_point(|o| *o <= first) - 1;
    cmps.iter()
        .all(|c| c.col >= offsets[s] && c.col < offsets[s] + widths[s])
        .then_some(s)
}

/// Choose a join side's access path from its pushed conjuncts. Join
/// sides are re-sorted to rowid order after gathering, so unlike the
/// single-table chooser this one owes the interpreter no particular
/// physical order — any index that serves part of the prefilter is fair
/// game (the full prefilter still runs over whatever the index yields).
/// Keys are plan constants, so the scan itself can never raise an
/// evaluation error the interpreter would not.
fn access_from_cmps(table: &Table, cmps: &[OwnedColCmp]) -> Access {
    for c in cmps {
        if c.op == BinOp::Eq && table.find_index(&[c.col]).is_some() {
            return Access::IndexEq {
                col: c.col,
                key: BoundExpr::Const(c.key.clone()),
            };
        }
    }
    for c in cmps {
        if !matches!(c.op, BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq)
            || table.find_index(&[c.col]).is_none()
        {
            continue;
        }
        let mut lower = None;
        let mut upper = None;
        for c2 in cmps.iter().filter(|c2| c2.col == c.col) {
            let bound = Some((
                BoundExpr::Const(c2.key.clone()),
                matches!(c2.op, BinOp::LtEq | BinOp::GtEq),
            ));
            match c2.op {
                BinOp::Gt | BinOp::GtEq if lower.is_none() => lower = bound,
                BinOp::Lt | BinOp::LtEq if upper.is_none() => upper = bound,
                _ => {}
            }
        }
        return Access::IndexRange {
            col: c.col,
            lower,
            upper,
            rev: false,
        };
    }
    Access::Full
}

/// Compile a joined FROM clause. Declines (→ interpreter) on views or
/// derived tables anywhere, subqueries in any expression position, bind
/// failures, and LEFT/RIGHT joins with no equi-pairs (nested-loop outer
/// padding stays interpreter-canonical).
///
/// Pushdown analysis: a WHERE or residual-ON conjunct of the
/// `column <cmp> constant` family whose columns land in exactly one side
/// may run as that side's scan prefilter — WHERE conjuncts into any
/// side, an ON conjunct of step `i` into the step's new side only for
/// INNER/LEFT (a RIGHT join must still end-pad the rows it would have
/// removed) and into a left-part side only for INNER/RIGHT (mirror
/// argument). Nothing is ever *removed* from the WHERE or a residual,
/// and no conjunct is pushed unless the whole WHERE and every residual
/// are structurally infallible, so the engines cannot diverge on output
/// rows or on which row surfaces an evaluation error first.
fn compile_join(
    catalog: &Catalog,
    stmt: &SelectStmt,
    from: &FromClause,
) -> Option<(JoinPlan, RowSchema)> {
    if stmt_contains_subquery(stmt) {
        return None;
    }

    // Every side must be a named base table.
    let mut refs = vec![&from.base];
    refs.extend(from.joins.iter().map(|j| &j.table));
    let mut names: Vec<String> = Vec::with_capacity(refs.len());
    let mut side_schemas: Vec<RowSchema> = Vec::with_capacity(refs.len());
    for r in &refs {
        let TableSource::Named(n) = &r.source else {
            return None;
        };
        if catalog.has_view(n) {
            return None;
        }
        let table = catalog.table(n).ok()?;
        side_schemas.push(table_row_schema(&table, r.binding_name().unwrap_or(n)));
        names.push(n.clone());
    }
    let widths: Vec<usize> = side_schemas.iter().map(RowSchema::len).collect();
    let mut offsets = Vec::with_capacity(widths.len());
    let mut acc = 0usize;
    for w in &widths {
        offsets.push(acc);
        acc += w;
    }

    // Accumulated prefix schemas: `prefixes[i]` covers sides `0..=i`,
    // matching the interpreter's left schema entering step `i`. Step
    // `i`'s expressions bind against `prefixes[i + 1]`; a prefix is a
    // prefix of the combined schema, so ordinals agree everywhere.
    let mut prefixes: Vec<RowSchema> = Vec::with_capacity(side_schemas.len());
    let mut cols: Vec<(Option<String>, String)> = Vec::new();
    for s in &side_schemas {
        cols.extend(s.columns().iter().cloned());
        prefixes.push(RowSchema::new(cols.clone()));
    }
    let schema = prefixes.last()?.clone();

    let mut steps = Vec::with_capacity(from.joins.len());
    for (i, j) in from.joins.iter().enumerate() {
        let (pairs, residual_ast) = match (j.kind, &j.on) {
            (JoinKind::Cross, _) => (Vec::new(), Vec::new()),
            (_, Some(on)) => split_equi_join(on, &prefixes[i], &side_schemas[i + 1]),
            (_, None) => return None, // parser enforces ON for non-cross
        };
        if pairs.is_empty() && matches!(j.kind, JoinKind::Left | JoinKind::Right) {
            return None;
        }
        let residual: Vec<BoundExpr> = residual_ast
            .iter()
            .map(|e| bind(e, &prefixes[i + 1]))
            .collect::<SqlResult<_>>()
            .ok()?;
        steps.push(JoinStep {
            kind: j.kind,
            // Index presence for INL is checked below, guard in hand.
            inl_eligible: matches!(j.kind, JoinKind::Inner | JoinKind::Left) && pairs.len() == 1,
            pairs,
            residual,
            left_width: offsets[i + 1],
        });
    }

    // Pushdown gate: pushing changes which intermediate rows exist, so
    // evaluation errors must be impossible everywhere they could surface
    // differently — the whole WHERE and every step's residual.
    let mut where_conjs: Vec<Expr> = Vec::new();
    if let Some(w) = &stmt.where_clause {
        flatten_and(w, &mut where_conjs);
    }
    let bound_where: Vec<BoundExpr> = where_conjs
        .iter()
        .map(|e| bind(e, &schema))
        .collect::<SqlResult<_>>()
        .ok()?;
    let pushdown_ok = bound_where.iter().all(infallible_predicate)
        && steps
            .iter()
            .flat_map(|s| s.residual.iter())
            .all(infallible_predicate);

    let mut prefilters: Vec<Vec<OwnedColCmp>> = vec![Vec::new(); names.len()];
    let mut pushed = 0u64;
    if pushdown_ok {
        for b in &bound_where {
            let Some(cmps) = as_col_cmps(b) else { continue };
            let Some(s) = side_of(&cmps, &offsets, &widths) else {
                continue;
            };
            pushed += 1;
            for mut c in cmps {
                c.col -= offsets[s];
                prefilters[s].push(c);
            }
        }
        for (i, step) in steps.iter().enumerate() {
            for b in &step.residual {
                let Some(cmps) = as_col_cmps(b) else { continue };
                let Some(s) = side_of(&cmps, &offsets, &widths) else {
                    continue;
                };
                let allowed = if s == i + 1 {
                    matches!(step.kind, JoinKind::Inner | JoinKind::Left)
                } else {
                    matches!(step.kind, JoinKind::Inner | JoinKind::Right)
                };
                if !allowed {
                    continue;
                }
                pushed += 1;
                for mut c in cmps {
                    c.col -= offsets[s];
                    prefilters[s].push(c);
                }
            }
        }
    }

    let mut sides = Vec::with_capacity(names.len());
    for (s, n) in names.iter().enumerate() {
        let table = catalog.table(n).ok()?;
        if s > 0 {
            let step = &mut steps[s - 1];
            if step.inl_eligible {
                step.inl_eligible = step
                    .pairs
                    .first()
                    .is_some_and(|(_, rc)| table.find_index(&[*rc]).is_some());
            }
        }
        sides.push(JoinSide {
            table: n.clone(),
            access: access_from_cmps(&table, &prefilters[s]),
            prefilter: std::mem::take(&mut prefilters[s]),
            width: widths[s],
        });
    }

    Some((
        JoinPlan {
            sides,
            pushed,
            steps,
        },
        schema,
    ))
}

fn compile_select(catalog: &Catalog, stmt: &SelectStmt) -> Option<CompiledPlan> {
    // The compilable subset: base tables (one, or a join chain), no set
    // operations.
    if !stmt.unions.is_empty() {
        return None;
    }
    let from = stmt.from.as_ref()?;
    let (input, schema, index_order) = compile_input(catalog, stmt, from)?;
    let bound = bind_select(stmt, &schema).ok()?;

    // LIMIT/OFFSET are row-independent; bind against the empty schema.
    let empty = RowSchema::empty();
    let limit = bind_opt(stmt.limit.as_ref(), &empty).ok()?;
    let offset = bind_opt(stmt.offset.as_ref(), &empty).ok()?;

    // Grouped statements run through the hash aggregator. (Access-path
    // choice is shared with the plain select, so group first-seen order
    // matches the interpreter's row arrival order.)
    if let Some(grouping) = bound.grouping {
        return Some(CompiledPlan::Aggregate(Box::new(AggPlan {
            input,
            filter: bound.filter,
            group_by: grouping.group_by,
            specs: grouping.specs,
            base_width: schema.len(),
            having: bound.having,
            columns: bound.columns,
            projections: bound.projections,
            distinct: stmt.distinct,
            order: bound.order,
            limit,
            offset,
        })));
    }
    // HAVING without grouping: rare and interpreter-defined; decline.
    if bound.having.is_some() {
        return None;
    }
    let order_served = bound.order_served(stmt, &schema, index_order);
    Some(CompiledPlan::Select(Box::new(SelectPlan {
        input,
        filter: bound.filter,
        columns: bound.columns,
        projections: bound.projections,
        distinct: stmt.distinct,
        order: bound.order,
        order_served,
        limit,
        offset,
    })))
}

fn compile_update(catalog: &Catalog, stmt: &UpdateStmt) -> Option<CompiledPlan> {
    let table = catalog.table(&stmt.table).ok()?;
    bind_update(&table, stmt).ok().map(CompiledPlan::Update)
}

fn compile_delete(catalog: &Catalog, stmt: &DeleteStmt) -> Option<CompiledPlan> {
    let table = catalog.table(&stmt.table).ok()?;
    bind_delete(&table, stmt).ok().map(CompiledPlan::Delete)
}

/// Bind an `UPDATE` against its target table: SET columns first, then
/// the WHERE clause, then the assigned values. Expressions see the scan
/// under the table's declared name.
pub(crate) fn bind_update(table: &Table, stmt: &UpdateStmt) -> SqlResult<UpdatePlan> {
    let schema = table_row_schema(table, &table.schema.name);
    let positions = stmt
        .assignments
        .iter()
        .map(|(col, _)| table.schema.resolve(col))
        .collect::<SqlResult<Vec<_>>>()?;
    let filter = bind_opt(stmt.where_clause.as_ref(), &schema)?;
    let mut assignments = Vec::with_capacity(positions.len());
    for (pos, (_, e)) in positions.into_iter().zip(&stmt.assignments) {
        assignments.push((pos, bind(e, &schema)?));
    }
    Ok(UpdatePlan {
        table: stmt.table.clone(),
        filter,
        assignments,
    })
}

/// Bind a `DELETE` against its target table.
pub(crate) fn bind_delete(table: &Table, stmt: &DeleteStmt) -> SqlResult<DeletePlan> {
    let schema = table_row_schema(table, &table.schema.name);
    Ok(DeletePlan {
        table: stmt.table.clone(),
        filter: bind_opt(stmt.where_clause.as_ref(), &schema)?,
    })
}

// ---------------------------------------------------------------- execution

/// Bound-evaluation tally for one statement, flushed to the catalog's
/// `bound_evals` counter in one atomic add at the end.
pub(crate) struct Evals(pub(crate) u64);

impl Evals {
    pub(crate) fn eval(&mut self, e: &BoundExpr, ctx: &BoundCtx<'_>) -> SqlResult<Value> {
        self.0 += 1;
        eval_bound(e, ctx)
    }

    pub(crate) fn pred(&mut self, e: &BoundExpr, ctx: &BoundCtx<'_>) -> SqlResult<bool> {
        self.0 += 1;
        eval_bound_predicate(e, ctx)
    }
}

pub(crate) fn bound_usize(
    e: &BoundExpr,
    ctx: &BoundCtx<'_>,
    evals: &mut Evals,
    what: &str,
) -> SqlResult<usize> {
    match evals.eval(e, ctx)? {
        Value::Int(n) if n >= 0 => Ok(n as usize),
        other => Err(SqlError::Semantic(format!(
            "{what} must be a non-negative integer, got {other:?}"
        ))),
    }
}

// Compiled `SELECT` execution lives in [`crate::exec::batch`]: both the
// plain plan (`run_select_batched`) and the aggregate plan
// (`run_agg_plan`) run batch-at-a-time over borrowed storage rows.

/// One row change a DML statement's collect phase decided on.
pub(crate) enum RowChange {
    Insert(Row),
    Update(RowId, Row),
    Delete(RowId),
}

/// Run a DML statement's two phases against `table`. `collect` decides
/// the row changes, reading the table (if it needs to) under a shared
/// guard — subqueries may re-read this very table, or read others —
/// against an immutable view, so an `UPDATE` never matches its own
/// output (the Halloween problem). The changes then apply under the
/// exclusive guard, each recording its undo entry for statement
/// atomicity. The guard gap is harmless: the caller holds the table's
/// statement mutex (or the exclusive catalog-shape lock), so no other
/// writer slips in between, and readers cannot see the new versions
/// until the statement's stamp commits. This is the apply loop of every
/// `INSERT`, `UPDATE` and `DELETE`.
pub(crate) fn write_rows(
    ctx: &BoundCtx<'_>,
    table: &str,
    undo: &mut UndoLog,
    collect: impl FnOnce(&TableLock<Table>, &mut Evals) -> SqlResult<Vec<RowChange>>,
) -> SqlResult<usize> {
    let catalog = ctx.catalog;
    let snap = Some(ctx.snapshot);
    let lock = catalog.table_lock(table)?;
    let mut evals = Evals(0);
    let changes = collect(lock, &mut evals)?;
    let mut t = lock.write();
    let n = changes.len();
    for change in changes {
        let name = t.schema.name.clone();
        undo.record(match change {
            RowChange::Insert(row) => UndoOp::Insert {
                row_id: t.insert(snap, row)?,
                table: name,
            },
            RowChange::Update(row_id, row) => UndoOp::Update {
                old: t.update(snap, row_id, row)?,
                table: name,
                row_id,
            },
            RowChange::Delete(row_id) => UndoOp::Delete {
                row: t.delete(snap, row_id)?,
                table: name,
                row_id,
            },
        });
        catalog.fault_row_applied()?;
    }
    drop(t);
    catalog.note_bound_evals(evals.0);
    Ok(n)
}

/// Collect phase of a compiled `UPDATE`: evaluate filter + assignments
/// for every matching row.
fn collect_update(
    ctx: &BoundCtx<'_>,
    table: &Table,
    plan: &UpdatePlan,
    evals: &mut Evals,
) -> SqlResult<Vec<RowChange>> {
    let mut changes = Vec::new();
    let mut walked = 0u64;
    for (id, row) in table.iter(Some(ctx.snapshot)) {
        walked += 1;
        let rc = BoundCtx {
            row: Some(row),
            ..*ctx
        };
        let hit = match &plan.filter {
            Some(pred) => evals.pred(pred, &rc)?,
            None => true,
        };
        if !hit {
            continue;
        }
        let mut new_row = (**row).clone();
        for (pos, e) in &plan.assignments {
            new_row[*pos] = evals.eval(e, &rc)?;
        }
        changes.push(RowChange::Update(id, new_row));
    }
    ctx.catalog.note_full_scan_rows(walked);
    Ok(changes)
}

/// Execute a bound `UPDATE` (see [`write_rows`]).
pub fn run_update_plan(
    ctx: &BoundCtx<'_>,
    plan: &UpdatePlan,
    undo: &mut UndoLog,
) -> SqlResult<usize> {
    write_rows(ctx, &plan.table, undo, |table, evals| {
        collect_update(ctx, &table.read(), plan, evals)
    })
}

/// Collect phase of a compiled `DELETE`: every matching row's id.
fn collect_delete(
    ctx: &BoundCtx<'_>,
    table: &Table,
    plan: &DeletePlan,
    evals: &mut Evals,
) -> SqlResult<Vec<RowChange>> {
    let mut out = Vec::new();
    let mut walked = 0u64;
    for (id, row) in table.iter(Some(ctx.snapshot)) {
        walked += 1;
        let hit = match &plan.filter {
            Some(pred) => {
                let rc = BoundCtx {
                    row: Some(row),
                    ..*ctx
                };
                evals.pred(pred, &rc)?
            }
            None => true,
        };
        if hit {
            out.push(RowChange::Delete(id));
        }
    }
    ctx.catalog.note_full_scan_rows(walked);
    Ok(out)
}

/// Execute a bound `DELETE` (see [`write_rows`]).
pub fn run_delete_plan(
    ctx: &BoundCtx<'_>,
    plan: &DeletePlan,
    undo: &mut UndoLog,
) -> SqlResult<usize> {
    write_rows(ctx, &plan.table, undo, |table, evals| {
        collect_delete(ctx, &table.read(), plan, evals)
    })
}
