//! Abstract syntax tree for the SQL dialect understood by `sqlkernel`.

use crate::types::{DataType, Value};

/// A complete SQL statement.
///
/// Statements are parsed once and moved around behind `Prepared` handles,
/// so the size spread across variants is acceptable.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)]
pub enum Statement {
    Select(SelectStmt),
    Insert(InsertStmt),
    Update(UpdateStmt),
    Delete(DeleteStmt),
    CreateTable(CreateTableStmt),
    DropTable {
        name: String,
        if_exists: bool,
    },
    CreateIndex {
        name: String,
        table: String,
        columns: Vec<String>,
        unique: bool,
        if_not_exists: bool,
    },
    DropIndex {
        name: String,
        if_exists: bool,
    },
    CreateSequence {
        name: String,
        start: i64,
        increment: i64,
        if_not_exists: bool,
    },
    DropSequence {
        name: String,
        if_exists: bool,
    },
    CreateProcedure(CreateProcedureStmt),
    DropProcedure {
        name: String,
        if_exists: bool,
    },
    /// `CREATE VIEW name AS SELECT …`.
    CreateView {
        name: String,
        if_not_exists: bool,
        query: Box<SelectStmt>,
    },
    DropView {
        name: String,
        if_exists: bool,
    },
    /// `CALL proc(arg, …)`.
    Call {
        name: String,
        args: Vec<Expr>,
    },
    Begin,
    Commit,
    Rollback,
}

impl Statement {
    /// Does executing this statement produce a result grid?
    pub fn returns_rows(&self) -> bool {
        matches!(self, Statement::Select(_) | Statement::Call { .. })
    }

    /// Statement verb, for audit trails and error messages.
    pub fn verb(&self) -> &'static str {
        match self {
            Statement::Select(_) => "SELECT",
            Statement::Insert(_) => "INSERT",
            Statement::Update(_) => "UPDATE",
            Statement::Delete(_) => "DELETE",
            Statement::CreateTable(_) => "CREATE TABLE",
            Statement::DropTable { .. } => "DROP TABLE",
            Statement::CreateIndex { .. } => "CREATE INDEX",
            Statement::DropIndex { .. } => "DROP INDEX",
            Statement::CreateSequence { .. } => "CREATE SEQUENCE",
            Statement::DropSequence { .. } => "DROP SEQUENCE",
            Statement::CreateProcedure(_) => "CREATE PROCEDURE",
            Statement::DropProcedure { .. } => "DROP PROCEDURE",
            Statement::CreateView { .. } => "CREATE VIEW",
            Statement::DropView { .. } => "DROP VIEW",
            Statement::Call { .. } => "CALL",
            Statement::Begin => "BEGIN",
            Statement::Commit => "COMMIT",
            Statement::Rollback => "ROLLBACK",
        }
    }

    /// The table an `INSERT`, `UPDATE`, or `DELETE` writes; `None` for
    /// every other statement.
    pub fn dml_table(&self) -> Option<&str> {
        match self {
            Statement::Insert(s) => Some(&s.table),
            Statement::Update(s) => Some(&s.table),
            Statement::Delete(s) => Some(&s.table),
            _ => None,
        }
    }

    /// Is this a Data Definition Language statement? The BIS *Data Setup
    /// Pattern* probe uses this classification.
    pub fn is_ddl(&self) -> bool {
        matches!(
            self,
            Statement::CreateTable(_)
                | Statement::DropTable { .. }
                | Statement::CreateIndex { .. }
                | Statement::DropIndex { .. }
                | Statement::CreateSequence { .. }
                | Statement::DropSequence { .. }
                | Statement::CreateProcedure(_)
                | Statement::DropProcedure { .. }
                | Statement::CreateView { .. }
                | Statement::DropView { .. }
        )
    }

    /// Lowercased names of catalog objects (tables, views, sequences,
    /// procedures) this statement reads or writes, including those reached
    /// through subqueries, `UNION` arms, and `NEXTVAL('seq')` calls. The
    /// statement cache keys eviction on these names: when DDL touches an
    /// object, every cached plan that mentions it is dropped.
    pub fn referenced_objects(&self) -> Vec<String> {
        let mut out = Vec::new();
        collect_statement_objects(self, &mut out);
        out.sort();
        out.dedup();
        out
    }

    /// Lowercased names of catalog objects this statement creates or
    /// drops. For index DDL the owning table is included too, so plans
    /// over that table are re-planned against the new access paths.
    pub fn ddl_targets(&self) -> Vec<String> {
        let mut out: Vec<String> = match self {
            Statement::CreateTable(c) => vec![c.name.clone()],
            Statement::DropTable { name, .. }
            | Statement::DropIndex { name, .. }
            | Statement::CreateSequence { name, .. }
            | Statement::DropSequence { name, .. }
            | Statement::DropProcedure { name, .. }
            | Statement::CreateView { name, .. }
            | Statement::DropView { name, .. } => vec![name.clone()],
            Statement::CreateIndex { name, table, .. } => {
                vec![name.clone(), table.clone()]
            }
            Statement::CreateProcedure(p) => {
                // Creating a procedure shadows nothing, but its body's DDL
                // targets matter when the procedure itself runs; the CALL
                // path asks for those separately. Here only the name.
                vec![p.name.clone()]
            }
            _ => Vec::new(),
        };
        for n in &mut out {
            n.make_ascii_lowercase();
        }
        out
    }
}

fn collect_statement_objects(stmt: &Statement, out: &mut Vec<String>) {
    match stmt {
        Statement::Select(s) => collect_select_objects(s, out),
        Statement::Insert(s) => {
            out.push(s.table.to_ascii_lowercase());
            match &s.source {
                InsertSource::Values(rows) => {
                    for row in rows {
                        for e in row {
                            collect_expr_objects(e, out);
                        }
                    }
                }
                InsertSource::Select(sel) => collect_select_objects(sel, out),
            }
        }
        Statement::Update(s) => {
            out.push(s.table.to_ascii_lowercase());
            for (_, e) in &s.assignments {
                collect_expr_objects(e, out);
            }
            if let Some(w) = &s.where_clause {
                collect_expr_objects(w, out);
            }
        }
        Statement::Delete(s) => {
            out.push(s.table.to_ascii_lowercase());
            if let Some(w) = &s.where_clause {
                collect_expr_objects(w, out);
            }
        }
        Statement::Call { name, args } => {
            out.push(name.to_ascii_lowercase());
            for a in args {
                collect_expr_objects(a, out);
            }
        }
        Statement::CreateView { query, .. } => collect_select_objects(query, out),
        Statement::CreateProcedure(p) => {
            for s in &p.body {
                collect_statement_objects(s, out);
            }
        }
        // DDL and transaction control reference only their own targets.
        other => out.extend(other.ddl_targets()),
    }
}

fn collect_select_objects(stmt: &SelectStmt, out: &mut Vec<String>) {
    if let Some(from) = &stmt.from {
        collect_table_ref_objects(&from.base, out);
        for join in &from.joins {
            collect_table_ref_objects(&join.table, out);
            if let Some(on) = &join.on {
                collect_expr_objects(on, out);
            }
        }
    }
    for item in &stmt.projections {
        if let SelectItem::Expr { expr, .. } = item {
            collect_expr_objects(expr, out);
        }
    }
    if let Some(w) = &stmt.where_clause {
        collect_expr_objects(w, out);
    }
    for g in &stmt.group_by {
        collect_expr_objects(g, out);
    }
    if let Some(h) = &stmt.having {
        collect_expr_objects(h, out);
    }
    for arm in &stmt.unions {
        collect_select_objects(&arm.select, out);
    }
    for o in &stmt.order_by {
        collect_expr_objects(&o.expr, out);
    }
    if let Some(l) = &stmt.limit {
        collect_expr_objects(l, out);
    }
    if let Some(o) = &stmt.offset {
        collect_expr_objects(o, out);
    }
}

fn collect_table_ref_objects(tref: &TableRef, out: &mut Vec<String>) {
    match &tref.source {
        TableSource::Named(n) => out.push(n.to_ascii_lowercase()),
        TableSource::Subquery(sub) => collect_select_objects(sub, out),
    }
}

fn collect_expr_objects(e: &Expr, out: &mut Vec<String>) {
    // `Expr::walk` deliberately does not descend into subqueries, so
    // handle those variants here and recurse into their SELECT bodies.
    e.walk(&mut |node| match node {
        Expr::InSubquery { subquery, .. }
        | Expr::Exists { subquery, .. }
        | Expr::ScalarSubquery(subquery) => collect_select_objects(subquery, out),
        Expr::Function { name, args, .. } if name.eq_ignore_ascii_case("NEXTVAL") => {
            if let Some(Expr::Literal(Value::Text(seq))) = args.first() {
                out.push(seq.to_ascii_lowercase());
            }
        }
        _ => {}
    });
}

/// `SELECT` statement (also used as subquery).
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    pub distinct: bool,
    pub projections: Vec<SelectItem>,
    pub from: Option<FromClause>,
    pub where_clause: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
    /// `UNION [ALL]` arms applied left to right; `ORDER BY`/`LIMIT`
    /// below then apply to the combined result.
    pub unions: Vec<UnionArm>,
    pub order_by: Vec<OrderItem>,
    pub limit: Option<Expr>,
    pub offset: Option<Expr>,
}

/// One `UNION [ALL] <select-core>` arm.
#[derive(Debug, Clone, PartialEq)]
pub struct UnionArm {
    /// `UNION ALL` keeps duplicates; plain `UNION` dedupes the
    /// accumulated result.
    pub all: bool,
    pub select: Box<SelectStmt>,
}

/// One projection in a `SELECT` list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(String),
    /// `expr [AS alias]`
    Expr { expr: Expr, alias: Option<String> },
}

/// `FROM base [JOIN …]*`
#[derive(Debug, Clone, PartialEq)]
pub struct FromClause {
    pub base: TableRef,
    pub joins: Vec<Join>,
}

/// A table reference with optional alias.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    pub source: TableSource,
    pub alias: Option<String>,
}

impl TableRef {
    /// The name this reference binds in the row namespace.
    pub fn binding_name(&self) -> Option<&str> {
        match (&self.alias, &self.source) {
            (Some(a), _) => Some(a),
            (None, TableSource::Named(n)) => Some(n),
            (None, TableSource::Subquery(_)) => None,
        }
    }
}

/// What a [`TableRef`] points at.
#[derive(Debug, Clone, PartialEq)]
pub enum TableSource {
    /// A named catalog table.
    Named(String),
    /// A derived table: `(SELECT …) alias`.
    Subquery(Box<SelectStmt>),
}

/// One `JOIN` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    pub kind: JoinKind,
    pub table: TableRef,
    /// `ON` predicate; `None` only for `CROSS JOIN`.
    pub on: Option<Expr>,
}

/// Supported join kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    Left,
    Right,
    Cross,
}

/// One `ORDER BY` key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    pub expr: Expr,
    pub desc: bool,
}

/// `INSERT` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct InsertStmt {
    pub table: String,
    /// Explicit column list, if given.
    pub columns: Option<Vec<String>>,
    pub source: InsertSource,
}

/// The row source of an `INSERT`.
#[derive(Debug, Clone, PartialEq)]
pub enum InsertSource {
    /// `VALUES (…), (…)`
    Values(Vec<Vec<Expr>>),
    /// `INSERT INTO t SELECT …`
    Select(Box<SelectStmt>),
}

/// `UPDATE` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateStmt {
    pub table: String,
    pub assignments: Vec<(String, Expr)>,
    pub where_clause: Option<Expr>,
}

/// `DELETE` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct DeleteStmt {
    pub table: String,
    pub where_clause: Option<Expr>,
}

/// Column definition inside `CREATE TABLE`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    pub name: String,
    pub ty: DataType,
    pub not_null: bool,
    pub primary_key: bool,
    pub unique: bool,
    pub default: Option<Expr>,
}

/// `CREATE TABLE` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTableStmt {
    pub name: String,
    pub if_not_exists: bool,
    /// Temporary tables are dropped when their owning connection closes;
    /// BIS result-set tables build on this.
    pub temporary: bool,
    pub columns: Vec<ColumnDef>,
}

/// `CREATE PROCEDURE name(p1, …) AS BEGIN stmt; … END`.
///
/// Procedure bodies reference their formal parameters as `:name`. The last
/// `SELECT`/`CALL` in the body, if any, becomes the procedure's result set —
/// this is what the paper's *Stored Procedure Pattern* consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateProcedureStmt {
    pub name: String,
    pub params: Vec<String>,
    pub body: Vec<Statement>,
}

/// Scalar / boolean expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal constant.
    Literal(Value),
    /// Column reference, optionally qualified: `t.a` or `a`.
    Column { table: Option<String>, name: String },
    /// `?` host parameter, numbered left-to-right from 0.
    Param(usize),
    /// `:name` named parameter (procedure bodies).
    NamedParam(String),
    /// Unary operator.
    Unary { op: UnOp, expr: Box<Expr> },
    /// Binary operator.
    Binary {
        left: Box<Expr>,
        op: BinOp,
        right: Box<Expr>,
    },
    /// `expr IS [NOT] NULL`
    IsNull { expr: Box<Expr>, negated: bool },
    /// `expr [NOT] IN (e1, e2, …)`
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    /// `expr [NOT] IN (SELECT …)` — uncorrelated.
    InSubquery {
        expr: Box<Expr>,
        subquery: Box<SelectStmt>,
        negated: bool,
    },
    /// `[NOT] EXISTS (SELECT …)` — uncorrelated.
    Exists {
        subquery: Box<SelectStmt>,
        negated: bool,
    },
    /// `(SELECT single_value)` — uncorrelated scalar subquery.
    ScalarSubquery(Box<SelectStmt>),
    /// `expr [NOT] BETWEEN low AND high`
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern`
    Like {
        expr: Box<Expr>,
        pattern: Box<Expr>,
        negated: bool,
    },
    /// `CASE [operand] WHEN … THEN … [ELSE …] END`
    Case {
        operand: Option<Box<Expr>>,
        branches: Vec<(Expr, Expr)>,
        else_branch: Option<Box<Expr>>,
    },
    /// Function call — scalar (`UPPER`, `ABS`, …) or aggregate
    /// (`SUM`, `COUNT`, …; aggregates are recognized by name during
    /// execution). `COUNT(*)` is encoded as `Function { name: "COUNT",
    /// args: [], .. }` with `star: true`.
    Function {
        name: String,
        args: Vec<Expr>,
        distinct: bool,
        star: bool,
    },
}

impl Expr {
    /// Convenience: column reference without table qualifier.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column {
            table: None,
            name: name.into(),
        }
    }

    /// Convenience: literal value.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Walk the expression tree, calling `f` on every node (pre-order).
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => expr.walk(f),
            Expr::Binary { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.walk(f);
                for e in list {
                    e.walk(f);
                }
            }
            Expr::InSubquery { expr, .. } => expr.walk(f),
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.walk(f);
                low.walk(f);
                high.walk(f);
            }
            Expr::Like { expr, pattern, .. } => {
                expr.walk(f);
                pattern.walk(f);
            }
            Expr::Case {
                operand,
                branches,
                else_branch,
            } => {
                if let Some(op) = operand {
                    op.walk(f);
                }
                for (w, t) in branches {
                    w.walk(f);
                    t.walk(f);
                }
                if let Some(e) = else_branch {
                    e.walk(f);
                }
            }
            Expr::Function { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            Expr::Literal(_)
            | Expr::Column { .. }
            | Expr::Param(_)
            | Expr::NamedParam(_)
            | Expr::Exists { .. }
            | Expr::ScalarSubquery(_) => {}
        }
    }

    /// Does evaluating this expression run a subquery? Subqueries
    /// re-enter the catalog's table map, so the fast single-table DML
    /// path (which evaluates while holding a table guard) must refuse
    /// statements containing one.
    pub fn contains_subquery(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if matches!(
                e,
                Expr::InSubquery { .. } | Expr::Exists { .. } | Expr::ScalarSubquery(_)
            ) {
                found = true;
            }
        });
        found
    }

    /// Does this expression (not descending into subqueries) contain an
    /// aggregate function call?
    pub fn contains_aggregate(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if let Expr::Function { name, .. } = e {
                if crate::expr::is_aggregate_name(name) {
                    found = true;
                }
            }
        });
        found
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    Neg,
    Not,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
    Concat,
}

impl BinOp {
    /// Human-readable operator spelling.
    pub fn symbol(&self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "=",
            BinOp::NotEq => "<>",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
            BinOp::Concat => "||",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statement_classification() {
        let s = Statement::Begin;
        assert!(!s.returns_rows());
        assert!(!s.is_ddl());
        let c = Statement::DropTable {
            name: "t".into(),
            if_exists: true,
        };
        assert!(c.is_ddl());
        assert_eq!(c.verb(), "DROP TABLE");
    }

    #[test]
    fn walk_visits_all_nodes() {
        let e = Expr::Binary {
            left: Box::new(Expr::col("a")),
            op: BinOp::Add,
            right: Box::new(Expr::Function {
                name: "ABS".into(),
                args: vec![Expr::lit(-3i64)],
                distinct: false,
                star: false,
            }),
        };
        let mut n = 0;
        e.walk(&mut |_| n += 1);
        assert_eq!(n, 4);
    }

    #[test]
    fn aggregate_detection() {
        let e = Expr::Function {
            name: "SUM".into(),
            args: vec![Expr::col("q")],
            distinct: false,
            star: false,
        };
        assert!(e.contains_aggregate());
        assert!(!Expr::col("q").contains_aggregate());
    }
}
