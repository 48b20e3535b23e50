//! Row schemas and the scalar helpers shared by expression evaluation.
//!
//! Expressions are evaluated in one place, [`crate::bound`]: every
//! statement binds its expressions against a [`RowSchema`] (column names
//! resolved to ordinals once) and evaluates the bound form. This module
//! keeps the name side of that contract — [`RowSchema`] and its
//! resolution rules — plus the value-level helpers the evaluator applies
//! at each node: SQL three-valued logic, NULL-propagating arithmetic and
//! comparison, `LIKE`, and the scalar function library.

use crate::ast::{BinOp, Expr, UnOp};
use crate::catalog::Catalog;
use crate::error::{SqlError, SqlResult};
use crate::types::Value;

/// Names visible to column references of one row stream.
#[derive(Debug, Clone, Default)]
pub struct RowSchema {
    cols: Vec<(Option<String>, String)>,
}

impl RowSchema {
    /// Empty schema (no columns resolvable).
    pub fn empty() -> RowSchema {
        RowSchema::default()
    }

    /// Build from `(binding, column)` pairs.
    pub fn new(cols: Vec<(Option<String>, String)>) -> RowSchema {
        RowSchema { cols }
    }

    /// Append a column.
    pub fn push(&mut self, binding: Option<String>, name: String) {
        self.cols.push((binding, name));
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// Is the schema empty?
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// All `(binding, name)` pairs.
    pub fn columns(&self) -> &[(Option<String>, String)] {
        &self.cols
    }

    /// Positions of all columns bound under `binding` (for `alias.*`).
    pub fn binding_positions(&self, binding: &str) -> Vec<usize> {
        self.cols
            .iter()
            .enumerate()
            .filter(|(_, (b, _))| {
                b.as_deref()
                    .is_some_and(|x| x.eq_ignore_ascii_case(binding))
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Resolve `table.name` or bare `name`; ambiguous bare names error.
    pub fn resolve(&self, table: Option<&str>, name: &str) -> SqlResult<usize> {
        let matches: Vec<usize> = self
            .cols
            .iter()
            .enumerate()
            .filter(|(_, (b, n))| {
                n.eq_ignore_ascii_case(name)
                    && match table {
                        Some(t) => b.as_deref().is_some_and(|x| x.eq_ignore_ascii_case(t)),
                        None => true,
                    }
            })
            .map(|(i, _)| i)
            .collect();
        match matches.len() {
            0 => Err(SqlError::NotFound(format!(
                "column '{}{}'",
                table.map(|t| format!("{t}.")).unwrap_or_default(),
                name
            ))),
            1 => Ok(matches[0]),
            _ => Err(SqlError::Semantic(format!("ambiguous column '{name}'"))),
        }
    }
}

/// Is `name` (upper-cased) an aggregate function?
pub fn is_aggregate_name(name: &str) -> bool {
    matches!(name, "COUNT" | "SUM" | "AVG" | "MIN" | "MAX")
}

/// Canonical key identifying one aggregate call site within a statement.
pub fn aggregate_key(expr: &Expr) -> String {
    format!("{expr:?}")
}

/// SQL `IN` membership with NULL semantics. `None` encodes UNKNOWN.
pub(crate) fn in_membership(needle: &Value, haystack: &[Value]) -> Option<bool> {
    if haystack.is_empty() {
        return Some(false);
    }
    if needle.is_null() {
        return None;
    }
    let mut saw_null = false;
    for v in haystack {
        if v.is_null() {
            saw_null = true;
        } else if v == needle {
            return Some(true);
        }
    }
    if saw_null {
        None
    } else {
        Some(false)
    }
}

pub(crate) fn apply_negation(r: Option<bool>, negated: bool) -> Value {
    match r {
        None => Value::Null,
        Some(b) => Value::Bool(b != negated),
    }
}

pub(crate) fn three_and(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

pub(crate) fn compare(a: &Value, b: &Value) -> Option<std::cmp::Ordering> {
    a.sql_cmp(b)
}

/// Apply a unary operator to an already-computed operand.
pub(crate) fn apply_unary_op(op: UnOp, v: Value) -> SqlResult<Value> {
    match op {
        UnOp::Neg => match v {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Float(f) => Ok(Value::Float(-f)),
            other => Err(SqlError::Semantic(format!("cannot negate {other:?}"))),
        },
        UnOp::Not => match v {
            Value::Null => Ok(Value::Null),
            Value::Bool(b) => Ok(Value::Bool(!b)),
            other => Err(SqlError::Semantic(format!("NOT applied to {other:?}"))),
        },
    }
}

/// Apply a non-logical binary operator to two already-computed operands.
pub(crate) fn apply_binary_op(op: BinOp, l: &Value, r: &Value) -> SqlResult<Value> {
    match op {
        BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
            let cmp = compare(l, r);
            let out = cmp.map(|o| match op {
                BinOp::Eq => o == std::cmp::Ordering::Equal,
                BinOp::NotEq => o != std::cmp::Ordering::Equal,
                BinOp::Lt => o == std::cmp::Ordering::Less,
                BinOp::LtEq => o != std::cmp::Ordering::Greater,
                BinOp::Gt => o == std::cmp::Ordering::Greater,
                BinOp::GtEq => o != std::cmp::Ordering::Less,
                _ => unreachable!(),
            });
            Ok(match out {
                None => Value::Null,
                Some(b) => Value::Bool(b),
            })
        }
        BinOp::Concat => match (l, r) {
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            _ => Ok(Value::Text(format!("{}{}", l.render(), r.render()))),
        },
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => arithmetic(op, l, r),
        BinOp::And | BinOp::Or => unreachable!("logical ops are handled by the caller"),
    }
}

pub(crate) fn value_to_three(v: &Value, what: &str) -> SqlResult<Option<bool>> {
    match v {
        Value::Null => Ok(None),
        Value::Bool(b) => Ok(Some(*b)),
        other => Err(SqlError::Semantic(format!(
            "{what} operand must be boolean, got {other:?}"
        ))),
    }
}

pub(crate) fn arithmetic(op: BinOp, l: &Value, r: &Value) -> SqlResult<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => {
            let a = *a;
            let b = *b;
            let out = match op {
                BinOp::Add => a.checked_add(b),
                BinOp::Sub => a.checked_sub(b),
                BinOp::Mul => a.checked_mul(b),
                BinOp::Div => {
                    if b == 0 {
                        return Err(SqlError::Runtime("division by zero".into()));
                    }
                    a.checked_div(b)
                }
                BinOp::Mod => {
                    if b == 0 {
                        return Err(SqlError::Runtime("division by zero".into()));
                    }
                    a.checked_rem(b)
                }
                _ => unreachable!(),
            };
            out.map(Value::Int)
                .ok_or_else(|| SqlError::Runtime("integer overflow".into()))
        }
        _ => {
            let a = l
                .as_f64()
                .ok_or_else(|| SqlError::Semantic(format!("arithmetic on non-numeric {l:?}")))?;
            let b = r
                .as_f64()
                .ok_or_else(|| SqlError::Semantic(format!("arithmetic on non-numeric {r:?}")))?;
            let out = match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => {
                    if b == 0.0 {
                        return Err(SqlError::Runtime("division by zero".into()));
                    }
                    a / b
                }
                BinOp::Mod => {
                    if b == 0.0 {
                        return Err(SqlError::Runtime("division by zero".into()));
                    }
                    a % b
                }
                _ => unreachable!(),
            };
            Ok(Value::Float(out))
        }
    }
}

/// `LIKE` pattern matching: `%` = any run, `_` = any single char.
pub fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[char], p: &[char]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some('%') => {
                // Collapse consecutive %.
                let rest = &p[1..];
                (0..=s.len()).any(|k| rec(&s[k..], rest))
            }
            Some('_') => !s.is_empty() && rec(&s[1..], &p[1..]),
            Some(c) => s.first() == Some(c) && rec(&s[1..], &p[1..]),
        }
    }
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&s, &p)
}

pub(crate) fn scalar_function(name: &str, args: &[Value], catalog: &Catalog) -> SqlResult<Value> {
    let arity = |n: usize| -> SqlResult<()> {
        if args.len() == n {
            Ok(())
        } else {
            Err(SqlError::Semantic(format!(
                "{name}() expects {n} argument(s), got {}",
                args.len()
            )))
        }
    };
    match name {
        "UPPER" => {
            arity(1)?;
            text_fn(&args[0], |s| s.to_uppercase())
        }
        "LOWER" => {
            arity(1)?;
            text_fn(&args[0], |s| s.to_lowercase())
        }
        "TRIM" => {
            arity(1)?;
            text_fn(&args[0], |s| s.trim().to_string())
        }
        "LENGTH" => {
            arity(1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Text(s) => Ok(Value::Int(s.chars().count() as i64)),
                other => Err(SqlError::Semantic(format!("LENGTH of {other:?}"))),
            }
        }
        "ABS" => {
            arity(1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => {
                    Ok(Value::Int(i.checked_abs().ok_or_else(|| {
                        SqlError::Runtime("integer overflow in ABS".into())
                    })?))
                }
                Value::Float(f) => Ok(Value::Float(f.abs())),
                other => Err(SqlError::Semantic(format!("ABS of {other:?}"))),
            }
        }
        "FLOOR" | "CEIL" | "CEILING" => {
            arity(1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(*i)),
                Value::Float(f) => Ok(Value::Int(if name == "FLOOR" {
                    f.floor() as i64
                } else {
                    f.ceil() as i64
                })),
                other => Err(SqlError::Semantic(format!("{name} of {other:?}"))),
            }
        }
        "ROUND" => {
            if args.is_empty() || args.len() > 2 {
                return Err(SqlError::Semantic("ROUND expects 1 or 2 arguments".into()));
            }
            let digits = if args.len() == 2 {
                args[1]
                    .as_i64()
                    .ok_or_else(|| SqlError::Semantic("ROUND digits must be integer".into()))?
            } else {
                0
            };
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(*i)),
                Value::Float(f) => {
                    let m = 10f64.powi(digits as i32);
                    let r = (f * m).round() / m;
                    if args.len() == 1 {
                        Ok(Value::Int(r as i64))
                    } else {
                        Ok(Value::Float(r))
                    }
                }
                other => Err(SqlError::Semantic(format!("ROUND of {other:?}"))),
            }
        }
        "COALESCE" | "IFNULL" => {
            if args.is_empty() {
                return Err(SqlError::Semantic("COALESCE expects arguments".into()));
            }
            Ok(args
                .iter()
                .find(|v| !v.is_null())
                .cloned()
                .unwrap_or(Value::Null))
        }
        "NULLIF" => {
            arity(2)?;
            if !args[0].is_null() && !args[1].is_null() && args[0] == args[1] {
                Ok(Value::Null)
            } else {
                Ok(args[0].clone())
            }
        }
        "SUBSTR" | "SUBSTRING" => {
            if args.len() < 2 || args.len() > 3 {
                return Err(SqlError::Semantic("SUBSTR expects 2 or 3 arguments".into()));
            }
            if args.iter().any(Value::is_null) {
                return Ok(Value::Null);
            }
            let s = args[0]
                .as_str()
                .ok_or_else(|| SqlError::Semantic("SUBSTR of non-text".into()))?;
            let start = args[1]
                .as_i64()
                .ok_or_else(|| SqlError::Semantic("SUBSTR start must be integer".into()))?;
            let chars: Vec<char> = s.chars().collect();
            let begin = (start.max(1) - 1) as usize;
            let len = if args.len() == 3 {
                args[2]
                    .as_i64()
                    .ok_or_else(|| SqlError::Semantic("SUBSTR length must be integer".into()))?
                    .max(0) as usize
            } else {
                chars.len().saturating_sub(begin)
            };
            let out: String = chars.iter().skip(begin).take(len).collect();
            Ok(Value::Text(out))
        }
        "REPLACE" => {
            arity(3)?;
            if args.iter().any(Value::is_null) {
                return Ok(Value::Null);
            }
            match (&args[0], &args[1], &args[2]) {
                (Value::Text(s), Value::Text(from), Value::Text(to)) => {
                    Ok(Value::Text(s.replace(from.as_str(), to)))
                }
                _ => Err(SqlError::Semantic("REPLACE requires text arguments".into())),
            }
        }
        "CONCAT" => {
            let mut out = String::new();
            for v in args {
                if v.is_null() {
                    continue; // CONCAT skips NULLs, unlike ||
                }
                out.push_str(&v.render());
            }
            Ok(Value::Text(out))
        }
        "MOD" => {
            arity(2)?;
            arithmetic(BinOp::Mod, &args[0], &args[1])
        }
        "NEXTVAL" => {
            arity(1)?;
            let seq_name = args[0]
                .as_str()
                .ok_or_else(|| SqlError::Semantic("NEXTVAL expects a sequence name".into()))?;
            let seq = catalog.sequence(seq_name)?;
            Ok(Value::Int(seq.next_value()))
        }
        other => Err(SqlError::NotFound(format!("function '{other}'"))),
    }
}

fn text_fn(v: &Value, f: impl Fn(&str) -> String) -> SqlResult<Value> {
    match v {
        Value::Null => Ok(Value::Null),
        Value::Text(s) => Ok(Value::Text(f(s))),
        other => Err(SqlError::Semantic(format!(
            "string function applied to {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn like_matcher_edge_cases() {
        assert!(like_match("", ""));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("abc", "%%c"));
        assert!(like_match("a%c", "a%c")); // literal interpretation of middle % also matches
        assert!(!like_match("abc", "ab"));
    }

    #[test]
    fn row_schema_resolution() {
        let schema = RowSchema::new(vec![
            (Some("o".into()), "id".into()),
            (Some("i".into()), "id".into()),
            (Some("i".into()), "name".into()),
        ]);
        assert_eq!(schema.resolve(Some("o"), "id").unwrap(), 0);
        assert_eq!(schema.resolve(Some("I"), "ID").unwrap(), 1);
        assert_eq!(schema.resolve(None, "name").unwrap(), 2);
        assert_eq!(schema.resolve(None, "id").unwrap_err().class(), "semantic");
        assert_eq!(
            schema.resolve(None, "zzz").unwrap_err().class(),
            "not_found"
        );
        assert_eq!(schema.binding_positions("i"), vec![1, 2]);
    }
}
