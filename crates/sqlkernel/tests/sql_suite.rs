//! A broad SQL behavior suite: one assertion per semantic rule, in the
//! spirit of sqllogictest. Each case states the SQL, the expected grid
//! (as rendered text rows) or the expected error class.

use sqlkernel::parser::parse_statement;
use sqlkernel::{Database, SqlError, Value};

/// Run `sql` against a fresh database seeded with `setup`, compare the
/// rendered rows with `expect` (cells joined by `|`).
fn check(setup: &str, sql: &str, expect: &[&str]) {
    let db = Database::new("suite");
    if !setup.is_empty() {
        db.connect().execute_script(setup).expect("setup");
    }
    let rs = db.connect().query(sql, &[]).unwrap_or_else(|e| {
        panic!("query failed: {e}\n  sql: {sql}");
    });
    let got: Vec<String> = rs
        .rows
        .iter()
        .map(|r| {
            r.iter()
                .map(|v| {
                    if v.is_null() {
                        "∅".to_string()
                    } else {
                        v.render()
                    }
                })
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    assert_eq!(got, expect, "\n  sql: {sql}");
}

fn check_err(setup: &str, sql: &str, class: &str) {
    let db = Database::new("suite");
    if !setup.is_empty() {
        db.connect().execute_script(setup).expect("setup");
    }
    let err = db
        .connect()
        .execute(sql, &[])
        .expect_err(&format!("expected {class} error for: {sql}"));
    assert_eq!(err.class(), class, "\n  sql: {sql} → {err}");
}

const NUMS: &str = "CREATE TABLE nums (n INT PRIMARY KEY, f FLOAT, s TEXT);
INSERT INTO nums VALUES (1, 1.5, 'one'), (2, 2.5, 'two'), (3, NULL, 'three'), (4, 4.0, NULL);";

#[test]
fn scalar_select_without_from() {
    check("", "SELECT 1 + 1, 'a' || 'b', UPPER('x')", &["2|ab|X"]);
}

#[test]
fn projection_aliases_and_expressions() {
    check(
        NUMS,
        "SELECT n * 10 AS tens, s FROM nums WHERE n <= 2 ORDER BY tens",
        &["10|one", "20|two"],
    );
}

#[test]
fn null_filtering_three_valued() {
    // f > 2 is UNKNOWN for the NULL row → dropped; NOT doesn't resurrect it.
    check(
        NUMS,
        "SELECT n FROM nums WHERE f > 2 ORDER BY n",
        &["2", "4"],
    );
    check(
        NUMS,
        "SELECT n FROM nums WHERE NOT (f > 2) ORDER BY n",
        &["1"],
    );
    check(NUMS, "SELECT n FROM nums WHERE f IS NULL", &["3"]);
    check(
        NUMS,
        "SELECT n FROM nums WHERE s IS NOT NULL ORDER BY n",
        &["1", "2", "3"],
    );
}

#[test]
fn case_and_coalesce_in_projection() {
    check(
        NUMS,
        "SELECT n, CASE WHEN f IS NULL THEN 'missing' ELSE 'present' END, \
         COALESCE(s, '-') FROM nums ORDER BY n",
        &[
            "1|present|one",
            "2|present|two",
            "3|missing|three",
            "4|present|-",
        ],
    );
}

#[test]
fn aggregates_ignore_nulls() {
    check(
        NUMS,
        "SELECT COUNT(*), COUNT(f), COUNT(s), SUM(n), AVG(f) FROM nums",
        // AVG over 1.5, 2.5, 4.0 = 8/3
        &[&format!("4|3|3|10|{}", (8.0f64 / 3.0))],
    );
}

#[test]
fn min_max_text_and_numbers() {
    check(
        NUMS,
        "SELECT MIN(n), MAX(n), MIN(s), MAX(s) FROM nums",
        &["1|4|one|two"],
    );
}

#[test]
fn group_by_with_having_and_order() {
    let setup = "CREATE TABLE o (id INT PRIMARY KEY, item TEXT, q INT);
        INSERT INTO o VALUES (1,'a',5),(2,'a',7),(3,'b',1),(4,'c',2),(5,'c',9);";
    check(
        setup,
        "SELECT item, SUM(q) AS total FROM o GROUP BY item \
         HAVING SUM(q) > 3 ORDER BY total DESC",
        &["a|12", "c|11"],
    );
}

#[test]
fn group_by_expression_key() {
    check(
        NUMS,
        "SELECT n % 2, COUNT(*) FROM nums GROUP BY n % 2 ORDER BY 1",
        &["0|2", "1|2"],
    );
}

#[test]
fn distinct_on_expressions() {
    check(
        NUMS,
        "SELECT DISTINCT n % 2 FROM nums ORDER BY 1",
        &["0", "1"],
    );
}

#[test]
fn order_by_nulls_first_and_desc() {
    check(
        NUMS,
        "SELECT n FROM nums ORDER BY f, n",
        &["3", "1", "2", "4"], // NULL sorts first
    );
    check(
        NUMS,
        "SELECT n FROM nums ORDER BY f DESC, n",
        &["4", "2", "1", "3"],
    );
}

#[test]
fn limit_offset_combinations() {
    check(NUMS, "SELECT n FROM nums ORDER BY n LIMIT 2", &["1", "2"]);
    check(
        NUMS,
        "SELECT n FROM nums ORDER BY n LIMIT 2 OFFSET 3",
        &["4"],
    );
    check(NUMS, "SELECT n FROM nums ORDER BY n LIMIT 0", &[]);
    check(NUMS, "SELECT n FROM nums ORDER BY n OFFSET 9", &[]);
}

#[test]
fn in_between_like_combined() {
    check(
        NUMS,
        "SELECT n FROM nums WHERE n IN (1, 3) AND n BETWEEN 2 AND 9",
        &["3"],
    );
    check(
        NUMS,
        "SELECT n FROM nums WHERE s LIKE 't%' ORDER BY n",
        &["2", "3"],
    );
    check(
        NUMS,
        "SELECT n FROM nums WHERE s NOT LIKE '%e' ORDER BY n",
        &["2"],
    );
}

#[test]
fn cross_and_self_join() {
    let setup = "CREATE TABLE p (a INT PRIMARY KEY);
        INSERT INTO p VALUES (1), (2), (3);";
    check(setup, "SELECT COUNT(*) FROM p x CROSS JOIN p y", &["9"]);
    check(
        setup,
        "SELECT x.a, y.a FROM p x JOIN p y ON x.a + 1 = y.a ORDER BY x.a",
        &["1|2", "2|3"],
    );
}

#[test]
fn left_join_null_padding_filterable() {
    let setup = "CREATE TABLE l (k INT PRIMARY KEY);
        CREATE TABLE r (k INT PRIMARY KEY, v TEXT);
        INSERT INTO l VALUES (1), (2), (3);
        INSERT INTO r VALUES (1, 'x'), (3, 'z');";
    check(
        setup,
        "SELECT l.k FROM l LEFT JOIN r ON l.k = r.k WHERE r.v IS NULL",
        &["2"],
    );
}

#[test]
fn three_way_join() {
    let setup = "CREATE TABLE a (i INT PRIMARY KEY);
        CREATE TABLE b (i INT PRIMARY KEY);
        CREATE TABLE c (i INT PRIMARY KEY);
        INSERT INTO a VALUES (1), (2);
        INSERT INTO b VALUES (2), (3);
        INSERT INTO c VALUES (2);";
    check(
        setup,
        "SELECT a.i FROM a JOIN b ON a.i = b.i JOIN c ON b.i = c.i",
        &["2"],
    );
}

#[test]
fn subquery_in_from_where_select() {
    check(
        NUMS,
        "SELECT t.n FROM (SELECT n FROM nums WHERE n > 1) t WHERE t.n < 4 ORDER BY 1",
        &["2", "3"],
    );
    check(
        NUMS,
        "SELECT n FROM nums WHERE n = (SELECT MIN(n) + 1 FROM nums)",
        &["2"],
    );
    check(
        NUMS,
        "SELECT (SELECT COUNT(*) FROM nums), MAX(n) FROM nums",
        &["4|4"],
    );
    check(
        NUMS,
        "SELECT n FROM nums WHERE EXISTS (SELECT 1 FROM nums WHERE f > 3) ORDER BY n",
        &["1", "2", "3", "4"],
    );
    check(
        NUMS,
        "SELECT n FROM nums WHERE n NOT IN (SELECT n FROM nums WHERE n < 3) ORDER BY n",
        &["3", "4"],
    );
}

#[test]
fn scalar_subquery_empty_is_null() {
    check(
        NUMS,
        "SELECT COALESCE((SELECT n FROM nums WHERE n > 99), -1)",
        &["-1"],
    );
}

#[test]
fn update_with_expression_and_where() {
    let db = Database::new("suite");
    db.connect().execute_script(NUMS).unwrap();
    let conn = db.connect();
    let r = conn
        .execute("UPDATE nums SET f = n * 1.0 WHERE f IS NULL", &[])
        .unwrap();
    assert_eq!(r.affected(), Some(1));
    let rs = conn.query("SELECT f FROM nums WHERE n = 3", &[]).unwrap();
    assert_eq!(rs.single_value().unwrap(), &Value::Float(3.0));
}

#[test]
fn halloween_safe_update() {
    // An update whose predicate matches its own output must not loop.
    let setup = "CREATE TABLE h (v INT); INSERT INTO h VALUES (1), (2), (3);";
    let db = Database::new("suite");
    db.connect().execute_script(setup).unwrap();
    let r = db
        .connect()
        .execute("UPDATE h SET v = v + 10 WHERE v < 100", &[])
        .unwrap();
    assert_eq!(r.affected(), Some(3));
    check(
        "CREATE TABLE h (v INT); INSERT INTO h VALUES (1), (2), (3);",
        "SELECT SUM(v) FROM h",
        &["6"],
    );
}

#[test]
fn insert_column_list_reorders_and_defaults() {
    let setup = "CREATE TABLE d (a INT PRIMARY KEY, b TEXT DEFAULT 'dflt', c INT DEFAULT 9);";
    check(
        &format!("{setup} INSERT INTO d (c, a) VALUES (1, 2);"),
        "SELECT a, b, c FROM d",
        &["2|dflt|1"],
    );
}

#[test]
fn semantic_and_constraint_errors() {
    check_err(NUMS, "SELECT nope FROM nums", "not_found");
    check_err(NUMS, "SELECT n FROM missing_table", "not_found");
    check_err(
        NUMS,
        "INSERT INTO nums VALUES (1, 0.0, 'dup')",
        "constraint",
    );
    check_err(NUMS, "INSERT INTO nums (n) VALUES (1, 2)", "semantic");
    check_err(NUMS, "SELECT n FROM nums WHERE SUM(n) > 1", "semantic");
    check_err(NUMS, "SELECT n + 'x' FROM nums", "semantic");
    check_err("", "SELECT 1 / 0", "runtime");
    check_err(NUMS, "UPDATE nums SET nope = 1", "not_found");
}

#[test]
fn ambiguous_column_errors() {
    let setup = "CREATE TABLE x (v INT); CREATE TABLE y (v INT);
        INSERT INTO x VALUES (1); INSERT INTO y VALUES (1);";
    check_err(setup, "SELECT v FROM x JOIN y ON x.v = y.v", "semantic");
}

#[test]
fn quoted_identifiers_case_sensitive_content() {
    check(
        "CREATE TABLE q (\"select\" INT); INSERT INTO q VALUES (7);",
        "SELECT \"select\" FROM q",
        &["7"],
    );
}

#[test]
fn arithmetic_type_promotion() {
    check(
        "",
        "SELECT 1 + 2.5, 10 / 4, 10.0 / 4, 2 * 3.0",
        &["3.5|2|2.5|6.0"],
    );
}

#[test]
fn union_with_views_and_procedures_together() {
    let setup = "CREATE TABLE base (n INT PRIMARY KEY);
        INSERT INTO base VALUES (1), (2), (3);
        CREATE VIEW evens AS SELECT n FROM base WHERE n % 2 = 0;
        CREATE VIEW odds AS SELECT n FROM base WHERE n % 2 = 1;";
    check(
        setup,
        "SELECT n FROM evens UNION SELECT n FROM odds ORDER BY n",
        &["1", "2", "3"],
    );
}

#[test]
fn procedure_with_multiple_statements_returns_last_select() {
    let setup = "CREATE TABLE log (msg TEXT);
        CREATE PROCEDURE note(m) AS BEGIN
          INSERT INTO log VALUES (:m);
          INSERT INTO log VALUES (:m);
          SELECT COUNT(*) FROM log;
        END;";
    let db = Database::new("suite");
    db.connect().execute_script(setup).unwrap();
    let conn = db.connect();
    let rs = conn
        .execute("CALL note('hello')", &[])
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(rs.single_value().unwrap(), &Value::Int(2));
    let rs = conn
        .execute("CALL note('again')", &[])
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(rs.single_value().unwrap(), &Value::Int(4));
}

#[test]
fn procedure_statement_atomicity() {
    // A failing statement inside a CALL must undo the whole CALL
    // (statement-level atomicity at the outer statement).
    let setup = "CREATE TABLE log (id INT PRIMARY KEY);
        CREATE PROCEDURE bad() AS BEGIN
          INSERT INTO log VALUES (1);
          INSERT INTO log VALUES (1);
        END;";
    let db = Database::new("suite");
    db.connect().execute_script(setup).unwrap();
    let err = db.connect().execute("CALL bad()", &[]).unwrap_err();
    assert_eq!(err.class(), "constraint");
    assert_eq!(db.table_len("log").unwrap(), 0);
}

#[test]
fn string_functions_compose() {
    check(
        "",
        "SELECT REPLACE(UPPER(SUBSTR('workflow products', 1, 8)), 'WORK', 'NET')",
        &["NETFLOW"],
    );
}

#[test]
fn nextval_in_insert_generates_distinct_keys() {
    let setup = "CREATE SEQUENCE ids START WITH 100;
        CREATE TABLE k (id INT PRIMARY KEY, v TEXT);
        INSERT INTO k VALUES (NEXTVAL('ids'), 'a');
        INSERT INTO k VALUES (NEXTVAL('ids'), 'b');";
    check(setup, "SELECT id FROM k ORDER BY id", &["100", "101"]);
}

#[test]
fn nextval_draw_is_returned_when_the_statement_fails() {
    // The failing INSERT evaluates NEXTVAL before hitting the duplicate
    // key; statement atomicity must give the drawn value back so a
    // fault-retry loop regenerates the *same* key stream.
    let db = Database::new("suite");
    let conn = db.connect();
    conn.execute_script(
        "CREATE SEQUENCE ids START WITH 100;
         CREATE TABLE k (id INT PRIMARY KEY, seq INT);
         INSERT INTO k VALUES (1, NEXTVAL('ids'));",
    )
    .unwrap();
    let err = conn
        .execute("INSERT INTO k VALUES (1, NEXTVAL('ids'))", &[])
        .unwrap_err();
    assert_eq!(err.class(), "constraint");
    conn.execute("INSERT INTO k VALUES (2, NEXTVAL('ids'))", &[])
        .unwrap();
    let rs = conn.query("SELECT seq FROM k ORDER BY id", &[]).unwrap();
    assert_eq!(format!("{:?}", rs.rows), "[[Int(100)], [Int(101)]]");
}

#[test]
fn nextval_draw_is_returned_on_transaction_rollback() {
    let db = Database::new("suite");
    let conn = db.connect();
    conn.execute_script(
        "CREATE SEQUENCE ids START WITH 7;
         CREATE TABLE k (id INT PRIMARY KEY);",
    )
    .unwrap();
    conn.execute_script(
        "BEGIN;
         INSERT INTO k VALUES (NEXTVAL('ids'));
         ROLLBACK;",
    )
    .unwrap();
    conn.execute("INSERT INTO k VALUES (NEXTVAL('ids'))", &[])
        .unwrap();
    let rs = conn.query("SELECT id FROM k", &[]).unwrap();
    assert_eq!(format!("{:?}", rs.rows), "[[Int(7)]]");
}

#[test]
fn boolean_columns_and_literals() {
    let setup = "CREATE TABLE flags (id INT PRIMARY KEY, ok BOOL);
        INSERT INTO flags VALUES (1, TRUE), (2, FALSE), (3, NULL);";
    check(setup, "SELECT id FROM flags WHERE ok ORDER BY id", &["1"]);
    check(setup, "SELECT id FROM flags WHERE NOT ok", &["2"]);
    check(setup, "SELECT id FROM flags WHERE ok IS NULL", &["3"]);
}

#[test]
fn comments_anywhere() {
    check(
        NUMS,
        "SELECT /* block */ n -- tail\n FROM nums WHERE n = 1",
        &["1"],
    );
}

/// Column names resolve when a statement binds, before any row is
/// evaluated: an unknown column is `NotFound` on an empty table, and
/// behind a short-circuit that no row ever gets past, on every entry
/// point. `execute_batch` takes DML only, so a SELECT rides in as the
/// source of an `INSERT … SELECT`.
#[test]
fn unknown_columns_fail_at_bind_time_on_every_entry_point() {
    let cases = [
        ("DELETE FROM t WHERE nosuch = 1", false),
        ("UPDATE t SET b = nosuch", false),
        ("SELECT nosuch FROM t", false),
        ("SELECT a FROM t WHERE FALSE AND nosuch = 1", true),
    ];
    for (sql, with_rows) in cases {
        let db = Database::new("bind_time");
        let conn = db.connect();
        conn.execute("CREATE TABLE t (a INT PRIMARY KEY, b INT)", &[])
            .unwrap();
        if with_rows {
            conn.execute("INSERT INTO t VALUES (1, 10), (2, 20)", &[])
                .unwrap();
        }
        let batch_sql = if sql.starts_with("SELECT") {
            format!("INSERT INTO t (a) {sql}")
        } else {
            sql.to_string()
        };
        let stmt = parse_statement(sql).unwrap();
        let errors = [
            ("execute", conn.execute(sql, &[]).err()),
            ("execute_ast", conn.execute_ast(&stmt, &[]).err()),
            (
                "execute_batch",
                conn.execute_batch(&batch_sql, &[vec![]]).err(),
            ),
        ];
        for (entry, err) in errors {
            let err = err.unwrap_or_else(|| panic!("{entry}: {sql} must fail"));
            assert_eq!(err.class(), "not_found", "{entry}: {sql} → {err}");
        }
        let rows = conn.query("SELECT COUNT(*) FROM t", &[]).unwrap();
        let expect = if with_rows { 2 } else { 0 };
        assert_eq!(rows.rows[0][0], Value::Int(expect), "{sql} wrote rows");
    }
}

/// A view cycle (`va` → `vb` → `va`) cannot be created directly, but
/// dropping and re-creating one end closes it. Expanding it must stop
/// at the nesting bound with a runtime error — whether the cycle is
/// reached from FROM, from a subquery, or from a derived table — rather
/// than recurse without end. A healthy view still reads afterwards.
#[test]
fn recursive_view_expansion_is_bounded() {
    let db = Database::new("view_cycle");
    let conn = db.connect();
    conn.execute_script(
        "CREATE TABLE t (a INT PRIMARY KEY);
         INSERT INTO t VALUES (1), (2);
         CREATE VIEW va AS SELECT a FROM t;
         CREATE VIEW vb AS SELECT a FROM va;
         DROP VIEW va;
         CREATE VIEW va AS SELECT a FROM vb;
         CREATE VIEW ok AS SELECT a FROM t WHERE a > 1;",
    )
    .expect("setup");
    for sql in [
        "SELECT a FROM va",
        "SELECT a FROM t WHERE a IN (SELECT a FROM va)",
        "SELECT d.a FROM (SELECT a FROM va) d",
    ] {
        let err = conn.query(sql, &[]).expect_err(&format!("{sql} must fail"));
        assert!(
            matches!(&err, SqlError::Runtime(m) if m.starts_with("view expansion too deep")),
            "{sql} → {err:?}"
        );
    }
    let rs = conn.query("SELECT a FROM ok", &[]).unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Int(2)]]);
}
