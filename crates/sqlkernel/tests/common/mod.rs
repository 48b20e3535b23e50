//! Helpers shared by the integration tests.

use std::sync::Arc;

use sqlkernel::{Database, MemLogStore};

/// Every table's rows, rendered and sorted: equal strings mean equal
/// logical databases.
pub fn db_fingerprint(db: &Database) -> String {
    let conn = db.connect();
    let mut tables = db.table_names();
    tables.sort_unstable();
    let mut out = String::new();
    for t in &tables {
        let rs = conn.query(&format!("SELECT * FROM {t}"), &[]).unwrap();
        let mut rows: Vec<String> = rs.rows.iter().map(|r| format!("{r:?}")).collect();
        rows.sort_unstable();
        let columns = rs.columns.join(", ");
        out.push_str(&format!("== {t} ({columns})\n{}\n", rows.join("\n")));
    }
    out
}

/// The fingerprint of the database recovered from `log` alone.
pub fn recovered_fingerprint(log: Vec<u8>) -> String {
    let store = Arc::new(MemLogStore::from_bytes(log));
    db_fingerprint(&Database::recover("recovered", store).unwrap())
}
