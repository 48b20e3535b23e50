//! Seeded input generation.
//!
//! Every input row comes from a SplitMix64 stream seeded by the workload
//! seed, so one seed always yields byte-identical tables and a different
//! seed yields different rows of the same sizes. The program under test
//! only ever receives the generated rows.

use std::collections::BTreeMap;

use sqlkernel::fault::SplitMix64;
use sqlkernel::{Connection, SqlResult, Value};

/// Share of generated orders that are approved, in percent.
pub const APPROVED_PCT: u64 = 70;
/// Order quantities are drawn from `1..=MAX_QTY`.
pub const MAX_QTY: u64 = 20;

/// Shape of the seeded `Orders` table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderShape {
    pub rows: usize,
    pub item_types: usize,
}

/// Name of item type `k` (zero-padded, so text order is numeric order).
pub fn item_name(k: usize) -> String {
    format!("item{k:04}")
}

/// One order row: `OrderId`, `ItemId`, `Quantity`, `Approved`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Order {
    pub id: i64,
    pub item: String,
    pub qty: i64,
    pub approved: bool,
}

impl Order {
    pub fn to_row(&self) -> Vec<Value> {
        vec![
            Value::Int(self.id),
            Value::text(&self.item),
            Value::Int(self.qty),
            Value::Bool(self.approved),
        ]
    }
}

/// The seeded orders, ids `1..=shape.rows`.
pub fn orders(seed: u64, shape: OrderShape) -> Vec<Order> {
    let mut rng = SplitMix64::new(seed);
    (0..shape.rows)
        .map(|i| Order {
            id: i as i64 + 1,
            item: item_name(rng.next_below(shape.item_types as u64) as usize),
            qty: 1 + rng.next_below(MAX_QTY) as i64,
            approved: rng.next_below(100) < APPROVED_PCT,
        })
        .collect()
}

/// The running example's aggregate (SQL_1) over `orders`, computed
/// outside the program: approved quantity per item, in item order.
pub fn expected_item_list(orders: &[Order]) -> BTreeMap<String, i64> {
    let mut out = BTreeMap::new();
    for o in orders.iter().filter(|o| o.approved) {
        *out.entry(o.item.clone()).or_insert(0) += o.qty;
    }
    out
}

/// Bulk-load rows with one batched statement.
pub fn load(conn: &Connection, insert: &str, rows: Vec<Vec<Value>>) -> SqlResult<usize> {
    if rows.is_empty() {
        return Ok(0);
    }
    conn.execute_batch(insert, &rows)
}

/// Which of `stacks` realizations each of an epoch's `len` instances
/// runs: equal shares in a seeded shuffle. A fixed rotation would let
/// the clients lock into one pairing of concurrent realizations for a
/// whole run; shuffling mixes the pairings within every run.
pub fn stack_schedule(seed: u64, epoch: u64, len: usize, stacks: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed ^ epoch.wrapping_mul(0xD1B5_4A32_D192_ED03));
    let mut schedule: Vec<usize> = (0..len).map(|i| i % stacks).collect();
    for i in (1..len).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        schedule.swap(i, j);
    }
    schedule
}

/// Input of one durable intake instance: the order it records.
pub fn intake_order(seed: u64, n: u64, item_types: usize) -> Order {
    let mut rng = SplitMix64::new(seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    Order {
        id: n as i64,
        item: item_name(rng.next_below(item_types as u64) as usize),
        qty: 1 + rng.next_below(MAX_QTY) as i64,
        approved: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: OrderShape = OrderShape {
        rows: 500,
        item_types: 8,
    };

    #[test]
    fn same_seed_same_orders() {
        assert_eq!(orders(7, SHAPE), orders(7, SHAPE));
        assert_eq!(intake_order(7, 3, 8), intake_order(7, 3, 8));
    }

    #[test]
    fn other_seed_other_rows_same_sizes() {
        let a = orders(7, SHAPE);
        let b = orders(8, SHAPE);
        assert_ne!(a, b);
        assert_eq!(a.len(), b.len());
        assert_eq!(
            expected_item_list(&a).len(),
            expected_item_list(&b).len(),
            "500 rows over 8 types cover every type under both seeds"
        );
    }

    #[test]
    fn schedules_are_seeded_shuffles_of_equal_shares() {
        let a = stack_schedule(7, 0, 64, 4);
        assert_eq!(a, stack_schedule(7, 0, 64, 4));
        assert_ne!(a, stack_schedule(7, 1, 64, 4));
        for stack in 0..4 {
            assert_eq!(a.iter().filter(|s| **s == stack).count(), 16);
        }
    }

    #[test]
    fn approved_share_is_near_target() {
        let rows = orders(1, SHAPE);
        let approved = rows.iter().filter(|o| o.approved).count() as f64;
        let share = approved / rows.len() as f64;
        assert!((share - 0.7).abs() < 0.08, "approved share {share}");
    }
}
