//! Correctness: every answer against the single-store engine over the same
//! rows, and a sample against the row-at-a-time scan oracle.
//!
//! All of it runs outside every timed region and outside set-up.

use crate::inputs::Inputs;
use crate::replay::Pass;
use crate::Workload;
use pd_baselines::io_model::IoModel;
use pd_baselines::scan::{prepare, scan_execute};
use pd_common::Value;
use pd_core::{execute, BuildOptions, DataStore, ExecContext, QueryResult};
use pd_data::Table;
use pd_encoding::TableDelta;
use pd_sql::{analyze, parse_query};
use std::collections::HashMap;

/// The single-store engine without caches, advanced batch by batch in step
/// with the ingest workload. Answers are memoized per (epoch, SQL text): a
/// click stream repeats its queries. It runs sequentially against `scan`,
/// whose own store runs on every core, and on every core elsewhere.
pub struct Reference {
    store: DataStore,
    ctx: ExecContext,
    epoch: usize,
    memo: HashMap<(usize, String), QueryResult>,
}

impl Reference {
    pub fn build(
        workload: Workload,
        table: &Table,
        build: &BuildOptions,
    ) -> pd_common::Result<Reference> {
        let threads = if workload == Workload::Scan { 1 } else { 0 };
        Ok(Reference {
            store: DataStore::build(table, build)?,
            ctx: ExecContext { threads, ..ExecContext::default() },
            epoch: 0,
            memo: HashMap::new(),
        })
    }

    pub fn store(&self) -> &DataStore {
        &self.store
    }

    /// Answer `sqls` as of `epoch`, if the reference store is still there.
    pub fn settle<'a>(
        &mut self,
        epoch: usize,
        sqls: impl Iterator<Item = &'a str>,
    ) -> pd_common::Result<()> {
        if self.epoch != epoch {
            return Ok(());
        }
        for sql in sqls {
            let key = (epoch, sql.to_string());
            if !self.memo.contains_key(&key) {
                let analyzed = analyze(&parse_query(sql)?)?;
                let (result, _) = execute(&self.store, &analyzed, &self.ctx)?;
                self.memo.insert(key, result);
            }
        }
        Ok(())
    }

    /// Apply ingest batch `epoch` once, the first time a replay reaches it.
    pub fn append(&mut self, epoch: usize, batch: &Table) -> pd_common::Result<()> {
        if self.epoch == epoch {
            let columns: Vec<&[Value]> =
                (0..batch.schema().fields().len()).map(|i| batch.column(i)).collect();
            self.store
                .append_delta(&TableDelta::from_columns(batch.schema().clone(), &columns)?)?;
            self.epoch += 1;
        }
        Ok(())
    }

    pub fn expected(&self, epoch: usize, sql: &str) -> Option<&QueryResult> {
        self.memo.get(&(epoch, sql.to_string()))
    }

    /// Deliberately corrupt one reference answer, so a run can prove that
    /// the check is not vacuous.
    pub fn corrupt(&mut self) {
        let mut keys: Vec<_> = self.memo.keys().cloned().collect();
        keys.sort();
        if let Some(result) = keys.first().and_then(|k| self.memo.get_mut(k)) {
            result.rows.reverse();
            result.rows.push(pd_common::Row(vec![Value::Null; result.columns.len()]));
        }
    }

    /// Answers of `pass` that differ from the reference or are missing.
    pub fn mismatches(&self, pass: &Pass, inputs: &Inputs) -> usize {
        pass.queries
            .iter()
            .filter(|r| match &r.answer {
                Ok(result) => self
                    .expected(r.epoch, inputs.sql(r.click, r.q))
                    .is_none_or(|want| !bit_identical(want, result)),
                Err(_) => false, // counted as an error, not a mismatch
            })
            .count()
    }

    /// Check the first `sample` distinct queries of the first epoch against
    /// the row-at-a-time oracle over `table`; returns how many disagree.
    pub fn oracle_mismatches(
        &self,
        pass: &Pass,
        inputs: &Inputs,
        sample: usize,
    ) -> pd_common::Result<usize> {
        let mut seen: Vec<&str> = Vec::new();
        for r in pass.queries.iter().filter(|r| r.epoch == 0) {
            let sql = inputs.sql(r.click, r.q);
            if seen.len() < sample && !seen.contains(&sql) {
                seen.push(sql);
            }
        }
        let mut wrong = 0;
        for sql in seen {
            let rows = inputs.table.iter_rows().map(Ok);
            let oracle =
                scan_execute(inputs.table.schema(), rows, &prepare(sql)?, 0, &IoModel::new(1.0))?;
            if self.expected(0, sql).is_none_or(|want| !bit_identical(want, &oracle.result)) {
                wrong += 1;
            }
        }
        Ok(wrong)
    }
}

/// Equal column names and rows, floats compared by their bits.
fn bit_identical(a: &QueryResult, b: &QueryResult) -> bool {
    a.columns == b.columns
        && a.rows.len() == b.rows.len()
        && a.rows.iter().zip(&b.rows).all(|(x, y)| {
            x.0.len() == y.0.len()
                && x.0.iter().zip(&y.0).all(|(u, v)| match (u, v) {
                    (Value::Float(f), Value::Float(g)) => f.to_bits() == g.to_bits(),
                    _ => u == v,
                })
        })
}
