//! Seeded inputs: the table, the click stream and the ingest batches.
//!
//! The workload seed is the only source of randomness. It is split into
//! independent sub-seeds per role, so the same seed gives the same table,
//! the same click stream and the same batches on every run.

use pd_common::fx_hash64;
use pd_data::{generate_logs, LogsSpec, Table};
use pd_dist::{Click, DrillDownWorkload, WorkloadSpec};
use std::collections::VecDeque;

/// Clicks generated per run: more than any workload replays in a minute,
/// so a run always ends at its deadline, never at the end of the stream.
const CLICKS: usize = 4_000;
const QUERIES_PER_CLICK: usize = 20;
const DRILL_DEPTH: usize = 5;
/// The click stream is drawn from every `STREAM_SAMPLE`-th row.
const STREAM_SAMPLE: usize = 10;
/// An ingest batch is 1/200 (0.5%) of the table.
const BATCH_DIVISOR: usize = 200;

const ROLE_TABLE: u64 = 1;
const ROLE_STREAM: u64 = 2;
const ROLE_BATCH: u64 = 3;

pub struct Inputs {
    pub seed: u64,
    pub table: Table,
    pub stream: DrillDownWorkload,
}

impl Inputs {
    pub fn generate(rows: usize, seed: u64) -> pd_common::Result<Inputs> {
        let table = generate_logs(&LogsSpec {
            seed: sub_seed(seed, ROLE_TABLE, 0),
            ..LogsSpec::scaled(rows)
        });
        // The generator sorts every string column to rank dimensions by
        // cardinality (5 s at 1M rows). A uniform row sample ranks them the
        // same and holds the same values in the same proportions.
        let sample =
            table.select_rows(&(0..table.len()).step_by(STREAM_SAMPLE).collect::<Vec<_>>());
        let stream = DrillDownWorkload::generate(
            &sample,
            &WorkloadSpec {
                clicks: CLICKS,
                queries_per_click: QUERIES_PER_CLICK,
                max_drill_depth: DRILL_DEPTH,
                seed: sub_seed(seed, ROLE_STREAM, 0),
            },
        )?;
        let stream = DrillDownWorkload { clicks: stratify(stream.clicks) };
        Ok(Inputs { seed, table, stream })
    }

    /// Ingest batch `k`: drawn from the table's generator (same value
    /// domains) under its own sub-seed.
    pub fn batch(&self, k: usize) -> Table {
        let rows = self.table.len();
        generate_logs(&LogsSpec {
            rows: (rows / BATCH_DIVISOR).max(1),
            seed: sub_seed(self.seed, ROLE_BATCH, k as u64),
            ..LogsSpec::scaled(rows)
        })
    }

    pub fn sql(&self, click: usize, q: usize) -> &str {
        &self.stream.clicks[click].queries[q]
    }

    /// A digest of the table, the click stream and the first `batches`
    /// ingest batches: equal digests mean equal inputs.
    pub fn digest(&self, batches: usize) -> u64 {
        let mut h = table_digest(&self.table);
        for click in &self.stream.clicks {
            h = mix(h, fx_hash64(&click.queries));
        }
        for k in 0..batches {
            h = mix(h, table_digest(&self.batch(k)));
        }
        h
    }
}

/// Reorder whole drill-down sessions so that every prefix of the stream
/// holds each session root in close to its share of the whole stream.
///
/// A run replays only its first few dozen clicks, and a session's root
/// restriction (which country it drills into) sets most of its cost. In
/// generated order the mix of roots in a run would be left to chance. A
/// session starts at a click that charts the root's own dimension without
/// a restriction; its root is the restriction that click's other charts
/// share. Sessions keep their clicks and their order within a root.
fn stratify(clicks: Vec<Click>) -> Vec<Click> {
    let mut roots: Vec<(String, VecDeque<Vec<Click>>)> = Vec::new();
    let mut session: Vec<Click> = Vec::new();
    let mut root = String::new();
    let mut flush = |root: &str, session: Vec<Click>| {
        if session.is_empty() {
            return;
        }
        match roots.iter_mut().find(|(r, _)| r == root) {
            Some((_, sessions)) => sessions.push_back(session),
            None => roots.push((root.to_string(), VecDeque::from([session]))),
        }
    };
    for click in clicks {
        if click.queries.iter().any(|q| !q.contains(" WHERE ")) {
            flush(&root, std::mem::take(&mut session));
            root = click.queries.iter().find_map(|q| where_clause(q)).unwrap_or_default().into();
        }
        session.push(click);
    }
    flush(&root, session);

    let sizes: Vec<usize> = roots.iter().map(|(_, s)| s.len()).collect();
    let total: usize = sizes.iter().sum();
    let mut taken = vec![0usize; roots.len()];
    let mut out = Vec::new();
    for k in 1..=total {
        // The root furthest behind its share of the first k sessions;
        // ties go to the root seen first.
        let deficit = |r: usize| (k * sizes[r]) as f64 / total as f64 - taken[r] as f64;
        let pick = (0..roots.len())
            .filter(|&r| taken[r] < sizes[r])
            .fold(None, |best: Option<usize>, r| match best {
                Some(b) if deficit(b) >= deficit(r) => Some(b),
                _ => Some(r),
            })
            .expect("a session is left while k <= total");
        taken[pick] += 1;
        out.extend(roots[pick].1.pop_front().expect("counted above"));
    }
    out
}

fn where_clause(sql: &str) -> Option<&str> {
    Some(sql.split_once(" WHERE ")?.1.split_once(" GROUP BY ")?.0)
}

fn table_digest(table: &Table) -> u64 {
    table.iter_rows().fold(table.len() as u64, |h, row| mix(h, fx_hash64(&row.0)))
}

fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29)
}

fn sub_seed(seed: u64, role: u64, k: u64) -> u64 {
    mix(mix(seed, role), k.wrapping_add(1))
}
