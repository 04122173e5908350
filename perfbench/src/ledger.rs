//! `txn_sharded`: the per-call fixed cost of durable, sharded
//! transactions.
//!
//! An 8-shard `ShardedRelation` over `split(ConcurrentHashMap, HashMap)`
//! with fine placement, opened with `open_durable` (fsync off, group
//! window zero: the box's fsync latency belongs to the host, not to the
//! program). 65,536 rows: 32,768 ledger accounts (`src` = group of 64,
//! `dst` = account, `weight` = balance) in 512 groups, and 32,768 status
//! rows above them split between the clients by the parity of `dst`.
//! The mix: 40% `update` of an owned status row, 30% point `query`, 25%
//! transfer `transaction` between two accounts of one group, 5% audit
//! `read_transaction` summing one group. Client 0 calls `checkpoint()`
//! every [`CKPT_EVERY`] of its calls.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use relc::decomp::library::split;
use relc::placement::LockPlacement;
use relc::{ShardedRelation, StatsSnapshot, WalOptions};
use relc_containers::ContainerKind;
use relc_locks::GroupCommitStats;
use relc_spec::Tuple;

use crate::harness::{Cfg, Cols, Metric, Table, Workload, CLIENTS, VERIFY_MAX_ROWS};
use crate::rec::{self, now_ns, Class, Recorder, Rng};

const SHARDS: usize = 8;
const GROUPS: i64 = 512;
const GROUP_SIZE: i64 = 64;
/// Client 0 checkpoints after every this many of its own calls.
pub const CKPT_EVERY: u64 = 50_000;

fn wal_options() -> WalOptions {
    WalOptions {
        fsync: false,
        group_window: Duration::ZERO,
    }
}

/// Sizes, divided by `Cfg::shrink` in the self-tests.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    groups: i64,
    /// Status rows (as many as accounts).
    status: i64,
}

impl Sizes {
    fn new(shrink: i64) -> Self {
        let groups = GROUPS / shrink;
        Sizes {
            groups,
            status: groups * GROUP_SIZE,
        }
    }

    /// Status row `j` lives at `src = groups + j / 64`, `dst = j % 64`.
    fn status_key(&self, j: i64) -> (i64, i64) {
        (self.groups + j / GROUP_SIZE, j % GROUP_SIZE)
    }

    fn rows(&self) -> usize {
        (self.groups * GROUP_SIZE + self.status) as usize
    }
}

/// One client's exact view of its status rows, plus its call count.
#[derive(Debug, Clone)]
pub struct Model {
    owner: i64,
    /// `status[j / 2]` for the rows `j` of the client's parity.
    status: Vec<i64>,
    calls: u64,
    /// Client 0: WAL bytes seen before each checkpoint truncated the
    /// logs, and the size the last one left.
    wal_bytes: u64,
    wal_floor: u64,
}

/// One call of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Update(i64, i64),
    Query(i64),
    Transfer(i64, i64, i64, i64),
    Audit(i64),
    Checkpoint,
}

/// Draws client `owner`'s next call; client 0's every
/// [`CKPT_EVERY`]-th call is a checkpoint.
pub fn next_op(rng: &mut Rng, m: &mut Model, sizes: Sizes) -> Op {
    m.calls += 1;
    if m.owner == 0 && m.calls.is_multiple_of(CKPT_EVERY) {
        return Op::Checkpoint;
    }
    match rng.below(100) {
        0..40 => {
            let j = 2 * rng.below((sizes.status / 2) as u64) as i64 + m.owner;
            Op::Update(j, rng.below(1_000_000) as i64)
        }
        40..70 => Op::Query(rng.below(sizes.rows() as u64) as i64),
        70..95 => {
            let g = rng.below(sizes.groups as u64) as i64;
            let a = rng.below(GROUP_SIZE as u64) as i64;
            let b = (a + 1 + rng.below(GROUP_SIZE as u64 - 1) as i64) % GROUP_SIZE;
            Op::Transfer(g, a, b, 1 + rng.below(100) as i64)
        }
        _ => Op::Audit(rng.below(sizes.groups as u64) as i64),
    }
}

pub struct TxnSharded {
    rel: ShardedRelation,
    dir: PathBuf,
    sizes: Sizes,
    cols: Cols,
    /// The seeded starting balance total of each group (transfers keep
    /// it).
    group_sum: Vec<i64>,
}

/// Bytes currently in the shard logs of `dir`.
fn wal_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == "wal"))
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
            .sum()
    })
}

impl TxnSharded {
    fn open(dir: &Path) -> Result<(ShardedRelation, relc::RecoveryReport), relc::CoreError> {
        let d = split(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
        let p = LockPlacement::fine(&d).expect("fine placement");
        ShardedRelation::open_durable(d, p, SHARDS, dir, wal_options())
    }

    /// Issues `op` (single-shot calls through `table`, transactions on the
    /// relation) and checks the answer.
    pub fn run_op(&self, table: &dyn Table, op: Op, m: &mut Model, rec: &mut Recorder) {
        let cols = self.cols;
        match op {
            Op::Update(j, v) => {
                let (s, d) = self.sizes.status_key(j);
                let (key, payload) = (cols.key(s, d), cols.weight(v));
                let Some(old) =
                    rec.call(Class::Write, "relc.update", || table.update(&key, &payload))
                else {
                    return;
                };
                let slot = (j / 2) as usize;
                let want = m.status[slot];
                rec.check("update returned the model's value", || {
                    old.as_ref()
                        .and_then(|t| t.get(cols.weight))
                        .and_then(|v| v.as_int())
                        == Some(want)
                });
                rec.writes_done += 1;
                m.status[slot] = v;
            }
            Op::Query(r) => {
                let accounts = self.sizes.groups * GROUP_SIZE;
                let (s, d) = if r < accounts {
                    (r / GROUP_SIZE, r % GROUP_SIZE)
                } else {
                    self.sizes.status_key(r - accounts)
                };
                let key = cols.key(s, d);
                let Some(rows) =
                    rec.call(Class::Read, "relc.query", || table.query(&key, cols.w_only))
                else {
                    return;
                };
                rec.rows_read += rows.len() as u64;
                rec.check("point query", || {
                    let w = cols.weight_of(&rows);
                    let own = r >= accounts && (r - accounts) % 2 == m.owner;
                    rows.len() == 1
                        && match w {
                            Some(w) if own => w == m.status[((r - accounts) / 2) as usize],
                            Some(w) => r >= accounts || w >= 0,
                            None => false,
                        }
                });
            }
            Op::Transfer(g, a, b, amount) => {
                let (ka, kb) = (cols.key(g, a), cols.key(g, b));
                let cross = rec::tracing() && self.rel.shard_of(&ka) != self.rel.shard_of(&kb);
                let out = rec.txn("relc.transaction", cross, |log| {
                    self.rel.transaction(|tx| {
                        rec::attempt(log, || {
                            let ra = tx.query(&ka, cols.w_only)?;
                            let rb = tx.query(&kb, cols.w_only)?;
                            let (Some(ba), Some(bb)) = (cols.weight_of(&ra), cols.weight_of(&rb))
                            else {
                                return Err(tx.abort("transfer account missing"));
                            };
                            let moved = amount.min(ba);
                            if moved > 0 {
                                tx.update(&ka, &cols.weight(ba - moved))?;
                                tx.update(&kb, &cols.weight(bb + moved))?;
                            }
                            Ok((ba, bb, moved))
                        })
                    })
                });
                let Some((ba, bb, moved)) = out else {
                    return;
                };
                rec.check("transfer kept balances non-negative", || {
                    ba >= 0 && bb >= 0 && (0..=amount).contains(&moved)
                });
                rec.writes_done += 1;
            }
            Op::Audit(g) => {
                let pat = cols.src(g);
                let start = now_ns();
                let rows = rec.call(Class::Other, "relc.read_transaction", || {
                    self.rel.read_transaction(|r| {
                        let entered = now_ns();
                        let rows = r.query(&pat, cols.dw);
                        let exited = now_ns();
                        rec::record("snapshot.audit", entered, exited);
                        rows.map(|rows| (rows, entered, exited))
                    })
                });
                let Some((rows, entered, exited)) = rows else {
                    return;
                };
                if rec::tracing() {
                    rec.snap_open_ns.push(entered.saturating_sub(start));
                    rec.snap_body_ns.push(exited.saturating_sub(entered));
                }
                let want = self.group_sum[g as usize];
                rec.check("audit sums the group's starting total", || {
                    let ws: Vec<i64> = rows
                        .iter()
                        .filter_map(|t| cols.weight_of(std::slice::from_ref(t)))
                        .collect();
                    ws.len() as i64 == GROUP_SIZE
                        && ws.iter().all(|w| *w >= 0)
                        && ws.iter().sum::<i64>() == want
                });
            }
            Op::Checkpoint => {
                let before = wal_bytes(&self.dir);
                if rec
                    .call(Class::Other, "relc.checkpoint", || self.rel.checkpoint())
                    .is_some()
                {
                    m.wal_bytes += before.saturating_sub(m.wal_floor);
                    m.wal_floor = wal_bytes(&self.dir);
                }
            }
        }
    }
}

impl Workload for TxnSharded {
    type Model = Model;
    const NOT_REACHED: &'static [&'static str] = &["ref.handcoded_ops_per_s", "ref.gap_x"];

    fn setup(cfg: &Cfg) -> (Self, Vec<Model>) {
        let sizes = Sizes::new(cfg.shrink);
        let dir = cfg.work_dir.join("txn_sharded");
        let _ = std::fs::remove_dir_all(&dir);
        let (rel, report) = TxnSharded::open(&dir).expect("open the durable relation");
        assert_eq!(
            report.replayed + report.checkpoint_rows,
            0,
            "fresh log directory"
        );
        let cols = Cols::of(rel.schema());
        let mut rng = Rng::new(cfg.seed, 0x1ed6);
        let mut rows: Vec<(Tuple, Tuple)> = Vec::with_capacity(sizes.rows());
        let mut group_sum = vec![0i64; sizes.groups as usize];
        for g in 0..sizes.groups {
            for a in 0..GROUP_SIZE {
                let bal = 1_000 + rng.below(1_000) as i64;
                group_sum[g as usize] += bal;
                rows.push((cols.key(g, a), cols.weight(bal)));
            }
        }
        let mut models: Vec<Model> = (0..CLIENTS as i64)
            .map(|owner| Model {
                owner,
                status: Vec::with_capacity((sizes.status / 2) as usize),
                calls: 0,
                wal_bytes: 0,
                wal_floor: 0,
            })
            .collect();
        for j in 0..sizes.status {
            let v = rng.below(1_000_000) as i64;
            models[(j % 2) as usize].status.push(v);
            let (s, d) = sizes.status_key(j);
            rows.push((cols.key(s, d), cols.weight(v)));
        }
        for chunk in rows.chunks(4096) {
            rel.insert_all(chunk).expect("load the ledger");
        }
        let w = TxnSharded {
            rel,
            dir,
            sizes,
            cols,
            group_sum,
        };
        // Warm every plan, leaving the state as it was: an update to the
        // same value, a transfer there and back, a query and an audit.
        let mut warm = Recorder::default();
        let m = &mut models[0];
        let v0 = m.status[0];
        for op in [
            Op::Update(0, v0),
            Op::Query(0),
            Op::Transfer(0, 0, 1, 1),
            Op::Transfer(0, 1, 0, 1),
            Op::Audit(0),
        ] {
            w.run_op(&w.rel, op, m, &mut warm);
        }
        assert_eq!(warm.failed, 0, "warm-up calls failed: {:?}", warm.notes);
        // `wal.bytes_per_commit` counts from here, as its denominator
        // counts the timed phases' writes only.
        models[0].wal_floor = wal_bytes(&w.dir);
        (w, models)
    }

    fn op(&self, rng: &mut Rng, m: &mut Model, rec: &mut Recorder) {
        let op = next_op(rng, m, self.sizes);
        self.run_op(&self.rel, op, m, rec);
    }

    fn stats(&self) -> StatsSnapshot {
        self.rel.stats_snapshot()
    }

    fn wal_stats(&self) -> Option<GroupCommitStats> {
        self.rel.wal_stats()
    }

    fn floor_keys(&self) -> Vec<(i64, i64)> {
        (0..self.sizes.groups)
            .map(|g| (g, (g * 7) % GROUP_SIZE))
            .collect()
    }

    fn finish(
        self,
        _cfg: &Cfg,
        models: Vec<Model>,
        rec: &mut Recorder,
        traced: bool,
    ) -> Vec<Metric> {
        let mut out = Vec::new();
        let all = rec.call(Class::Other, "relc.snapshot", || self.rel.snapshot());
        if let Some(all) = &all {
            rec.check(
                "final ledger: group totals, balances and owned status rows",
                || {
                    let mut sums = vec![0i64; self.sizes.groups as usize];
                    let mut status = 0;
                    for t in all {
                        let Some((s, d, w)) = self.cols.row(t) else {
                            return false;
                        };
                        if s < self.sizes.groups {
                            if w < 0 {
                                return false;
                            }
                            sums[s as usize] += w;
                        } else {
                            let j = (s - self.sizes.groups) * GROUP_SIZE + d;
                            if models[(j % 2) as usize].status.get((j / 2) as usize) != Some(&w) {
                                return false;
                            }
                            status += 1;
                        }
                    }
                    sums == self.group_sum
                        && status == self.sizes.status
                        && all.len() == self.sizes.rows()
                },
            );
        }
        if traced {
            if self.sizes.rows() / SHARDS <= VERIFY_MAX_ROWS {
                if let Err(e) = self.rel.verify() {
                    rec.fail(format!("verify: {e}"));
                }
            }
            let bytes =
                models[0].wal_bytes + wal_bytes(&self.dir).saturating_sub(models[0].wal_floor);
            out.push((
                "wal.bytes_per_commit",
                bytes as f64 / rec.writes_done.max(1) as f64,
                "bytes",
            ));
        }
        // Reopen after close: recovery must rebuild exactly the state the
        // relation held.
        let TxnSharded { rel, dir, .. } = self;
        drop(rel);
        let start = Instant::now();
        let reopened = rec.call(Class::Other, "relc.open_durable", || TxnSharded::open(&dir));
        let recover_ms = start.elapsed().as_secs_f64() * 1e3;
        if let (Some((rel, _)), Some(all)) = (reopened, all) {
            let again = rec.call(Class::Other, "relc.snapshot", || rel.snapshot());
            rec.check("reopened relation equals the closed one", || {
                again.as_ref() == Some(&all)
            });
        }
        out.push(("wal.recover_ms", recover_ms, "ms"));
        out
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::sync::Mutex;

    use relc::CoreError;
    use relc_spec::ColumnSet;

    use super::*;
    use crate::harness::{closed_loop, test_cfg};

    /// A relation that answers every point query after the first with the
    /// row it returned the first time.
    struct Stale<'a> {
        inner: &'a dyn Table,
        seen: Mutex<HashMap<Tuple, Vec<Tuple>>>,
    }

    impl Table for Stale<'_> {
        fn insert(&self, k: &Tuple, v: &Tuple) -> Result<bool, CoreError> {
            self.inner.insert(k, v)
        }
        fn remove(&self, k: &Tuple) -> Result<usize, CoreError> {
            self.inner.remove(k)
        }
        fn update(&self, k: &Tuple, v: &Tuple) -> Result<Option<Tuple>, CoreError> {
            self.inner.update(k, v)
        }
        fn query(&self, k: &Tuple, cols: ColumnSet) -> Result<Vec<Tuple>, CoreError> {
            if let Some(rows) = self.seen.lock().unwrap().get(k) {
                return Ok(rows.clone());
            }
            let rows = self.inner.query(k, cols)?;
            self.seen.lock().unwrap().insert(k.clone(), rows.clone());
            Ok(rows)
        }
    }

    #[test]
    fn a_stale_weight_counts_as_failed() {
        let cfg = test_cfg("stale");
        let (w, mut models) = TxnSharded::setup(&cfg);
        let stale = Stale {
            inner: &w.rel,
            seen: Mutex::new(HashMap::new()),
        };
        let mut rngs: Vec<Rng> = (0..CLIENTS as u64).map(|c| Rng::new(7, c)).collect();
        let mut phase = closed_loop(&mut models, &mut rngs, 1.0, 1, |rng, m, rec| {
            let op = next_op(rng, m, w.sizes);
            w.run_op(&stale, op, m, rec);
        });
        drop(w);
        let _ = std::fs::remove_dir_all(&cfg.work_dir);
        assert!(
            phase.merged().failed > 0,
            "stale point reads went unnoticed"
        );
    }

    #[test]
    fn the_seed_fixes_the_op_sequence() {
        let ops = |seed| {
            let mut rng = Rng::new(seed, 0);
            let mut m = Model {
                owner: 0,
                status: Vec::new(),
                calls: 0,
                wal_bytes: 0,
                wal_floor: 0,
            };
            (0..(2 * CKPT_EVERY))
                .map(|_| next_op(&mut rng, &mut m, Sizes::new(1)))
                .collect::<Vec<_>>()
        };
        assert_eq!(ops(3), ops(3));
        assert_ne!(ops(3), ops(4));
        assert_eq!(ops(3).iter().filter(|o| **o == Op::Checkpoint).count(), 2);
    }
}
