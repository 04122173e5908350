//! `churn_large`: relation size and MVCC retirement.
//!
//! An unsharded `stick(ConcurrentHashMap, HashMap)` with fine placement,
//! loaded through `insert_all` to 65,536 rows drawn from a 131,072-key
//! diagonal universe (key `i` is the row `src = dst = i`, so every key is
//! its own root entry). Each client owns the keys of one parity. The mix:
//! 30% `insert` of an absent owned key, 30% `remove` of a present one (the
//! two alternate per client, so the size returns to 65,536 after every
//! pair), 20% `update`, 10% point `query`, 10% "move" `transaction` that
//! removes one owned key and inserts an absent one. Every insert and
//! remove adds or drops a root key under the single root lock, which is
//! where the version mirror's retirement sweep runs.
//!
//! `BENCHMARK.json` does not list this workload: at this tree it
//! completes about 60 calls a second, each write holds the root lock for
//! ~22 ms and a few wait seconds behind it, so ten runs of it spread
//! beyond any bound the gate allows. It runs by name, for a change that
//! targets retirement.

use std::sync::Arc;

use relc::decomp::library::stick;
use relc::placement::LockPlacement;
use relc::{ConcurrentRelation, StatsSnapshot};
use relc_containers::ContainerKind;
use relc_spec::Tuple;

use crate::harness::{Cfg, Cols, Metric, Table, Workload, CLIENTS, VERIFY_MAX_ROWS};
use crate::rec::{self, Class, Recorder, Rng};

/// Keys in the universe; half of them are present at any pair boundary.
const UNIVERSE: i64 = 131_072;

/// One client's exact view of its keys. Key `i = 2k + owner` is slot `k`.
#[derive(Debug, Clone)]
pub struct Model {
    owner: i64,
    present: Vec<i64>,
    absent: Vec<i64>,
    /// Index of slot `k` in whichever of the two lists holds it.
    pos: Vec<usize>,
    weight: Vec<Option<i64>>,
    /// An insert is waiting for its paired remove.
    unpaired: bool,
}

impl Model {
    fn new(owner: i64, slots: i64, rng: &mut Rng) -> Self {
        let mut all: Vec<i64> = (0..slots).collect();
        for i in (1..all.len()).rev() {
            all.swap(i, rng.pick(i + 1));
        }
        let absent = all.split_off(all.len() / 2);
        let mut m = Model {
            owner,
            present: all,
            absent,
            pos: vec![0; slots as usize],
            weight: vec![None; slots as usize],
            unpaired: false,
        };
        for (i, &k) in m.present.iter().enumerate() {
            m.pos[k as usize] = i;
            m.weight[k as usize] = Some(rng.below(1_000_000) as i64);
        }
        for (i, &k) in m.absent.iter().enumerate() {
            m.pos[k as usize] = i;
        }
        m
    }

    fn key(&self, k: i64) -> i64 {
        2 * k + self.owner
    }

    /// Moves slot `k` to the other list, recording its new weight.
    fn flip(&mut self, k: i64, w: Option<i64>) {
        let (from, to) = if self.weight[k as usize].is_some() {
            (&mut self.present, &mut self.absent)
        } else {
            (&mut self.absent, &mut self.present)
        };
        let i = self.pos[k as usize];
        from.swap_remove(i);
        if let Some(&moved) = from.get(i) {
            self.pos[moved as usize] = i;
        }
        self.pos[k as usize] = to.len();
        to.push(k);
        self.weight[k as usize] = w;
    }
}

/// One call of the mix, on model slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Insert(i64, i64),
    Remove(i64),
    Update(i64, i64),
    Query(i64),
    Move(i64, i64, i64),
}

/// Draws the next call from the client's model (so it depends only on
/// the seed while every call succeeds).
pub fn next_op(rng: &mut Rng, m: &Model) -> Op {
    let present = |rng: &mut Rng| m.present[rng.pick(m.present.len())];
    let absent = |rng: &mut Rng| m.absent[rng.pick(m.absent.len())];
    let w = rng.below(1_000_000) as i64;
    match rng.below(100) {
        0..60 if m.unpaired => Op::Remove(present(rng)),
        0..60 => Op::Insert(absent(rng), w),
        60..80 => Op::Update(present(rng), w),
        80..90 => Op::Query(rng.below(m.pos.len() as u64) as i64),
        _ => {
            let out = present(rng);
            Op::Move(out, absent(rng), w)
        }
    }
}

pub struct ChurnLarge {
    rel: Arc<ConcurrentRelation>,
    cols: Cols,
    rows: usize,
}

impl ChurnLarge {
    /// Issues `op` (single-shot calls through `table`, the move on the
    /// relation) and checks the answer.
    pub fn run_op(&self, table: &dyn Table, op: Op, m: &mut Model, rec: &mut Recorder) {
        let cols = self.cols;
        let key = |k: i64| {
            let i = m.key(k);
            cols.key(i, i)
        };
        match op {
            Op::Insert(k, w) => {
                let (t, p) = (key(k), cols.weight(w));
                let Some(done) = rec.call(Class::Write, "relc.insert", || table.insert(&t, &p))
                else {
                    return;
                };
                rec.check("insert of an absent key", || done);
                rec.writes_done += 1;
                m.flip(k, Some(w));
                m.unpaired = true;
            }
            Op::Remove(k) => {
                let t = key(k);
                let Some(n) = rec.call(Class::Write, "relc.remove", || table.remove(&t)) else {
                    return;
                };
                rec.check("remove of a present key", || n == 1);
                rec.writes_done += 1;
                m.flip(k, None);
                m.unpaired = false;
            }
            Op::Update(k, w) => {
                let (t, p) = (key(k), cols.weight(w));
                let Some(old) = rec.call(Class::Write, "relc.update", || table.update(&t, &p))
                else {
                    return;
                };
                let want = m.weight[k as usize];
                rec.check("update returned the model's weight", || {
                    old.map(|o| cols.weight_of(std::slice::from_ref(&o))) == Some(want)
                });
                rec.writes_done += 1;
                m.weight[k as usize] = Some(w);
            }
            Op::Query(k) => {
                let t = key(k);
                let Some(rows) =
                    rec.call(Class::Read, "relc.query", || table.query(&t, cols.w_only))
                else {
                    return;
                };
                rec.rows_read += rows.len() as u64;
                let want = m.weight[k as usize];
                rec.check("point query equals the model", || {
                    rows.len() == usize::from(want.is_some()) && cols.weight_of(&rows) == want
                });
            }
            Op::Move(out, into, w) => {
                let (t_out, t_in, p) = (key(out), key(into), cols.weight(w));
                let done = rec.txn("relc.transaction", false, |log| {
                    self.rel.transaction(|tx| {
                        rec::attempt(log, || {
                            let removed = tx.remove(&t_out)?;
                            let inserted = tx.insert(&t_in, &p)?;
                            Ok((removed, inserted))
                        })
                    })
                });
                let Some(done) = done else {
                    return;
                };
                rec.check(
                    "move removed a present key and inserted an absent one",
                    || done == (1, true),
                );
                rec.writes_done += 1;
                m.flip(out, None);
                m.flip(into, Some(w));
            }
        }
    }
}

impl Workload for ChurnLarge {
    type Model = Model;
    const NOT_REACHED: &'static [&'static str] = &[
        "ref.handcoded_ops_per_s",
        "ref.gap_x",
        "wal.bytes_per_commit",
        "wal.recover_ms",
    ];
    /// About 15–20 reads and as many transactions complete in a window of
    /// a 32 s run, and about 1% of writes wait out a lock convoy of
    /// 0.5–5 s: a p99 would rest on the window's slowest call.
    const TAIL: f64 = 0.85;

    fn setup(cfg: &Cfg) -> (Self, Vec<Model>) {
        let slots = UNIVERSE / cfg.shrink / CLIENTS as i64;
        let d = stick(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
        let p = LockPlacement::fine(&d).expect("fine placement");
        let rel = Arc::new(ConcurrentRelation::new(d, p).expect("stick/fine"));
        let cols = Cols::of(rel.schema());
        let mut rng = Rng::new(cfg.seed, 0xc4c4);
        let mut models: Vec<Model> = (0..CLIENTS as i64)
            .map(|owner| Model::new(owner, slots, &mut rng))
            .collect();
        let rows: Vec<(Tuple, Tuple)> = models
            .iter()
            .flat_map(|m| {
                m.present.iter().map(move |&k| {
                    let i = m.key(k);
                    let w = m.weight[k as usize].expect("present slot has a weight");
                    (cols.key(i, i), cols.weight(w))
                })
            })
            .collect();
        let n = rows.len();
        rel.insert_all(&rows).expect("load the churn relation");
        let w = ChurnLarge { rel, cols, rows: n };
        // Warm every plan, leaving the state as it was: a move there and
        // back, an insert and its remove, an update to the same weight.
        let mut warm = Recorder::default();
        let m = &mut models[0];
        let (a, b) = (m.present[0], m.absent[0]);
        let wa = m.weight[a as usize].expect("present");
        for op in [
            Op::Query(a),
            Op::Update(a, wa),
            Op::Move(a, b, wa),
            Op::Move(b, a, wa),
            Op::Insert(b, 1),
            Op::Remove(b),
        ] {
            w.run_op(&*w.rel, op, m, &mut warm);
        }
        assert_eq!(warm.failed, 0, "warm-up calls failed: {:?}", warm.notes);
        (w, models)
    }

    fn op(&self, rng: &mut Rng, m: &mut Model, rec: &mut Recorder) {
        let op = next_op(rng, m);
        self.run_op(&*self.rel, op, m, rec);
    }

    fn stats(&self) -> StatsSnapshot {
        self.rel.stats_snapshot()
    }

    fn floor_keys(&self) -> Vec<(i64, i64)> {
        (0..1024).map(|i| (2 * i, 2 * i)).collect()
    }

    fn finish(
        self,
        _cfg: &Cfg,
        mut models: Vec<Model>,
        rec: &mut Recorder,
        traced: bool,
    ) -> Vec<Metric> {
        // Close the last open pair so the size is back to its start.
        for m in &mut models {
            if m.unpaired {
                let k = m.present[0];
                self.run_op(&*self.rel, Op::Remove(k), m, rec);
            }
        }
        let all = rec.call(Class::Other, "relc.snapshot", || self.rel.snapshot());
        if let Some(all) = all {
            rec.check("final relation equals the client models", || {
                all.len() == self.rows
                    && self.rel.len() == self.rows
                    && all.iter().all(|t| match self.cols.row(t) {
                        Some((s, d, w)) if s == d => {
                            let m = &models[(s % 2) as usize];
                            m.weight.get((s / 2) as usize) == Some(&Some(w))
                        }
                        _ => false,
                    })
            });
        }
        if traced && self.rows <= VERIFY_MAX_ROWS {
            if let Err(e) = self.rel.verify() {
                rec.fail(format!("verify: {e}"));
            }
        }
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::test_cfg;

    /// Draws and issues `n` calls for each client in turn on one thread.
    fn sequence(seed: u64, n: usize) -> (Vec<Op>, Recorder) {
        let mut cfg = test_cfg("sequence");
        cfg.seed = seed;
        let (w, mut models) = ChurnLarge::setup(&cfg);
        let mut rngs: Vec<Rng> = (0..CLIENTS as u64).map(|c| Rng::new(seed, c)).collect();
        let mut rec = Recorder::default();
        let mut ops = Vec::new();
        for i in 0..n {
            let c = i % CLIENTS;
            let op = next_op(&mut rngs[c], &models[c]);
            ops.push(op);
            w.run_op(&*w.rel, op, &mut models[c], &mut rec);
        }
        (ops, rec)
    }

    #[test]
    fn the_seed_fixes_the_op_sequence() {
        let (a, rec) = sequence(3, 400);
        assert_eq!(rec.failed, 0, "{:?}", rec.notes);
        assert_eq!(a, sequence(3, 400).0);
        assert_ne!(a, sequence(4, 400).0);
    }
}
