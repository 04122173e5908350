//! `graph_fig5`: the §6.2 graph benchmark on Split 4 at its steady state.
//!
//! Split 4 is `split(ConcurrentHashMap, TreeMap)` under a 1024-stripe
//! root (the Figure 5 configuration), driven through `RelationGraph`. The
//! graph starts at the 35-35-20-10 mix's steady state: with inserts at
//! 20% and removes at 10% of calls over uniform keys, an edge is present
//! with probability 2/3, about 43,690 of the 256² possible edges, so the
//! size does not drift during the run. Each client owns the `src` values
//! of one parity and issues every write and successor read on them, so
//! it knows the exact answer; predecessor reads are checked exactly on
//! the client's own rows. One call in 32 is a reweight `transaction`
//! (read an owned edge's weight, write a new one) so that transaction
//! latency is measured here too; the Handcoded comparison in the traced
//! run uses the pure mix on both sides.

use std::sync::Arc;

use relc::decomp::library::split;
use relc::placement::LockPlacement;
use relc::{ConcurrentRelation, StatsSnapshot};
use relc_autotune::{GraphOps, RelationGraph};
use relc_bench::handcoded::HandcodedGraph;
use relc_containers::ContainerKind;
use relc_spec::Tuple;

use crate::harness::{closed_loop, Cfg, Cols, Metric, Workload, CLIENTS, VERIFY_MAX_ROWS};
use crate::rec::{self, Class, Recorder, Rng};

/// Node count of the §6.2 benchmark.
const NODES: i64 = 256;
/// Figure 5's stripe factor for striped roots.
const STRIPES: u32 = 1024;
/// One call in this many is a reweight transaction.
const TXN_EVERY: u64 = 32;
/// Fixed duration of each reference series in the traced run.
const REF_SECS: f64 = 1.5;

/// One client's exact view of the edges whose `src` it owns.
#[derive(Debug, Clone)]
pub struct Model {
    owner: i64,
    nodes: i64,
    /// `weight[(src / 2) * nodes + dst]`, `None` when absent.
    weight: Vec<Option<i64>>,
}

impl Model {
    fn slot(&self, src: i64, dst: i64) -> usize {
        ((src / 2) * self.nodes + dst) as usize
    }

    fn get(&self, src: i64, dst: i64) -> Option<i64> {
        self.weight[self.slot(src, dst)]
    }

    fn set(&mut self, src: i64, dst: i64, w: Option<i64>) {
        let i = self.slot(src, dst);
        self.weight[i] = w;
    }
}

/// One §6.2 call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Successors(i64),
    Predecessors(i64),
    Insert(i64, i64, i64),
    Remove(i64, i64),
    Reweight(i64, i64, i64),
}

/// Draws the next call of client `owner`: uniform keys, `src` from the
/// client's own parity, the 35-35-20-10 mix, and (when `txns`) one
/// reweight transaction in [`TXN_EVERY`].
pub fn next_op(rng: &mut Rng, owner: i64, nodes: i64, txns: bool) -> Op {
    let src = 2 * rng.below((nodes / 2) as u64) as i64 + owner;
    let dst = rng.below(nodes as u64) as i64;
    let w = rng.below(1_000_000) as i64;
    if txns && rng.below(TXN_EVERY) == 0 {
        return Op::Reweight(src, dst, w);
    }
    match rng.below(100) {
        0..35 => Op::Successors(src),
        35..70 => Op::Predecessors(dst),
        70..90 => Op::Insert(src, dst, w),
        _ => Op::Remove(src, dst),
    }
}

/// The seeded starting state: each edge present with probability 2/3.
fn starting_edges(seed: u64, nodes: i64) -> Vec<(i64, i64, i64)> {
    let mut rng = Rng::new(seed, 0x6a09);
    let mut edges = Vec::new();
    for s in 0..nodes {
        for d in 0..nodes {
            let present = rng.below(3) < 2;
            let w = rng.below(1_000_000) as i64;
            if present {
                edges.push((s, d, w));
            }
        }
    }
    edges
}

fn models_for(edges: &[(i64, i64, i64)], nodes: i64) -> Vec<Model> {
    let mut models: Vec<Model> = (0..CLIENTS as i64)
        .map(|owner| Model {
            owner,
            nodes,
            weight: vec![None; (nodes * nodes) as usize],
        })
        .collect();
    for &(s, d, w) in edges {
        models[(s % 2) as usize].set(s, d, Some(w));
    }
    models
}

/// The relation under test plus its graph view.
pub struct GraphFig5 {
    graph: RelationGraph,
    nodes: i64,
    cols: Cols,
}

impl GraphFig5 {
    fn relation(&self) -> &Arc<ConcurrentRelation> {
        self.graph.relation()
    }
}

/// Issues `op` on `graph` (and, for the reweight transaction, on its
/// relation) and checks the answer against the client's model.
fn run_op(
    graph: &dyn GraphOps,
    rel: Option<(&ConcurrentRelation, Cols)>,
    op: Op,
    m: &mut Model,
    rec: &mut Recorder,
) {
    match op {
        Op::Successors(s) => {
            let Some(mut rows) = rec.call(Class::Read, "graph.find_successors", || {
                Ok::<_, ()>(graph.find_successors(s))
            }) else {
                return;
            };
            rec.rows_read += rows.len() as u64;
            rec.check("successors equal the model", || {
                rows.sort_unstable();
                let want = (0..m.nodes).filter_map(|d| m.get(s, d).map(|w| (d, w)));
                rows.iter().copied().eq(want)
            });
        }
        Op::Predecessors(d) => {
            let Some(rows) = rec.call(Class::Read, "graph.find_predecessors", || {
                Ok::<_, ()>(graph.find_predecessors(d))
            }) else {
                return;
            };
            rec.rows_read += rows.len() as u64;
            rec.check("predecessors agree with the model on owned rows", || {
                let mut seen = vec![false; m.nodes as usize];
                let mut own: Vec<(i64, i64)> = Vec::new();
                for &(s, w) in &rows {
                    if !(0..m.nodes).contains(&s) || std::mem::replace(&mut seen[s as usize], true)
                    {
                        return false;
                    }
                    if s % 2 == m.owner {
                        own.push((s, w));
                    }
                }
                own.sort_unstable();
                let want = (0..m.nodes)
                    .filter(|s| s % 2 == m.owner)
                    .filter_map(|s| m.get(s, d).map(|w| (s, w)));
                own.into_iter().eq(want)
            });
        }
        Op::Insert(s, d, w) => {
            let Some(done) = rec.call(Class::Write, "graph.insert_edge", || {
                Ok::<_, ()>(graph.insert_edge(s, d, w))
            }) else {
                return;
            };
            let want = m.get(s, d).is_none();
            rec.check("insert_edge result", || done == want);
            if done {
                rec.writes_done += 1;
                m.set(s, d, Some(w));
            }
        }
        Op::Remove(s, d) => {
            let Some(done) = rec.call(Class::Write, "graph.remove_edge", || {
                Ok::<_, ()>(graph.remove_edge(s, d))
            }) else {
                return;
            };
            let want = m.get(s, d).is_some();
            rec.check("remove_edge result", || done == want);
            if done {
                rec.writes_done += 1;
                m.set(s, d, None);
            }
        }
        Op::Reweight(s, d, w) => {
            let Some((rel, cols)) = rel else {
                return;
            };
            let (key, payload) = (cols.key(s, d), cols.weight(w));
            let old = rec.txn("relc.transaction", false, |log| {
                rel.transaction(|tx| {
                    rec::attempt(log, || {
                        let cur = tx.query(&key, cols.w_only)?;
                        match cols.weight_of(&cur) {
                            Some(old) => {
                                tx.update(&key, &payload)?;
                                Ok(Some(old))
                            }
                            None => Ok(None),
                        }
                    })
                })
            });
            let Some(old) = old else {
                return;
            };
            let want = m.get(s, d);
            rec.check("reweight read the model's weight", || old == want);
            if old.is_some() {
                rec.writes_done += 1;
                m.set(s, d, Some(w));
            }
        }
    }
}

/// Runs the pure 35-35-20-10 mix on `graph` for `secs` and returns its
/// calls per second (the Figure 5 comparison, traced run only).
fn pure_mix(
    graph: &dyn GraphOps,
    models: &mut [Model],
    seed: u64,
    secs: f64,
    rec: &mut Recorder,
) -> f64 {
    let mut rngs: Vec<Rng> = (0..models.len() as u64)
        .map(|c| Rng::new(seed ^ 0x4efe, c))
        .collect();
    let mut phase = closed_loop(models, &mut rngs, secs, 1, |rng, m, r| {
        let op = next_op(rng, m.owner, m.nodes, false);
        run_op(graph, None, op, m, r);
    });
    let ops = phase.ops_per_s();
    rec.merge(phase.merged());
    ops
}

/// The Figure 5 comparison, run at the end of the traced run: a fresh
/// Split 4 and the Handcoded graph start from the same seeded steady
/// state and run the same seeded pure mix for [`REF_SECS`] each.
fn reference(cfg: &Cfg, rec: &mut Recorder) -> Vec<Metric> {
    let (split4, mut split_models) = GraphFig5::setup(cfg);
    let split4_ops = pure_mix(&split4.graph, &mut split_models, cfg.seed, REF_SECS, rec);
    drop(split4);
    let hand = HandcodedGraph::new();
    let edges = starting_edges(cfg.seed, NODES / cfg.shrink);
    for &(s, d, w) in &edges {
        assert!(hand.insert_edge(s, d, w), "Handcoded load");
    }
    let mut hand_models = models_for(&edges, NODES / cfg.shrink);
    let hand_ops = pure_mix(&hand, &mut hand_models, cfg.seed, REF_SECS, rec);
    vec![
        ("ref.handcoded_ops_per_s", hand_ops, "ops/s"),
        ("ref.gap_x", hand_ops / split4_ops.max(1e-9), "ratio"),
    ]
}

impl Workload for GraphFig5 {
    type Model = Model;
    const NOT_REACHED: &'static [&'static str] = &["wal.bytes_per_commit", "wal.recover_ms"];
    /// Only 450–600 reweight transactions complete in a window of a 32 s
    /// run: a p99 would rest on the window's five slowest.
    const TAIL: f64 = 0.95;

    fn setup(cfg: &Cfg) -> (Self, Vec<Model>) {
        let nodes = NODES / cfg.shrink;
        let d = split(ContainerKind::ConcurrentHashMap, ContainerKind::TreeMap);
        let p = LockPlacement::striped_root(&d, STRIPES).expect("Split 4 placement");
        let rel = Arc::new(ConcurrentRelation::new(d, p).expect("Split 4"));
        let graph = RelationGraph::new(Arc::clone(&rel)).expect("graph schema");
        let cols = Cols::of(rel.schema());
        let edges = starting_edges(cfg.seed, nodes);
        let rows: Vec<(Tuple, Tuple)> = edges
            .iter()
            .map(|&(s, d, w)| (cols.key(s, d), cols.weight(w)))
            .collect();
        for chunk in rows.chunks(4096) {
            rel.insert_all(chunk).expect("load the starting graph");
        }
        let mut models = models_for(&edges, nodes);
        let g = GraphFig5 { graph, nodes, cols };
        // Warm every plan the mix uses, leaving the state unchanged:
        // remove an owned edge, put it back, reweight it to its weight.
        let (s, d, w) = edges[0];
        let mut warm = Recorder::default();
        let m = &mut models[(s % 2) as usize];
        for op in [
            Op::Successors(s),
            Op::Predecessors(d),
            Op::Remove(s, d),
            Op::Insert(s, d, w),
            Op::Reweight(s, d, w),
        ] {
            run_op(&g.graph, Some((g.relation(), g.cols)), op, m, &mut warm);
        }
        assert_eq!(warm.failed, 0, "warm-up calls failed: {:?}", warm.notes);
        (g, models)
    }

    fn op(&self, rng: &mut Rng, m: &mut Model, rec: &mut Recorder) {
        let op = next_op(rng, m.owner, self.nodes, true);
        run_op(&self.graph, Some((self.relation(), self.cols)), op, m, rec);
    }

    fn stats(&self) -> StatsSnapshot {
        self.relation().stats_snapshot()
    }

    fn floor_keys(&self) -> Vec<(i64, i64)> {
        (0..self.nodes).map(|s| (s, (s * 7) % self.nodes)).collect()
    }

    fn finish(
        self,
        cfg: &Cfg,
        models: Vec<Model>,
        rec: &mut Recorder,
        traced: bool,
    ) -> Vec<Metric> {
        let rel = Arc::clone(self.relation());
        let all = rec.call(Class::Other, "relc.snapshot", || rel.snapshot());
        if let Some(all) = all {
            rec.check("final graph equals the client models", || {
                let mut n = 0usize;
                for t in &all {
                    let Some((s, d, w)) = self.cols.row(t) else {
                        return false;
                    };
                    if models[(s % 2) as usize].get(s, d) != Some(w) {
                        return false;
                    }
                    n += 1;
                }
                let want: usize = models
                    .iter()
                    .map(|m| m.weight.iter().flatten().count())
                    .sum();
                n == want && rel.len() == want
            });
        }
        if !traced {
            return Vec::new();
        }
        if rel.len() <= VERIFY_MAX_ROWS {
            if let Err(e) = rel.verify() {
                rec.fail(format!("verify: {e}"));
            }
        }
        // Last, so that its relation adds nothing to the counter deltas
        // above.
        drop((self, rel));
        reference(cfg, rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::test_cfg;

    /// A graph that loses the last row of every successor list.
    struct DropRow<'a>(&'a dyn GraphOps);

    impl GraphOps for DropRow<'_> {
        fn find_successors(&self, src: i64) -> Vec<(i64, i64)> {
            let mut rows = self.0.find_successors(src);
            rows.pop();
            rows
        }
        fn find_predecessors(&self, dst: i64) -> Vec<(i64, i64)> {
            self.0.find_predecessors(dst)
        }
        fn insert_edge(&self, src: i64, dst: i64, weight: i64) -> bool {
            self.0.insert_edge(src, dst, weight)
        }
        fn remove_edge(&self, src: i64, dst: i64) -> bool {
            self.0.remove_edge(src, dst)
        }
        fn edge_count(&self) -> usize {
            self.0.edge_count()
        }
    }

    #[test]
    fn a_dropped_row_counts_as_failed() {
        let (g, mut models) = GraphFig5::setup(&test_cfg("drop"));
        let mut rngs: Vec<Rng> = (0..CLIENTS as u64).map(|c| Rng::new(7, c)).collect();
        let bad = DropRow(&g.graph);
        let mut phase = closed_loop(&mut models, &mut rngs, 0.3, 1, |rng, m, rec| {
            let op = next_op(rng, m.owner, g.nodes, true);
            run_op(&bad, Some((g.relation(), g.cols)), op, m, rec);
        });
        let rec = phase.merged();
        assert!(rec.failed > 0, "a short successor list went unnoticed");
        assert!(rec.failed < rec.attempted);
    }

    #[test]
    fn the_seed_fixes_the_op_sequence() {
        let ops = |seed| {
            let mut rng = Rng::new(seed, 1);
            (0..2_000)
                .map(|_| next_op(&mut rng, 1, NODES, true))
                .collect::<Vec<_>>()
        };
        assert_eq!(ops(3), ops(3));
        assert_ne!(ops(3), ops(4));
        let all = ops(3);
        assert!(all.iter().any(|o| matches!(o, Op::Reweight(..))));
        assert!(all.iter().all(|o| match *o {
            Op::Successors(s) | Op::Insert(s, ..) | Op::Remove(s, _) | Op::Reweight(s, ..) =>
                s % 2 == 1,
            Op::Predecessors(_) => true,
        }));
    }
}
