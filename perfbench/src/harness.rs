//! The closed loop shared by every workload, and the per-workload
//! interface the runner drives.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use relc::{ConcurrentRelation, CoreError, ShardedRelation, StatsSnapshot};
use relc_locks::GroupCommitStats;
use relc_spec::{ColumnId, ColumnSet, RelationSchema, Tuple, Value};

use crate::rec::{self, Recorder, Rng, Span};

/// Client threads, each owning the keys of one parity: the `nproc` of
/// the 2-CPU box the bounds were set on.
pub const CLIENTS: usize = 2;

/// What a run needs besides the workload: the seed, the scratch
/// directory for logs, and the scale (tests run small).
#[derive(Debug, Clone)]
pub struct Cfg {
    pub seed: u64,
    pub work_dir: std::path::PathBuf,
    /// Divides every size of the workload (1 = the benchmark's sizes).
    pub shrink: i64,
}

/// `verify()` finds shared instances with a linear scan of those it
/// has already seen, so its cost grows with the square of the instance
/// count: 18.8 s for the 8-shard 65,536-row ledger (8,192 rows a shard),
/// over a minute for the 43,690-edge graph. The traced run calls it on
/// relations whose shards hold at most this many rows; the self-tests
/// call it on every workload at reduced size.
pub const VERIFY_MAX_ROWS: usize = 16_384;

/// One per-layer or extra metric: (name, value, unit).
pub type Metric = (&'static str, f64, &'static str);

/// One measured closed-loop phase, cut into windows of equal length.
#[derive(Debug, Default)]
pub struct Phase {
    /// The clients' records merged per window, in time order.
    pub windows: Vec<Recorder>,
    /// Per window: Σ over clients of calls ÷ (the client's time in the
    /// window − its check time).
    pub window_ops_per_s: Vec<f64>,
    pub spans: Vec<Vec<Span>>,
}

impl Phase {
    /// Median over windows of their calls per second.
    pub fn ops_per_s(&self) -> f64 {
        rec::median(&self.window_ops_per_s)
    }

    /// Median over the windows that have samples in `v` of their
    /// `q`-quantile: a neighbour's burst that slows a few windows moves
    /// it little.
    pub fn quantile(&mut self, v: impl Fn(&mut Recorder) -> &mut Vec<u64>, q: f64) -> f64 {
        let per_window: Vec<f64> = self
            .windows
            .iter_mut()
            .map(&v)
            .filter(|s| !s.is_empty())
            .map(|s| rec::quantile(s, q))
            .collect();
        rec::median(&per_window)
    }

    /// The whole phase as one record.
    pub fn merged(&mut self) -> Recorder {
        let mut all = Recorder::default();
        for w in self.windows.drain(..) {
            all.merge(w);
        }
        all
    }
}

/// Runs one closed-loop phase of `windows` windows: every client issues
/// its next call only after the previous one returned and was checked,
/// until `secs` pass. A call is filed under the window it starts in.
pub fn closed_loop<M: Send>(
    models: &mut [M],
    rngs: &mut [Rng],
    secs: f64,
    windows: usize,
    op: impl Fn(&mut Rng, &mut M, &mut Recorder) + Sync,
) -> Phase {
    let barrier = Barrier::new(models.len());
    let window = Duration::from_secs_f64(secs / windows as f64);
    let outs: Vec<(Vec<Recorder>, Vec<f64>, Vec<Span>)> = std::thread::scope(|s| {
        let handles: Vec<_> = models
            .iter_mut()
            .zip(rngs.iter_mut())
            .map(|(m, rng)| {
                let (barrier, op) = (&barrier, &op);
                s.spawn(move || {
                    let mut recs: Vec<Recorder> =
                        (0..windows).map(|_| Recorder::default()).collect();
                    let mut busy = vec![0.0; windows];
                    barrier.wait();
                    let start = Instant::now();
                    let deadline = start + Duration::from_secs_f64(secs);
                    let (mut w, mut w_start) = (0, start);
                    loop {
                        let now = Instant::now();
                        let i = ((now - start).as_nanos() / window.as_nanos().max(1)) as usize;
                        if now >= deadline || i != w {
                            busy[w] += (now - w_start).as_secs_f64();
                            if now >= deadline {
                                break;
                            }
                            (w, w_start) = (i.min(windows - 1), now);
                        }
                        op(rng, m, &mut recs[w]);
                    }
                    for (b, r) in busy.iter_mut().zip(&recs) {
                        *b -= r.check_ns as f64 * 1e-9;
                    }
                    (recs, busy, rec::take_spans())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads catch call panics"))
            .collect()
    });
    let mut phase = Phase {
        windows: (0..windows).map(|_| Recorder::default()).collect(),
        window_ops_per_s: vec![0.0; windows],
        spans: Vec::new(),
    };
    for (recs, busy, spans) in outs {
        for (w, (rec, b)) in recs.into_iter().zip(busy).enumerate() {
            if b > 0.0 {
                phase.window_ops_per_s[w] += rec.attempted as f64 / b;
            }
            phase.windows[w].merge(rec);
        }
        phase.spans.push(spans);
    }
    phase
}

/// A benchmark workload: its starting state, its per-client op, and its
/// end-of-run checks.
pub trait Workload: Sized + Sync {
    /// One client's exact model of the keys it owns.
    type Model: Send;
    /// The latency percentile reported as `*_tail_us` (per window, then
    /// the median over windows): p99 where every class has thousands of
    /// samples a window.
    const TAIL: f64 = 0.99;
    /// Per-layer metrics of layers this workload never calls; its traced
    /// run reports them as 0.
    const NOT_REACHED: &'static [&'static str];
    /// Builds the relation, loads it to its starting state and warms the
    /// plans: everything `setup_s` covers.
    fn setup(cfg: &Cfg) -> (Self, Vec<Self::Model>);
    /// Issues one call (or one transaction) and checks its output.
    fn op(&self, rng: &mut Rng, model: &mut Self::Model, rec: &mut Recorder);
    /// Stats of the relation under test.
    fn stats(&self) -> StatsSnapshot;
    fn wal_stats(&self) -> Option<GroupCommitStats> {
        None
    }
    /// Representative keys for the layer floors: `(src, dst)` pairs the
    /// workload writes.
    fn floor_keys(&self) -> Vec<(i64, i64)>;
    /// End-of-run output checks: the whole relation against the client
    /// models. `traced` adds the checks too slow for every run.
    fn finish(
        self,
        cfg: &Cfg,
        models: Vec<Self::Model>,
        rec: &mut Recorder,
        traced: bool,
    ) -> Vec<Metric>;
}

/// The single-shot calls the key-value workloads issue, behind a trait
/// so that a self-test can put a faulty relation in their place.
pub trait Table: Sync {
    fn insert(&self, k: &Tuple, v: &Tuple) -> Result<bool, CoreError>;
    fn remove(&self, k: &Tuple) -> Result<usize, CoreError>;
    fn update(&self, k: &Tuple, v: &Tuple) -> Result<Option<Tuple>, CoreError>;
    fn query(&self, k: &Tuple, cols: ColumnSet) -> Result<Vec<Tuple>, CoreError>;
}

macro_rules! table_for {
    ($t:ty) => {
        impl Table for $t {
            fn insert(&self, k: &Tuple, v: &Tuple) -> Result<bool, CoreError> {
                <$t>::insert(self, k, v)
            }
            fn remove(&self, k: &Tuple) -> Result<usize, CoreError> {
                <$t>::remove(self, k)
            }
            fn update(&self, k: &Tuple, v: &Tuple) -> Result<Option<Tuple>, CoreError> {
                <$t>::update(self, k, v)
            }
            fn query(&self, k: &Tuple, cols: ColumnSet) -> Result<Vec<Tuple>, CoreError> {
                <$t>::query(self, k, cols)
            }
        }
    };
}

table_for!(ConcurrentRelation);
table_for!(ShardedRelation);

/// The graph schema's columns, and tuple builders timed as the
/// `relspec.tuple` span.
#[derive(Debug, Clone, Copy)]
pub struct Cols {
    pub src: ColumnId,
    pub dst: ColumnId,
    pub weight: ColumnId,
    /// `{weight}`: the projection of a point query.
    pub w_only: ColumnSet,
    /// `{dst, weight}`: the projection of a successor scan.
    pub dw: ColumnSet,
}

impl Cols {
    pub fn of(schema: &RelationSchema) -> Self {
        Cols {
            src: schema.column("src").expect("graph schema"),
            dst: schema.column("dst").expect("graph schema"),
            weight: schema.column("weight").expect("graph schema"),
            w_only: schema.column_set(&["weight"]).expect("graph schema"),
            dw: schema.column_set(&["dst", "weight"]).expect("graph schema"),
        }
    }

    pub fn key(&self, s: i64, d: i64) -> Tuple {
        rec::span("relspec.tuple", || {
            Tuple::from_pairs([(self.src, Value::from(s)), (self.dst, Value::from(d))])
        })
    }

    pub fn src(&self, s: i64) -> Tuple {
        rec::span("relspec.tuple", || {
            Tuple::from_pairs([(self.src, Value::from(s))])
        })
    }

    pub fn weight(&self, w: i64) -> Tuple {
        rec::span("relspec.tuple", || {
            Tuple::from_pairs([(self.weight, Value::from(w))])
        })
    }

    /// `(src, dst, weight)` of a full row.
    pub fn row(&self, t: &Tuple) -> Option<(i64, i64, i64)> {
        let get = |c| t.get(c).and_then(Value::as_int);
        Some((get(self.src)?, get(self.dst)?, get(self.weight)?))
    }

    /// The weight of the first row of a point query's result.
    pub fn weight_of(&self, rows: &[Tuple]) -> Option<i64> {
        rows.first()?.get(self.weight).and_then(Value::as_int)
    }
}

/// A scratch directory for one self-test, inside the package directory.
#[cfg(test)]
pub fn test_cfg(name: &str) -> Cfg {
    Cfg {
        seed: 7,
        work_dir: std::path::PathBuf::from(".bench_work")
            .join(format!("test-{}-{name}", std::process::id())),
        shrink: 8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rec::Class;

    /// A slow first window (calls ten times slower) leaves the medians
    /// over windows at the other windows' figures.
    #[test]
    fn a_slow_window_moves_the_medians_little() {
        let mut models = vec![(); CLIENTS];
        let mut rngs: Vec<Rng> = (0..CLIENTS as u64).map(|c| Rng::new(1, c)).collect();
        let start = Instant::now();
        let mut phase = closed_loop(&mut models, &mut rngs, 0.5, 5, |_, _, rec| {
            let slow = start.elapsed() < Duration::from_millis(100);
            let pause = Duration::from_micros(if slow { 2_000 } else { 200 });
            rec.call(Class::Write, "sleep", || {
                std::thread::sleep(pause);
                Ok::<_, ()>(())
            });
        });
        assert_eq!(phase.windows.len(), 5);
        assert!(phase.window_ops_per_s.iter().all(|&o| o > 0.0));
        assert!(phase.ops_per_s() > 3.0 * phase.window_ops_per_s[0]);
        assert!(phase.quantile(|r| &mut r.write_ns, 0.5) < 1e6);
        let per_window: u64 = phase.windows.iter().map(|r| r.attempted).sum();
        assert_eq!(phase.merged().attempted, per_window);
    }
}
