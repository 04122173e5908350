//! Floors: each inner layer's cost timed through that layer's own public
//! API on the workload's keys, with nothing above it (traced run only).

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use relc_containers::{Container, ContainerKind};
use relc_locks::{
    GroupCommit, LockMode, LockStats, PhysicalLock, SnapshotRegistry, TwoPhaseEngine,
};
use relc_spec::Tuple;

use crate::harness::{Cols, Metric};
use crate::rec::median;

/// How long each floor runs.
const FLOOR_SECS: f64 = 0.25;
/// Size of the record the WAL floor appends.
const WAL_RECORD_BYTES: usize = 64;

/// Repeats `pass` (which does `n` operations and returns nothing) for
/// [`FLOOR_SECS`] and returns the median ns per operation over passes.
fn per_op(n: usize, mut pass: impl FnMut()) -> f64 {
    let deadline = Instant::now() + Duration::from_secs_f64(FLOOR_SECS);
    let mut samples = Vec::new();
    while Instant::now() < deadline || samples.len() < 3 {
        let start = Instant::now();
        pass();
        samples.push(start.elapsed().as_nanos() as f64 / n.max(1) as f64);
    }
    median(&samples)
}

/// Runs every floor. `keys` are the workload's `(src, dst)` keys and
/// `rows_per_read` the mean rows its reads return.
pub fn run(cols: Cols, keys: &[(i64, i64)], rows_per_read: f64, work_dir: &Path) -> Vec<Metric> {
    let tuples: Vec<Tuple> = keys.iter().map(|&(s, d)| cols.key(s, d)).collect();
    let n = tuples.len();
    let mut out = Vec::new();

    // Containers: the workloads' root container kind, keyed like the
    // relation's root edge.
    let map: Box<dyn Container<Tuple, u64>> = ContainerKind::ConcurrentHashMap.instantiate();
    for (i, t) in tuples.iter().enumerate() {
        map.write(t, Some(i as u64));
    }
    let get = per_op(n, || {
        for t in &tuples {
            std::hint::black_box(map.lookup(std::hint::black_box(t)));
        }
    });
    let (mut remove, mut insert) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs_f64(FLOOR_SECS);
    while Instant::now() < deadline || remove.len() < 3 {
        let start = Instant::now();
        for t in &tuples {
            std::hint::black_box(map.write(t, None));
        }
        let mid = Instant::now();
        for (i, t) in tuples.iter().enumerate() {
            std::hint::black_box(map.write(t, Some(i as u64)));
        }
        remove.push((mid - start).as_nanos() as f64 / n as f64);
        insert.push(mid.elapsed().as_nanos() as f64 / n as f64);
    }
    out.push(("containers.get_ns", get, "ns"));
    out.push(("containers.insert_ns", median(&insert), "ns"));
    out.push(("containers.remove_ns", median(&remove), "ns"));

    // An ordered scan as long as the workload's reads.
    let len = (rows_per_read.round() as usize).max(1);
    let tree: Box<dyn Container<i64, i64>> = ContainerKind::TreeMap.instantiate();
    for i in 0..len as i64 {
        tree.write(&i, Some(i));
    }
    let scan = per_op(len, || {
        tree.scan(&mut |k, v| {
            std::hint::black_box((k, v));
            std::ops::ControlFlow::Continue(())
        });
    });
    out.push(("containers.scan_ns_per_row", scan, "ns/row"));

    // Lock engine: two exclusive locks in order, then release, per op.
    let locks: Vec<Arc<PhysicalLock>> = (0..n).map(|_| Arc::new(PhysicalLock::new())).collect();
    let mut engine: TwoPhaseEngine<u64> = TwoPhaseEngine::new(Arc::new(LockStats::new()));
    let pairs = n / 2;
    let engine_ns = per_op(pairs, || {
        for p in 0..pairs {
            let (a, b) = (2 * p, 2 * p + 1);
            engine
                .acquire(a as u64, &locks[a], LockMode::Exclusive)
                .expect("private locks are free");
            engine
                .acquire(b as u64, &locks[b], LockMode::Exclusive)
                .expect("private locks are free");
            engine.finish();
        }
    });
    out.push(("locks.engine_ns", engine_ns, "ns"));

    let registry = SnapshotRegistry::new();
    let clock = relc_locks::commit_clock();
    let register = per_op(1024, || {
        for _ in 0..1024 {
            drop(std::hint::black_box(registry.register(clock)));
        }
    });
    out.push(("locks.snapshot_register_ns", register, "ns"));

    // Group commit with fsync off: append one record, wait until it is
    // written.
    let path = work_dir.join("floor.wal");
    let log = GroupCommit::open(&path, false).expect("open the floor log");
    let record = [0x5a_u8; WAL_RECORD_BYTES];
    let append = per_op(1024, || {
        for _ in 0..1024 {
            let seq = log.append(&record);
            log.wait_durable(seq).expect("buffered write");
        }
    });
    drop(log);
    let _ = std::fs::remove_file(&path);
    out.push(("wal.append_ns", append, "ns"));
    out
}
