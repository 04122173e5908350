//! The repository benchmark. One run sets up one workload, drives it as
//! a closed loop of two client threads for `--seconds`, checks every
//! output, and prints one JSON line: the end-to-end metrics
//! (`--trace 0`) or the per-layer ledger (`--trace 1`). See README.md.
//!
//! ```text
//! perfbench --workload graph_fig5|txn_sharded|churn_large --seed N
//!           --seconds S --trace 0|1
//! ```

mod churn;
mod floors;
mod graph;
mod harness;
mod ledger;
mod rec;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use harness::{closed_loop, Cfg, Cols, Metric, Workload, CLIENTS};
use rec::{median, quantile, Recorder, Rng, Span};

/// An untraced run sets up at least [`MIN_SETUPS`] times and keeps
/// setting up until [`SETUP_BUDGET_S`] have gone or [`MAX_SETUPS`] are
/// done; `setup_s` is the median. A ~1.5 s set-up swings by a quarter
/// with the shared box's second-to-second speed, so the median takes
/// samples from several seconds of it.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 8;
const SETUP_BUDGET_S: f64 = 6.0;

/// An untraced run drives the mix for [`WARMUP_S`] before it measures,
/// so that caches, the allocator and the logs reach their running state.
const WARMUP_S: f64 = 2.0;
/// The timed phase's windows: each end-to-end metric is the median over
/// windows of the window's figure, so that a slow spell of the shared box
/// that covers a few windows moves it little.
const WINDOWS: usize = 10;

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: [(&str, &str); 9] = [
    ("ops_per_s", "ops/s"),
    ("read_p50_us", "us"),
    ("read_tail_us", "us"),
    ("write_p50_us", "us"),
    ("write_tail_us", "us"),
    ("txn_p50_us", "us"),
    ("txn_tail_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run. A layer the workload
/// does not reach reads 0.
const PER_LAYER: [(&str, &str); 37] = [
    ("relspec.tuple_ns", "ns"),
    ("graph.rows_per_read", "count"),
    ("graph.read_ns_per_row", "ns/row"),
    ("ref.handcoded_ops_per_s", "ops/s"),
    ("ref.gap_x", "ratio"),
    ("containers.get_ns", "ns"),
    ("containers.insert_ns", "ns"),
    ("containers.remove_ns", "ns"),
    ("containers.scan_ns_per_row", "ns/row"),
    ("locks.acq_per_op", "count"),
    ("locks.contended_frac", "ratio"),
    ("locks.restarts_per_commit", "ratio"),
    ("locks.upgrades_per_commit", "ratio"),
    ("locks.snapshot_read_frac", "ratio"),
    ("locks.engine_ns", "ns"),
    ("locks.snapshot_register_ns", "ns"),
    ("txn.begin_us", "us"),
    ("txn.body_us", "us"),
    ("txn.commit_us", "us"),
    ("txn.retry_us", "us"),
    ("txn.attempts_per_commit", "ratio"),
    ("shard.cross_frac", "ratio"),
    ("shard.txn_cross_p50_us", "us"),
    ("shard.txn_local_p50_us", "us"),
    ("snapshot.open_us", "us"),
    ("snapshot.audit_us", "us"),
    ("mvcc.versions_per_write", "ratio"),
    ("mvcc.footprint_per_row", "ratio"),
    ("reclaim.retired_per_op", "ratio"),
    ("reclaim.in_flight_end", "count"),
    ("wal.bytes_per_commit", "bytes"),
    ("wal.commits_per_flush", "ratio"),
    ("wal.append_ns", "ns"),
    ("wal.checkpoint_ms", "ms"),
    ("wal.checkpoint_stall_ms", "ms"),
    ("wal.recover_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// A finished run: the checks' verdict and the metrics.
struct Outcome {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    metrics: Vec<Metric>,
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The process's peak resident set (VmHWM) in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn rngs(seed: u64) -> Vec<Rng> {
    (0..CLIENTS as u64)
        .map(|c| Rng::new(seed, 100 + c))
        .collect()
}

/// Runs one workload end to end.
fn run<W: Workload>(cfg: &Cfg, secs: f64, traced: bool) -> Outcome {
    let mut setup_s: Vec<f64> = Vec::new();
    let mut state: Option<(W, Vec<W::Model>)> = None;
    let (min, max) = if traced {
        (1, 1)
    } else {
        (MIN_SETUPS, MAX_SETUPS)
    };
    while setup_s.len() < min
        || (setup_s.len() < max && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(state.take());
        let start = Instant::now();
        state = Some(W::setup(cfg));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let (w, mut models) = state.expect("at least one set-up");
    eprintln!("setup_s per set-up: {setup_s:?}");
    let mut rngs = rngs(cfg.seed);
    let op = |rng: &mut Rng, m: &mut W::Model, r: &mut Recorder| w.op(rng, m, r);
    let mut total = Recorder::default();
    let mut metrics: Vec<Metric> = Vec::new();
    if !traced {
        let warm = closed_loop(&mut models, &mut rngs, WARMUP_S.min(secs), 1, op);
        let mut phase = closed_loop(&mut models, &mut rngs, secs, WINDOWS, op);
        // Before `finish`, whose snapshots and reopen belong to the
        // checks, not to the workload.
        let peak_rss = peak_rss_mb();
        eprintln!("ops/s per window: {:.0?}", phase.window_ops_per_s);
        metrics.push(("ops_per_s", phase.ops_per_s(), "ops/s"));
        type Samples = fn(&mut Recorder) -> &mut Vec<u64>;
        let classes: [(&str, &str, Samples); 3] = [
            ("read_p50_us", "read_tail_us", |r| &mut r.read_ns),
            ("write_p50_us", "write_tail_us", |r| &mut r.write_ns),
            ("txn_p50_us", "txn_tail_us", |r| &mut r.txn_ns),
        ];
        for (p50_name, tail_name, v) in classes {
            let (p50, tail) = (phase.quantile(v, 0.50), phase.quantile(v, W::TAIL));
            let n: usize = phase.windows.iter_mut().map(|r| v(r).len()).sum();
            eprintln!(
                "{p50_name}: {n} samples, tail = p{}, window medians p50 {:.1} tail {:.1} us",
                W::TAIL * 100.0,
                us(p50),
                us(tail)
            );
            metrics.push((p50_name, us(p50), "us"));
            metrics.push((tail_name, us(tail), "us"));
        }
        metrics.push(("setup_s", median(&setup_s), "s"));
        for mut p in [warm, phase] {
            total.merge(p.merged());
        }
        w.finish(cfg, models, &mut total, false);
        metrics.push(("peak_rss_mb", peak_rss, "MB"));
    } else {
        // Untraced, traced, untraced: the traced share's throughput
        // against the median of the other two is the tracing overhead.
        let u1 = closed_loop(&mut models, &mut rngs, secs * 0.2, 1, op);
        let (s0, wal0) = (w.stats(), w.wal_stats());
        rec::set_tracing(true);
        let mut t = closed_loop(&mut models, &mut rngs, secs * 0.6, 1, op);
        rec::set_tracing(false);
        let (s1, wal1) = (w.stats(), w.wal_stats());
        let footprint = ratio(s1.versions.live() as f64, s1.len as f64);
        let in_flight = s1.reclamation.in_flight() as f64;
        let u2 = closed_loop(&mut models, &mut rngs, secs * 0.2, 1, op);
        let untraced = median(&[u1.ops_per_s(), u2.ops_per_s()]);
        eprintln!(
            "ops/s untraced {:.1}, traced {:.1}, untraced {:.1}",
            u1.ops_per_s(),
            t.ops_per_s(),
            u2.ops_per_s()
        );
        let traced_ops = t.ops_per_s();
        let mut t_rec = t.merged();
        metrics.extend(layer_metrics(&mut t_rec, &t.spans, s0, s1, wal0, wal1));
        metrics.push(("mvcc.footprint_per_row", footprint, "ratio"));
        metrics.push(("reclaim.in_flight_end", in_flight, "count"));
        metrics.push((
            "trace.overhead_frac",
            1.0 - ratio(traced_ops, untraced),
            "ratio",
        ));
        print_ledger(&t.spans);
        write_spans(&cfg.work_dir, &t.spans);
        let rows_per_read = ratio(t_rec.rows_read as f64, t_rec.read_ns.len() as f64);
        for mut p in [u1, u2] {
            total.merge(p.merged());
        }
        total.merge(t_rec);
        let cols = Cols::of(&relc_spec::library::graph_schema());
        metrics.extend(floors::run(
            cols,
            &w.floor_keys(),
            rows_per_read,
            &cfg.work_dir,
        ));
        metrics.extend(w.finish(cfg, models, &mut total, true));
        metrics.extend(W::NOT_REACHED.iter().map(|&n| (n, 0.0, unit_of(n))));
    }
    Outcome {
        attempted: total.attempted,
        failed: total.failed,
        notes: total.notes,
        metrics,
    }
}

/// The per-layer metrics of the traced phase `t`.
fn layer_metrics(
    r: &mut Recorder,
    spans: &[Vec<Span>],
    s0: relc::StatsSnapshot,
    s1: relc::StatsSnapshot,
    wal0: Option<relc_locks::GroupCommitStats>,
    wal1: Option<relc_locks::GroupCommitStats>,
) -> Vec<Metric> {
    let ops = r.attempted as f64;
    let d = |a: u64, b: u64| b.saturating_sub(a) as f64;
    let (l0, l1) = (s0.locks, s1.locks);
    let acq = d(l0.acquisitions, l1.acquisitions);
    let commits = d(l0.commits, l1.commits);
    let snaps = d(l0.snapshot_reads, l1.snapshot_reads);
    let (appends, flushes) = match (wal0, wal1) {
        (Some(a), Some(b)) => (d(a.appends, b.appends), d(a.flushes, b.flushes)),
        _ => (0.0, 0.0),
    };
    let reads = r.read_ns.len() as f64;
    let read_ns: f64 = r.read_ns.iter().map(|&n| n as f64).sum();
    let tx = r.txn;
    let per_commit = |ns: u64| us(ratio(ns as f64, tx.commits as f64));
    let cross = r.cross_ns.len() as f64;
    let mean_us = |v: &[u64]| us(ratio(v.iter().sum::<u64>() as f64, v.len() as f64));
    let (ckpt_ms, stall_ms) = checkpoint_stall(spans);
    vec![
        (
            "relspec.tuple_ns",
            rec::median_span_ns(spans, "relspec.tuple"),
            "ns",
        ),
        (
            "graph.rows_per_read",
            ratio(r.rows_read as f64, reads),
            "count",
        ),
        (
            "graph.read_ns_per_row",
            ratio(read_ns, r.rows_read as f64),
            "ns/row",
        ),
        ("locks.acq_per_op", ratio(acq, ops), "count"),
        (
            "locks.contended_frac",
            ratio(d(l0.contended, l1.contended), acq),
            "ratio",
        ),
        (
            "locks.restarts_per_commit",
            ratio(d(l0.restarts, l1.restarts), commits),
            "ratio",
        ),
        (
            "locks.upgrades_per_commit",
            ratio(d(l0.upgrades, l1.upgrades), commits),
            "ratio",
        ),
        (
            "locks.snapshot_read_frac",
            ratio(snaps, snaps + commits),
            "ratio",
        ),
        ("txn.begin_us", per_commit(tx.begin_ns), "us"),
        ("txn.body_us", per_commit(tx.body_ns), "us"),
        ("txn.commit_us", per_commit(tx.commit_ns), "us"),
        ("txn.retry_us", per_commit(tx.retry_ns), "us"),
        (
            "txn.attempts_per_commit",
            ratio(tx.attempts as f64, tx.commits as f64),
            "ratio",
        ),
        (
            "shard.cross_frac",
            ratio(cross, cross + r.local_ns.len() as f64),
            "ratio",
        ),
        (
            "shard.txn_cross_p50_us",
            us(quantile(&mut r.cross_ns, 0.5)),
            "us",
        ),
        (
            "shard.txn_local_p50_us",
            us(quantile(&mut r.local_ns, 0.5)),
            "us",
        ),
        ("snapshot.open_us", mean_us(&r.snap_open_ns), "us"),
        ("snapshot.audit_us", mean_us(&r.snap_body_ns), "us"),
        (
            "mvcc.versions_per_write",
            ratio(
                d(s0.versions.created, s1.versions.created),
                r.writes_done as f64,
            ),
            "ratio",
        ),
        (
            "reclaim.retired_per_op",
            ratio(d(s0.reclamation.retired, s1.reclamation.retired), ops),
            "ratio",
        ),
        ("wal.commits_per_flush", ratio(appends, flushes), "ratio"),
        ("wal.checkpoint_ms", ckpt_ms, "ms"),
        ("wal.checkpoint_stall_ms", stall_ms, "ms"),
    ]
}

/// Median `checkpoint()` span, and the median over checkpoints of the
/// longest call by the other client that overlaps one (0 without
/// checkpoints).
fn checkpoint_stall(spans: &[Vec<Span>]) -> (f64, f64) {
    let mut ckpt = Vec::new();
    let mut stall = Vec::new();
    for (c, own) in spans.iter().enumerate() {
        for s in own.iter().filter(|s| s.name == "relc.checkpoint") {
            ckpt.push((s.end - s.start) as f64 / 1e6);
            let longest = spans
                .iter()
                .enumerate()
                .filter(|(o, _)| *o != c)
                .flat_map(|(_, other)| other.iter())
                .filter(|o| o.parent.is_none() && o.start < s.end && o.end > s.start)
                .map(|o| o.end - o.start)
                .max()
                .unwrap_or(0);
            stall.push(longest as f64 / 1e6);
        }
    }
    (median(&ckpt), median(&stall))
}

fn print_ledger(spans: &[Vec<Span>]) {
    let rows = rec::ledger(spans);
    let mut out = String::from("span ledger (traced phase):\n");
    let _ = writeln!(
        out,
        "  {:<28} {:>10} {:>12} {:>12} {:>10}",
        "span", "count", "total ms", "self ms", "mean ns"
    );
    for (name, n, total, own) in rows {
        let _ = writeln!(
            out,
            "  {name:<28} {n:>10} {:>12.1} {:>12.1} {:>10.0}",
            total as f64 / 1e6,
            own as f64 / 1e6,
            total as f64 / n as f64
        );
    }
    eprint!("{out}");
}

/// Writes the traced phase's spans as `client name start_ns end_ns
/// parent` lines next to the run's scratch directory.
fn write_spans(work_dir: &Path, spans: &[Vec<Span>]) {
    let mut out = String::new();
    for (c, own) in spans.iter().enumerate() {
        for s in own {
            let parent = s.parent.map_or(-1, i64::from);
            let _ = writeln!(out, "{c}\t{}\t{}\t{}\t{parent}", s.name, s.start, s.end);
        }
    }
    if let Some(parent) = work_dir.parent() {
        let _ = std::fs::write(parent.join("spans.tsv"), out);
    }
}

/// The unit a per-layer metric is printed with.
fn unit_of(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// The result line, or the names in `names` that the run did not produce
/// exactly once with a finite value.
fn json<'a>(o: &Outcome, names: &[(&'a str, &str)]) -> Result<String, Vec<&'a str>> {
    let mut m = String::new();
    let mut missing = Vec::new();
    for (i, (name, unit)) in names.iter().enumerate() {
        let mut found = o.metrics.iter().filter(|x| x.0 == *name);
        let v = match (found.next(), found.next()) {
            (Some(x), None) if x.1.is_finite() => x.1,
            _ => {
                missing.push(*name);
                continue;
            }
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            m,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    if !missing.is_empty() {
        return Err(missing);
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        o.failed == 0 && o.attempted > 0,
        o.attempted.max(1),
        o.failed
    ))
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload graph_fig5|txn_sharded|churn_large \
         --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .unwrap_or_else(|| usage(&format!("missing {flag}")))
    };
    let workload = arg("--workload");
    let seed: u64 = arg("--seed")
        .parse()
        .unwrap_or_else(|_| usage("bad --seed"));
    let secs: f64 = arg("--seconds")
        .parse()
        .unwrap_or_else(|_| usage("bad --seconds"));
    let traced = match arg("--trace").as_str() {
        "0" => false,
        "1" => true,
        _ => usage("--trace takes 0 or 1"),
    };
    if !(secs > 0.0 && secs <= 600.0) {
        usage("--seconds must be in (0, 600]");
    }
    let work_dir = PathBuf::from(".bench_work").join(format!("perfbench-{}", std::process::id()));
    std::fs::create_dir_all(&work_dir).expect("create the scratch directory");
    let cfg = Cfg {
        seed,
        work_dir: work_dir.clone(),
        shrink: 1,
    };
    eprintln!(
        "perfbench: workload={workload} seed={seed} seconds={secs} trace={} clients={CLIENTS} nproc={}",
        u8::from(traced),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let outcome = match workload.as_str() {
        "graph_fig5" => run::<graph::GraphFig5>(&cfg, secs, traced),
        "txn_sharded" => run::<ledger::TxnSharded>(&cfg, secs, traced),
        "churn_large" => run::<churn::ChurnLarge>(&cfg, secs, traced),
        other => usage(&format!("unknown workload {other}")),
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    let names: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in names {
        let v = outcome
            .metrics
            .iter()
            .find(|x| x.0 == *name)
            .map_or(0.0, |x| x.1);
        eprintln!("  {name:<28} {v:>16.4} {unit}");
    }
    eprintln!(
        "attempted={} failed={} failed_frac={}",
        outcome.attempted,
        outcome.failed,
        ratio(outcome.failed as f64, outcome.attempted as f64)
    );
    for n in &outcome.notes {
        eprintln!("  failure: {n}");
    }
    match json(&outcome, names) {
        Ok(line) => println!("{line}"),
        Err(missing) => {
            eprintln!("perfbench: metrics not produced once with a finite value: {missing:?}");
            std::process::exit(3);
        }
    }
    if outcome.failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload, reduced in size, runs clean untraced and traced
    /// (the traced run adds `verify()` and the WAL reopen check) and
    /// reports every metric.
    #[test]
    fn every_workload_passes_its_checks() {
        fn both<W: Workload>(name: &str) {
            let cfg = harness::test_cfg(name);
            std::fs::create_dir_all(&cfg.work_dir).unwrap();
            for (traced, names) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
                let o = run::<W>(&cfg, 0.4, traced);
                assert!(o.attempted > 0, "{name}");
                assert_eq!(o.failed, 0, "{name} traced={traced}: {:?}", o.notes);
                let line = json(&o, names)
                    .unwrap_or_else(|m| panic!("{name} traced={traced} lacks {m:?}"));
                assert!(line.starts_with("{\"correct\": true,"), "{line}");
            }
            std::fs::remove_dir_all(&cfg.work_dir).unwrap();
        }
        both::<graph::GraphFig5>("graph");
        both::<ledger::TxnSharded>("ledger");
        both::<churn::ChurnLarge>("churn");
    }
}

#[cfg(test)]
mod manifest_tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root names exactly the metrics
    /// and units this binary prints, in the same order.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let text = std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json");
        for (section, names) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let start = text.find(&format!("\"{section}\"")).expect("section");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("list end")];
            let listed: Vec<(&str, &str)> = body
                .split("\"name\": \"")
                .skip(1)
                .map(|e| {
                    let name = &e[..e.find('"').unwrap()];
                    let u = &e[e.find("\"unit\": \"").unwrap() + 9..];
                    (name, &u[..u.find('"').unwrap()])
                })
                .collect();
            assert_eq!(listed, names, "{section}");
        }
    }
}
