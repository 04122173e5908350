//! Client-side measurement: the seeded generator, the per-client call
//! recorder (latencies, attempted/failed counts, check time) and the span
//! buffer of the traced run.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// SplitMix64: a tiny generator whose whole state is one `u64`, so a
/// workload's op sequence is a pure function of `(seed, client)`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_add(1).wrapping_mul(0xa076_1d64_78bd_642f))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `0..n` as an index.
    pub fn pick(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }
}

/// Nanoseconds since the first call in this process (the span clock).
pub fn now_ns() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The class a top-level call's latency is filed under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Single-shot `query` (graph reads go through `GraphOps`).
    Read,
    /// Single-shot `insert` / `remove` / `update`.
    Write,
    /// `transaction(..)`, restarts included.
    Txn,
    /// Any other call (`read_transaction`, `checkpoint`, the end-of-run
    /// reads): counted as a call, filed under no latency class.
    Other,
}

/// One client's record of the timed phase.
#[derive(Debug, Default)]
pub struct Recorder {
    pub read_ns: Vec<u64>,
    pub write_ns: Vec<u64>,
    pub txn_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Time spent checking outputs and updating the client model; it is
    /// taken out of the client's share of the timed phase.
    pub check_ns: u64,
    /// Rows returned by `Class::Read` calls.
    pub rows_read: u64,
    /// Completed calls that changed the relation (for per-write ratios).
    pub writes_done: u64,
    /// The first few failure descriptions, for the report.
    pub notes: Vec<String>,
    /// Traced run: the transaction ledger (see [`TxnLedger`]).
    pub txn: TxnLedger,
    /// Traced run: `read_transaction` entry-to-closure and closure times.
    pub snap_open_ns: Vec<u64>,
    pub snap_body_ns: Vec<u64>,
    /// Traced run: transaction latencies split by whether the transaction
    /// spans shards.
    pub cross_ns: Vec<u64>,
    pub local_ns: Vec<u64>,
    attempts: Vec<(u64, u64)>,
}

/// Where a committed transaction's time went, summed over transactions:
/// from the call to the first closure entry (`begin`), the committed
/// attempt's closure (`body`), from its exit to the return (`commit`),
/// and the attempts that restarted (`retry`). The four add up to the
/// summed transaction latency.
#[derive(Debug, Default, Clone, Copy)]
pub struct TxnLedger {
    pub begin_ns: u64,
    pub body_ns: u64,
    pub commit_ns: u64,
    pub retry_ns: u64,
    pub attempts: u64,
    pub commits: u64,
}

impl TxnLedger {
    fn add(&mut self, call_start: u64, call_end: u64, attempts: &[(u64, u64)]) {
        let (Some(first), Some(last)) = (attempts.first(), attempts.last()) else {
            return;
        };
        self.begin_ns += first.0.saturating_sub(call_start);
        self.retry_ns += last.0.saturating_sub(first.0);
        self.body_ns += last.1.saturating_sub(last.0);
        self.commit_ns += call_end.saturating_sub(last.1);
        self.attempts += attempts.len() as u64;
        self.commits += 1;
    }

    fn merge(&mut self, o: &TxnLedger) {
        self.begin_ns += o.begin_ns;
        self.body_ns += o.body_ns;
        self.commit_ns += o.commit_ns;
        self.retry_ns += o.retry_ns;
        self.attempts += o.attempts;
        self.commits += o.commits;
    }
}

/// Times one closure attempt of a transaction in the traced run; the
/// closure passes every attempt's body through this.
pub fn attempt<R>(log: &mut Vec<(u64, u64)>, f: impl FnOnce() -> R) -> R {
    if !tracing() {
        return f();
    }
    let start = now_ns();
    let out = f();
    let end = now_ns();
    log.push((start, end));
    record("txn.attempt", start, end);
    out
}

impl Recorder {
    /// Runs one top-level call: times it, counts it, and turns an `Err`
    /// or a panic into a failure. Returns `None` when the call failed.
    pub fn call<T, E: std::fmt::Debug>(
        &mut self,
        class: Class,
        name: &'static str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Option<T> {
        self.attempted += 1;
        let start = Instant::now();
        let out = span(name, || catch_unwind(AssertUnwindSafe(f)));
        let ns = start.elapsed().as_nanos() as u64;
        match class {
            Class::Read => self.read_ns.push(ns),
            Class::Write => self.write_ns.push(ns),
            Class::Txn => self.txn_ns.push(ns),
            Class::Other => {}
        }
        match out {
            Ok(Ok(v)) => Some(v),
            Ok(Err(e)) => {
                self.fail(format!("{name} returned Err: {e:?}"));
                None
            }
            Err(_) => {
                self.fail(format!("{name} panicked"));
                None
            }
        }
    }

    /// [`Recorder::call`] for `transaction(..)`: `f` gets the attempt log
    /// its closure passes to [`attempt`]. The traced run files the
    /// committed transaction's timeline into [`Recorder::txn`] and its
    /// latency under `cross_ns` when it spans shards (`cross`), else
    /// under `local_ns`.
    pub fn txn<T, E: std::fmt::Debug>(
        &mut self,
        name: &'static str,
        cross: bool,
        f: impl FnOnce(&mut Vec<(u64, u64)>) -> Result<T, E>,
    ) -> Option<T> {
        let mut log = std::mem::take(&mut self.attempts);
        log.clear();
        let start = if tracing() { now_ns() } else { 0 };
        let out = self.call(Class::Txn, name, || f(&mut log));
        if tracing() {
            let ns = *self.txn_ns.last().expect("call filed the latency");
            if cross {
                self.cross_ns.push(ns);
            } else {
                self.local_ns.push(ns);
            }
            if out.is_some() {
                self.txn.add(start, now_ns(), &log);
            }
        }
        self.attempts = log;
        out
    }

    /// Counts a failure (an `Err`, a panic, or a rejected output).
    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    /// Runs an output check, timing it as check time; a `false` result
    /// counts the call as failed.
    pub fn check(&mut self, what: &str, f: impl FnOnce() -> bool) {
        let start = Instant::now();
        let ok = f();
        self.check_ns += start.elapsed().as_nanos() as u64;
        if !ok {
            self.fail(format!("output check failed: {what}"));
        }
    }

    pub fn merge(&mut self, other: Recorder) {
        self.read_ns.extend(other.read_ns);
        self.write_ns.extend(other.write_ns);
        self.txn_ns.extend(other.txn_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.check_ns += other.check_ns;
        self.rows_read += other.rows_read;
        self.writes_done += other.writes_done;
        self.txn.merge(&other.txn);
        self.snap_open_ns.extend(other.snap_open_ns);
        self.snap_body_ns.extend(other.snap_body_ns);
        self.cross_ns.extend(other.cross_ns);
        self.local_ns.extend(other.local_ns);
        for n in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(n);
            }
        }
    }
}

/// The `q`-quantile (nearest rank) of `v`, sorting it in place; 0 when
/// empty.
pub fn quantile(v: &mut [u64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let rank = ((v.len() as f64 * q).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64
}

/// Median of a small list of measurements.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

// ---------------------------------------------------------------------------
// Spans (traced run only).
// ---------------------------------------------------------------------------

static TRACING: AtomicBool = AtomicBool::new(false);

/// Switches span recording on or off for every thread.
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::SeqCst);
}

pub fn tracing() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// One recorded interval. `parent` indexes the same thread's buffer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<u32>,
}

thread_local! {
    static SPANS: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` inside a span named `name` when tracing is on; otherwise
/// just runs it.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !tracing() {
        return f();
    }
    let idx = SPANS.with(|s| {
        let mut s = s.borrow_mut();
        let parent = OPEN.with(|o| o.borrow().last().copied());
        s.push(Span {
            name,
            start: now_ns(),
            end: 0,
            parent,
        });
        (s.len() - 1) as u32
    });
    OPEN.with(|o| o.borrow_mut().push(idx));
    let out = f();
    OPEN.with(|o| o.borrow_mut().pop());
    SPANS.with(|s| s.borrow_mut()[idx as usize].end = now_ns());
    out
}

/// Records an already-measured interval as a child of the open span.
pub fn record(name: &'static str, start: u64, end: u64) {
    if !tracing() {
        return;
    }
    let parent = OPEN.with(|o| o.borrow().last().copied());
    SPANS.with(|s| {
        s.borrow_mut().push(Span {
            name,
            start,
            end,
            parent,
        })
    });
}

/// Takes this thread's span buffer (called once per client, at the end).
pub fn take_spans() -> Vec<Span> {
    OPEN.with(|o| o.borrow_mut().clear());
    SPANS.with(|s| std::mem::take(&mut *s.borrow_mut()))
}

/// Per-name totals over a set of per-thread buffers: (count, total ns,
/// self ns), where self time is the span minus the children it covers.
pub fn ledger(threads: &[Vec<Span>]) -> Vec<(&'static str, u64, u64, u64)> {
    let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
    for spans in threads {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end.saturating_sub(s.start);
            }
        }
        for (i, s) in spans.iter().enumerate() {
            let total = s.end.saturating_sub(s.start);
            let own = total.saturating_sub(child_ns[i]);
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += total;
                    r.3 += own;
                }
                None => rows.push((s.name, 1, total, own)),
            }
        }
    }
    rows.sort_by_key(|r| std::cmp::Reverse(r.2));
    rows
}

/// Median duration of the spans named `name` (0 when absent).
pub fn median_span_ns(threads: &[Vec<Span>], name: &str) -> f64 {
    let mut d: Vec<u64> = threads
        .iter()
        .flatten()
        .filter(|s| s.name == name)
        .map(|s| s.end.saturating_sub(s.start))
        .collect();
    quantile(&mut d, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_a_function_of_seed_and_stream() {
        let a: Vec<u64> = (0..8)
            .scan(Rng::new(7, 1), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..8)
            .scan(Rng::new(7, 1), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..8)
            .scan(Rng::new(7, 2), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        let spans = vec![
            Span {
                name: "op",
                start: 0,
                end: 100,
                parent: None,
            },
            Span {
                name: "call",
                start: 10,
                end: 70,
                parent: Some(0),
            },
            Span {
                name: "inner",
                start: 20,
                end: 50,
                parent: Some(1),
            },
        ];
        let rows = ledger(&[spans]);
        let get = |n: &str| *rows.iter().find(|r| r.0 == n).unwrap();
        assert_eq!(get("op").3, 40);
        assert_eq!(get("call").3, 30);
        assert_eq!(get("inner").3, 30);
    }

    #[test]
    fn recorder_counts_err_and_panic_as_failed() {
        let mut r = Recorder::default();
        assert_eq!(r.call(Class::Read, "ok", || Ok::<_, ()>(1)), Some(1));
        assert_eq!(r.call(Class::Write, "err", || Err::<i32, _>("boom")), None);
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        assert_eq!(
            r.call(Class::Txn, "panic", || -> Result<i32, ()> { panic!("x") }),
            None
        );
        std::panic::set_hook(hook);
        r.check("mismatch", || false);
        assert_eq!((r.attempted, r.failed), (3, 3));
        assert_eq!(
            (r.read_ns.len(), r.write_ns.len(), r.txn_ns.len()),
            (1, 1, 1)
        );
    }
}
