//! Deadlock-freedom stress (§5.1): adversarial multi-threaded workloads on
//! every placement family, with watchdogs. "If all transactions acquire
//! locks in ascending lock order, then we are guaranteed that concurrent
//! transactions are deadlock-free."

use std::sync::{Arc, Barrier};
use std::time::Duration;

use relc_integration::graph_variant_matrix;
use relc_spec::Value;

fn with_watchdog(secs: u64, name: String, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(secs))
        .unwrap_or_else(|_| panic!("watchdog: {name} did not finish (deadlock?)"));
}

/// Bidirectional edge pairs — transactions touching (a, b) and (b, a)
/// exercise opposite traversal orders over src- and dst-keyed branches,
/// the classic deadlock shape.
#[test]
fn opposite_key_orders_do_not_deadlock() {
    for (name, rel) in graph_variant_matrix() {
        let rel2 = rel.clone();
        with_watchdog(90, name.clone(), move || {
            let threads = 8usize;
            let barrier = Arc::new(Barrier::new(threads));
            let handles: Vec<_> = (0..threads)
                .map(|tid| {
                    let rel = rel2.clone();
                    let barrier = barrier.clone();
                    std::thread::spawn(move || {
                        barrier.wait();
                        for i in 0..300i64 {
                            let (a, b) = ((i % 4) + 1, ((i + tid as i64) % 4) + 1);
                            let key = rel
                                .schema()
                                .tuple(&[("src", Value::from(a)), ("dst", Value::from(b))])
                                .unwrap();
                            let rev = rel
                                .schema()
                                .tuple(&[("src", Value::from(b)), ("dst", Value::from(a))])
                                .unwrap();
                            let w = rel.schema().tuple(&[("weight", Value::from(i))]).unwrap();
                            if tid % 2 == 0 {
                                let _ = rel.insert(&key, &w);
                                let _ = rel.remove(&rev);
                            } else {
                                let _ = rel.insert(&rev, &w);
                                let _ = rel.remove(&key);
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        rel.verify().unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

/// Speculation-heavy churn: writers constantly create and destroy the
/// targets that readers speculatively lock (§4.5's guess-validate-retry).
#[test]
fn speculative_churn_makes_progress() {
    let d = relc::decomp::library::diamond(
        relc_containers::ContainerKind::ConcurrentHashMap,
        relc_containers::ContainerKind::HashMap,
    );
    let p = relc::placement::LockPlacement::speculative(&d, 4).unwrap();
    let rel = Arc::new(relc::ConcurrentRelation::new(d, p).unwrap());
    let rel2 = rel.clone();
    with_watchdog(90, "speculative churn".into(), move || {
        let threads = 8usize;
        let barrier = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let rel = rel2.clone();
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    let dw = rel.schema().column_set(&["dst", "weight"]).unwrap();
                    for i in 0..500i64 {
                        let k = i % 3; // tiny keyspace: constant target churn
                        let key = rel
                            .schema()
                            .tuple(&[("src", Value::from(k)), ("dst", Value::from(k))])
                            .unwrap();
                        let w = rel
                            .schema()
                            .tuple(&[("weight", Value::from(tid as i64))])
                            .unwrap();
                        match (tid + i as usize) % 3 {
                            0 => {
                                let _ = rel.insert(&key, &w);
                            }
                            1 => {
                                let _ = rel.remove(&key);
                            }
                            _ => {
                                let pat = rel.schema().tuple(&[("src", Value::from(k))]).unwrap();
                                let _ = rel.query(&pat, dw).unwrap();
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    rel.verify().unwrap();
    // Speculation failures should actually have been exercised.
    let stats = rel.lock_stats();
    assert!(stats.acquisitions > 0);
}

/// Multi-operation transactions acquiring locks in *opposite* key orders —
/// the textbook deadlock shape — must restart and make progress, never
/// hang: transaction A touches key 1 then key 2 while B touches 2 then 1,
/// under one two-phase scope each. The engine's ordered/try-restart
/// protocol turns the would-be deadlock into a restart of the whole
/// closure.
#[test]
fn conflicting_transaction_orders_restart_not_deadlock() {
    for (name, rel) in graph_variant_matrix() {
        // Two fixed keys, touched in opposite orders by alternating threads.
        let k = |rel: &relc::ConcurrentRelation, s: i64| {
            rel.schema()
                .tuple(&[("src", Value::from(s)), ("dst", Value::from(s))])
                .unwrap()
        };
        let w = |rel: &relc::ConcurrentRelation, v: i64| {
            rel.schema().tuple(&[("weight", Value::from(v))]).unwrap()
        };
        rel.insert(&k(&rel, 1), &w(&rel, 0)).unwrap();
        rel.insert(&k(&rel, 2), &w(&rel, 0)).unwrap();
        let rel2 = rel.clone();
        let name2 = name.clone();
        with_watchdog(90, name.clone(), move || {
            let threads = 8usize;
            let barrier = Arc::new(Barrier::new(threads));
            let handles: Vec<_> = (0..threads)
                .map(|tid| {
                    let rel = rel2.clone();
                    let barrier = barrier.clone();
                    let name = name2.clone();
                    std::thread::spawn(move || {
                        barrier.wait();
                        for i in 0..200i64 {
                            let (first, second) = if tid % 2 == 0 { (1, 2) } else { (2, 1) };
                            let key1 = rel
                                .schema()
                                .tuple(&[("src", Value::from(first)), ("dst", Value::from(first))])
                                .unwrap();
                            let key2 = rel
                                .schema()
                                .tuple(&[
                                    ("src", Value::from(second)),
                                    ("dst", Value::from(second)),
                                ])
                                .unwrap();
                            let wt = rel.schema().tuple(&[("weight", Value::from(i))]).unwrap();
                            rel.transaction(|tx| {
                                tx.update(&key1, &wt)?;
                                tx.update(&key2, &wt)?;
                                Ok(())
                            })
                            .unwrap_or_else(|e| panic!("{name}: {e}"));
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        rel.verify().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(rel.len(), 2, "{name}");
        let s = rel.lock_stats();
        assert!(s.commits > 0, "{name}: {s}");
        assert_eq!(s.user_rollbacks, 0, "{name}: no aborts here: {s}");
    }
}

/// Batch-vs-batch crossing orders: half the threads submit their batches
/// with keys ascending, half descending — the *request* orders cross, but
/// the bulk sweep re-sorts every batch's lock targets into the §5.1 global
/// order before acquiring, so the workload must neither deadlock nor
/// livelock. The bounded-restarts assertion catches livelock: sorted
/// in-order sweeps may block but only restart on genuine out-of-order
/// conflicts (speculative guesses, non-root locks), so restarts must stay
/// far below the op count × a generous constant.
#[test]
fn crossing_batch_orders_do_not_deadlock_or_livelock() {
    for (name, rel) in graph_variant_matrix() {
        let rel2 = rel.clone();
        let rounds = 150i64;
        with_watchdog(120, name.clone(), move || {
            let threads = 8usize;
            let barrier = Arc::new(Barrier::new(threads));
            let handles: Vec<_> = (0..threads)
                .map(|tid| {
                    let rel = rel2.clone();
                    let barrier = barrier.clone();
                    std::thread::spawn(move || {
                        barrier.wait();
                        for i in 0..rounds {
                            // Everyone fights over the same 6 keys; even
                            // threads batch them ascending, odd descending.
                            let mut keys: Vec<i64> = (0..6).collect();
                            if tid % 2 == 1 {
                                keys.reverse();
                            }
                            let rows: Vec<_> = keys
                                .iter()
                                .map(|&k| {
                                    (
                                        rel.schema()
                                            .tuple(&[
                                                ("src", Value::from(k)),
                                                ("dst", Value::from(k)),
                                            ])
                                            .unwrap(),
                                        rel.schema().tuple(&[("weight", Value::from(i))]).unwrap(),
                                    )
                                })
                                .collect();
                            let _ = rel.insert_all(&rows).unwrap();
                            let key_pats: Vec<_> = rows.into_iter().map(|(s, _)| s).collect();
                            let _ = rel.remove_all(&key_pats).unwrap();
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        rel.verify().unwrap_or_else(|e| panic!("{name}: {e}"));
        let s = rel.lock_stats();
        assert!(s.commits > 0, "{name}: {s}");
        // Livelock bound: 8 threads × rounds × (insert_all + remove_all),
        // each allowed a generous handful of restarts on average.
        let total_batches = 8 * rounds as u64 * 2;
        assert!(
            s.restarts < total_batches * 32,
            "{name}: restart storm looks like livelock: {s}"
        );
    }
}

/// Batch writers against single-op writers walking the keys in the
/// opposite order — the mixed-granularity version of the crossing test.
#[test]
fn batch_vs_single_crossing_orders_make_progress() {
    for (name, rel) in graph_variant_matrix() {
        let rel2 = rel.clone();
        with_watchdog(120, name.clone(), move || {
            let threads = 8usize;
            let barrier = Arc::new(Barrier::new(threads));
            let handles: Vec<_> = (0..threads)
                .map(|tid| {
                    let rel = rel2.clone();
                    let barrier = barrier.clone();
                    std::thread::spawn(move || {
                        barrier.wait();
                        let key = |k: i64| {
                            rel.schema()
                                .tuple(&[("src", Value::from(k)), ("dst", Value::from(k))])
                                .unwrap()
                        };
                        let w = |v: i64| rel.schema().tuple(&[("weight", Value::from(v))]).unwrap();
                        for i in 0..150i64 {
                            if tid % 2 == 0 {
                                // Batcher: ascending 4-key batches.
                                let rows: Vec<_> = (0..4).map(|k| (key(k), w(i))).collect();
                                let _ = rel.insert_all(&rows).unwrap();
                                let _ = rel.remove_all(&[key(0), key(1), key(2), key(3)]).unwrap();
                            } else {
                                // Single-op writer: descending walk.
                                for k in (0..4).rev() {
                                    let _ = rel.insert(&key(k), &w(i)).unwrap();
                                }
                                for k in (0..4).rev() {
                                    let _ = rel.remove(&key(k)).unwrap();
                                }
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        rel.verify().unwrap_or_else(|e| panic!("{name}: {e}"));
        let s = rel.lock_stats();
        assert!(
            s.restarts < 8 * 150 * 8 * 32,
            "{name}: restart storm looks like livelock: {s}"
        );
    }
}

/// The restart machinery terminates: after heavy contention, all lock
/// statistics are coherent (restarts imply contended or speculative events).
#[test]
fn restart_statistics_are_coherent() {
    for (name, rel) in graph_variant_matrix().into_iter().take(8) {
        let rel2 = rel.clone();
        with_watchdog(60, name.clone(), move || {
            let threads = 4usize;
            let barrier = Arc::new(Barrier::new(threads));
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let rel = rel2.clone();
                    let barrier = barrier.clone();
                    std::thread::spawn(move || {
                        barrier.wait();
                        for i in 0..300i64 {
                            let key = rel
                                .schema()
                                .tuple(&[("src", Value::from(1)), ("dst", Value::from(i % 2))])
                                .unwrap();
                            let w = rel.schema().tuple(&[("weight", Value::from(i))]).unwrap();
                            let _ = rel.insert(&key, &w);
                            let _ = rel.remove(&key);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        let s = rel.lock_stats();
        assert!(s.acquisitions > 0, "{name}: {s}");
        assert!(
            s.restarts >= s.upgrades + s.speculation_failures,
            "{name}: restarts subsume upgrades and speculation failures: {s}"
        );
    }
}

/// Concurrent upgraders: four threads run read-then-write transfers over
/// four hot keys, so transactions often share a lock that each then needs
/// exclusively. A sole reader upgrades in place; shared readers must all
/// fail their upgrades and restart with hints rather than wait on each
/// other. Each round is a small recorded history: the total is conserved,
/// the instance verifies, and the history linearizes.
#[test]
fn concurrent_read_then_write_upgraders_make_progress() {
    use relc::decomp::library::{split, stick};
    use relc::lincheck::{check_linearizable, HistoryRecorder, OpRecord};
    use relc::placement::LockPlacement;
    use relc::ConcurrentRelation;
    use relc_containers::ContainerKind;

    const THREADS: u64 = 4;
    const KEYS: i64 = 4;
    const TRANSFERS: usize = 12;
    const BALANCE: i64 = 10;
    let variants = {
        let sp = split(ContainerKind::ConcurrentHashMap, ContainerKind::HashMap);
        let st = stick(ContainerKind::HashMap, ContainerKind::TreeMap);
        vec![
            (sp.clone(), LockPlacement::fine(&sp).unwrap()),
            (st.clone(), LockPlacement::coarse(&st).unwrap()),
        ]
    };
    for (d, p) in variants {
        let name = format!("{} / {}", d.describe(), p.name());
        let mut in_place = 0;
        for round in 0..10u64 {
            let rel = Arc::new(ConcurrentRelation::new(d.clone(), p.clone()).unwrap());
            let rec = HistoryRecorder::new();
            let key = |rel: &ConcurrentRelation, k: i64| {
                rel.schema()
                    .tuple(&[("src", Value::from(1)), ("dst", Value::from(k))])
                    .unwrap()
            };
            let weight = |rel: &ConcurrentRelation, w: i64| {
                rel.schema().tuple(&[("weight", Value::from(w))]).unwrap()
            };
            for k in 0..KEYS {
                rec.record(|| {
                    let (s, t) = (key(&rel, k), weight(&rel, BALANCE));
                    let result = rel.insert(&s, &t).unwrap();
                    ((), OpRecord::Insert { s, t, result })
                });
            }
            let (rel2, rec2) = (rel.clone(), rec.clone());
            with_watchdog(120, format!("{name} round {round}"), move || {
                let barrier = Arc::new(Barrier::new(THREADS as usize));
                let handles: Vec<_> = (0..THREADS)
                    .map(|tid| {
                        let (rel, rec, barrier) = (rel2.clone(), rec2.clone(), barrier.clone());
                        std::thread::spawn(move || {
                            let mut x = (round + 1) * (tid + 5) * 0x9e37_79b9;
                            let mut next = move || {
                                x ^= x << 13;
                                x ^= x >> 7;
                                x ^= x << 17;
                                x
                            };
                            let w = rel.schema().column_set(&["weight"]).unwrap();
                            let wcol = rel.schema().column("weight").unwrap();
                            barrier.wait();
                            for _ in 0..TRANSFERS {
                                let a = (next() % KEYS as u64) as i64;
                                let b = (a + 1 + (next() % (KEYS as u64 - 1)) as i64) % KEYS;
                                let amount = 1 + (next() % 3) as i64;
                                let (ka, kb) = (key(&rel, a), key(&rel, b));
                                rec.record(|| {
                                    let mut ops = Vec::new();
                                    rel.transaction(|tx| {
                                        ops.clear();
                                        let ra = tx.query(&ka, w)?;
                                        let rb = tx.query(&kb, w)?;
                                        let bal = |rows: &[relc_spec::Tuple]| {
                                            rows[0].get(wcol).and_then(|v| v.as_int()).unwrap()
                                        };
                                        let (ba, bb) = (bal(&ra), bal(&rb));
                                        ops.push(OpRecord::Query {
                                            s: ka.clone(),
                                            cols: w,
                                            result: ra,
                                        });
                                        ops.push(OpRecord::Query {
                                            s: kb.clone(),
                                            cols: w,
                                            result: rb,
                                        });
                                        let moved = amount.min(ba);
                                        if moved > 0 {
                                            for (k, v) in [(&ka, ba - moved), (&kb, bb + moved)] {
                                                let t = weight(&rel, v);
                                                let result = tx.update(k, &t)?;
                                                ops.push(OpRecord::Update {
                                                    s: k.clone(),
                                                    t,
                                                    result,
                                                });
                                            }
                                        }
                                        Ok(())
                                    })
                                    .unwrap();
                                    ((), OpRecord::Txn { ops })
                                });
                            }
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().unwrap();
                }
            });
            let rows = rel.verify().unwrap_or_else(|e| panic!("{name}: {e}"));
            let wcol = rel.schema().column("weight").unwrap();
            let total: i64 = rows
                .iter()
                .map(|t| t.get(wcol).and_then(|v| v.as_int()).unwrap())
                .sum();
            assert_eq!(
                total,
                KEYS * BALANCE,
                "{name} round {round}: total not conserved"
            );
            let s = rel.lock_stats();
            assert!(
                s.restarts >= s.upgrades + s.speculation_failures,
                "{name}: {s}"
            );
            in_place += s.upgrades_in_place;
            let history = rec.into_history();
            assert!(
                check_linearizable(rel.schema(), &history),
                "{name} round {round}: non-linearizable history {history:#?}"
            );
        }
        assert!(in_place > 0, "{name}: no upgrade was granted in place");
    }
}
