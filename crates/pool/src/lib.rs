//! A hermetic work-stealing worker pool.
//!
//! Two kinds of callers share this crate: the experiment harnesses, whose
//! (bench, key-size, scheme) rows are embarrassingly parallel — every row
//! builds its own circuit, lock, oracle and solver — and the GIN trainer
//! in `almost_ml`, which fans the fixed-size gradient sub-blocks of each
//! minibatch out with [`map_indexed`]. Implementation is std-only (scoped
//! threads, one `Mutex<VecDeque>` per worker, an mpsc channel for
//! results): jobs are dealt round-robin to per-worker deques, each worker
//! pops its own queue from the front and *steals from the back* of its
//! siblings' queues when it runs dry, so a long row (say, a c6288 miter)
//! never strands the other cores behind it. The calling thread is worker
//! 0: a batch spawns one thread fewer than it has workers, and the caller
//! works through its queue instead of blocking on the join — which
//! matters to the trainer, which calls once per minibatch.
//!
//! Determinism: results are returned **in job order**, whatever the
//! completion order was, so a harness's output is byte-identical between
//! a parallel run and a serial one (`ALMOST_JOBS=1`) — wall-clock
//! columns aside, which is why the CI `perf-smoke` job diffs
//! `sat_resilience.csv`, the CSV with no timing column.

use almost_telemetry as telemetry;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

std::thread_local! {
    /// True while this thread is a pool worker. Nested [`map_indexed`]
    /// calls (e.g. the GIN trainer's per-minibatch fan-out running inside
    /// a harness's per-cell job) detect it and run serially: the outer
    /// level already owns the cores, so spawning another worker set per
    /// inner call would only add thread churn and oversubscription —
    /// and serial execution is the same bit-for-bit result by the pool's
    /// determinism contract.
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Marks the calling thread as a pool worker while it runs worker 0 of a
/// batch; dropping it (also during an unwind) restores the previous flag.
struct WorkerFlag(bool);

impl WorkerFlag {
    fn raise() -> Self {
        WorkerFlag(IN_POOL_WORKER.with(|flag| flag.replace(true)))
    }
}

impl Drop for WorkerFlag {
    fn drop(&mut self) {
        IN_POOL_WORKER.with(|flag| flag.set(self.0));
    }
}

/// Worker count: `ALMOST_JOBS` when set (≥ 1), else the machine's
/// available parallelism.
pub fn num_workers() -> usize {
    std::env::var("ALMOST_JOBS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Runs `f(index, item)` for every item on the worker pool and returns the
/// results **in item order** (deterministic regardless of scheduling).
///
/// With one worker (or one item) the pool is bypassed and the closure runs
/// serially on the calling thread — the reference execution the parallel
/// output must match.
pub fn map_indexed<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let workers = num_workers().min(n.max(1));
    if workers <= 1 || IN_POOL_WORKER.with(|flag| flag.get()) {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    // Latch the tracing flag once per batch: the per-job path must not
    // even load the atomic when telemetry is disabled, and a sink
    // installed mid-batch should not produce a half-instrumented batch.
    let trace_on = telemetry::tracing();

    // Deal jobs round-robin onto per-worker deques.
    let queues: Vec<Mutex<VecDeque<(usize, T)>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, item) in items.into_iter().enumerate() {
        queues[i % workers]
            .lock()
            .expect("queue lock")
            .push_back((i, item));
    }
    let (tx, rx) = mpsc::channel::<(usize, R)>();

    // Per-worker tallies for the end-of-batch summary event; only
    // written by worker `w`, read after the scope joins.
    let tallies: Vec<Mutex<telemetry::WorkerTally>> = if trace_on {
        (0..workers)
            .map(|_| Mutex::new(telemetry::WorkerTally::default()))
            .collect()
    } else {
        Vec::new()
    };

    // Worker `w`'s loop: own queue first, then steal; every result goes
    // to `tx`, tagged with its job index.
    let run_worker = |w: usize, tx: mpsc::Sender<(usize, R)>| {
        loop {
            // Own queue first (front), then steal from siblings (back).
            // The own-queue pop is its own statement so its guard drops
            // before any sibling lock is probed: holding one queue lock
            // while acquiring another would make the lock order cyclic
            // across workers (deadlock).
            let own = queues[w].lock().expect("queue lock").pop_front();
            let stolen = own.is_none();
            let job = own.or_else(|| {
                (1..workers).find_map(|d| {
                    queues[(w + d) % workers]
                        .lock()
                        .expect("queue lock")
                        .pop_back()
                })
            });
            match job {
                Some((i, item)) => {
                    if trace_on {
                        let start_us = telemetry::clock::now_us();
                        let result = f(i, item);
                        let dur_us = telemetry::clock::now_us().saturating_sub(start_us);
                        telemetry::trace(|| telemetry::EventKind::PoolJob {
                            worker: w as u32,
                            job: i as u32,
                            stolen,
                            start_us,
                            dur_us,
                        });
                        let mut tally = tallies[w].lock().expect("tally lock");
                        tally.executed += 1;
                        tally.stolen += u32::from(stolen);
                        tally.busy_us += dur_us;
                        drop(tally);
                        let _ = tx.send((i, result));
                    } else {
                        let _ = tx.send((i, f(i, item)));
                    }
                }
                // No job is ever enqueued after the deal above, so a full
                // sweep finding every queue empty means all jobs are
                // claimed — this worker is done (no idle spinning while
                // long rows finish elsewhere).
                None => break,
            }
        }
    };

    // The calling thread is worker 0, so a batch spawns `workers - 1`
    // threads and the caller works instead of blocking on the join.
    std::thread::scope(|scope| {
        for w in 1..workers {
            let tx = tx.clone();
            let run_worker = &run_worker;
            scope.spawn(move || {
                IN_POOL_WORKER.with(|flag| flag.set(true));
                run_worker(w, tx);
            });
        }
        let _flag = WorkerFlag::raise();
        run_worker(0, tx);
    });

    if trace_on {
        telemetry::trace(|| telemetry::EventKind::PoolBatch {
            jobs: n as u32,
            workers: workers as u32,
            per_worker: tallies
                .iter()
                .map(|t| *t.lock().expect("tally lock"))
                .collect(),
        });
    }

    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in rx {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every job sends exactly one result"))
        .collect()
}

/// Outcome of a [`race`]: which runner finished first, what it returned,
/// and how long the losers took to park after the stop flag went up.
#[derive(Debug)]
pub struct RaceOutcome<R> {
    /// Index of the runner whose answer was taken.
    pub winner: usize,
    /// The winning runner's result.
    pub result: R,
    /// Microseconds from the winner publishing its answer to every other
    /// runner having returned (the cancellation latency the CI envelope
    /// test pins).
    pub cancel_us: u64,
}

/// Races `runners` against each other on scoped threads; the first runner
/// to return `Some` wins, trips the shared [`AtomicBool`] stop flag, and
/// everyone else is expected to notice the flag and bail out with `None`.
///
/// Each runner receives the stop flag and must treat a raised flag as a
/// budget-style early return — give back `None`, never a guessed verdict.
/// A runner that exhausts its own budget also returns `None` *without*
/// touching the flag, so `None` from every runner means "no one finished"
/// (the caller's budget-exhausted case) and yields `None` overall.
///
/// With a single runner no thread is spawned: the runner executes on the
/// calling thread with a flag nothing will ever raise. That serial path is
/// the pinned reference execution (`cancel_us` is 0 by definition).
pub fn race<R, F>(runners: Vec<F>) -> Option<RaceOutcome<R>>
where
    R: Send,
    F: FnOnce(&AtomicBool) -> Option<R> + Send,
{
    let stop = AtomicBool::new(false);
    if runners.len() <= 1 {
        let result = runners.into_iter().next()?(&stop)?;
        return Some(RaceOutcome {
            winner: 0,
            result,
            cancel_us: 0,
        });
    }
    let n = runners.len();
    // usize::MAX = "no winner yet"; the first successful CAS claims it.
    let winner = AtomicUsize::new(usize::MAX);
    let win_at_us = AtomicU64::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for (i, runner) in runners.into_iter().enumerate() {
            let (stop, winner, win_at_us, slots) = (&stop, &winner, &win_at_us, &slots);
            scope.spawn(move || {
                if let Some(result) = runner(stop) {
                    if winner
                        .compare_exchange(usize::MAX, i, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        win_at_us.store(telemetry::clock::now_us(), Ordering::Release);
                        *slots[i].lock().expect("race slot lock") = Some(result);
                        stop.store(true, Ordering::Release);
                    }
                    // A runner that finished second keeps its answer to
                    // itself: by construction it agrees with the winner's
                    // verdict, and dropping it keeps the outcome single-
                    // sourced.
                }
            });
        }
    });
    let w = winner.load(Ordering::Acquire);
    if w == usize::MAX {
        return None;
    }
    let parked_us = telemetry::clock::now_us();
    let result = slots[w]
        .lock()
        .expect("race slot lock")
        .take()
        .expect("winner stored its result before raising the flag");
    Some(RaceOutcome {
        winner: w,
        result,
        cancel_us: parked_us.saturating_sub(win_at_us.load(Ordering::Acquire)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order() {
        // Jobs deliberately finish out of order (later jobs are cheaper).
        let items: Vec<usize> = (0..64).collect();
        let out = map_indexed(items, |i, x| {
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            x * x
        });
        assert_eq!(out, (0..64).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_output_equals_the_serial_reference() {
        let work = |i: usize, x: u64| -> String { format!("row-{i}:{}", x.wrapping_mul(0x9E37)) };
        let items: Vec<u64> = (0..40).map(|x| x * 3 + 1).collect();
        let serial: Vec<String> = items.iter().enumerate().map(|(i, &x)| work(i, x)).collect();
        let parallel = map_indexed(items, work);
        assert_eq!(parallel, serial);
    }

    #[test]
    fn empty_and_single_item_inputs_work() {
        assert_eq!(map_indexed(Vec::<u8>::new(), |_, x| x), Vec::<u8>::new());
        assert_eq!(map_indexed(vec![9u8], |i, x| (i as u8) + x), vec![9]);
    }

    #[test]
    fn the_caller_works_and_is_unmarked_afterwards() {
        let caller = std::thread::current().id();
        let on_caller = map_indexed((0..8u32).collect(), |_, _| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            std::thread::current().id() == caller
        });
        if num_workers() > 1 {
            assert!(on_caller.contains(&true), "worker 0 runs on the caller");
            assert!(on_caller.contains(&false), "the other workers are threads");
        }
        assert!(!IN_POOL_WORKER.with(|flag| flag.get()));

        // Job 0 is worker 0's first pop, so it panics on the caller; the
        // unwind must still clear the caller's worker flag.
        let caught = std::panic::catch_unwind(|| {
            map_indexed((0..8u32).collect(), |i, x| {
                assert!(i != 0, "job 0 fails");
                x
            })
        });
        assert!(caught.is_err());
        assert!(
            !IN_POOL_WORKER.with(|flag| flag.get()),
            "a panicking batch must not leave the caller marked as a worker"
        );
    }

    #[test]
    fn num_workers_is_at_least_one() {
        assert!(num_workers() >= 1);
    }

    #[test]
    fn race_single_runner_is_the_serial_reference() {
        let out = race(vec![|_stop: &AtomicBool| Some(42u32)]).expect("runner finished");
        assert_eq!(out.winner, 0);
        assert_eq!(out.result, 42);
        assert_eq!(out.cancel_us, 0);
    }

    #[test]
    fn race_first_finisher_cancels_the_rest() {
        // Runner 1 answers immediately; runner 0 spins until the flag is
        // raised and then bails with None, as a real solver would.
        type Runner = Box<dyn FnOnce(&AtomicBool) -> Option<u32> + Send>;
        let runners: Vec<Runner> = vec![
            Box::new(|stop: &AtomicBool| {
                while !stop.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                None
            }),
            Box::new(|_stop: &AtomicBool| Some(7)),
        ];
        let out = race(runners).expect("someone finished");
        assert_eq!(out.winner, 1);
        assert_eq!(out.result, 7);
    }

    #[test]
    fn race_with_no_finisher_returns_none() {
        let runners: Vec<fn(&AtomicBool) -> Option<u32>> = vec![|_| None, |_| None];
        assert!(race(runners).is_none());
        assert!(race(Vec::<fn(&AtomicBool) -> Option<u32>>::new()).is_none());
    }

    #[test]
    fn nested_calls_run_serially_with_identical_results() {
        // An inner map_indexed inside a pool job must not spawn another
        // worker set (the outer level already owns the cores) — and by
        // the determinism contract, running it serially changes nothing.
        let outer: Vec<u32> = (0..8).collect();
        let nested = map_indexed(outer.clone(), |_, x| {
            map_indexed((0..16u32).collect(), move |j, y| {
                u64::from(x) * 1000 + u64::from(y) + j as u64
            })
        });
        let flat: Vec<Vec<u64>> = outer
            .iter()
            .map(|&x| {
                (0..16u32)
                    .enumerate()
                    .map(|(j, y)| u64::from(x) * 1000 + u64::from(y) + j as u64)
                    .collect()
            })
            .collect();
        assert_eq!(nested, flat);
    }
}
