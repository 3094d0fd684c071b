//! The sampler pool: a fixed set of worker threads executing each
//! request's sample budget as fixed-size chunks, scheduled by work
//! stealing.
//!
//! **Determinism.** Results must be bit-identical for a fixed seed no
//! matter how many workers the pool has or which worker runs which
//! chunk. Two choices make that hold:
//!
//! 1. the budget is split into *fixed-size chunks* (`CHUNK_WALKS`),
//!    independent of the worker count, and chunk `i` always samples with
//!    the RNG `derive_seed(seed, i)` — so the multiset of walks performed
//!    is a function of `(seed, budget)` alone;
//! 2. chunk results are [`SampleTally`]s — pure sums — whose merge is
//!    commutative and associative, so the scheduling order in which
//!    workers finish cannot influence the final tally.
//!
//! **Scheduling.** A request submits one [`Batch`] descriptor, not one
//! message per chunk: workers claim chunk indices from the batch's
//! atomic cursor, so a 400-chunk monolithic run costs a handful of queue
//! operations instead of 400 channel sends and `Arc` clones. Handles to
//! an in-flight batch live in a shared [`Injector`] plus per-worker
//! [`Worker`] deques; a worker joining a batch re-advertises it on its
//! own deque, so idle siblings can steal into it mid-run while the
//! owner never touches the shared injector again. Single-chunk budgets
//! bypass the pool entirely and sample on the calling thread.

use crate::error::EngineError;
use crate::planner::SampleTask;
use crossbeam::channel::SyncSender;
use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use ocqa_core::sample::{self, SampleTally};
use ocqa_core::{ChainGenerator, RepairContext};
use ocqa_logic::Query;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Walks per dispatched chunk. Fixed: changing this changes sampled
/// streams, so it is part of the engine's reproducibility contract.
pub const CHUNK_WALKS: u64 = 64;

/// One submitted sampling request. Participating workers claim chunk
/// indices through `cursor`; each claimed chunk sends exactly one result
/// on `reply`, which is pre-sized to `chunks` so sends never block.
struct Batch {
    task: SampleTask,
    query: Arc<Query>,
    walks: u64,
    chunks: u64,
    seed: u64,
    cursor: AtomicU64,
    reply: SyncSender<Result<SampleTally, String>>,
}

impl Batch {
    /// Claims and runs chunks until the cursor is exhausted.
    fn work(&self) {
        loop {
            let chunk = self.cursor.fetch_add(1, Ordering::Relaxed);
            if chunk >= self.chunks {
                return;
            }
            let quota = CHUNK_WALKS.min(self.walks - chunk * CHUNK_WALKS);
            let result = run_chunk_guarded(&self.task, &self.query, quota, self.seed, chunk);
            // The requester may have bailed (fail-fast on an earlier
            // chunk error): nothing to do.
            let _ = self.reply.send(result);
        }
    }

    /// Whether unclaimed chunks remain (racy, advisory only).
    fn has_spare_chunks(&self) -> bool {
        self.cursor.load(Ordering::Relaxed) < self.chunks
    }
}

struct PoolState {
    shutdown: bool,
    /// Bumped on every submission; workers re-scan the queues whenever it
    /// moves, which closes the sleep/submit race without spinning.
    submissions: u64,
}

struct PoolShared {
    injector: Injector<Arc<Batch>>,
    stealers: Vec<Stealer<Arc<Batch>>>,
    state: Mutex<PoolState>,
    wake: Condvar,
}

/// A fixed worker-thread pool executing sample-walk chunks with work
/// stealing.
pub struct SamplerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl SamplerPool {
    /// Spawns `workers` threads; `0` auto-sizes from the detected core
    /// count (the same default `EngineConfig` applies when `--workers`
    /// is unset).
    pub fn new(workers: usize) -> SamplerPool {
        let workers = if workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        } else {
            workers
        };
        let locals: Vec<Worker<Arc<Batch>>> = (0..workers).map(|_| Worker::new_fifo()).collect();
        let shared = Arc::new(PoolShared {
            injector: Injector::new(),
            stealers: locals.iter().map(Worker::stealer).collect(),
            state: Mutex::new(PoolState {
                shutdown: false,
                submissions: 0,
            }),
            wake: Condvar::new(),
        });
        let handles = locals
            .into_iter()
            .enumerate()
            .map(|(i, local)| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("ocqa-sampler-{i}"))
                    .spawn(move || worker_loop(&shared, &local, i))
                    .expect("spawn sampler worker")
            })
            .collect();
        SamplerPool {
            shared,
            workers: handles,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Runs `walks` sample walks of `query` split across the pool,
    /// merging the per-chunk tallies. Deterministic in `(seed, walks)`
    /// and the task's plan: every [`SampleTask`] chunk is a pure function
    /// of `(derive_seed(seed, chunk), quota)`.
    pub fn run(
        &self,
        task: &SampleTask,
        query: &Arc<Query>,
        walks: u64,
        seed: u64,
    ) -> Result<SampleTally, EngineError> {
        let chunks = walks.div_ceil(CHUNK_WALKS);
        if chunks <= 1 {
            // Single-chunk budgets skip the queues and reply channel
            // entirely: chunk 0 still seeds from derive_seed(seed, 0), so
            // the tally is bit-identical to the pooled path.
            return run_chunk_guarded(task, query, walks, seed, 0).map_err(EngineError::Sampling);
        }
        self.run_batched(task, query, walks, seed, chunks)
    }

    /// The pooled path: submits one batch descriptor and drains exactly
    /// `chunks` replies. Kept separate from [`run`](Self::run) so tests
    /// can pin the single-chunk bypass against it.
    fn run_batched(
        &self,
        task: &SampleTask,
        query: &Arc<Query>,
        walks: u64,
        seed: u64,
        chunks: u64,
    ) -> Result<SampleTally, EngineError> {
        // Pre-sized to the chunk count: every chunk sends exactly once,
        // so sends never block and the request never allocates an
        // unbounded queue.
        let (reply_tx, reply_rx) = crossbeam::channel::bounded(chunks as usize);
        let batch = Arc::new(Batch {
            task: task.clone(),
            query: query.clone(),
            walks,
            chunks,
            seed,
            cursor: AtomicU64::new(0),
            reply: reply_tx,
        });
        // One injected handle per worker that could usefully join (capped
        // by the chunk count): whichever workers are idle right now all
        // find a handle on wake-up, and leftovers drain as cheap no-ops.
        let handles = (self.workers.len() as u64).min(chunks);
        for _ in 0..handles {
            self.shared.injector.push(batch.clone());
        }
        drop(batch);
        {
            let mut state = lock(&self.shared.state);
            state.submissions += 1;
        }
        self.shared.wake.notify_all();
        let mut tally = SampleTally::default();
        for _ in 0..chunks {
            match reply_rx.recv() {
                Ok(Ok(chunk_tally)) => tally.merge(chunk_tally),
                // Fail fast: dropping the receiver makes the remaining
                // chunks' sends no-ops.
                Ok(Err(e)) => return Err(EngineError::Sampling(e)),
                Err(_) => break, // every batch handle died before replying
            }
        }
        if tally.walks != walks {
            // A worker died mid-chunk (panic): report rather than return a
            // silently short estimate.
            return Err(EngineError::Sampling(format!(
                "pool returned {} of {} requested walks",
                tally.walks, walks
            )));
        }
        Ok(tally)
    }

    /// [`run`](Self::run) with a monolithic chain-walk task — the pre-
    /// planner entry point, kept for callers that sample one context
    /// directly.
    pub fn run_monolithic(
        &self,
        ctx: &Arc<RepairContext>,
        gen: &Arc<dyn ChainGenerator>,
        query: &Arc<Query>,
        walks: u64,
        seed: u64,
    ) -> Result<SampleTally, EngineError> {
        self.run(&SampleTask::monolithic(ctx, gen), query, walks, seed)
    }
}

impl Drop for SamplerPool {
    fn drop(&mut self) {
        {
            let mut state = lock(&self.shared.state);
            state.shutdown = true;
        }
        self.shared.wake.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn lock(state: &Mutex<PoolState>) -> std::sync::MutexGuard<'_, PoolState> {
    state
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn worker_loop(shared: &PoolShared, local: &Worker<Arc<Batch>>, me: usize) {
    while let Some(batch) = next_batch(shared, local, me) {
        // Re-advertise the batch on the local deque before working it:
        // the handle stays stealable by idle siblings for the whole run,
        // and the owner pops it back (and drops it, exhausted) afterward.
        if batch.has_spare_chunks() {
            local.push(batch.clone());
        }
        batch.work();
    }
}

/// Blocks until a batch handle is available (local deque first, then the
/// injector, then sibling deques) or the pool shuts down with every
/// queue drained.
fn next_batch(shared: &PoolShared, local: &Worker<Arc<Batch>>, me: usize) -> Option<Arc<Batch>> {
    loop {
        if let Some(batch) = local.pop() {
            if batch.has_spare_chunks() {
                return Some(batch);
            }
            continue; // exhausted advertisement
        }
        // Read the submission counter *before* scanning the shared
        // queues: a submission after this point bumps it, so the wait
        // below cannot miss it.
        let (seen, shutdown) = {
            let state = lock(&shared.state);
            (state.submissions, state.shutdown)
        };
        if let Steal::Success(batch) = shared.injector.steal() {
            return Some(batch);
        }
        for (i, stealer) in shared.stealers.iter().enumerate() {
            if i == me {
                continue;
            }
            if let Steal::Success(batch) = stealer.steal() {
                return Some(batch);
            }
        }
        if shutdown {
            return None; // queues drained after the shutdown flag: done
        }
        let mut state = lock(&shared.state);
        while !state.shutdown && state.submissions == seen {
            state = shared
                .wake
                .wait(state)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
}

/// Runs one chunk with panic isolation: a panicking chunk (e.g. a
/// pathological constraint set tripping an assert deep in the repair
/// machinery) must fail *that request*, not kill a worker — a dead
/// worker would eventually brick the pool for every later request.
/// `AssertUnwindSafe` is sound here: the closure only touches the
/// task's `Arc`s (immutable) and chunk-local RNG state.
fn run_chunk_guarded(
    task: &SampleTask,
    query: &Query,
    quota: u64,
    seed: u64,
    chunk: u64,
) -> Result<SampleTally, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        task.run_chunk(query, quota, derive_seed(seed, chunk))
    }))
    .unwrap_or_else(|payload| Err(panic_text(payload.as_ref())))
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    let msg = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload");
    format!("sampling panicked: {msg}")
}

/// Per-chunk seed derivation: one SplitMix64 round over `seed ⊕ f(chunk)`.
/// Chunk streams must be decorrelated but *stable* — this function is part
/// of the reproducibility contract along with [`CHUNK_WALKS`]. The
/// implementation lives in `ocqa_core::sample` (localized sampling derives
/// its per-component streams with the same function); this re-export keeps
/// the engine's historical entry point.
pub fn derive_seed(seed: u64, chunk: u64) -> u64 {
    sample::derive_seed(seed, chunk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::DbPlan;
    use ocqa_core::UniformGenerator;
    use ocqa_data::Database;
    use ocqa_logic::parser;

    fn setup() -> (Arc<RepairContext>, Arc<dyn ChainGenerator>, Arc<Query>) {
        let facts = parser::parse_facts("R(a,b). R(a,c). R(b,b). R(b,c).").unwrap();
        let sigma = parser::parse_constraints("R(x,y), R(x,z) -> y = z.").unwrap();
        let schema = parser::infer_schema(&facts, &sigma).unwrap();
        let db = Database::from_facts(schema, facts).unwrap();
        let ctx = RepairContext::new(db, sigma);
        let gen: Arc<dyn ChainGenerator> = Arc::new(UniformGenerator::new());
        let query = Arc::new(parser::parse_query("(y) <- exists x: R(x, y)").unwrap());
        (ctx, gen, query)
    }

    #[test]
    fn identical_tallies_across_pool_sizes() {
        // Every plan's task must be bit-identical regardless of how many
        // workers split its chunks — the planner must not weaken the
        // engine's reproducibility contract.
        let (ctx, gen, query) = setup();
        let plan = DbPlan::build(&ctx);
        for route in [
            crate::planner::PlanKind::Monolithic,
            crate::planner::PlanKind::Localized,
            crate::planner::PlanKind::KeyRepair,
        ] {
            let task = plan.task(route, "uniform", gen.clone()).unwrap();
            let reference = SamplerPool::new(1).run(&task, &query, 300, 42).unwrap();
            for workers in [2, 3, 8] {
                let pool = SamplerPool::new(workers);
                let tally = pool.run(&task, &query, 300, 42).unwrap();
                assert_eq!(tally.counts, reference.counts, "{route}, {workers} workers");
                assert_eq!(tally.walks, 300);
            }
        }
    }

    #[test]
    fn single_chunk_bypass_matches_pooled_path() {
        // Budgets that fit in one chunk run on the calling thread; the
        // tally must be bit-identical to what the queues would produce.
        let (ctx, gen, query) = setup();
        let plan = DbPlan::build(&ctx);
        let pool = SamplerPool::new(3);
        for route in [
            crate::planner::PlanKind::Monolithic,
            crate::planner::PlanKind::Localized,
            crate::planner::PlanKind::KeyRepair,
        ] {
            let task = plan.task(route, "uniform", gen.clone()).unwrap();
            for walks in [1, CHUNK_WALKS - 1, CHUNK_WALKS] {
                let bypass = pool.run(&task, &query, walks, 9).unwrap();
                let pooled = pool.run_batched(&task, &query, walks, 9, 1).unwrap();
                assert_eq!(bypass.counts, pooled.counts, "{route}, {walks} walks");
                assert_eq!(bypass.walks, pooled.walks);
                assert_eq!(bypass.failed_walks, pooled.failed_walks);
            }
        }
    }

    #[test]
    fn concurrent_batches_steal_without_cross_talk() {
        // Several requests in flight at once: work stealing may interleave
        // their chunks arbitrarily across workers, but each request's
        // tally must equal its single-threaded reference.
        let (ctx, gen, query) = setup();
        let pool = Arc::new(SamplerPool::new(4));
        let reference: Vec<SampleTally> = (0..6)
            .map(|seed| {
                SamplerPool::new(1)
                    .run_monolithic(&ctx, &gen, &query, 260, seed)
                    .unwrap()
            })
            .collect();
        let handles: Vec<_> = (0..6u64)
            .map(|seed| {
                let (pool, ctx, gen, query) =
                    (pool.clone(), ctx.clone(), gen.clone(), query.clone());
                std::thread::spawn(move || pool.run_monolithic(&ctx, &gen, &query, 260, seed))
            })
            .collect();
        for (seed, h) in handles.into_iter().enumerate() {
            let tally = h.join().unwrap().unwrap();
            assert_eq!(tally.counts, reference[seed].counts, "seed {seed}");
            assert_eq!(tally.walks, 260);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let (ctx, gen, query) = setup();
        let pool = SamplerPool::new(2);
        let a = pool.run_monolithic(&ctx, &gen, &query, 300, 1).unwrap();
        let b = pool.run_monolithic(&ctx, &gen, &query, 300, 2).unwrap();
        assert_ne!(a.counts, b.counts, "seed must matter");
    }

    #[test]
    fn partial_final_chunk_counts_exactly() {
        let (ctx, gen, query) = setup();
        let pool = SamplerPool::new(4);
        let tally = pool
            .run_monolithic(&ctx, &gen, &query, CHUNK_WALKS + 7, 5)
            .unwrap();
        assert_eq!(tally.walks, CHUNK_WALKS + 7);
        assert_eq!(tally.failed_walks, 0, "key repairs never fail (Prop. 8)");
    }

    #[test]
    fn panicking_chunk_fails_request_but_pool_survives() {
        let (ctx, gen, query) = setup();
        let pool = SamplerPool::new(2);
        let bomb: Arc<dyn ChainGenerator> =
            Arc::new(ocqa_core::WeightFnGenerator::new("bomb", |_, _| {
                panic!("boom in generator")
            }));
        let err = pool
            .run_monolithic(&ctx, &bomb, &query, 200, 1)
            .unwrap_err();
        assert!(
            err.to_string().contains("panicked"),
            "panic surfaced as request error: {err}"
        );
        // Workers survived the panic; normal requests keep working.
        let tally = pool.run_monolithic(&ctx, &gen, &query, 100, 2).unwrap();
        assert_eq!(tally.walks, 100);

        // A panic while a shared chain tree builds a node stores nothing:
        // the next run on the same tree succeeds, bit-identically.
        let armed = Arc::new(std::sync::atomic::AtomicBool::new(true));
        let trip = armed.clone();
        let flaky: Arc<dyn ChainGenerator> = Arc::new(ocqa_core::WeightFnGenerator::new(
            "flaky",
            move |state, ops| {
                if state.depth() == 1 && trip.swap(false, Ordering::SeqCst) {
                    panic!("boom below the root");
                }
                UniformGenerator::new().weights(state, ops).unwrap()
            },
        ));
        let task = SampleTask::monolithic(&ctx, &flaky);
        let err = pool.run(&task, &query, 200, 9).unwrap_err();
        assert!(err.to_string().contains("panicked"), "{err}");
        assert!(!armed.load(Ordering::SeqCst));
        let again = pool.run(&task, &query, 200, 9).unwrap();
        let want = pool.run_monolithic(&ctx, &gen, &query, 200, 9).unwrap();
        assert_eq!(again.counts, want.counts);
        assert_eq!(again.walks, 200);
        assert!(
            again.counters.cached_steps > 0,
            "the tree kept its sound nodes"
        );
    }

    #[test]
    fn panicking_single_chunk_fails_without_poisoning_the_caller() {
        // The bypass path runs on the calling thread: its panics must be
        // contained the same way the pooled path contains worker panics.
        let (ctx, _, query) = setup();
        let pool = SamplerPool::new(2);
        let bomb: Arc<dyn ChainGenerator> =
            Arc::new(ocqa_core::WeightFnGenerator::new("bomb", |_, _| {
                panic!("boom in generator")
            }));
        let err = pool.run_monolithic(&ctx, &bomb, &query, 10, 1).unwrap_err();
        assert!(err.to_string().contains("panicked"), "{err}");
    }

    #[test]
    fn derive_seed_decorrelates() {
        let a = derive_seed(7, 0);
        let b = derive_seed(7, 1);
        let c = derive_seed(8, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(derive_seed(7, 1), b, "stable");
    }
}
