//! The repairing chain as a memoized tree (Proposition 10).
//!
//! By Proposition 10 the repairing Markov chain is a tree, and a
//! Theorem 9 `Sample` walk only ever descends it. What a walk computes at
//! a node — the legal extensions of the path so far and the generator's
//! weights over them — depends on the path alone, never on the random
//! draws. A [`ChainTree`] memoizes exactly that, for one sampling
//! snapshot and one generator, so every walk after the first that passes
//! a node pays one `next_u64` and an integer search instead of
//! re-deriving the node:
//!
//! * **inner nodes** hold the path's legal extensions and their exact
//!   cumulative draw thresholds `⌈acc·2⁶⁴⌉` (see [`crate::sample`]), so a
//!   cached step draws bit-identically to [`sample::sample_walk`];
//! * **leaves** hold the walk's outcome: the repair as a fact diff against
//!   `d0`, or the mark of a failing sequence;
//! * **children** are filled in once, lazily, by the first walk that
//!   reaches them. Node contents are a function of the path, so when two
//!   threads race to build the same node either result is correct and the
//!   loser's copy is dropped. A build that fails (generator error) or
//!   panics stores nothing.
//!
//! A walk descends cached nodes until it meets an uncached one; only then
//! does it build a [`RepairState`], by replaying the operations on its
//! path, and continue as a plain walk that stores each node it computes.
//! A fixed entry budget bounds a tree's memory: once it is spent, walks
//! below the cached frontier run uncached — at the cost of a plain walk,
//! with identical draws.
//!
//! [`ChainTree::sample_tally`] counts leaf visits and evaluates the query
//! once per distinct leaf, so a chunk of walks that keeps reaching the
//! same few repairs evaluates the query only that many times.

use crate::sample::{self, SampleError, SampleTally, WalkCounters};
use crate::{ChainGenerator, Operation, PatchSource, RepairContext, RepairState};
use ocqa_data::Fact;
use ocqa_logic::Query;
use rand::rngs::StdRng;
use rand::RngCore;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// The default per-tree budget, in stored entries: a node costs one entry
/// plus one per extension it holds (a leaf: one per fact of its diff).
/// At roughly 150 bytes per entry this caps a tree near 10 MB; the
/// read-cold benchmark's monolithic tree needs a few hundred entries.
pub const TREE_BUDGET: usize = 1 << 16;

/// Where a walk ended.
#[derive(Debug, PartialEq, Eq)]
pub enum Leaf {
    /// A successful complete sequence: the operational repair, as the
    /// facts it removed from and added to `d0`.
    Repair {
        /// Facts of `d0` the sequence deleted.
        removed: Vec<Fact>,
        /// Facts the sequence inserted (none of them in `d0`).
        added: Vec<Fact>,
    },
    /// A failing complete sequence (possible only for failing chains).
    Failed,
}

impl Leaf {
    /// The leaf a complete state ends in. No cancellation (Def. 4) keeps
    /// the removed and added sets disjoint from each other, so they are
    /// exactly the state's diff against `d0`.
    fn of(state: &RepairState) -> Leaf {
        if state.is_consistent() {
            Leaf::Repair {
                removed: state.removed().iter().cloned().collect(),
                added: state.added().iter().cloned().collect(),
            }
        } else {
            Leaf::Failed
        }
    }

    fn cost(&self) -> usize {
        match self {
            Leaf::Repair { removed, added } => 1 + removed.len() + added.len(),
            Leaf::Failed => 1,
        }
    }
}

type Slot = OnceLock<Box<Node>>;

enum Node {
    Inner {
        ops: Box<[Operation]>,
        thresholds: Box<[u128]>,
        children: Box<[Slot]>,
    },
    Leaf(Arc<Leaf>),
}

impl Node {
    fn inner(ops: Vec<Operation>, thresholds: Vec<u128>) -> Node {
        let children = ops.iter().map(|_| OnceLock::new()).collect();
        Node::Inner {
            ops: ops.into(),
            thresholds: thresholds.into(),
            children,
        }
    }

    fn cost(&self) -> usize {
        match self {
            Node::Inner { ops, .. } => 1 + ops.len(),
            Node::Leaf(leaf) => leaf.cost(),
        }
    }
}

/// The lazily built repairing chain tree of one (snapshot, generator)
/// pair. Shared across threads: every walk may fill in nodes.
pub struct ChainTree {
    ctx: Arc<RepairContext>,
    gen: Arc<dyn ChainGenerator>,
    root: Slot,
    budget: usize,
    entries: AtomicUsize,
    nodes: AtomicUsize,
}

impl fmt::Debug for ChainTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ChainTree({}, nodes={}, entries={}/{})",
            self.gen.name(),
            self.nodes(),
            self.entries(),
            self.budget
        )
    }
}

impl ChainTree {
    /// An empty tree over `ctx` for `gen`, with the default
    /// [`TREE_BUDGET`].
    pub fn new(ctx: Arc<RepairContext>, gen: Arc<dyn ChainGenerator>) -> ChainTree {
        ChainTree::with_budget(ctx, gen, TREE_BUDGET)
    }

    /// An empty tree that stores at most `budget` entries (`0`: nothing is
    /// ever cached and every walk is a plain walk).
    pub fn with_budget(
        ctx: Arc<RepairContext>,
        gen: Arc<dyn ChainGenerator>,
        budget: usize,
    ) -> ChainTree {
        ChainTree {
            ctx,
            gen,
            root: OnceLock::new(),
            budget,
            entries: AtomicUsize::new(0),
            nodes: AtomicUsize::new(0),
        }
    }

    /// Nodes stored so far (inner nodes and leaves).
    pub fn nodes(&self) -> usize {
        self.nodes.load(Ordering::Relaxed)
    }

    /// Budget entries spent so far.
    pub fn entries(&self) -> usize {
        self.entries.load(Ordering::Relaxed)
    }

    /// Runs one walk from the root, drawing exactly as
    /// [`sample::sample_walk`] does with the same RNG, and returns its
    /// leaf. `counters` gains the walk's steps, the steps served from
    /// cached nodes, and the nodes this walk stored.
    pub fn walk(
        &self,
        rng: &mut StdRng,
        counters: &mut WalkCounters,
    ) -> Result<Arc<Leaf>, SampleError> {
        let mut slot = Some(&self.root);
        // Operations taken through cached nodes, replayed into a state
        // only if the walk leaves the cached part of the tree.
        let mut path: Vec<&Operation> = Vec::new();
        let mut state: Option<RepairState> = None;
        loop {
            if let Some(node) = slot.and_then(OnceLock::get) {
                match &**node {
                    Node::Leaf(leaf) => return Ok(leaf.clone()),
                    Node::Inner {
                        ops,
                        thresholds,
                        children,
                    } => {
                        let i = sample::draw(thresholds, rng.next_u64());
                        counters.steps += 1;
                        counters.cached_steps += 1;
                        match &mut state {
                            Some(s) => *s = s.apply(&ops[i]),
                            None => path.push(&ops[i]),
                        }
                        slot = Some(&children[i]);
                        continue;
                    }
                }
            }
            let s = state.get_or_insert_with(|| {
                path.iter()
                    .fold(RepairState::initial(self.ctx.clone()), |s, op| s.apply(op))
            });
            let exts = s.extensions();
            if exts.is_empty() {
                let leaf = Arc::new(Leaf::of(s));
                if let Some(slot) = slot {
                    let _ = self.store(slot, Box::new(Node::Leaf(leaf.clone())), counters);
                }
                return Ok(leaf);
            }
            let thresholds = sample::draw_thresholds(&self.gen.validated(s, &exts)?);
            let i = sample::draw(&thresholds, rng.next_u64());
            counters.steps += 1;
            let node = Box::new(Node::inner(exts, thresholds));
            let stored = match slot {
                Some(slot) => self.store(slot, node, counters),
                None => Err(node),
            };
            match stored {
                Ok(Node::Inner { ops, children, .. }) => {
                    *s = s.apply(&ops[i]);
                    slot = Some(&children[i]);
                }
                Ok(Node::Leaf(_)) => unreachable!("a path's node kind is fixed"),
                Err(node) => {
                    let Node::Inner { ops, .. } = &*node else {
                        unreachable!("built as an inner node")
                    };
                    *s = s.apply(&ops[i]);
                    slot = None;
                }
            }
        }
    }

    /// Fills `slot` with `node` unless the budget is spent (then the node
    /// comes back). A racing walk may have filled the slot first; its
    /// node is the same, so the stored one is returned either way.
    fn store<'a>(
        &'a self,
        slot: &'a Slot,
        node: Box<Node>,
        counters: &mut WalkCounters,
    ) -> Result<&'a Node, Box<Node>> {
        let cost = node.cost();
        if self.entries.load(Ordering::Relaxed) + cost > self.budget {
            return Err(node);
        }
        if slot.set(node).is_ok() {
            self.entries.fetch_add(cost, Ordering::Relaxed);
            self.nodes.fetch_add(1, Ordering::Relaxed);
            counters.nodes_built += 1;
        }
        Ok(slot.get().expect("slot filled"))
    }

    /// Runs `walks` walks, evaluating `query` once per distinct leaf
    /// reached and tallying every answer tuple by its leaf's visit count.
    /// Bit-identical to [`sample::sample_tally`] with the same RNG, cached
    /// or not.
    pub fn sample_tally(
        &self,
        query: &Query,
        walks: u64,
        rng: &mut StdRng,
    ) -> Result<SampleTally, SampleError> {
        let mut tally = SampleTally {
            walks,
            ..SampleTally::default()
        };
        // Keyed by leaf address: the map holds each leaf alive, so an
        // address cannot be reused while it is a key.
        let mut visits: HashMap<*const Leaf, (Arc<Leaf>, u64)> = HashMap::new();
        for _ in 0..walks {
            let leaf = self.walk(rng, &mut tally.counters)?;
            visits.entry(Arc::as_ptr(&leaf)).or_insert((leaf, 0)).1 += 1;
        }
        for (leaf, n) in visits.into_values() {
            match &*leaf {
                Leaf::Failed => tally.failed_walks += n,
                Leaf::Repair { removed, added } => {
                    let view = PatchSource::with(
                        self.ctx.d0(),
                        added.iter().cloned(),
                        removed.iter().cloned(),
                    );
                    for tuple in query.answers(&view) {
                        *tally.counts.entry(tuple).or_insert(0) += n;
                    }
                }
            }
        }
        Ok(tally)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::{sample_tally, sample_walk, WalkOutcome};
    use crate::{PreferenceGenerator, TrustGenerator, UniformGenerator, WeightFnGenerator};
    use ocqa_data::Database;
    use ocqa_logic::parser;
    use rand::SeedableRng;

    fn ctx(facts: &str, constraints: &str) -> Arc<RepairContext> {
        let facts = parser::parse_facts(facts).unwrap();
        let sigma = parser::parse_constraints(constraints).unwrap();
        let schema = parser::infer_schema(&facts, &sigma).unwrap();
        let db = Database::from_facts(schema, facts).unwrap();
        RepairContext::new(db, sigma)
    }

    /// Mixed insertions and deletions, failing branches included.
    fn mixed() -> Arc<RepairContext> {
        ctx(
            "R(a,b). R(a,c). T(a,b). T(b,c). W(c).",
            "T(x,y) -> R(x,y). R(x,y), R(x,z) -> y = z. W(x) -> X(x). X(x) -> false.",
        )
    }

    fn assert_same(a: &SampleTally, b: &SampleTally) {
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.walks, b.walks);
        assert_eq!(a.failed_walks, b.failed_walks);
    }

    #[test]
    fn walks_reach_the_reference_walks_leaves() {
        let ctx = mixed();
        let gen: Arc<dyn ChainGenerator> = Arc::new(UniformGenerator::new());
        for budget in [0, 7, TREE_BUDGET] {
            let tree = ChainTree::with_budget(ctx.clone(), gen.clone(), budget);
            let mut a = StdRng::seed_from_u64(5);
            let mut b = StdRng::seed_from_u64(5);
            let mut counters = WalkCounters::default();
            let (mut failed, mut inserted) = (0, 0);
            for _ in 0..300 {
                let leaf = tree.walk(&mut a, &mut counters).unwrap();
                match (sample_walk(&ctx, gen.as_ref(), &mut b).unwrap(), &*leaf) {
                    (WalkOutcome::Repair(db), Leaf::Repair { removed, added }) => {
                        let view = PatchSource::with(ctx.d0(), added.clone(), removed.clone());
                        assert!(view.materialize().same_facts(&db));
                        inserted += usize::from(!added.is_empty());
                    }
                    (WalkOutcome::Failed(_), Leaf::Failed) => failed += 1,
                    (other, leaf) => panic!("diverged: {other:?} vs {leaf:?}"),
                }
            }
            assert!(failed > 0 && inserted > 0, "both branch kinds walked");
            assert!(tree.entries() <= budget);
            assert!(counters.cached_steps <= counters.steps);
            assert_eq!(counters.nodes_built as usize, tree.nodes());
        }
    }

    #[test]
    fn tallies_match_the_reference_for_every_generator_and_budget() {
        let q = parser::parse_query("(x) <- exists y: (R(x,y) | T(x,y))").unwrap();
        let cases: Vec<(Arc<RepairContext>, Arc<dyn ChainGenerator>)> = vec![
            (mixed(), Arc::new(UniformGenerator::new())),
            (mixed(), Arc::new(UniformGenerator::deletions_only())),
            (
                ctx(
                    "R(a,b). R(b,a). R(a,c). R(c,a). T(a,a).",
                    "R(x,y), R(y,x) -> false.",
                ),
                Arc::new(PreferenceGenerator::new()),
            ),
            (
                ctx(
                    "R(a,1). R(a,2). R(b,1). R(b,2).",
                    "R(x,y), R(x,z) -> y = z.",
                ),
                Arc::new(TrustGenerator::new([], ocqa_num::Rat::ratio(1, 3))),
            ),
        ];
        for (ctx, gen) in cases {
            let warm = ChainTree::new(ctx.clone(), gen.clone());
            for seed in 0..20 {
                let want =
                    sample_tally(&ctx, gen.as_ref(), &q, 64, &mut StdRng::seed_from_u64(seed))
                        .unwrap();
                for budget in [0, 3, TREE_BUDGET] {
                    let cold = ChainTree::with_budget(ctx.clone(), gen.clone(), budget);
                    let got = cold
                        .sample_tally(&q, 64, &mut StdRng::seed_from_u64(seed))
                        .unwrap();
                    assert_same(&got, &want);
                }
                let got = warm
                    .sample_tally(&q, 64, &mut StdRng::seed_from_u64(seed))
                    .unwrap();
                assert_same(&got, &want);
            }
        }
    }

    #[test]
    fn warm_tree_serves_every_step_and_builds_nothing() {
        let ctx = mixed();
        let q = parser::parse_query("(x) <- exists y: R(x,y)").unwrap();
        let tree = ChainTree::new(ctx, Arc::new(UniformGenerator::new()));
        let mut rng = StdRng::seed_from_u64(1);
        let first = tree.sample_tally(&q, 64, &mut rng).unwrap();
        assert!(first.counters.nodes_built > 0);
        assert_eq!(first.counters.nodes_built as usize, tree.nodes());
        let again = tree
            .sample_tally(&q, 64, &mut StdRng::seed_from_u64(1))
            .unwrap();
        assert_eq!(again.counters.nodes_built, 0);
        assert_eq!(again.counters.cached_steps, again.counters.steps);
        assert_eq!(again.counters.steps, first.counters.steps);
    }

    #[test]
    fn tree_at_its_budget_stops_growing_and_answers_identically() {
        let ctx = mixed();
        let gen: Arc<dyn ChainGenerator> = Arc::new(UniformGenerator::new());
        let q = parser::parse_query("(x) <- exists y: (R(x,y) | T(x,y))").unwrap();
        let full = ChainTree::new(ctx.clone(), gen.clone());
        full.sample_tally(&q, 2000, &mut StdRng::seed_from_u64(0))
            .unwrap();
        let budget = full.entries() / 3;
        let capped = ChainTree::with_budget(ctx.clone(), gen.clone(), budget);
        capped
            .sample_tally(&q, 2000, &mut StdRng::seed_from_u64(0))
            .unwrap();
        let (nodes, entries) = (capped.nodes(), capped.entries());
        assert!(entries <= budget && nodes < full.nodes());
        for seed in 1..10 {
            let got = capped
                .sample_tally(&q, 150, &mut StdRng::seed_from_u64(seed))
                .unwrap();
            let want = sample_tally(
                &ctx,
                gen.as_ref(),
                &q,
                150,
                &mut StdRng::seed_from_u64(seed),
            )
            .unwrap();
            assert_same(&got, &want);
            assert!(got.counters.cached_steps < got.counters.steps);
            assert_eq!((capped.nodes(), capped.entries()), (nodes, entries));
        }
    }

    #[test]
    fn failed_and_panicking_builds_store_nothing() {
        let ctx = mixed();
        let q = parser::parse_query("(x) <- exists y: R(x,y)").unwrap();
        // Weights summing to 0 below the root: `validated` rejects them.
        let refusing: Arc<dyn ChainGenerator> =
            Arc::new(WeightFnGenerator::new("refusing", |state, ops| {
                let share = if state.depth() == 0 { ops.len() } else { 0 };
                vec![ocqa_num::Rat::ratio(share.min(1) as i64, ops.len() as i64); ops.len()]
            }));
        let tree = ChainTree::new(ctx.clone(), refusing);
        assert!(tree
            .sample_tally(&q, 8, &mut StdRng::seed_from_u64(0))
            .is_err());
        assert_eq!(tree.nodes(), 1, "only the root was computed");

        let armed = Arc::new(std::sync::atomic::AtomicBool::new(true));
        let trip = armed.clone();
        let flaky: Arc<dyn ChainGenerator> =
            Arc::new(WeightFnGenerator::new("uniform", move |state, ops| {
                if state.depth() == 1 && trip.swap(false, Ordering::SeqCst) {
                    panic!("boom below the root");
                }
                UniformGenerator::new().weights(state, ops).unwrap()
            }));
        let tree = ChainTree::new(ctx.clone(), flaky);
        let run = || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                tree.sample_tally(&q, 64, &mut StdRng::seed_from_u64(3))
            }))
        };
        assert!(run().is_err(), "first build panics");
        let got = run().expect("no second panic").unwrap();
        let want = sample_tally(
            &ctx,
            &UniformGenerator::new(),
            &q,
            64,
            &mut StdRng::seed_from_u64(3),
        )
        .unwrap();
        assert_same(&got, &want);
    }
}
