//! The answer planner: classify each catalog database once, route every
//! `answer` request down the cheapest *sound* sampling path.
//!
//! The paper's §6 optimizations exist in `ocqa_core` (`localize`,
//! `keyrepair`); this module is the policy layer that applies them
//! automatically, per database:
//!
//! * **key-repair** — the constraint set is primary-key-only
//!   ([`ConstraintSet::key_cover`]). Violating groups are sampled directly
//!   with the [`GroupPolicy::ChainUniform`] outcome distribution, which
//!   reproduces the uniform chain's hitting distribution exactly — no
//!   chain walk, no state cloning, one group draw per conflict group.
//! * **localized** — the constraint set is in the denial fragment. Each
//!   conflict component is walked independently in its Σ-sized state
//!   space ([`ComponentSampler`]) instead of the Π-sized global one, and
//!   per-walk repairs compose as `D − deletions` under an overlay.
//! * **monolithic** — everything else (TGDs present), or any generator
//!   that is not component-local: the full chain walk.
//!
//! Both walking routes descend memoized [`ChainTree`]s — one per
//! (database version, generator string), or one per component for the
//! localized route — so every answer at one version, whatever its seed,
//! ε, δ or query, reuses the nodes earlier answers computed.
//!
//! Classification is structural (a function of `Σ` alone) and happens at
//! install time; the data-dependent plan artifacts (component
//! sub-contexts, violating groups) are rebuilt lazily per database
//! version, exactly like the sampling snapshot. The effective route also
//! depends on the request's generator: only generators declaring
//! [`ChainGenerator::component_local`] (`uniform`, `uniform-deletions`)
//! may take the fast paths, so e.g. the Example 4 preference generator —
//! whose weights read the whole database — always serves monolithically.
//!
//! Since planner v2, structural soundness is only the *feasibility* half
//! of plan choice: among the feasible plans, [`cost::CostModel`] ranks
//! candidates from catalog-maintained [`stats::DbStats`] plus recorded
//! runtime feedback, and the shard serves the cheapest. This module
//! keeps the v1 classifier and routing (reachable as `--planner static`
//! and used for explicit plan overrides); [`stats`] and [`cost`] hold
//! the v2 layers.

pub mod cost;
pub mod stats;

pub use cost::{
    feasibility_gate, Candidate, CostModel, CostSource, Estimate, PlannerMode,
    FEEDBACK_JOURNAL_EVERY,
};
pub use stats::DbStats;

use crate::error::EngineError;
use ocqa_core::keyrepair::{GroupPolicy, KeyConfig, KeyRepairSampler};
use ocqa_core::localize::ComponentSampler;
use ocqa_core::sample::SampleTally;
use ocqa_core::tree::ChainTree;
use ocqa_core::{ChainGenerator, RepairContext};
use ocqa_logic::{ConstraintSet, Query};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::sync::Arc;

/// The serving strategies an `answer` request can be routed down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanKind {
    /// Group-wise key repair (§5 scheme, chain-equivalent policy).
    KeyRepair,
    /// Per-component chain walks composed under a deletion overlay.
    Localized,
    /// The full-database chain walk.
    Monolithic,
}

impl PlanKind {
    /// The protocol name of the plan.
    pub fn as_str(self) -> &'static str {
        match self {
            PlanKind::KeyRepair => "key-repair",
            PlanKind::Localized => "localized",
            PlanKind::Monolithic => "monolithic",
        }
    }

    /// Parses a protocol plan name (the inverse of [`as_str`]).
    ///
    /// [`as_str`]: PlanKind::as_str
    pub fn parse(s: &str) -> Option<PlanKind> {
        match s {
            "key-repair" => Some(PlanKind::KeyRepair),
            "localized" => Some(PlanKind::Localized),
            "monolithic" => Some(PlanKind::Monolithic),
            _ => None,
        }
    }
}

impl fmt::Display for PlanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Structural classification of a constraint set — the plan a database
/// with these constraints will serve component-local generators with.
/// A function of `Σ` alone, so it is computed once at install time.
pub fn classify(sigma: &ConstraintSet) -> PlanKind {
    if sigma.key_cover().is_some() {
        PlanKind::KeyRepair
    } else if sigma.is_denial_fragment() {
        PlanKind::Localized
    } else {
        PlanKind::Monolithic
    }
}

/// The prebuilt key-repair execution state for one database version.
pub struct KeyRepairExec {
    ctx: Arc<RepairContext>,
    sampler: KeyRepairSampler,
}

/// A database's answer plan for one version: the structural
/// classification plus the samplers backing every route. Cached per
/// catalog entry and rebuilt after every effective update, like the
/// sampling snapshot — an update drops the old version's samplers and
/// chain trees with the old plan.
///
/// Classification is computed up front (it is a cheap function of `Σ`);
/// the data-dependent sampler artifacts — chain trees, conflict-component
/// sub-contexts, violating key groups with their exact outcome
/// distributions — are built lazily, memoized per route and generator,
/// the first time a request actually takes that route.
pub struct DbPlan {
    kind: PlanKind,
    /// Whether `Σ` is in the denial fragment — the `localized` route is
    /// available (key-only sets included, so forcing `localized` on a
    /// keyed database works too).
    denial: bool,
    /// The key configurations when `Σ` is primary-key-only (possibly
    /// empty: the empty constraint set is trivially key-only).
    key_configs: Option<Vec<KeyConfig>>,
    /// The snapshot the lazily built samplers read from.
    ctx: Arc<RepairContext>,
    /// Conflict-structure statistics of this snapshot (catalog-maintained;
    /// recomputed here only when a plan is built outside a catalog).
    stats: DbStats,
    /// Memoized monolithic chain trees, one per generator string (the
    /// request's name for it: `trust:1/2` and `trust:3/4` weigh
    /// differently under one generator name).
    trees: Mutex<Vec<(String, Arc<ChainTree>)>>,
    /// Memoized localized samplers (per-component chain trees), keyed
    /// like `trees`.
    localized: Mutex<Vec<(String, Arc<ComponentSampler>)>>,
    /// Memoized key-repair state, one entry per distinct group policy
    /// (different generators may carry different policies; the list stays
    /// as short as the set of policies actually served).
    key: Mutex<Vec<(GroupPolicy, Arc<KeyRepairExec>)>>,
}

impl fmt::Debug for DbPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DbPlan({}, trees={}, localized={}, key_policies={})",
            self.kind,
            self.trees.lock().len(),
            self.localized.lock().len(),
            self.key.lock().len(),
        )
    }
}

impl DbPlan {
    /// Builds the plan for one database snapshot, computing the conflict
    /// statistics from the snapshot's own violation set. Catalog entries
    /// use [`DbPlan::build_with_stats`] with their maintained stats
    /// instead of recomputing here.
    pub fn build(ctx: &Arc<RepairContext>) -> DbPlan {
        let stats = DbStats::compute(ctx.d0(), ctx.sigma(), ctx.initial_violations());
        DbPlan::build_with_stats(ctx, stats)
    }

    /// Builds the plan for one database snapshot (classification only —
    /// sampler artifacts are deferred to the first use of each route).
    /// `stats` must describe exactly the snapshot's database state.
    pub fn build_with_stats(ctx: &Arc<RepairContext>, stats: DbStats) -> DbPlan {
        let key_configs = ctx.sigma().key_cover().map(|specs| {
            specs
                .iter()
                .map(|s| KeyConfig {
                    relation: s.relation,
                    key_cols: s.key_cols.clone(),
                })
                .collect::<Vec<_>>()
        });
        let denial = ctx.sigma().is_denial_fragment();
        let kind = if key_configs.is_some() {
            PlanKind::KeyRepair
        } else if denial {
            PlanKind::Localized
        } else {
            PlanKind::Monolithic
        };
        debug_assert_eq!(kind, classify(ctx.sigma()));
        DbPlan {
            kind,
            denial,
            key_configs,
            ctx: ctx.clone(),
            stats,
            trees: Mutex::new(Vec::new()),
            localized: Mutex::new(Vec::new()),
            key: Mutex::new(Vec::new()),
        }
    }

    /// The conflict-structure statistics of the snapshot this plan was
    /// built for.
    pub fn stats(&self) -> DbStats {
        self.stats
    }

    /// Whether the localized route is structurally available (`Σ` in the
    /// denial fragment — key-only sets included).
    pub fn admits_localized(&self) -> bool {
        self.denial
    }

    /// Whether the key-repair route is structurally available (`Σ`
    /// primary-key-only).
    pub fn admits_key_repair(&self) -> bool {
        self.key_configs.is_some()
    }

    /// The cost-model guard behind automatic `localized` routing: per-walk,
    /// localization wins by (a) walking Σ-sized component chains instead of
    /// the Π-sized global one and (b) cloning component sub-databases
    /// instead of the whole database. When the conflict graph collapses
    /// into a **single component with no clean region**, both advantages
    /// vanish — the one component *is* the whole database — and the
    /// localized path only adds overlay bookkeeping on top of the same
    /// walk. Automatic routing then falls back to monolithic; an explicit
    /// `plan:"localized"` request is still honored (benchmarks and tests
    /// force routes deliberately).
    ///
    /// Since planner v2 the verdict reads the catalog-maintained
    /// [`DbStats`] (component count, clean-region size) instead of
    /// materializing the conflict components per snapshot.
    fn localize_worthwhile(&self) -> bool {
        self.stats.localize_worthwhile()
    }

    /// The structural classification.
    pub fn kind(&self) -> PlanKind {
        self.kind
    }

    /// Resolves the route an `answer` request takes. `requested` is the
    /// client's explicit plan choice (`None` = automatic): automatic
    /// routing silently falls back to monolithic for generators a fast
    /// path cannot serve, while an explicit request for an unsound route
    /// is an error (clients forcing a plan — benches, tests — must know).
    ///
    /// Fast-path soundness is read off the generator itself
    /// ([`ChainGenerator::component_local`] for localization,
    /// [`ChainGenerator::key_repair_policy`] for key repair), so new
    /// generators carry their capabilities with them instead of this
    /// module keeping a name list in sync.
    pub fn route(
        &self,
        gen: &dyn ChainGenerator,
        requested: Option<PlanKind>,
    ) -> Result<PlanKind, EngineError> {
        match requested {
            None => {
                let auto = if !gen.component_local() {
                    PlanKind::Monolithic
                } else if self.kind == PlanKind::KeyRepair && gen.key_repair_policy().is_none() {
                    // Component-local but without a group policy matching
                    // its chain: key-only sets are still denial, so
                    // localize.
                    PlanKind::Localized
                } else {
                    self.kind
                };
                // Cost model: localization on one giant component with no
                // clean region pays the fast path's overhead for none of
                // its savings — serve monolithically instead.
                Ok(
                    if auto == PlanKind::Localized && !self.localize_worthwhile() {
                        PlanKind::Monolithic
                    } else {
                        auto
                    },
                )
            }
            // Forced monolithic is the universal fallback: always sound,
            // no availability or capability check applies.
            Some(PlanKind::Monolithic) => Ok(PlanKind::Monolithic),
            Some(kind) => match feasibility_gate(kind, self, gen) {
                None => Ok(kind),
                Some(gate) => {
                    let message = match gate {
                        cost::GATE_COMPONENT_LOCAL => format!(
                            "plan {kind:?} requires a component-local generator, \
                             not {:?}",
                            gen.name()
                        ),
                        cost::GATE_GROUP_POLICY => format!(
                            "generator {:?} has no key-repair group policy \
                             matching its chain distribution",
                            gen.name()
                        ),
                        cost::GATE_KEY_COVER => format!(
                            "database does not admit the {kind} plan \
                             (constraints are not primary-key-only)"
                        ),
                        _ => format!(
                            "database does not admit the {kind} plan \
                             (constraints are not in the denial fragment)"
                        ),
                    };
                    Err(EngineError::PlanRejected {
                        plan: kind,
                        gate,
                        message,
                    })
                }
            },
        }
    }

    /// Instantiates the sampling task for a resolved route, building and
    /// memoizing the route's sampler on first use. `route` must come
    /// from [`DbPlan::route`] on the same plan with the same generator;
    /// `generator` is the request's name for `gen`, the key under which
    /// chain trees are shared between requests.
    ///
    /// The key-repair sampler is built with *the generator's own* group
    /// policy ([`ChainGenerator::key_repair_policy`]) — never a fixed
    /// one — so the fast path reproduces that generator's distribution.
    /// Fails when the policy rejects the database's group structure
    /// (e.g. a pairs-only trust policy meeting a key group of three).
    pub fn task(
        &self,
        route: PlanKind,
        generator: &str,
        gen: Arc<dyn ChainGenerator>,
    ) -> Result<SampleTask, EngineError> {
        Ok(match route {
            PlanKind::Monolithic => SampleTask::Monolithic {
                tree: memo(&self.trees, generator, || {
                    ChainTree::new(self.ctx.clone(), gen.clone())
                }),
            },
            PlanKind::Localized => SampleTask::Localized {
                sampler: memo(&self.localized, generator, || {
                    ComponentSampler::new(&self.ctx, gen.clone())
                        .expect("route() checked the denial fragment")
                }),
            },
            PlanKind::KeyRepair => {
                let policy = gen.key_repair_policy().expect("route() checked");
                let mut memo = self.key.lock();
                let exec = match memo.iter().find(|(p, _)| *p == policy) {
                    Some((_, exec)) => exec.clone(),
                    None => {
                        let configs = self.key_configs.as_deref().expect("route() checked");
                        let sampler =
                            KeyRepairSampler::with_configs(self.ctx.d0(), configs, &policy)
                                .map_err(|e| {
                                    EngineError::BadRequest(format!(
                                        "key-repair plan unavailable for generator {:?}: {e}",
                                        gen.name()
                                    ))
                                })?;
                        let exec = Arc::new(KeyRepairExec {
                            ctx: self.ctx.clone(),
                            sampler,
                        });
                        memo.push((policy, exec.clone()));
                        exec
                    }
                };
                SampleTask::KeyRepair { exec }
            }
        })
    }
}

/// Generators per plan whose chain samplers are memoized. Requests may
/// name any number of `trust:N/D` variants and each tree may grow to
/// `TREE_BUDGET` entries, so later generators get a sampler shared by
/// one request's chunks only.
const MEMO_GENERATORS: usize = 8;

/// The entry for `generator` in a per-generator memo, built on first use.
fn memo<T>(
    list: &Mutex<Vec<(String, Arc<T>)>>,
    generator: &str,
    build: impl FnOnce() -> T,
) -> Arc<T> {
    let mut list = list.lock();
    if let Some((_, v)) = list.iter().find(|(g, _)| g == generator) {
        return v.clone();
    }
    let v = Arc::new(build());
    if list.len() < MEMO_GENERATORS {
        list.push((generator.to_string(), v.clone()));
    }
    v
}

/// One sampling strategy instantiated for a request, executable in
/// fixed-size chunks on the [`crate::pool::SamplerPool`]. Each variant's
/// chunk run is a pure function of `(chunk seed, walks)`, which is what
/// keeps answers bit-identical across pool sizes.
#[derive(Clone)]
pub enum SampleTask {
    /// Full-database chain walks down the version's memoized tree.
    Monolithic {
        /// The chain tree of the sampling snapshot and the generator.
        tree: Arc<ChainTree>,
    },
    /// Per-component chain walks composed under a deletion overlay.
    Localized {
        /// The per-component chain trees for the request's
        /// (component-local) generator.
        sampler: Arc<ComponentSampler>,
    },
    /// Group-wise key repair with the chain-equivalent outcome policy.
    KeyRepair {
        /// The prebuilt groups and the database they were built from.
        exec: Arc<KeyRepairExec>,
    },
}

impl SampleTask {
    /// The universal fallback path over a fresh chain tree (shared by
    /// the chunks of one run only).
    pub fn monolithic(ctx: &Arc<RepairContext>, gen: &Arc<dyn ChainGenerator>) -> SampleTask {
        SampleTask::Monolithic {
            tree: Arc::new(ChainTree::new(ctx.clone(), gen.clone())),
        }
    }

    /// The plan this task executes.
    pub fn plan(&self) -> PlanKind {
        match self {
            SampleTask::Monolithic { .. } => PlanKind::Monolithic,
            SampleTask::Localized { .. } => PlanKind::Localized,
            SampleTask::KeyRepair { .. } => PlanKind::KeyRepair,
        }
    }

    /// Runs one chunk of `walks` walks with the given (already derived)
    /// chunk seed, returning the mergeable tally.
    pub fn run_chunk(
        &self,
        query: &Query,
        walks: u64,
        chunk_seed: u64,
    ) -> Result<SampleTally, String> {
        match self {
            SampleTask::Monolithic { tree } => {
                let mut rng = StdRng::seed_from_u64(chunk_seed);
                tree.sample_tally(query, walks, &mut rng)
                    .map_err(|e| e.to_string())
            }
            SampleTask::Localized { sampler } => sampler
                .sample_tally(query, walks, chunk_seed)
                .map_err(|e| e.to_string()),
            SampleTask::KeyRepair { exec } => {
                let mut rng = StdRng::seed_from_u64(chunk_seed);
                Ok(exec
                    .sampler
                    .sample_tally(exec.ctx.d0(), query, walks, &mut rng))
            }
        }
    }
}

impl fmt::Debug for SampleTask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SampleTask({})", self.plan())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocqa_core::UniformGenerator;
    use ocqa_data::Database;
    use ocqa_logic::parser;

    fn ctx(facts: &str, constraints: &str) -> Arc<RepairContext> {
        let facts = parser::parse_facts(facts).unwrap();
        let sigma = parser::parse_constraints(constraints).unwrap();
        let schema = parser::infer_schema(&facts, &sigma).unwrap();
        let db = Database::from_facts(schema, facts).unwrap();
        RepairContext::new(db, sigma)
    }

    #[test]
    fn classification_by_constraint_shape() {
        let parse = |s: &str| parser::parse_constraints(s).unwrap();
        assert_eq!(
            classify(&parse("R(x,y), R(x,z) -> y = z.")),
            PlanKind::KeyRepair
        );
        assert_eq!(
            classify(&parse("Pref(x,y), Pref(y,x) -> false.")),
            PlanKind::Localized
        );
        assert_eq!(classify(&parse("T(x,y) -> R(x,y).")), PlanKind::Monolithic);
        // A key plus a DC is not key-only, but still denial.
        assert_eq!(
            classify(&parse("R(x,y), R(x,z) -> y = z. R(x,x) -> false.")),
            PlanKind::Localized
        );
    }

    fn by_name(name: &str) -> Arc<dyn ChainGenerator> {
        crate::engine::generator_by_name(name).unwrap()
    }

    #[test]
    fn routing_rules() {
        let key_ctx = ctx("R(1,10). R(1,20).", "R(x,y), R(x,z) -> y = z.");
        let plan = DbPlan::build(&key_ctx);
        assert_eq!(plan.kind(), PlanKind::KeyRepair);
        // Automatic: fast path for component-local generators only.
        assert_eq!(
            plan.route(by_name("uniform").as_ref(), None).unwrap(),
            PlanKind::KeyRepair
        );
        assert_eq!(
            plan.route(by_name("uniform-deletions").as_ref(), None)
                .unwrap(),
            PlanKind::KeyRepair
        );
        assert_eq!(
            plan.route(by_name("preference").as_ref(), None).unwrap(),
            PlanKind::Monolithic
        );
        // Forced monolithic is always allowed; forced localized works on
        // any denial-fragment database (keys included).
        assert_eq!(
            plan.route(by_name("preference").as_ref(), Some(PlanKind::Monolithic))
                .unwrap(),
            PlanKind::Monolithic
        );
        assert_eq!(
            plan.route(by_name("uniform").as_ref(), Some(PlanKind::Localized))
                .unwrap(),
            PlanKind::Localized
        );
        // Forcing a fast path with a non-local generator is an error.
        assert!(plan
            .route(by_name("preference").as_ref(), Some(PlanKind::KeyRepair))
            .is_err());

        // A DC database never admits key repair.
        let dc_ctx = ctx("Pref(a,b). Pref(b,a).", "Pref(x,y), Pref(y,x) -> false.");
        let plan = DbPlan::build(&dc_ctx);
        assert_eq!(plan.kind(), PlanKind::Localized);
        assert!(plan
            .route(by_name("uniform").as_ref(), Some(PlanKind::KeyRepair))
            .is_err());

        // A TGD database admits nothing but monolithic.
        let tgd_ctx = ctx("T(a,b).", "T(x,y) -> R(x,y).");
        let plan = DbPlan::build(&tgd_ctx);
        assert_eq!(plan.kind(), PlanKind::Monolithic);
        assert_eq!(
            plan.route(by_name("uniform").as_ref(), None).unwrap(),
            PlanKind::Monolithic
        );
        assert!(plan
            .route(by_name("uniform").as_ref(), Some(PlanKind::Localized))
            .is_err());
    }

    #[test]
    fn key_repair_uses_generator_policy() {
        // The trust generator carries its own group policy: on a key-only
        // pairs database the auto route takes key-repair and serves the
        // Example 5 distribution (each fact of a 50/50 pair survives with
        // probability 3/8), not the uniform chain's 1/3.
        let pair_ctx = ctx("R(a,1). R(a,2).", "R(x,y), R(x,z) -> y = z.");
        let plan = DbPlan::build(&pair_ctx);
        let trust: Arc<dyn ChainGenerator> = Arc::new(ocqa_core::TrustGenerator::new(
            [],
            ocqa_num::Rat::ratio(1, 2),
        ));
        assert_eq!(
            plan.route(trust.as_ref(), None).unwrap(),
            PlanKind::KeyRepair
        );
        let task = plan
            .task(PlanKind::KeyRepair, "trust", trust.clone())
            .unwrap();
        let query = parser::parse_query("(y) <- R('a', y)").unwrap();
        let tally = task.run_chunk(&query, 4000, 5).unwrap();
        for (tuple, p) in tally.frequencies() {
            assert!((p - 0.375).abs() <= 0.03, "{tuple:?}: {p} should be ≈ 3/8");
        }
        // Distinct policies memoize side by side on one plan.
        let uniform: Arc<dyn ChainGenerator> = Arc::new(UniformGenerator::new());
        let task = plan.task(PlanKind::KeyRepair, "uniform", uniform).unwrap();
        let tally = task.run_chunk(&query, 4000, 5).unwrap();
        for (tuple, p) in tally.frequencies() {
            assert!(
                (p - 1.0 / 3.0).abs() <= 0.03,
                "{tuple:?}: {p} should be ≈ 1/3"
            );
        }

        // A key group of three soundly rejects the pairs-only trust
        // policy instead of serving a wrong distribution.
        let triple_ctx = ctx("R(a,1). R(a,2). R(a,3).", "R(x,y), R(x,z) -> y = z.");
        let plan3 = DbPlan::build(&triple_ctx);
        assert!(plan3.task(PlanKind::KeyRepair, "trust", trust).is_err());

        // Component-local generators *without* a key policy fall back to
        // localized automatically, and may not force key-repair.
        struct LocalNoKey;
        impl ChainGenerator for LocalNoKey {
            fn name(&self) -> &str {
                "local-no-key"
            }
            fn component_local(&self) -> bool {
                true
            }
            fn weights(
                &self,
                _state: &ocqa_core::RepairState,
                ops: &[ocqa_core::Operation],
            ) -> Result<Vec<ocqa_num::Rat>, ocqa_core::GeneratorError> {
                Ok(vec![ocqa_num::Rat::ratio(1, ops.len() as i64); ops.len()])
            }
        }
        // On the single-pair database the cost guard kicks in (one
        // component, no clean region), so the localized fallback lands on
        // monolithic; with a second group it localizes.
        assert_eq!(plan.route(&LocalNoKey, None).unwrap(), PlanKind::Monolithic);
        assert!(plan.route(&LocalNoKey, Some(PlanKind::KeyRepair)).is_err());
        let multi_ctx = ctx(
            "R(a,1). R(a,2). R(b,1). R(b,2).",
            "R(x,y), R(x,z) -> y = z.",
        );
        let multi = DbPlan::build(&multi_ctx);
        assert_eq!(multi.route(&LocalNoKey, None).unwrap(), PlanKind::Localized);
    }

    #[test]
    fn tasks_agree_with_each_other_within_eps() {
        // All three routes on one key-only database must estimate the
        // same CP (they sample the same distribution, modulo different
        // RNG streams).
        let ctx = ctx(
            "R(1,10). R(1,20). R(2,30). R(2,40). R(3,50).",
            "R(x,y), R(x,z) -> y = z.",
        );
        let plan = DbPlan::build(&ctx);
        let gen: Arc<dyn ChainGenerator> = Arc::new(UniformGenerator::new());
        let query = parser::parse_query("(x) <- exists y: R(x, y)").unwrap();
        let freqs: Vec<_> = [
            PlanKind::Monolithic,
            PlanKind::Localized,
            PlanKind::KeyRepair,
        ]
        .into_iter()
        .map(|route| {
            let task = plan.task(route, "uniform", gen.clone()).unwrap();
            assert_eq!(task.plan(), route);
            task.run_chunk(&query, 1500, 99).unwrap().frequencies()
        })
        .collect();
        for pair in freqs.windows(2) {
            assert_eq!(pair[0].len(), pair[1].len());
            for (a, b) in pair[0].iter().zip(&pair[1]) {
                assert_eq!(a.0, b.0);
                assert!((a.1 - b.1).abs() <= 0.06, "{:?} vs {:?}", a, b);
            }
        }
    }

    #[test]
    fn cost_guard_falls_back_on_single_giant_component() {
        // One conflict component covering the whole database, no clean
        // facts: localization would walk the same chain as the monolithic
        // path plus overlay overhead. Automatic routing must fall back.
        // (The 2-path DC over a cycle chains every fact into a single
        // component: each violation shares a fact with the next.)
        let giant = ctx(
            "Pref(a,b). Pref(b,c). Pref(c,a).",
            "Pref(x,y), Pref(y,z) -> false.",
        );
        let plan = DbPlan::build(&giant);
        assert_eq!(plan.kind(), PlanKind::Localized, "classification unchanged");
        assert_eq!(
            plan.route(by_name("uniform").as_ref(), None).unwrap(),
            PlanKind::Monolithic,
            "automatic routing takes the cost-model fallback"
        );
        // An explicit localized request still works (forced routes are for
        // callers that know what they measure).
        assert_eq!(
            plan.route(by_name("uniform").as_ref(), Some(PlanKind::Localized))
                .unwrap(),
            PlanKind::Localized
        );

        // One clean fact tips the model back: the clean region is shared
        // by all walks and never cloned on the localized path.
        let with_clean = ctx(
            "Pref(a,b). Pref(b,c). Pref(c,a). Pref(q,r).",
            "Pref(x,y), Pref(y,z) -> false.",
        );
        let plan = DbPlan::build(&with_clean);
        assert_eq!(
            plan.route(by_name("uniform").as_ref(), None).unwrap(),
            PlanKind::Localized
        );

        // Two components localize regardless of clean facts.
        let two = ctx(
            "Pref(a,b). Pref(b,c). Pref(c,a). Pref(d,e). Pref(e,f). Pref(f,d).",
            "Pref(x,y), Pref(y,z) -> false.",
        );
        let plan = DbPlan::build(&two);
        assert_eq!(
            plan.route(by_name("uniform").as_ref(), None).unwrap(),
            PlanKind::Localized
        );
    }

    #[test]
    fn permuted_key_routes_key_repair() {
        // The key sits in the *second* column: PR 2's detector demanded a
        // leading prefix and served such databases via the localized path;
        // the generalized key_cover recognizes it and key repair applies.
        let ctx = ctx(
            "R(10,1). R(20,1). R(30,2). R(40,2). R(50,3).",
            "R(u,k), R(v,k) -> u = v.",
        );
        let plan = DbPlan::build(&ctx);
        assert_eq!(plan.kind(), PlanKind::KeyRepair);
        let gen: Arc<dyn ChainGenerator> = Arc::new(UniformGenerator::new());
        assert_eq!(plan.route(gen.as_ref(), None).unwrap(), PlanKind::KeyRepair);
        // All three routes agree on the estimated answers.
        let query = parser::parse_query("(y) <- exists x: R(x, y)").unwrap();
        let freqs: Vec<_> = [
            PlanKind::Monolithic,
            PlanKind::Localized,
            PlanKind::KeyRepair,
        ]
        .into_iter()
        .map(|route| {
            let task = plan.task(route, "uniform", gen.clone()).unwrap();
            task.run_chunk(&query, 1500, 11).unwrap().frequencies()
        })
        .collect();
        for pair in freqs.windows(2) {
            assert_eq!(pair[0].len(), pair[1].len());
            for (a, b) in pair[0].iter().zip(&pair[1]) {
                assert_eq!(a.0, b.0);
                assert!((a.1 - b.1).abs() <= 0.06, "{:?} vs {:?}", a, b);
            }
        }
    }

    #[test]
    fn plan_names_round_trip() {
        for kind in [
            PlanKind::KeyRepair,
            PlanKind::Localized,
            PlanKind::Monolithic,
        ] {
            assert_eq!(PlanKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(PlanKind::parse("auto"), None);
    }

    #[test]
    fn chain_trees_are_shared_per_generator_string_up_to_a_cap() {
        let plan = DbPlan::build(&ctx("T(a,b).", "T(x,y) -> R(x,y)."));
        let tree = |name: &str| match plan
            .task(PlanKind::Monolithic, name, by_name(name))
            .unwrap()
        {
            SampleTask::Monolithic { tree } => tree,
            other => panic!("{other:?}"),
        };
        let names: Vec<String> = (1..=MEMO_GENERATORS + 2)
            .map(|k| format!("trust:1/{k}"))
            .collect();
        for name in &names {
            tree(name);
        }
        for (k, name) in names.iter().enumerate() {
            let shared = Arc::ptr_eq(&tree(name), &tree(name));
            assert_eq!(shared, k < MEMO_GENERATORS, "{name}");
        }
    }
}
