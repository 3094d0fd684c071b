//! The `Sample` algorithm and additive-error approximation (§5, Thm. 9).
//!
//! `Sample` performs one random walk down the repairing Markov chain:
//! starting from `ε`, it repeatedly draws the next operation according to
//! the generator's transition probabilities until the sequence is complete,
//! then reports whether the query holds on the resulting instance
//! (Proposition 10: the walk hits each absorbing state with exactly its
//! hitting-distribution probability, because the chain is a tree).
//!
//! Averaging `n = ⌈ln(2/δ) / (2ε²)⌉` walks gives, by Hoeffding's
//! inequality, an estimate within additive error `ε` of `CP(t̄)` with
//! probability at least `1 − δ` — **when the generator is non-failing**
//! (e.g. any deletion-only generator, Proposition 8). For failing chains
//! the plain mean estimates the *numerator* of `CP` only; this module
//! tracks failed walks explicitly so callers can detect the situation (the
//! paper leaves the failing case open, §6 "Approximation for Insertions
//! and Deletions").
//!
//! **The exact-threshold draw.** A step draws a uniform `u64 r` and picks
//! the first extension `i` whose cumulative weight `acc_i = w_0 + … + w_i`
//! exceeds `r / 2⁶⁴` — compared exactly, with no floating-point bias.
//! Since `r` is an integer, `r / 2⁶⁴ < acc_i` holds iff
//! `r < ⌈acc_i · 2⁶⁴⌉`, and `acc_i ≤ 1` keeps that bound within `u128`. So
//! [`draw_thresholds`] turns a node's exact rational weights into integer
//! thresholds once, and every draw at that node is an integer search
//! ([`draw`]) that picks the same index the rational comparison would.
//! [`crate::tree::ChainTree`] stores the thresholds per node, which makes
//! a memoized step bit-identical to a fresh one.

use crate::{ChainGenerator, GeneratorError, RepairContext, RepairState};
use ocqa_data::{Constant, Database};
use ocqa_logic::Query;
use ocqa_num::Rat;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Number of walks needed for additive error `eps` at confidence
/// `1 − delta`: `⌈ln(2/δ) / (2ε²)⌉`. For `ε = δ = 0.1` this is 150, the
/// figure quoted in §5.
///
/// ```
/// assert_eq!(ocqa_core::sample::sample_size(0.1, 0.1), 150);
/// ```
pub fn sample_size(eps: f64, delta: f64) -> u64 {
    assert!(eps > 0.0 && eps < 1.0, "eps must lie in (0,1)");
    assert!(delta > 0.0 && delta < 1.0, "delta must lie in (0,1)");
    ((2.0f64 / delta).ln() / (2.0 * eps * eps)).ceil() as u64
}

/// Derives a decorrelated RNG seed for sub-stream `stream` of `seed`: one
/// SplitMix64 round over `seed ⊕ f(stream)`.
///
/// This function is part of the reproducibility contract shared by every
/// deterministic sampler in the workspace: `ocqa-engine`'s pool uses it to
/// seed per-chunk walk streams, and [`crate::localize::ComponentSampler`]
/// uses it to seed per-component walk streams. Sub-streams must be
/// decorrelated but *stable* — changing this function changes every
/// sampled answer for a fixed seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Errors during sampling.
#[derive(Debug)]
pub enum SampleError {
    /// The generator failed to produce a distribution at some state.
    Generator(GeneratorError),
}

impl fmt::Display for SampleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SampleError::Generator(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SampleError {}

impl From<GeneratorError> for SampleError {
    fn from(e: GeneratorError) -> Self {
        SampleError::Generator(e)
    }
}

/// The endpoint of one random walk.
#[derive(Debug)]
pub enum WalkOutcome {
    /// The walk reached a successful complete sequence; the instance is an
    /// operational repair.
    Repair(Database),
    /// The walk reached a failing complete sequence (possible only for
    /// failing generators).
    Failed(Database),
}

/// Runs one `Sample` walk: draws operations per the generator until the
/// sequence is complete. The reference walk: [`crate::tree::ChainTree`]
/// memoizes exactly these steps and must reach the same leaf for the same
/// RNG.
pub fn sample_walk(
    ctx: &Arc<RepairContext>,
    gen: &dyn ChainGenerator,
    rng: &mut StdRng,
) -> Result<WalkOutcome, SampleError> {
    let mut state = RepairState::initial(ctx.clone());
    loop {
        let exts = state.extensions();
        if exts.is_empty() {
            return Ok(if state.is_consistent() {
                WalkOutcome::Repair(state.db().clone())
            } else {
                WalkOutcome::Failed(state.db().clone())
            });
        }
        let thresholds = draw_thresholds(&gen.validated(&state, &exts)?);
        let idx = draw(&thresholds, rng.next_u64());
        state = state.apply(&exts[idx]);
    }
}

/// The integer draw thresholds `⌈acc_i · 2⁶⁴⌉` of a validated weight
/// vector (non-negative, summing to 1), one per cumulative sum `acc_i`.
pub fn draw_thresholds(weights: &[Rat]) -> Vec<u128> {
    let mut acc = Rat::zero();
    weights
        .iter()
        .map(|w| {
            acc += w;
            let scaled = acc.numer().magnitude().shl_bits(64);
            let (q, r) = scaled.div_rem(acc.denom());
            let q = q.to_u128().expect("a probability scales within u128");
            if r.is_zero() {
                q
            } else {
                q + 1
            }
        })
        .collect()
}

/// The index a uniform `r` selects: the first `i` with
/// `r < thresholds[i]`. The last threshold of a distribution is `2⁶⁴`, so
/// some index always qualifies.
pub fn draw(thresholds: &[u128], r: u64) -> usize {
    let i = thresholds.partition_point(|t| *t <= u128::from(r));
    debug_assert!(i < thresholds.len(), "weights sum to 1");
    i
}

/// An additive-error estimate of `CP(t̄)`.
#[derive(Debug, Clone)]
pub struct Estimate {
    /// The estimated probability (hit ratio).
    pub value: f64,
    /// Number of walks performed.
    pub samples: u64,
    /// Walks whose repair satisfied the query.
    pub hits: u64,
    /// Walks that ended in a failing sequence (0 for non-failing
    /// generators; if positive, `value` estimates the numerator of `CP`
    /// rather than the conditional probability).
    pub failed_walks: u64,
    /// The additive error bound requested.
    pub epsilon: f64,
    /// The confidence parameter requested.
    pub delta: f64,
}

/// Estimates `CP(t̄)` for one tuple with additive error `eps` at confidence
/// `1 − delta` (Theorem 9).
pub fn estimate_tuple_probability(
    ctx: &Arc<RepairContext>,
    gen: &dyn ChainGenerator,
    query: &Query,
    tuple: &[Constant],
    eps: f64,
    delta: f64,
    rng: &mut StdRng,
) -> Result<Estimate, SampleError> {
    let n = sample_size(eps, delta);
    let mut hits = 0u64;
    let mut failed = 0u64;
    for _ in 0..n {
        match sample_walk(ctx, gen, rng)? {
            WalkOutcome::Repair(db) => {
                if query.holds(&db, tuple) {
                    hits += 1;
                }
            }
            WalkOutcome::Failed(_) => failed += 1,
        }
    }
    Ok(Estimate {
        value: hits as f64 / n as f64,
        samples: n,
        hits,
        failed_walks: failed,
        epsilon: eps,
        delta,
    })
}

/// Estimated `CP` per answer tuple, as returned by [`estimate_answers`].
pub type AnswerFrequencies = Vec<(Vec<Constant>, f64)>;

/// The §5 "temporary table" scheme: runs `n` walks, evaluates the whole
/// query on every sampled repair, and returns the per-tuple frequencies —
/// estimates of `CP` for *all* tuples simultaneously.
pub fn estimate_answers(
    ctx: &Arc<RepairContext>,
    gen: &dyn ChainGenerator,
    query: &Query,
    eps: f64,
    delta: f64,
    rng: &mut StdRng,
) -> Result<(AnswerFrequencies, u64), SampleError> {
    let n = sample_size(eps, delta);
    let tally = sample_tally(ctx, gen, query, n, rng)?;
    Ok((tally.frequencies(), n))
}

/// Estimates the *conditional* probability for possibly-failing chains by
/// the ratio estimator `hits / successes` (§6 "Approximation for
/// Insertions and Deletions" — the paper leaves guaranteed approximation
/// of this ratio open; this is the natural plug-in estimator, exposed with
/// its diagnostics so callers can judge the denominator's sample support).
///
/// For non-failing generators it coincides with
/// [`estimate_tuple_probability`]. Returns `None` when no walk succeeded
/// (the denominator cannot be estimated at all).
pub fn estimate_conditional(
    ctx: &Arc<RepairContext>,
    gen: &dyn ChainGenerator,
    query: &Query,
    tuple: &[Constant],
    eps: f64,
    delta: f64,
    rng: &mut StdRng,
) -> Result<Option<Estimate>, SampleError> {
    let n = sample_size(eps, delta);
    let mut hits = 0u64;
    let mut failed = 0u64;
    for _ in 0..n {
        match sample_walk(ctx, gen, rng)? {
            WalkOutcome::Repair(db) => {
                if query.holds(&db, tuple) {
                    hits += 1;
                }
            }
            WalkOutcome::Failed(_) => failed += 1,
        }
    }
    let successes = n - failed;
    if successes == 0 {
        return Ok(None);
    }
    Ok(Some(Estimate {
        value: hits as f64 / successes as f64,
        samples: n,
        hits,
        failed_walks: failed,
        epsilon: eps,
        delta,
    }))
}

/// Estimates the expected answer cardinality `E[|Q(D′)|]` by averaging the
/// answer-set size over sampled repairs (the Monte-Carlo counterpart of
/// [`crate::answer::expected_count`]).
pub fn estimate_expected_count(
    ctx: &Arc<RepairContext>,
    gen: &dyn ChainGenerator,
    query: &Query,
    eps: f64,
    delta: f64,
    rng: &mut StdRng,
) -> Result<(f64, u64), SampleError> {
    let n = sample_size(eps, delta);
    let mut total = 0u64;
    for _ in 0..n {
        if let WalkOutcome::Repair(db) = sample_walk(ctx, gen, rng)? {
            total += query.answers(&db).len() as u64;
        }
    }
    Ok((total as f64 / n as f64, n))
}

/// The outcome of a batch of `Sample` walks, in mergeable form: per-tuple
/// hit counts over the whole answer relation (the §5 "temporary table"
/// scheme), plus failure diagnostics.
///
/// Tallies are pure sums, so [`SampleTally::merge`] is commutative and
/// associative — partitioning a sample budget into chunks and merging the
/// per-chunk tallies yields the same result in any order. `ocqa-engine`'s
/// worker pool relies on this for answers that are bit-identical
/// regardless of pool size.
#[derive(Debug, Clone, Default)]
pub struct SampleTally {
    /// Hits per answer tuple across sampled repairs.
    pub counts: BTreeMap<Vec<Constant>, u64>,
    /// Walks performed.
    pub walks: u64,
    /// Walks that ended in a failing complete sequence.
    pub failed_walks: u64,
    /// How the walks were served (diagnostics only: unlike the fields
    /// above, they depend on how warm a memoized chain tree was).
    pub counters: WalkCounters,
}

/// Chain-walk work behind a tally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalkCounters {
    /// Chain steps taken (one draw each).
    pub steps: u64,
    /// Steps drawn from a memoized tree node instead of a fresh
    /// extension enumeration.
    pub cached_steps: u64,
    /// Tree nodes the walks computed and stored.
    pub nodes_built: u64,
}

impl WalkCounters {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &WalkCounters) {
        self.steps += other.steps;
        self.cached_steps += other.cached_steps;
        self.nodes_built += other.nodes_built;
    }
}

impl SampleTally {
    /// Folds another tally into this one.
    pub fn merge(&mut self, other: SampleTally) {
        for (tuple, k) in other.counts {
            *self.counts.entry(tuple).or_insert(0) += k;
        }
        self.walks += other.walks;
        self.failed_walks += other.failed_walks;
        self.counters.add(&other.counters);
    }

    /// Per-tuple hit frequencies over **all** walks, failed ones included
    /// (`hits / walks`).
    ///
    /// For non-failing generators this is the Theorem 9 additive-error
    /// estimate of `CP`. For failing chains it estimates only the
    /// *numerator* of `CP` — the probability of reaching a repair that
    /// satisfies the query, not the probability conditioned on reaching a
    /// repair at all. Callers serving `CP` on possibly-failing chains
    /// should use [`conditional_frequencies`](Self::conditional_frequencies)
    /// instead (and may report both).
    pub fn frequencies(&self) -> AnswerFrequencies {
        self.counts
            .iter()
            .map(|(t, k)| (t.clone(), *k as f64 / self.walks as f64))
            .collect()
    }

    /// Per-tuple hit frequencies over the **successful** walks only
    /// (`hits / (walks − failed_walks)`) — the §6 ratio estimator of the
    /// conditional probability `CP`, the plug-in counterpart of
    /// [`estimate_conditional`].
    ///
    /// Coincides with [`frequencies`](Self::frequencies) when no walk
    /// failed. Returns `None` when *every* walk failed: the denominator
    /// cannot be estimated at all (and there are no hits to report).
    pub fn conditional_frequencies(&self) -> Option<AnswerFrequencies> {
        let successes = self.walks - self.failed_walks;
        if successes == 0 {
            return None;
        }
        Some(
            self.counts
                .iter()
                .map(|(t, k)| (t.clone(), *k as f64 / successes as f64))
                .collect(),
        )
    }
}

/// Runs exactly `walks` sample walks, evaluating `query` on each sampled
/// repair and tallying every answer tuple.
///
/// This is the thread-safe batch entry point behind both
/// [`estimate_answers`] and `ocqa-engine`'s sampler pool: `ctx` and `gen`
/// are shared (`RepairContext` and every [`ChainGenerator`] are
/// `Send + Sync`), and each batch owns its RNG, so batches run on any
/// thread and merge in any order.
pub fn sample_tally(
    ctx: &Arc<RepairContext>,
    gen: &dyn ChainGenerator,
    query: &Query,
    walks: u64,
    rng: &mut StdRng,
) -> Result<SampleTally, SampleError> {
    let mut tally = SampleTally {
        walks,
        ..SampleTally::default()
    };
    for _ in 0..walks {
        match sample_walk(ctx, gen, rng)? {
            WalkOutcome::Repair(db) => {
                for tuple in query.answers(&db) {
                    *tally.counts.entry(tuple).or_insert(0) += 1;
                }
            }
            WalkOutcome::Failed(_) => tally.failed_walks += 1,
        }
    }
    Ok(tally)
}

/// Multi-threaded version of [`estimate_tuple_probability`]: walks are
/// split across `threads` workers, each with an independent RNG derived
/// from `seed`.
#[allow(clippy::too_many_arguments)]
pub fn estimate_tuple_probability_parallel(
    ctx: &Arc<RepairContext>,
    gen: &dyn ChainGenerator,
    query: &Query,
    tuple: &[Constant],
    eps: f64,
    delta: f64,
    threads: usize,
    seed: u64,
) -> Result<Estimate, SampleError> {
    assert!(threads > 0);
    let n = sample_size(eps, delta);
    let per = n / threads as u64;
    let extra = n % threads as u64;
    let (tx, rx) = crossbeam::channel::unbounded();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let tx = tx.clone();
            let ctx = ctx.clone();
            let quota = per + if (t as u64) < extra { 1 } else { 0 };
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed.wrapping_add(t as u64 * 0x9E37_79B9));
                let mut hits = 0u64;
                let mut failed = 0u64;
                let mut err: Option<SampleError> = None;
                for _ in 0..quota {
                    match sample_walk(&ctx, gen, &mut rng) {
                        Ok(WalkOutcome::Repair(db)) => {
                            if query.holds(&db, tuple) {
                                hits += 1;
                            }
                        }
                        Ok(WalkOutcome::Failed(_)) => failed += 1,
                        Err(e) => {
                            err = Some(e);
                            break;
                        }
                    }
                }
                let _ = tx.send(match err {
                    None => Ok((hits, failed)),
                    Some(e) => Err(e),
                });
            });
        }
        drop(tx);
        let mut hits = 0u64;
        let mut failed = 0u64;
        for msg in rx {
            let (h, f) = msg?;
            hits += h;
            failed += f;
        }
        Ok(Estimate {
            value: hits as f64 / n as f64,
            samples: n,
            hits,
            failed_walks: failed,
            epsilon: eps,
            delta,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer::conditional_probability;
    use crate::explore::{repair_distribution, ExploreOptions};
    use crate::{PreferenceGenerator, UniformGenerator};
    use ocqa_logic::parser;

    fn make_ctx(facts: &str, constraints: &str) -> Arc<RepairContext> {
        let facts = parser::parse_facts(facts).unwrap();
        let sigma = parser::parse_constraints(constraints).unwrap();
        let schema = parser::infer_schema(&facts, &sigma).unwrap();
        let db = Database::from_facts(schema, facts).unwrap();
        RepairContext::new(db, sigma)
    }

    #[test]
    fn sample_size_matches_paper() {
        // §5: "for ε = δ = 0.1, for example, it is 150".
        assert_eq!(sample_size(0.1, 0.1), 150);
        assert_eq!(sample_size(0.05, 0.1), 600);
        // Tighter δ only grows logarithmically.
        assert!(sample_size(0.1, 0.01) < 4 * sample_size(0.1, 0.5));
    }

    #[test]
    #[should_panic(expected = "eps must lie in (0,1)")]
    fn sample_size_validates_eps() {
        sample_size(0.0, 0.1);
    }

    /// The rational comparison the integer thresholds replace: the
    /// first `i` with `r / 2⁶⁴ < w_0 + … + w_i`.
    fn draw_index(weights: &[Rat], r: u64) -> usize {
        let threshold = Rat::new(
            ocqa_num::IBig::from(r),
            ocqa_num::IBig::from(ocqa_num::UBig::one().shl_bits(64)),
        );
        let mut acc = Rat::zero();
        for (i, w) in weights.iter().enumerate() {
            acc += w;
            if threshold < acc {
                return i;
            }
        }
        unreachable!("weights sum to 1")
    }

    #[test]
    fn draw_respects_point_mass() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = draw_thresholds(&[Rat::zero(), Rat::one(), Rat::zero()]);
        assert_eq!(t, vec![0, 1 << 64, 1 << 64]);
        for _ in 0..50 {
            assert_eq!(draw(&t, rng.next_u64()), 1);
        }
    }

    #[test]
    fn integer_draw_matches_the_rational_comparison() {
        let mut rng = StdRng::seed_from_u64(9);
        let vectors = vec![
            vec![Rat::ratio(1, 3); 3],
            vec![Rat::ratio(1, 7), Rat::ratio(2, 7), Rat::ratio(4, 7)],
            vec![
                Rat::ratio(1, 2),
                Rat::zero(),
                Rat::ratio(1, 4),
                Rat::ratio(1, 4),
            ],
            vec![
                Rat::ratio(3, 11),
                Rat::ratio(5, 13),
                Rat::ratio(1, 1) - Rat::ratio(3, 11) - Rat::ratio(5, 13),
            ],
            vec![Rat::one()],
        ];
        for w in &vectors {
            let t = draw_thresholds(w);
            assert_eq!(*t.last().unwrap(), 1u128 << 64);
            // Each threshold and its neighbours are where an off-by-one
            // in the ceiling would show.
            let mut probes: Vec<u64> = vec![0, u64::MAX];
            for &b in &t {
                for d in [-1i128, 0, 1] {
                    let p = b as i128 + d;
                    if (0..=u64::MAX as i128).contains(&p) {
                        probes.push(p as u64);
                    }
                }
            }
            probes.extend((0..2000).map(|_| rng.next_u64()));
            for r in probes {
                assert_eq!(draw(&t, r), draw_index(w, r), "r = {r}, w = {w:?}");
            }
        }
    }

    #[test]
    fn walks_always_terminate_in_repairs_for_keys() {
        let ctx = make_ctx(
            "R(a,b). R(a,c). R(b,b). R(b,c).",
            "R(x,y), R(x,z) -> y = z.",
        );
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..50 {
            match sample_walk(&ctx, &UniformGenerator::new(), &mut rng).unwrap() {
                WalkOutcome::Repair(db) => assert!(ctx.sigma().satisfied_by(&db)),
                WalkOutcome::Failed(_) => {
                    panic!("deletion-fixable key violations cannot fail (Prop. 8)")
                }
            }
        }
    }

    #[test]
    fn example7_estimate_close_to_exact() {
        let ctx = make_ctx(
            "Pref(a,b). Pref(a,c). Pref(a,d). Pref(b,a). Pref(b,d). Pref(c,a).",
            "Pref(x,y), Pref(y,x) -> false.",
        );
        let gen = PreferenceGenerator::new();
        let q = parser::parse_query("(x) <- forall y: (Pref(x,y) | x = y)").unwrap();
        let exact = conditional_probability(
            &repair_distribution(&ctx, &gen, &ExploreOptions::default()).unwrap(),
            &q,
            &[Constant::named("a")],
        )
        .to_f64();
        let mut rng = StdRng::seed_from_u64(1);
        // ε = 0.05, δ = 0.02 ⇒ n = 922 walks; additive error ≤ 0.05 with
        // probability ≥ 0.98 (and this seed is deterministic).
        let est = estimate_tuple_probability(
            &ctx,
            &gen,
            &q,
            &[Constant::named("a")],
            0.05,
            0.02,
            &mut rng,
        )
        .unwrap();
        assert_eq!(est.failed_walks, 0);
        assert!(
            (est.value - exact).abs() <= 0.05,
            "estimate {} vs exact {exact}",
            est.value
        );
    }

    #[test]
    fn estimate_answers_tallies_all_tuples() {
        let ctx = make_ctx("R(a,b). R(a,c). S(q).", "R(x,y), R(x,z) -> y = z.");
        let q = parser::parse_query("(x) <- S(x)").unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let (answers, n) =
            estimate_answers(&ctx, &UniformGenerator::new(), &q, 0.1, 0.1, &mut rng).unwrap();
        assert_eq!(n, 150);
        // S(q) survives every repair: frequency 1.
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].0, vec![Constant::named("q")]);
        assert!((answers[0].1 - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn parallel_estimate_matches_semantics() {
        let ctx = make_ctx("R(a,b). R(a,c).", "R(x,y), R(x,z) -> y = z.");
        let gen = UniformGenerator::new();
        let q = parser::parse_query("(y) <- exists x: R(x,y)").unwrap();
        // Exact CP(b) = 1/3 (three uniform repairs; b survives in one).
        let est = estimate_tuple_probability_parallel(
            &ctx,
            &gen,
            &q,
            &[Constant::named("b")],
            0.05,
            0.02,
            4,
            99,
        )
        .unwrap();
        assert_eq!(est.samples, sample_size(0.05, 0.02));
        assert!((est.value - 1.0 / 3.0).abs() <= 0.05, "value {}", est.value);
    }

    #[test]
    fn conditional_ratio_estimator_on_failing_chain() {
        // D = {R(a), S(a)}, Σ = {R(x) → T(x); T(x) → ⊥}: half the walks
        // fail; S(a) survives the single repair, so the conditional
        // probability is 1 — the ratio estimator recovers it while the
        // plain estimator reports ≈ 1/2 (the numerator).
        let ctx = make_ctx("R(a). S(a).", "R(x) -> T(x). T(x) -> false.");
        let gen = UniformGenerator::new();
        let q = parser::parse_query("(x) <- S(x)").unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let plain = estimate_tuple_probability(
            &ctx,
            &gen,
            &q,
            &[Constant::named("a")],
            0.1,
            0.05,
            &mut rng,
        )
        .unwrap();
        assert!((plain.value - 0.5).abs() < 0.15, "numerator ≈ 1/2");
        let mut rng = StdRng::seed_from_u64(22);
        let ratio =
            estimate_conditional(&ctx, &gen, &q, &[Constant::named("a")], 0.1, 0.05, &mut rng)
                .unwrap()
                .expect("some walk succeeds");
        assert_eq!(ratio.value, 1.0, "every successful repair satisfies S(a)");
        assert!(ratio.failed_walks > 0);
    }

    #[test]
    fn expected_count_estimator_close_to_exact() {
        let ctx = make_ctx("R(a,b). R(a,c).", "R(x,y), R(x,z) -> y = z.");
        let gen = UniformGenerator::new();
        let q = parser::parse_query("(y) <- exists x: R(x,y)").unwrap();
        let exact = crate::answer::expected_count(
            &repair_distribution(&ctx, &gen, &ExploreOptions::default()).unwrap(),
            &q,
        )
        .to_f64();
        let mut rng = StdRng::seed_from_u64(23);
        let (est, _) = estimate_expected_count(&ctx, &gen, &q, 0.05, 0.02, &mut rng).unwrap();
        assert!(
            (est - exact).abs() <= 0.1,
            "estimate {est} vs exact {exact}"
        );
    }

    #[test]
    fn conditional_frequencies_use_successful_denominator() {
        // Half the walks fail (§3's failing example with a surviving S(a)):
        // raw frequencies estimate the numerator ≈ 1/2, conditional ones
        // the true CP = 1.
        let ctx = make_ctx("R(a). S(a).", "R(x) -> T(x). T(x) -> false.");
        let q = parser::parse_query("(x) <- S(x)").unwrap();
        let mut rng = StdRng::seed_from_u64(31);
        let tally = sample_tally(&ctx, &UniformGenerator::new(), &q, 400, &mut rng).unwrap();
        assert!(tally.failed_walks > 0);
        let raw = tally.frequencies();
        assert!(
            (raw[0].1 - 0.5).abs() < 0.15,
            "numerator ≈ 1/2: {}",
            raw[0].1
        );
        let cond = tally.conditional_frequencies().unwrap();
        assert_eq!(cond[0].1, 1.0, "every successful repair satisfies S(a)");

        // All-failing tally: no denominator.
        let all_failed = SampleTally {
            walks: 10,
            failed_walks: 10,
            ..SampleTally::default()
        };
        assert!(all_failed.conditional_frequencies().is_none());

        // Non-failing tally: both estimators coincide.
        let mut rng = StdRng::seed_from_u64(32);
        let ctx = make_ctx("R(a,b). R(a,c).", "R(x,y), R(x,z) -> y = z.");
        let q = parser::parse_query("(y) <- exists x: R(x,y)").unwrap();
        let tally = sample_tally(&ctx, &UniformGenerator::new(), &q, 100, &mut rng).unwrap();
        assert_eq!(tally.failed_walks, 0);
        assert_eq!(
            tally.conditional_frequencies().unwrap(),
            tally.frequencies()
        );
    }

    #[test]
    fn derive_seed_decorrelates_streams() {
        assert_ne!(derive_seed(7, 0), derive_seed(7, 1));
        assert_ne!(derive_seed(7, 0), derive_seed(8, 0));
        assert_eq!(derive_seed(7, 1), derive_seed(7, 1), "stable");
    }

    #[test]
    fn failing_walks_are_reported() {
        let ctx = make_ctx("R(a).", "R(x) -> T(x). T(x) -> false.");
        let q = parser::parse_query("(x) <- R(x)").unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let est = estimate_tuple_probability(
            &ctx,
            &UniformGenerator::new(),
            &q,
            &[Constant::named("a")],
            0.1,
            0.1,
            &mut rng,
        )
        .unwrap();
        // Roughly half the walks take the failing +T(a) branch.
        assert!(est.failed_walks > 0);
        assert_eq!(est.hits, 0, "R(a) survives no repair");
    }
}
