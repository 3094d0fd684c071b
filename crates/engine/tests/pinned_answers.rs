//! Answers pinned byte for byte to the pre-`ChainTree` sampler.
//!
//! Every literal below was recorded by the per-walk `sample_walk` path
//! (before chain walks were memoized in a [`ChainTree`]). An answer is a
//! pure function of (facts, constraints, query, generator, ε, δ, seed,
//! plan), so a memoized walk must reproduce each one exactly — on a cold
//! tree, on a warm one, on one with no node budget at all, and whatever
//! the pool size.

use ocqa_core::localize::ComponentSampler;
use ocqa_core::sample::{sample_size, SampleTally};
use ocqa_core::tree::ChainTree;
use ocqa_core::RepairContext;
use ocqa_data::Database;
use ocqa_engine::{derive_seed, generator_by_name, json, Engine, EngineConfig, CHUNK_WALKS};
use ocqa_logic::parser;
use ocqa_workload::{InclusionSpec, InclusionWorkload, KeyConflictSpec, KeyConflictWorkload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

const PREF_FACTS: &str = "Pref(a,b). Pref(a,c). Pref(a,d). Pref(b,a). Pref(b,d). Pref(c,a).";

/// One pinned database × request shape.
struct Case {
    db: &'static str,
    facts: String,
    constraints: &'static str,
    query: &'static str,
    generator: &'static str,
    plan: &'static str,
}

fn cases() -> Vec<Case> {
    let inclusion = InclusionWorkload::generate(&InclusionSpec {
        seed: 0xDA7A,
        ..InclusionSpec::default()
    });
    let keys = KeyConflictWorkload::generate(&KeyConflictSpec {
        clean_tuples: 3,
        conflict_groups: 5,
        group_size: 2,
        value_domain: 1_000,
        seed: 0xDA7A,
    });
    vec![
        Case {
            db: "inc",
            facts: inclusion.db.to_string(),
            constraints: "Order(o, c) -> Customer(c).",
            query: "(c) <- Customer(c) & (exists o: Order(o, c))",
            generator: "uniform",
            plan: "monolithic",
        },
        Case {
            db: "fail",
            facts: "R(a). R(b). R(c). S(a). S(b).".into(),
            constraints: "R(x) -> T(x). T(x) -> false.",
            query: "(x) <- S(x) | R(x)",
            generator: "uniform",
            plan: "monolithic",
        },
        Case {
            db: "pref",
            facts: PREF_FACTS.into(),
            constraints: "Pref(x,y), Pref(y,x) -> false.",
            query: "(x) <- exists y: Pref(x,y)",
            generator: "uniform",
            plan: "localized",
        },
        Case {
            db: "pref",
            facts: PREF_FACTS.into(),
            constraints: "Pref(x,y), Pref(y,x) -> false.",
            query: "(x) <- exists y: Pref(x,y)",
            generator: "trust:1/2",
            plan: "localized",
        },
        Case {
            db: "kc",
            facts: keys.db.to_string(),
            constraints: "R(x,y), R(x,z) -> y = z.",
            query: "(x) <- exists y: R(x, y)",
            generator: "uniform-deletions",
            plan: "key-repair",
        },
    ]
}

const SEEDS: [u64; 2] = [11, 0xC0FFEE];

/// `(case index, seed, answers, failed_walks)`; every answer runs 150
/// walks (ε = δ = 0.1).
const PINNED: [(usize, u64, &str, u64); 10] = [
    (
        0,
        11,
        r#"[{"p":1,"p_cond":1,"tuple":[0]},{"p":1,"p_cond":1,"tuple":[1]},{"p":1,"p_cond":1,"tuple":[2]},{"p":1,"p_cond":1,"tuple":[3]},{"p":1,"p_cond":1,"tuple":[5]},{"p":1,"p_cond":1,"tuple":[6]},{"p":1,"p_cond":1,"tuple":[7]},{"p":1,"p_cond":1,"tuple":[8]},{"p":1,"p_cond":1,"tuple":[9]},{"p":1,"p_cond":1,"tuple":[10]},{"p":1,"p_cond":1,"tuple":[11]},{"p":1,"p_cond":1,"tuple":[12]},{"p":1,"p_cond":1,"tuple":[13]},{"p":1,"p_cond":1,"tuple":[14]},{"p":1,"p_cond":1,"tuple":[15]},{"p":1,"p_cond":1,"tuple":[17]},{"p":0.4866666666666667,"p_cond":0.4866666666666667,"tuple":[1020]},{"p":0.49333333333333335,"p_cond":0.49333333333333335,"tuple":[1021]},{"p":0.4533333333333333,"p_cond":0.4533333333333333,"tuple":[1022]}]"#,
        0,
    ),
    (
        0,
        0xC0FFEE,
        r#"[{"p":1,"p_cond":1,"tuple":[0]},{"p":1,"p_cond":1,"tuple":[1]},{"p":1,"p_cond":1,"tuple":[2]},{"p":1,"p_cond":1,"tuple":[3]},{"p":1,"p_cond":1,"tuple":[5]},{"p":1,"p_cond":1,"tuple":[6]},{"p":1,"p_cond":1,"tuple":[7]},{"p":1,"p_cond":1,"tuple":[8]},{"p":1,"p_cond":1,"tuple":[9]},{"p":1,"p_cond":1,"tuple":[10]},{"p":1,"p_cond":1,"tuple":[11]},{"p":1,"p_cond":1,"tuple":[12]},{"p":1,"p_cond":1,"tuple":[13]},{"p":1,"p_cond":1,"tuple":[14]},{"p":1,"p_cond":1,"tuple":[15]},{"p":1,"p_cond":1,"tuple":[17]},{"p":0.48,"p_cond":0.48,"tuple":[1020]},{"p":0.5466666666666666,"p_cond":0.5466666666666666,"tuple":[1021]},{"p":0.4666666666666667,"p_cond":0.4666666666666667,"tuple":[1022]}]"#,
        0,
    ),
    (
        1,
        11,
        r#"[{"p":0.15333333333333332,"p_cond":1,"tuple":["a"]},{"p":0.15333333333333332,"p_cond":1,"tuple":["b"]}]"#,
        127,
    ),
    (
        1,
        0xC0FFEE,
        r#"[{"p":0.12,"p_cond":1,"tuple":["a"]},{"p":0.12,"p_cond":1,"tuple":["b"]}]"#,
        132,
    ),
    (
        2,
        11,
        r#"[{"p":1,"p_cond":1,"tuple":["a"]},{"p":1,"p_cond":1,"tuple":["b"]},{"p":0.3333333333333333,"p_cond":0.3333333333333333,"tuple":["c"]}]"#,
        0,
    ),
    (
        2,
        0xC0FFEE,
        r#"[{"p":1,"p_cond":1,"tuple":["a"]},{"p":1,"p_cond":1,"tuple":["b"]},{"p":0.3333333333333333,"p_cond":0.3333333333333333,"tuple":["c"]}]"#,
        0,
    ),
    (
        3,
        11,
        r#"[{"p":1,"p_cond":1,"tuple":["a"]},{"p":1,"p_cond":1,"tuple":["b"]},{"p":0.4,"p_cond":0.4,"tuple":["c"]}]"#,
        0,
    ),
    (
        3,
        0xC0FFEE,
        r#"[{"p":1,"p_cond":1,"tuple":["a"]},{"p":1,"p_cond":1,"tuple":["b"]},{"p":0.36666666666666664,"p_cond":0.36666666666666664,"tuple":["c"]}]"#,
        0,
    ),
    (
        4,
        11,
        r#"[{"p":1,"p_cond":1,"tuple":[0]},{"p":1,"p_cond":1,"tuple":[1]},{"p":1,"p_cond":1,"tuple":[2]},{"p":0.6333333333333333,"p_cond":0.6333333333333333,"tuple":[3]},{"p":0.7133333333333334,"p_cond":0.7133333333333334,"tuple":[4]},{"p":0.62,"p_cond":0.62,"tuple":[5]},{"p":0.6533333333333333,"p_cond":0.6533333333333333,"tuple":[6]},{"p":0.64,"p_cond":0.64,"tuple":[7]}]"#,
        0,
    ),
    (
        4,
        0xC0FFEE,
        r#"[{"p":1,"p_cond":1,"tuple":[0]},{"p":1,"p_cond":1,"tuple":[1]},{"p":1,"p_cond":1,"tuple":[2]},{"p":0.5933333333333334,"p_cond":0.5933333333333334,"tuple":[3]},{"p":0.7133333333333334,"p_cond":0.7133333333333334,"tuple":[4]},{"p":0.6066666666666667,"p_cond":0.6066666666666667,"tuple":[5]},{"p":0.6933333333333334,"p_cond":0.6933333333333334,"tuple":[6]},{"p":0.68,"p_cond":0.68,"tuple":[7]}]"#,
        0,
    ),
];

fn pinned(case: usize, seed: u64) -> (&'static str, u64) {
    let (_, _, answers, failed) = PINNED
        .iter()
        .find(|(c, s, _, _)| *c == case && *s == seed)
        .expect("pinned entry");
    (answers, *failed)
}

fn create_all(engine: &Engine) {
    let mut made = Vec::new();
    for case in cases() {
        if made.contains(&case.db) {
            continue;
        }
        made.push(case.db);
        let line = json::Json::obj([
            ("op", json::Json::from("create_db")),
            ("name", json::Json::from(case.db)),
            ("facts", json::Json::from(case.facts.as_str())),
            ("constraints", json::Json::from(case.constraints)),
        ])
        .to_string();
        let resp = engine.handle_line(&line).to_string();
        assert!(resp.contains("\"ok\":true"), "{resp}");
    }
}

fn answer(engine: &Engine, case: &Case, seed: u64) -> (String, u64, u64) {
    let line = json::Json::obj([
        ("op", json::Json::from("answer")),
        ("db", json::Json::from(case.db)),
        ("query", json::Json::from(case.query)),
        ("generator", json::Json::from(case.generator)),
        ("plan", json::Json::from(case.plan)),
        ("seed", json::Json::from(seed)),
    ])
    .to_string();
    let v = json::parse(&engine.handle_line(&line).to_string()).unwrap();
    assert_eq!(v.get("ok").and_then(|j| j.as_bool()), Some(true), "{v}");
    assert_eq!(v.get("cached").and_then(|j| j.as_bool()), Some(false));
    assert_eq!(v.get("plan").and_then(|j| j.as_str()), Some(case.plan));
    (
        v.get("answers").unwrap().to_string(),
        v.get("walks").and_then(|j| j.as_u64()).unwrap(),
        v.get("failed_walks").and_then(|j| j.as_u64()).unwrap(),
    )
}

#[test]
fn pinned_answers_hold_across_pool_sizes_on_cold_and_warm_trees() {
    let cases = cases();
    for workers in [1, 2, 8] {
        for seeds in [SEEDS, [SEEDS[1], SEEDS[0]]] {
            let engine = Engine::new(EngineConfig {
                workers,
                ..EngineConfig::default()
            });
            create_all(&engine);
            // The first seed builds each version's trees, the second
            // walks them warm.
            for seed in seeds {
                for (i, case) in cases.iter().enumerate() {
                    let got = answer(&engine, case, seed);
                    let (want, failed) = pinned(i, seed);
                    assert_eq!(
                        (got.0.as_str(), got.1, got.2),
                        (want, 150, failed),
                        "case {i}, seed {seed}, {workers} workers"
                    );
                }
            }
        }
    }
}

/// Per-tuple hit counts of a tally, keyed by the tuple's rendering.
fn tally_counts(tally: &SampleTally) -> BTreeMap<String, u64> {
    tally
        .counts
        .iter()
        .map(|(t, k)| {
            let key: Vec<String> = t.iter().map(|c| c.to_string()).collect();
            (key.join(","), *k)
        })
        .collect()
}

/// The same counts recovered from a rendered `answers` array.
fn answer_counts(answers: &str, walks: u64) -> BTreeMap<String, u64> {
    let json::Json::Arr(rows) = json::parse(answers).unwrap() else {
        panic!("answers is an array")
    };
    rows.iter()
        .map(|row| {
            let Some(json::Json::Arr(tuple)) = row.get("tuple") else {
                panic!("row has a tuple")
            };
            let key: Vec<String> = tuple
                .iter()
                .map(|c| {
                    c.as_str()
                        .map(String::from)
                        .unwrap_or_else(|| c.to_string())
                })
                .collect();
            let p = row.get("p").and_then(|p| p.as_f64()).unwrap();
            (key.join(","), (p * walks as f64).round() as u64)
        })
        .collect()
}

#[test]
fn pinned_answers_hold_on_trees_without_a_budget() {
    let walks = sample_size(0.1, 0.1);
    for (i, case) in cases().iter().enumerate() {
        let facts = parser::parse_facts(&case.facts).unwrap();
        let sigma = parser::parse_constraints(case.constraints).unwrap();
        let schema = parser::infer_schema(&facts, &sigma).unwrap();
        let ctx = RepairContext::new(Database::from_facts(schema, facts).unwrap(), sigma);
        let gen = generator_by_name(case.generator).unwrap();
        let query = parser::parse_query(case.query).unwrap();
        // The pool's chunking: chunk k walks its quota from
        // derive_seed(seed, k).
        let chunked = |seed: u64, run: &dyn Fn(u64, u64) -> SampleTally| {
            let mut tally = SampleTally::default();
            for chunk in 0..walks.div_ceil(CHUNK_WALKS) {
                let quota = CHUNK_WALKS.min(walks - chunk * CHUNK_WALKS);
                tally.merge(run(quota, derive_seed(seed, chunk)));
            }
            tally
        };
        for seed in SEEDS {
            let tally = match case.plan {
                "monolithic" => {
                    let tree = ChainTree::with_budget(ctx.clone(), gen.clone(), 0);
                    chunked(seed, &|quota, s| {
                        tree.sample_tally(&query, quota, &mut StdRng::seed_from_u64(s))
                            .unwrap()
                    })
                }
                "localized" => {
                    let sampler = ComponentSampler::with_budget(&ctx, gen.clone(), 0).unwrap();
                    chunked(seed, &|quota, s| {
                        sampler.sample_tally(&query, quota, s).unwrap()
                    })
                }
                _ => continue, // key repair walks no chain
            };
            let (answers, failed) = pinned(i, seed);
            assert_eq!(tally.walks, walks);
            assert_eq!(tally.failed_walks, failed, "case {i}, seed {seed}");
            assert_eq!(
                tally_counts(&tally),
                answer_counts(answers, walks),
                "case {i}, seed {seed}"
            );
            assert_eq!(tally.counters.nodes_built, 0);
            assert_eq!(tally.counters.cached_steps, 0);
        }
    }
}

#[test]
fn one_version_shares_its_tree_across_seeds_eps_and_queries() {
    let engine = Engine::new(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    create_all(&engine);
    let cases = cases();
    let inc = &cases[0];
    answer(&engine, inc, SEEDS[0]);
    let chain = |engine: &Engine| {
        let v = json::parse(&engine.handle_line(r#"{"op":"metrics"}"#).to_string()).unwrap();
        let c = v.get("total").unwrap().get("chain").unwrap();
        let m = c.get("monolithic").unwrap();
        let get = |k: &str| m.get(k).and_then(|x| x.as_u64()).unwrap();
        (get("nodes_built"), get("steps"), get("cached_steps"))
    };
    let (built, steps, _) = chain(&engine);
    assert!(built > 0 && steps > 0);
    // Another seed, ε and query on the same version: no new node is
    // needed for walks the first answer already took, and the tree grows
    // by at most what the new walks discover.
    let line = json::Json::obj([
        ("op", json::Json::from("answer")),
        ("db", json::Json::from("inc")),
        ("query", json::Json::from("(o) <- exists c: Order(o, c)")),
        ("plan", json::Json::from("monolithic")),
        ("eps", json::Json::from(0.2)),
        ("seed", json::Json::from(99u64)),
    ])
    .to_string();
    assert!(engine
        .handle_line(&line)
        .to_string()
        .contains("\"ok\":true"));
    let (built2, steps2, cached2) = chain(&engine);
    assert!(steps2 > steps);
    assert!(
        cached2 > 0,
        "the second answer walked the first one's nodes"
    );
    assert!(built2 - built < built, "most nodes were already built");
}
