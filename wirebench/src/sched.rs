//! Seeded workloads: the databases each one serves and the open-loop
//! request schedule driven at them.
//!
//! Everything here is a pure function of (workload, seed, seconds): the
//! servers receive only the generated lines, and the same arguments give
//! a byte-identical schedule (see [`Schedule::fingerprint`]).

use ocqa_engine::json::Json;
use ocqa_engine::Router;
use ocqa_workload::{
    InclusionSpec, InclusionWorkload, KeyConflictSpec, KeyConflictWorkload, StreamSpec,
    StreamWorkload,
};

/// Client connections (one thread each). Fixed rather than read from the
/// host so a seed names the same schedule everywhere; it equals the core
/// count of the 2-core host the rates were chosen on.
pub const CONNS: usize = 2;
/// Shards (`ocqa serve --shards 1` primaries behind the router).
pub const SHARDS: usize = 2;
/// Rungs at most.
pub const MAX_RUNGS: usize = 4;
/// Share of `--seconds` spent at the nominal rate; the rest is split
/// evenly over the higher rungs.
pub const NOMINAL_SHARE: f64 = 0.75;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Zipf-skewed answers over warm keys: transport-bound.
    ReadHot,
    /// Answers on new keys over three plans: sampling-bound.
    ReadCold,
    /// Durable replicated inserts/deletes with answers and a subscriber.
    WriteMix,
}

/// Which responses a workload's SLO limits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpClass {
    /// `answer` requests.
    Answer,
    /// Acknowledged `insert`/`delete` requests.
    Mutation,
}

/// A latency limit on one percentile of one op class.
#[derive(Clone, Copy, Debug)]
pub struct Slo {
    /// The op class it limits.
    pub class: OpClass,
    /// The percentile (e.g. 99).
    pub pct: f64,
    /// The limit in milliseconds.
    pub limit_ms: f64,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::ReadHot, Workload::ReadCold, Workload::WriteMix];

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadHot => "read-hot",
            Workload::ReadCold => "read-cold",
            Workload::WriteMix => "write-mix",
        }
    }

    /// Offered requests per second per connection at the nominal rung.
    /// Below ~12 req/s per connection Linux acknowledges each response
    /// at once (quick-ack after an idle gap), so the server's unflushed
    /// trailing newline does not wait out the 40 ms delayed ACK; above
    /// ~20 req/s every response does. The nominal rates sit in the first
    /// regime so they are steady; the ladder's higher rungs cross into the
    /// second.
    pub fn nominal_rate(self) -> f64 {
        match self {
            Workload::ReadHot => 5.0,
            Workload::ReadCold => 5.0,
            Workload::WriteMix => 10.0,
        }
    }

    /// Each rung offers this many times the previous one's rate. The
    /// steps are wide so no rung sits at the knee where a rung would pass
    /// or miss by chance: read-hot's second rung is deep in the stalled
    /// regime, the others' last passing rung well under CPU capacity.
    pub fn ladder_factor(self) -> f64 {
        match self {
            Workload::ReadHot => 8.0,
            Workload::ReadCold | Workload::WriteMix => 3.0,
        }
    }

    /// The SLO a rung must meet.
    pub fn slo(self) -> Slo {
        match self {
            Workload::ReadHot => Slo {
                class: OpClass::Answer,
                pct: 99.0,
                limit_ms: 100.0,
            },
            Workload::ReadCold => Slo {
                class: OpClass::Answer,
                pct: 90.0,
                limit_ms: 2000.0,
            },
            Workload::WriteMix => Slo {
                class: OpClass::Mutation,
                pct: 99.0,
                limit_ms: 200.0,
            },
        }
    }
}

/// One database a workload creates at set-up.
#[derive(Clone, Debug)]
pub struct DbSpec {
    /// Catalog name.
    pub name: String,
    /// Fact-list source text.
    pub facts: String,
    /// Constraint source text.
    pub constraints: String,
    /// The shard the router places it on.
    pub shard: usize,
    /// The plan every automatic answer on it must report, where the
    /// cost planner's choice is fixed (see [`Schedule::prime`]).
    pub plan: Option<&'static str>,
}

/// What a scheduled request is, for checking and accounting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Kind {
    /// An `answer`.
    Answer {
        /// Index into [`Schedule::dbs`].
        db: usize,
        /// Sent identically on every connection at once (single-flight).
        pair: bool,
        /// In the seeded subset the oracle checks.
        check: bool,
        /// Uses a `prepare`d handle.
        prepared: bool,
    },
    /// An `insert` or `delete` on a durable, replicated database.
    Mutation {
        /// Index into [`Schedule::dbs`].
        db: usize,
        /// Changes the violation set (so a subscriber gets one push).
        dirty: bool,
        /// Bytes of fact text the request carries.
        fact_bytes: usize,
    },
}

/// One scheduled request.
#[derive(Clone, Debug)]
pub struct Req {
    /// Due time, microseconds after the rung starts.
    pub due_us: u64,
    /// The protocol line sent.
    pub line: String,
    /// The same request with inline query text, for the oracle.
    pub oracle_line: String,
    /// What it is.
    pub kind: Kind,
}

/// One rate of the ladder.
#[derive(Clone, Debug)]
pub struct Rung {
    /// Offered requests per second per connection (pairs excluded).
    pub rate: f64,
    /// Length of the sending window in microseconds.
    pub duration_us: u64,
    /// Each connection's requests, sorted by due time.
    pub conns: Vec<Vec<Req>>,
}

/// A whole seeded run: set-up plus the ladder.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// The workload.
    pub workload: Workload,
    /// Databases, created in this order.
    pub dbs: Vec<DbSpec>,
    /// Query texts to `prepare` right after the creates; the i-th gets
    /// handle `q{i+1}`.
    pub prepares: Vec<String>,
    /// One answer per database, in database order (key-conflict
    /// databases first), sent one at a time after the prepares. The cost planner memoizes
    /// each database's plan per version at its first answer, from the
    /// per-shard plan histograms of the answers before it; fixing that
    /// order makes every choice a comparison of step counts (one measured
    /// mean scales all the priors), so the oracle, primed the same way,
    /// makes the same choices.
    pub prime: Vec<String>,
    /// Answer lines sent at set-up so every read-hot key is cached.
    pub warm: Vec<String>,
    /// The `subscribe` line connection 0 sends before the first rung.
    pub subscribe: Option<String>,
    /// The ladder, nominal rate first.
    pub rungs: Vec<Rung>,
}

impl Schedule {
    /// A stable digest of every generated byte, for determinism tests.
    pub fn fingerprint(&self) -> String {
        let mut out = String::new();
        for db in &self.dbs {
            out.push_str(&format!(
                "db {} {} {} {}\n{}\n{}\n",
                db.name,
                db.shard,
                db.plan.unwrap_or("any"),
                db.facts.len(),
                db.facts,
                db.constraints
            ));
        }
        let lines = self.prepares.iter().chain(&self.prime).chain(&self.warm);
        for line in lines.chain(&self.subscribe) {
            out.push_str(line);
            out.push('\n');
        }
        for (r, rung) in self.rungs.iter().enumerate() {
            for (c, reqs) in rung.conns.iter().enumerate() {
                for q in reqs {
                    out.push_str(&format!("{r} {c} {} {:?} {}\n", q.due_us, q.kind, q.line));
                }
            }
        }
        out
    }
}

/// SplitMix64: a tiny, fully specified generator, so a seed names the
/// same schedule on every platform and toolchain.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// A sampling seed for a request (kept below 2⁵³ so every JSON
    /// reader holds it exactly).
    pub fn seed(&mut self) -> u64 {
        self.next_u64() >> 11
    }
}

/// A fixed cycle holding `counts[i]` copies of `i`, each value spread
/// evenly over the cycle. Choosing a request's kind from it rather than
/// at random keeps the mix, and the order in which requests reach each
/// shard, the same for every seed — run-to-run differences then come
/// from the servers, not from the draw.
fn cycle(counts: &[usize]) -> Vec<usize> {
    let total: usize = counts.iter().sum();
    let mut used = vec![0usize; counts.len()];
    (0..total)
        .map(|slot| {
            // The value furthest behind its even share so far.
            let behind =
                |i: usize| counts[i] as f64 * (slot + 1) as f64 / total as f64 - used[i] as f64;
            let pick = (0..counts.len())
                .max_by(|&a, &b| behind(a).total_cmp(&behind(b)))
                .expect("counts are non-empty");
            used[pick] += 1;
            pick
        })
        .collect()
}

/// Draws ranks `0..n` with probability ∝ 1/(rank+1)^s.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        for p in &mut cdf {
            *p /= acc;
        }
        Zipf { cdf }
    }

    fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&p| p <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The first `{prefix}{i}` the router places on `shard`.
fn name_on(prefix: &str, shard: usize) -> String {
    let router = Router::new(SHARDS);
    (0..)
        .map(|i| format!("{prefix}{i}"))
        .find(|name| router.shard_for(name) == shard)
        .expect("some name lands on every shard")
}

fn db(name: String, facts: String, constraints: &str, plan: Option<&'static str>) -> DbSpec {
    DbSpec {
        shard: Router::new(SHARDS).shard_for(&name),
        name,
        facts,
        constraints: constraints.to_string(),
        plan,
    }
}

/// Seeds the databases' contents. They are the same for every run, so a
/// run's figures vary with the request stream (which `--seed` drives)
/// and not with what the databases happen to hold.
const DATA_SEED: u64 = 0xDA7A;

const KEY_RULE: &str = "R(x,y), R(x,z) -> y = z.";
const KEY_QUERY: &str = "(x) <- exists y: R(x, y)";
const PREF_FACTS: &str = "Pref(a,b). Pref(a,c). Pref(a,d). Pref(b,a). Pref(b,d). Pref(c,a).";
const PREF_RULE: &str = "Pref(x,y), Pref(y,x) -> false.";
const PREF_QUERY: &str = "(x) <- exists y: Pref(x,y)";
const INCLUSION_QUERY: &str = "(c) <- Customer(c) & (exists o: Order(o, c))";

fn key_facts(clean: usize, groups: usize, seed: u64) -> String {
    KeyConflictWorkload::generate(&KeyConflictSpec {
        clean_tuples: clean,
        conflict_groups: groups,
        group_size: 2,
        value_domain: 1_000,
        seed,
    })
    .db
    .to_string()
}

/// An `answer` line; `query` is inline text, or a handle when `handle`
/// is given.
fn answer_line(db: &str, query: &str, handle: Option<&str>, generator: &str, seed: u64) -> String {
    let q = match handle {
        Some(h) => ("prepared", Json::from(h.to_string())),
        None => ("query", Json::from(query.to_string())),
    };
    Json::obj([
        ("op", Json::from("answer")),
        ("db", Json::from(db.to_string())),
        q,
        ("generator", Json::from(generator.to_string())),
        ("eps", Json::Num(0.1)),
        ("delta", Json::Num(0.1)),
        ("seed", Json::from(seed)),
    ])
    .to_string()
}

/// A `create_db` line.
pub fn create_line(db: &DbSpec) -> String {
    Json::obj([
        ("op", Json::from("create_db")),
        ("name", Json::from(db.name.clone())),
        ("facts", Json::from(db.facts.clone())),
        ("constraints", Json::from(db.constraints.clone())),
    ])
    .to_string()
}

/// A `prepare` line.
pub fn prepare_line(query: &str) -> String {
    Json::obj([
        ("op", Json::from("prepare")),
        ("query", Json::from(query.to_string())),
    ])
    .to_string()
}

fn mutation_line(op: &str, db: &str, facts: &str) -> String {
    Json::obj([
        ("op", Json::from(op.to_string())),
        ("db", Json::from(db.to_string())),
        ("facts", Json::from(facts.to_string())),
    ])
    .to_string()
}

/// One answerable key of read-hot: database, query, generator, seed.
struct HotKey {
    db: usize,
    query: usize,
    generator: &'static str,
    seed: u64,
}

/// Due times of one connection's regular slots in a rung.
fn slots(rate: f64, duration_us: u64, conn: usize) -> impl Iterator<Item = u64> {
    let interval = 1e6 / rate;
    let phase = interval * conn as f64 / CONNS as f64;
    (0..)
        .map(move |i| (phase + interval * i as f64) as u64)
        .take_while(move |&t| t < duration_us)
}

/// Rates and window lengths of the ladder for `seconds` of measuring.
fn ladder(workload: Workload, seconds: f64) -> Vec<(f64, u64)> {
    let nominal = (seconds * NOMINAL_SHARE * 1e6) as u64;
    let higher = (seconds * (1.0 - NOMINAL_SHARE) / (MAX_RUNGS - 1) as f64 * 1e6) as u64;
    (0..MAX_RUNGS)
        .map(|r| {
            let rate = workload.nominal_rate() * workload.ladder_factor().powi(r as i32);
            (rate, if r == 0 { nominal } else { higher })
        })
        .collect()
}

/// Builds the schedule for `workload` from `seed`, measuring `seconds`.
pub fn build(workload: Workload, seed: u64, seconds: f64) -> Schedule {
    let mut rng = Rng::new(seed ^ 0x5EED_0CC0_A000_0000);
    match workload {
        Workload::ReadHot => read_hot(seconds, &mut rng),
        Workload::ReadCold => read_cold(seconds, &mut rng),
        Workload::WriteMix => write_mix(seconds, &mut rng),
    }
}

/// Read-hot: 4 preference (~0.3 KB replies), 2 key-conflict (~2.7 KB)
/// and 1 large key-conflict (~20 KB) databases, 4 answer seeds each —
/// 28 keys, 56 cache entries with the prepared variants, spread over
/// both shards and far inside each shard's 1,024-entry cache.
fn read_hot(seconds: f64, rng: &mut Rng) -> Schedule {
    let mut dbs = Vec::new();
    for k in 0..2 {
        let facts = key_facts(50, 16, DATA_SEED + k as u64);
        dbs.push(db(
            format!("hot-kc-{k}"),
            facts,
            KEY_RULE,
            Some("key-repair"),
        ));
    }
    dbs.push(db(
        "hot-big-0".into(),
        key_facts(400, 100, DATA_SEED),
        KEY_RULE,
        Some("key-repair"),
    ));
    for k in 0..4 {
        let plan = Some("localized");
        dbs.push(db(
            format!("hot-pref-{k}"),
            PREF_FACTS.into(),
            PREF_RULE,
            plan,
        ));
    }
    let prepares = vec![PREF_QUERY.to_string(), KEY_QUERY.to_string()];
    let mut prime = Vec::new();
    // Keys per family: preference (0), key-conflict (1), large (2).
    let mut families: Vec<Vec<HotKey>> = vec![Vec::new(), Vec::new(), Vec::new()];
    for (i, d) in dbs.iter().enumerate() {
        let (family, query, generator) = match (d.plan, d.name.contains("big")) {
            (Some("localized"), _) => (0, 0, "uniform"),
            (_, false) => (1, 1, "uniform-deletions"),
            (_, true) => (2, 1, "uniform-deletions"),
        };
        prime.push(answer_line(&d.name, &prepares[query], None, generator, 0));
        for _ in 0..4 {
            families[family].push(HotKey {
                db: i,
                query,
                generator,
                seed: rng.seed(),
            });
        }
    }
    // Zipf within a family over a fixed rank order, and a fixed cycle of
    // families (6 : 8 : 6 per 20 requests, every 4th prepared): the seed
    // picks the keys drawn, not which keys or shards are hot, so the
    // reply-size and hop mix is the same for every seed, with the median
    // and the 75th percentile inside a family rather than between two.
    let families_cycle = cycle(&[6, 8, 6]);
    let mut slot_no = 0;
    let zipfs: Vec<Zipf> = families.iter().map(|k| Zipf::new(k.len(), 1.1)).collect();
    let handle = |q: usize| format!("q{}", q + 1);
    let lines = |k: &HotKey, prepared: bool| {
        let d = &dbs[k.db].name;
        let text = &prepares[k.query];
        let h = handle(k.query);
        (
            answer_line(d, text, prepared.then_some(h.as_str()), k.generator, k.seed),
            answer_line(d, text, None, k.generator, k.seed),
        )
    };
    let mut warm = Vec::new();
    for k in families.iter().flatten() {
        warm.push(lines(k, false).0);
        warm.push(lines(k, true).0);
    }
    let mut rungs = Vec::new();
    for (rate, duration_us) in ladder(Workload::ReadHot, seconds) {
        let mut conns = Vec::new();
        for c in 0..CONNS {
            let mut reqs = Vec::new();
            for due_us in slots(rate, duration_us, c) {
                let family = families_cycle[slot_no % families_cycle.len()];
                // Shifted each cycle, so every family gets its prepared share.
                let prepared = (slot_no + slot_no / families_cycle.len()) % 4 == 3;
                slot_no += 1;
                let key = &families[family][zipfs[family].draw(rng)];
                let (line, oracle_line) = lines(key, prepared);
                reqs.push(Req {
                    due_us,
                    line,
                    oracle_line,
                    kind: Kind::Answer {
                        db: key.db,
                        pair: false,
                        check: true,
                        prepared,
                    },
                });
            }
            conns.push(reqs);
        }
        rungs.push(Rung {
            rate,
            duration_us,
            conns,
        });
    }
    Schedule {
        workload: Workload::ReadHot,
        dbs,
        prepares,
        prime,
        warm,
        subscribe: None,
        rungs,
    }
}

/// Answers the oracle re-checks on read-cold and write-mix.
const CHECKED: usize = 16;

/// Marks a seeded `CHECKED`-sized subset of the nominal rung's answers.
fn mark_checked(rung: &mut Rung, rng: &mut Rng) {
    let mut answers: Vec<(usize, usize)> = Vec::new();
    for (c, reqs) in rung.conns.iter().enumerate() {
        for (i, q) in reqs.iter().enumerate() {
            if matches!(q.kind, Kind::Answer { .. }) {
                answers.push((c, i));
            }
        }
    }
    for n in 0..CHECKED.min(answers.len()) {
        let pick = n + rng.below(answers.len() - n);
        answers.swap(n, pick);
        let (c, i) = answers[n];
        if let Kind::Answer { check, .. } = &mut rung.conns[c][i].kind {
            *check = true;
        }
    }
}

/// Read-cold: every answer has a fresh seed, over one database per plan
/// (key-repair, localized, and the inclusion-dependency family, which the
/// planner routes to monolithic). 1 in 20 slots on connection 0 is sent
/// as an identical pair on every connection at once.
fn read_cold(seconds: f64, rng: &mut Rng) -> Schedule {
    let inclusion = InclusionWorkload::generate(&InclusionSpec {
        seed: DATA_SEED,
        ..InclusionSpec::default()
    });
    let dbs = vec![
        db(
            "cold-kc".into(),
            key_facts(50, 16, DATA_SEED),
            KEY_RULE,
            Some("key-repair"),
        ),
        db(
            "cold-pref".into(),
            PREF_FACTS.into(),
            PREF_RULE,
            Some("localized"),
        ),
        db(
            "cold-inc".into(),
            inclusion.db.to_string(),
            "Order(o, c) -> Customer(c).",
            Some("monolithic"),
        ),
    ];
    let queries = [
        (KEY_QUERY, "uniform-deletions"),
        (PREF_QUERY, "uniform"),
        (INCLUSION_QUERY, "uniform"),
    ];
    // Per 6 answers: one key-repair, one localized, four monolithic —
    // the median and 75th percentile both fall among the monolithic
    // answers, where sampling cost dominates. The seed picks the
    // sampling seeds.
    let dbs_cycle = cycle(&[1, 1, 4]);
    let mut slot_no = 0;
    let mut rungs = Vec::new();
    for (rate, duration_us) in ladder(Workload::ReadCold, seconds) {
        let mut conns: Vec<Vec<Req>> = vec![Vec::new(); CONNS];
        for c in 0..CONNS {
            for due_us in slots(rate, duration_us, c) {
                let d = dbs_cycle[slot_no % dbs_cycle.len()];
                slot_no += 1;
                let (query, generator) = queries[d];
                let line = answer_line(&dbs[d].name, query, None, generator, rng.seed());
                let pair = c == 0 && slot_no % 20 == 0;
                let req = Req {
                    due_us,
                    oracle_line: line.clone(),
                    line,
                    kind: Kind::Answer {
                        db: d,
                        pair,
                        check: false,
                        prepared: false,
                    },
                };
                if pair {
                    for other in conns.iter_mut().skip(1) {
                        other.push(req.clone());
                    }
                }
                conns[c].push(req);
            }
        }
        for reqs in &mut conns {
            reqs.sort_by_key(|q| q.due_us);
        }
        rungs.push(Rung {
            rate,
            duration_us,
            conns,
        });
    }
    mark_checked(&mut rungs[0], rng);
    let prime = dbs
        .iter()
        .zip(queries)
        .map(|(d, (query, generator))| answer_line(&d.name, query, None, generator, 0))
        .collect();
    Schedule {
        workload: Workload::ReadCold,
        dbs,
        prepares: Vec::new(),
        prime,
        warm: Vec::new(),
        subscribe: None,
        rungs,
    }
}

/// Write-mix: one seeded fact stream per shard, each driven by its own
/// connection so a shard's commit order is the schedule's order. Every
/// fourth slot is an `answer` on the same database (one of 4 seeds), the
/// others the stream's next `insert`/`delete` — so every answer follows an
/// invalidation and re-samples. Deletes outpace conflicting inserts, so
/// the number of open conflicts (and with it an answer's sampling cost)
/// stays small and steady instead of drifting with the seed. Connection 0
/// also subscribes to its database.
fn write_mix(seconds: f64, rng: &mut Rng) -> Schedule {
    let ladder = ladder(Workload::WriteMix, seconds);
    let total_slots: usize = ladder
        .iter()
        .map(|&(rate, us)| (rate * us as f64 / 1e6).ceil() as usize + 1)
        .sum();
    let mut streams = Vec::new();
    let mut dbs = Vec::new();
    for shard in 0..CONNS.min(SHARDS) {
        let w = StreamWorkload::generate(&StreamSpec {
            steps: total_slots,
            conflict_permille: 300,
            churn_permille: 400,
            seed: rng.next_u64(),
            ..StreamSpec::default()
        });
        dbs.push(db(
            name_on("wm-", shard),
            w.facts.clone(),
            &w.constraints,
            None,
        ));
        streams.push(w);
    }
    let subscribe = Json::obj([
        ("op", Json::from("subscribe")),
        ("db", Json::from(dbs[0].name.clone())),
        ("query", Json::from(streams[0].query.clone())),
        ("eps", Json::Num(0.1)),
        ("delta", Json::Num(0.1)),
        ("seed", Json::from(7u64)),
    ])
    .to_string();
    let answer_seeds: Vec<u64> = (0..4).map(|_| rng.seed()).collect();
    let mut next_step = vec![0usize; dbs.len()];
    let mut rungs = Vec::new();
    for (rate, duration_us) in ladder {
        let mut conns = Vec::new();
        for c in 0..CONNS {
            let d = c % dbs.len();
            let mut reqs = Vec::new();
            for (i, due_us) in slots(rate, duration_us, c).enumerate() {
                let req = if i % 4 != 3 {
                    let step = &streams[d].steps[next_step[d]];
                    next_step[d] += 1;
                    let (op, facts) = if step.delete.is_empty() {
                        ("insert", &step.insert)
                    } else {
                        ("delete", &step.delete)
                    };
                    let line = mutation_line(op, &dbs[d].name, facts);
                    Req {
                        due_us,
                        oracle_line: line.clone(),
                        line,
                        kind: Kind::Mutation {
                            db: d,
                            dirty: step.dirty,
                            fact_bytes: facts.len(),
                        },
                    }
                } else {
                    let s = answer_seeds[rng.below(answer_seeds.len())];
                    let line = answer_line(&dbs[d].name, &streams[d].query, None, "uniform", s);
                    Req {
                        due_us,
                        oracle_line: line.clone(),
                        line,
                        kind: Kind::Answer {
                            db: d,
                            pair: false,
                            check: false,
                            prepared: false,
                        },
                    }
                };
                reqs.push(req);
            }
            conns.push(reqs);
        }
        rungs.push(Rung {
            rate,
            duration_us,
            conns,
        });
    }
    mark_checked(&mut rungs[0], rng);
    let prime = dbs
        .iter()
        .zip(&streams)
        .map(|(d, w)| answer_line(&d.name, &w.query, None, "uniform", 0))
        .collect();
    Schedule {
        workload: Workload::WriteMix,
        dbs,
        prepares: Vec::new(),
        prime,
        warm: Vec::new(),
        subscribe: Some(subscribe),
        rungs,
    }
}
