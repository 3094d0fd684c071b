//! The traced run: the per-layer breakdown of each workload's latency.
//!
//! 1. The nominal rung runs untraced on the real deployment, as in the
//!    end-to-end run; its responses give the cache and single-flight
//!    ratios, its generator the lateness, and the deployment's own
//!    `metrics` op the per-stage means (the program's instruments, read
//!    as a cross-check).
//! 2. The same topology is built in this process from public
//!    constructors — shard engines over `DiskBackend`, standbys attached
//!    with `Engine::attach_replica`, the router from
//!    `RouteProxy::connect_cfg` — each served by `serve_listener_with`
//!    through [`Traced`], which records a span around every line it
//!    serves. The nominal requests replay one at a time (closed loop), so
//!    spans nest: client → route → shard → standby. Every other request
//!    is traced; the untraced ones give the tracing overhead.
//! 3. A peel pass replays the captured lines through deeper public calls:
//!    request parse, `Engine::handle`, `to_json`, render, the router's
//!    re-parse, one monolithic-style walk phase by phase, catalog updates
//!    without the WAL, and `Store::append`.

use crate::check;
use crate::load;
use crate::run::{self, Opts, Outcome};
use crate::sched::{self, Kind, Req, Schedule, CONNS, SHARDS};
use crate::stats::{mean, median, Metrics};
use ocqa_core::RepairState;
use ocqa_engine::json::{self, Json};
use ocqa_engine::{
    parse_request, Engine, EngineConfig, LineService, PushSession, RouteConfig, RouteProxy,
    CHUNK_WALKS,
};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Per-layer metrics reported with `--trace 1`, with their units.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("server.client_hop_us", "us"),
    ("upstream.hop_us", "us"),
    ("frontdoor.parse_us", "us"),
    ("frontdoor.reparse_us", "us"),
    ("frontdoor.render_us", "us"),
    ("frontdoor.prepared_hops", "count"),
    ("engine.handle_line_us", "us"),
    ("engine.parse_us", "us"),
    ("engine.handle_us", "us"),
    ("engine.to_json_us", "us"),
    ("engine.render_us", "us"),
    ("engine.replicate_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("shard.cache_lookup_mean_us", "us"),
    ("singleflight.coalesced_ratio", "ratio"),
    ("pool.parallel_speedup", "ratio"),
    ("pool.chunks_per_answer", "count"),
    ("sample.walks_per_answer", "count"),
    ("sample.failed_walk_ratio", "ratio"),
    ("sample.walk_us", "us"),
    ("sample.steps_per_walk", "count"),
    ("sample.extensions_us", "us"),
    ("sample.weights_us", "us"),
    ("sample.apply_us", "us"),
    ("shard.sample_mean_us", "us"),
    ("catalog.update_us", "us"),
    ("store.append_us", "us"),
    ("store.fsync_us", "us"),
    ("shard.wal_append_mean_us", "us"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.max_outstanding", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// Nominal requests the traced replay sends at most (back to back, each
/// can wait out a 40 ms delayed ACK while responses go out unflushed).
const REPLAY_MAX: usize = 200;

/// The process a span was recorded in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// The router.
    Route,
    /// Primary `k`.
    Shard(usize),
    /// Standby `k`.
    Standby(usize),
}

/// One served line.
#[derive(Clone, Debug)]
pub struct Span {
    /// The client request it served (its replay index).
    pub id: u64,
    /// Where it was served.
    pub layer: Layer,
    /// Start, µs since the log's epoch.
    pub start_us: f64,
    /// End, µs since the log's epoch.
    pub end_us: f64,
    /// The request line.
    pub request: String,
    /// The response line.
    pub response: String,
}

impl Span {
    fn us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Spans kept in memory until the run ends.
pub struct SpanLog {
    epoch: Instant,
    on: AtomicBool,
    current: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    fn new() -> Arc<SpanLog> {
        Arc::new(SpanLog {
            epoch: Instant::now(),
            on: AtomicBool::new(true),
            current: AtomicU64::new(u64::MAX),
            spans: Mutex::new(Vec::new()),
        })
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }
}

/// A [`LineService`] that records a span around each line it serves.
pub struct Traced<S> {
    inner: Arc<S>,
    layer: Layer,
    log: Arc<SpanLog>,
}

impl<S: LineService> Traced<S> {
    fn record(&self, line: &str, serve: impl FnOnce() -> String) -> String {
        if !self.log.on.load(Ordering::SeqCst) {
            return serve();
        }
        let start_us = self.log.now_us();
        let response = serve();
        let end_us = self.log.now_us();
        let span = Span {
            id: self.log.current.load(Ordering::SeqCst),
            layer: self.layer,
            start_us,
            end_us,
            request: line.to_string(),
            response: response.clone(),
        };
        self.log.spans.lock().expect("span log lock").push(span);
        response
    }
}

impl<S: LineService> LineService for Traced<S> {
    fn serve_line(&self, line: &str) -> String {
        self.record(line, || self.inner.serve_line(line))
    }

    fn serve_open_line(&self, line: &str, session: &PushSession) -> String {
        self.record(line, || self.inner.serve_open_line(line, session))
    }
}

/// Serves `inner` traced as `layer` on a fresh loopback port.
fn listen<S: LineService + 'static>(
    inner: Arc<S>,
    layer: Layer,
    log: &Arc<SpanLog>,
) -> Result<String, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    let service = Arc::new(Traced {
        inner,
        layer,
        log: log.clone(),
    });
    // The accept loop serves until the process exits.
    std::thread::spawn(move || ocqa_engine::serve_listener_with(service, listener, 0));
    Ok(addr)
}

/// Builds the deployment's topology in process; returns the router's
/// address.
fn topology(dir: &Path, log: &Arc<SpanLog>) -> Result<String, String> {
    let (mut upstreams, mut standbys) = (Vec::new(), Vec::new());
    for k in 0..SHARDS {
        let standby = Engine::new(EngineConfig::default());
        let standby_addr = listen(standby, Layer::Standby(k), log)?;
        let backend = ocqa_store::DiskBackend::open(&dir.join(format!("traced-{k}")))
            .map_err(|e| e.to_string())?;
        let primary = Engine::with_backends(EngineConfig::default(), vec![Arc::new(backend)])
            .map_err(|e| e.to_string())?;
        primary.attach_replica(&standby_addr);
        upstreams.push(listen(primary, Layer::Shard(k), log)?);
        standbys.push(Some(standby_addr));
    }
    let router = RouteProxy::connect_cfg(RouteConfig {
        upstreams,
        standbys,
        slow_ms: 0,
        max_subs: 64,
        probe_ms: 0,
        topology_path: None,
    })
    .map_err(|e| e.to_string())?;
    listen(router, Layer::Route, log)
}

/// Microseconds `f` takes.
fn time_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e6)
}

/// The nominal rung's requests in due order (connections merged).
fn nominal_requests(sched: &Schedule) -> Vec<&Req> {
    let mut reqs: Vec<&Req> = sched.rungs[0].conns.iter().flatten().collect();
    reqs.sort_by_key(|q| q.due_us);
    reqs
}

/// One replayed request: its client span and response.
struct Replayed<'a> {
    req: &'a Req,
    id: u64,
    traced: bool,
    client_us: f64,
    response: String,
}

/// Replays the nominal requests one at a time over one connection,
/// tracing every other one.
fn replay<'a>(
    sched: &'a Schedule,
    router: &str,
    log: &Arc<SpanLog>,
) -> Result<Vec<Replayed<'a>>, String> {
    let mut conns = (0..CONNS)
        .map(|_| load::connect(router).map_err(|e| e.to_string()))
        .collect::<Result<Vec<TcpStream>, _>>()?;
    run::prepare_state(sched, &mut conns)?;
    let mut stream = conns.swap_remove(0);
    drop(conns);
    let mut buf = Vec::new();
    if let Some(sub) = &sched.subscribe {
        let resp = load::exchange(&mut stream, &mut buf, sub).map_err(|e| e.to_string())?;
        check::ok(&resp).map_err(|e| format!("subscribe: {e}"))?;
    }
    let mut out = Vec::new();
    for (i, req) in nominal_requests(sched)
        .into_iter()
        .take(REPLAY_MAX)
        .enumerate()
    {
        let traced = i % 2 == 0;
        log.on.store(traced, Ordering::SeqCst);
        log.current.store(i as u64, Ordering::SeqCst);
        let (resp, client_us) = time_us(|| load::exchange(&mut stream, &mut buf, &req.line));
        out.push(Replayed {
            req,
            id: i as u64,
            traced,
            client_us,
            response: resp.map_err(|e| e.to_string())?,
        });
    }
    log.on.store(false, Ordering::SeqCst);
    Ok(out)
}

/// Mean of one stage histogram in a `metrics` response's merged total.
fn stage_mean(total: &Json, path: &[&str]) -> f64 {
    let mut v = total;
    for key in path {
        match v.get(key) {
            Some(next) => v = next,
            None => return 0.0,
        }
    }
    let count = v.get("count").and_then(Json::as_f64).unwrap_or(0.0);
    let sum = v.get("sum_us").and_then(Json::as_f64).unwrap_or(0.0);
    if count > 0.0 {
        sum / count
    } else {
        0.0
    }
}

/// The untraced nominal rung on the real deployment.
fn untraced(
    sched: &Schedule,
    opts: &Opts,
    m: &mut Metrics,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut live = run::setup(sched, opts, 1)?;
    let ladder = run::run_ladder(sched, &mut live.conns, 1);
    let verdict = &ladder.rungs[0].2;
    out.rungs.push(verdict.line.clone());
    m.set("loadgen.late_p99_ms", verdict.late_p99_ms, "ms");
    m.set(
        "loadgen.max_outstanding",
        verdict.max_outstanding as f64,
        "count",
    );
    let mut e2e = Metrics::default();
    run::nominal_metrics(&ladder, &mut e2e, out);
    for key in ["cache.hit_ratio", "singleflight.coalesced_ratio"] {
        if let Some(v) = e2e.get(key) {
            m.set(key, v, "ratio");
        }
    }
    let p50 = e2e.get("answer_p50_ms").unwrap_or(0.0);
    m.set("untraced.answer_p50_ms", p50, "ms");
    let mut buf = Vec::new();
    let resp = load::exchange(&mut live.conns[0], &mut buf, r#"{"op":"metrics"}"#)
        .map_err(|e| e.to_string())?;
    let v = check::ok(&resp)?;
    let total = v.get("total").cloned().unwrap_or(Json::Null);
    m.set(
        "shard.cache_lookup_mean_us",
        stage_mean(&total, &["stages", "cache_lookup"]),
        "us",
    );
    m.set(
        "shard.flight_wait_mean_us",
        stage_mean(&total, &["stages", "flight_wait"]),
        "us",
    );
    m.set(
        "shard.sample_mean_us",
        stage_mean(&total, &["stages", "sample"]),
        "us",
    );
    m.set(
        "shard.wal_append_mean_us",
        stage_mean(&total, &["stages", "wal_append"]),
        "us",
    );
    m.set(
        "store.wal_fsync_mean_us",
        stage_mean(&total, &["wal_fsync_us"]),
        "us",
    );
    m.set(
        "store.wal_batch_mean",
        stage_mean(&total, &["wal_batch"]),
        "count",
    );
    drop(live);
    Ok(())
}

/// The `op` of a request line.
fn op_of(line: &str) -> String {
    json::parse(line)
        .ok()
        .and_then(|v| check::field(&v, "op").map(str::to_string))
        .unwrap_or_default()
}

/// Span-derived layer metrics of the traced replay.
fn span_metrics(replayed: &[Replayed], spans: &[Span], m: &mut Metrics) {
    let (mut client_hop, mut upstream_hop, mut handle_line) = (Vec::new(), Vec::new(), Vec::new());
    let (mut parse, mut reparse, mut render) = (Vec::new(), Vec::new(), Vec::new());
    let (mut prepared, mut prepared_gets) = (0usize, 0usize);
    for r in replayed.iter().filter(|r| r.traced) {
        if !matches!(r.req.kind, Kind::Answer { .. }) {
            continue;
        }
        let mine: Vec<&Span> = spans.iter().filter(|s| s.id == r.id).collect();
        let Some(route) = mine.iter().find(|s| s.layer == Layer::Route) else {
            continue;
        };
        let shards: Vec<&&Span> = mine
            .iter()
            .filter(|s| matches!(s.layer, Layer::Shard(_)))
            .collect();
        if let Kind::Answer { prepared: true, .. } = r.req.kind {
            prepared += 1;
            prepared_gets += shards
                .iter()
                .filter(|s| op_of(&s.request) == "prepared_get")
                .count();
        }
        let (_, p) = time_us(|| parse_request(&r.req.line));
        let mut peel = p;
        parse.push(p);
        for s in &shards {
            let (_, q) = time_us(|| json::parse(&s.response));
            reparse.push(q);
            peel += q;
        }
        if let Ok(v) = json::parse(&route.response) {
            let (_, q) = time_us(|| v.to_string());
            render.push(q);
            peel += q;
        }
        if let Some(answer) = shards.iter().find(|s| op_of(&s.request) == "answer") {
            handle_line.push(answer.us());
        }
        let shard_us: f64 = shards.iter().map(|s| s.us()).sum();
        client_hop.push(r.client_us - route.us());
        upstream_hop.push(route.us() - shard_us - peel);
    }
    let set = |m: &mut Metrics, name: &str, v: &[f64]| m.set(name, median(v).unwrap_or(0.0), "us");
    set(m, "server.client_hop_us", &client_hop);
    set(m, "upstream.hop_us", &upstream_hop);
    set(m, "frontdoor.parse_us", &parse);
    set(m, "frontdoor.reparse_us", &reparse);
    set(m, "frontdoor.render_us", &render);
    set(m, "engine.handle_line_us", &handle_line);
    m.set(
        "frontdoor.prepared_hops",
        prepared_gets as f64 / prepared.max(1) as f64,
        "count",
    );
    // Replication: from the standby span's start to the end of the
    // primary span around it — the forward, the standby's work and the
    // hop back.
    let mut replicate = Vec::new();
    for s in spans {
        let Layer::Shard(k) = s.layer else { continue };
        if let Some(st) = spans.iter().find(|t| {
            t.layer == Layer::Standby(k) && t.start_us >= s.start_us && t.end_us <= s.end_us
        }) {
            replicate.push(s.end_us - st.start_us);
        }
    }
    set(m, "engine.replicate_us", &replicate);
    let traced: Vec<f64> = replayed
        .iter()
        .filter(|r| r.traced && matches!(r.req.kind, Kind::Answer { .. }))
        .map(|r| r.client_us)
        .collect();
    let plain: Vec<f64> = replayed
        .iter()
        .filter(|r| !r.traced && matches!(r.req.kind, Kind::Answer { .. }))
        .map(|r| r.client_us)
        .collect();
    m.set(
        "trace.overhead_ratio",
        median(&traced).unwrap_or(0.0) / median(&plain).unwrap_or(1.0).max(1e-9),
        "ratio",
    );
    m.set("trace.client_p50_us", median(&traced).unwrap_or(0.0), "us");
}

/// Replays the schedule through in-process engines, phase by phase:
/// request parse, `Engine::handle`, `to_json` and render per traced
/// answer; `Engine::handle` per mutation (catalog upkeep, no WAL).
fn engine_peel(sched: &Schedule, replayed: &[Replayed], m: &mut Metrics) -> Result<(), String> {
    let oracle = check::Oracle::new(sched, SHARDS)?;
    // Warm the inline keys, so the replay's hits and misses match the
    // deployment's.
    for line in sched.warm.iter().filter(|l| !l.contains("\"prepared\"")) {
        let db = json::parse(line)
            .ok()
            .and_then(|v| check::field(&v, "db").map(str::to_string));
        if let Some(spec) = sched.dbs.iter().find(|d| Some(&d.name) == db.as_ref()) {
            oracle.serve(spec.shard, line);
        }
    }
    let (mut parse, mut handle, mut to_json, mut render, mut update) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for r in replayed {
        let (db, is_answer) = match r.req.kind {
            Kind::Answer { db, .. } => (db, true),
            Kind::Mutation { db, .. } => (db, false),
        };
        let engine = oracle.engine(sched.dbs[db].shard);
        let (parsed, p) = time_us(|| parse_request(&r.req.oracle_line));
        let (_, req) = parsed.map_err(|e| e.to_string())?;
        let (resp, h) = time_us(|| engine.handle(req));
        let (v, j) = time_us(|| resp.to_json());
        let (_, s) = time_us(|| v.to_string());
        if !is_answer {
            update.push(h);
        } else if r.traced {
            parse.push(p);
            handle.push(h);
            to_json.push(j);
            render.push(s);
        }
    }
    if update.is_empty() {
        update = probe_updates(sched)?;
    }
    for (name, v) in [
        ("engine.parse_us", &parse),
        ("engine.handle_us", &handle),
        ("engine.to_json_us", &to_json),
        ("engine.render_us", &render),
        ("catalog.update_us", &update),
    ] {
        m.set(name, median(v).unwrap_or(0.0), "us");
    }
    Ok(())
}

/// The first fact of a fact list (`"R(1, 2)."`).
fn first_fact(facts: &str) -> String {
    facts
        .split_inclusive('.')
        .next()
        .unwrap_or("")
        .trim()
        .to_string()
}

/// For workloads without mutations: per database, `Engine::handle` on
/// deleting its first fact and inserting it back, over a memory engine.
fn probe_updates(sched: &Schedule) -> Result<Vec<f64>, String> {
    let mut times = Vec::new();
    for db in &sched.dbs {
        let engine = Engine::new(EngineConfig::default());
        check::ok(&engine.handle_line(&sched::create_line(db)).to_string())?;
        let fact = first_fact(&db.facts);
        for op in ["delete", "insert"] {
            let line = Json::obj([
                ("op", Json::from(op)),
                ("db", Json::from(db.name.clone())),
                ("facts", Json::from(fact.clone())),
            ])
            .to_string();
            let (_, req) = parse_request(&line).map_err(|e| e.to_string())?;
            let (resp, us) = time_us(|| engine.handle(req));
            check::ok(&resp.to_json().to_string())?;
            times.push(us);
        }
    }
    Ok(times)
}

/// The mutation records a workload journals: its nominal mutations, or
/// the delete/re-insert probes of [`probe_updates`].
fn wal_records(sched: &Schedule) -> Result<Vec<ocqa_store::WalRecord>, String> {
    let parse = |text: &str| ocqa_logic::parser::parse_facts(text).map_err(|e| e.to_string());
    let mut records = Vec::new();
    let mut version = 1;
    for q in nominal_requests(sched) {
        if let Kind::Mutation { db, .. } = q.kind {
            let v = json::parse(&q.line).map_err(|e| e.to_string())?;
            let facts = parse(check::field(&v, "facts").unwrap_or(""))?;
            let insert = check::field(&v, "op") == Some("insert");
            version += 1;
            records.push(ocqa_store::WalRecord::Update {
                db: sched.dbs[db].name.clone(),
                version,
                added: if insert { facts.clone() } else { Vec::new() },
                removed: if insert { Vec::new() } else { facts },
            });
        }
    }
    if records.is_empty() {
        for db in &sched.dbs {
            let fact = parse(&first_fact(&db.facts))?;
            for (version, insert) in [(2, false), (3, true)] {
                records.push(ocqa_store::WalRecord::Update {
                    db: db.name.clone(),
                    version,
                    added: if insert { fact.clone() } else { Vec::new() },
                    removed: if insert { Vec::new() } else { fact.clone() },
                });
            }
        }
    }
    Ok(records)
}

/// `Store::append` (one fsync each) of the workload's mutation records.
fn store_peel(sched: &Schedule, dir: &Path, m: &mut Metrics) -> Result<(), String> {
    let store_dir = dir.join("peel-store");
    let store = ocqa_store::Store::open(&store_dir, ocqa_store::StoreOptions::default())
        .map_err(|e| e.to_string())?;
    let mut times = Vec::new();
    for rec in wal_records(sched)? {
        let (res, us) = time_us(|| store.append(&rec));
        res.map_err(|e| e.to_string())?;
        times.push(us);
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&store_dir);
    m.set("store.append_us", median(&times).unwrap_or(0.0), "us");
    Ok(())
}

/// Parallel speed-up of the sampler pool: the same cold answers on a
/// one-worker engine and on a default (one worker per core) engine,
/// plan pinned to the one the deployment served.
fn pool_peel(sched: &Schedule, replayed: &[Replayed], m: &mut Metrics) -> Result<(), String> {
    let mut seen = std::collections::HashSet::new();
    let picks: Vec<(usize, String)> = replayed
        .iter()
        .filter_map(|r| match r.req.kind {
            Kind::Answer { db, .. } if seen.insert(db) => {
                let v = check::ok(&r.response).ok()?;
                let plan = check::field(&v, "plan")?.to_string();
                Some((db, check::pinned(&r.req.oracle_line, &plan)))
            }
            _ => None,
        })
        .take(4)
        .collect();
    let (mut one, mut pool) = (0.0, 0.0);
    let (mut walks, mut failed, mut chunks) = (Vec::new(), 0.0, Vec::new());
    for (db, line) in &picks {
        for workers in [1, 0] {
            let engine = Engine::new(EngineConfig {
                workers: if workers == 0 {
                    EngineConfig::default().workers
                } else {
                    workers
                },
                ..EngineConfig::default()
            });
            check::ok(
                &engine
                    .handle_line(&sched::create_line(&sched.dbs[*db]))
                    .to_string(),
            )?;
            let (_, req) = parse_request(line).map_err(|e| e.to_string())?;
            let (resp, us) = time_us(|| engine.handle(req));
            let v = check::ok(&resp.to_json().to_string())?;
            if workers == 1 {
                one += us;
            } else {
                pool += us;
                let w = v.get("walks").and_then(Json::as_f64).unwrap_or(0.0);
                walks.push(w);
                failed += v.get("failed_walks").and_then(Json::as_f64).unwrap_or(0.0);
                chunks.push((w / CHUNK_WALKS as f64).ceil());
            }
        }
    }
    m.set("pool.parallel_speedup", one / pool.max(1e-9), "ratio");
    m.set("pool.chunks_per_answer", mean(&chunks), "count");
    m.set("sample.walks_per_answer", mean(&walks), "count");
    m.set(
        "sample.failed_walk_ratio",
        failed / walks.iter().sum::<f64>().max(1.0),
        "ratio",
    );
    Ok(())
}

/// One chain walk at a time through `RepairState`, timing each phase:
/// `extensions`, the generator's `validated` weights, and `apply`. On
/// the workload's monolithic database if it has one, else its first.
fn walk_peel(sched: &Schedule, seed: u64, m: &mut Metrics) -> Result<(), String> {
    let db = sched
        .dbs
        .iter()
        .find(|d| d.plan == Some("monolithic"))
        .unwrap_or(&sched.dbs[0]);
    // The database as the nominal rung leaves it (write-mix streams start
    // consistent; their conflicts come from the mutations).
    let engine = Engine::new(EngineConfig::default());
    check::ok(&engine.handle_line(&sched::create_line(db)).to_string())?;
    for q in nominal_requests(sched) {
        if matches!(q.kind, Kind::Mutation { db: d, .. } if sched.dbs[d].name == db.name) {
            check::ok(&engine.handle_line(&q.line).to_string())?;
        }
    }
    let snap = Json::obj([
        ("op", Json::from("fetch_snapshot")),
        ("db", Json::from(db.name.clone())),
    ]);
    let v = check::ok(&engine.handle_line(&snap.to_string()).to_string())?;
    let image = ocqa_engine::decode_image(check::field(&v, "image").unwrap_or(""))
        .map_err(|e| e.to_string())?;
    let sigma =
        ocqa_logic::parser::parse_constraints(&image.constraints).map_err(|e| e.to_string())?;
    let ctx = ocqa_core::RepairContext::new(image.db, sigma);
    let gen = ocqa_engine::generator_by_name(if db.plan == Some("key-repair") {
        "uniform-deletions"
    } else {
        "uniform"
    })
    .map_err(|e| e.to_string())?;
    let mut rng = sched::Rng::new(seed);
    let (mut walk, mut steps, mut ext, mut wts, mut app) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let budget = Instant::now();
    while walk.is_empty() || (walk.len() < 64 && budget.elapsed().as_secs_f64() < 1.0) {
        let t = Instant::now();
        let mut state = RepairState::initial(ctx.clone());
        let mut n = 0;
        loop {
            let (ops, e) = time_us(|| state.extensions());
            ext.push(e);
            if ops.is_empty() {
                break;
            }
            let (weights, w) = time_us(|| gen.validated(&state, &ops));
            wts.push(w);
            let weights = weights.map_err(|e| e.to_string())?;
            let live: Vec<usize> = (0..ops.len())
                .filter(|&i| weights[i].is_positive())
                .collect();
            let pick = live[rng.below(live.len())];
            let (next, a) = time_us(|| state.apply(&ops[pick]));
            app.push(a);
            state = next;
            n += 1;
        }
        walk.push(t.elapsed().as_secs_f64() * 1e6);
        steps.push(n as f64);
    }
    m.set("sample.walk_us", median(&walk).unwrap_or(0.0), "us");
    m.set("sample.steps_per_walk", mean(&steps), "count");
    m.set("sample.extensions_us", median(&ext).unwrap_or(0.0), "us");
    m.set("sample.weights_us", median(&wts).unwrap_or(0.0), "us");
    m.set("sample.apply_us", median(&app).unwrap_or(0.0), "us");
    Ok(())
}

/// Write-mix only: update → estimate frame, timed in process through
/// `PushSession::pop_wait`, over the subscribed database's nominal steps.
fn subscribe_peel(sched: &Schedule, m: &mut Metrics, out: &mut Outcome) -> Result<(), String> {
    let Some(sub) = &sched.subscribe else {
        return Ok(());
    };
    let engine = Engine::new(EngineConfig::default());
    check::ok(
        &engine
            .handle_line(&sched::create_line(&sched.dbs[0]))
            .to_string(),
    )?;
    let session = PushSession::new();
    check::ok(&engine.handle_open_line(sub, &session).to_string())?;
    let (mut push, mut dirty) = (Vec::new(), 0usize);
    for q in &sched.rungs[0].conns[0] {
        let Kind::Mutation {
            db: 0,
            dirty: is_dirty,
            ..
        } = q.kind
        else {
            continue;
        };
        let t = Instant::now();
        check::ok(&engine.handle_open_line(&q.line, &session).to_string())?;
        if is_dirty {
            dirty += 1;
            if session.pop_wait().is_some() {
                push.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
    }
    // Clean steps must have pushed nothing: after closing, only frames
    // nobody popped remain.
    session.close();
    let mut clean_pushes = 0;
    while session.pop_wait().is_some() {
        clean_pushes += 1;
    }
    m.set("subscribe.push_us", median(&push).unwrap_or(0.0), "us");
    m.set(
        "subscribe.pushes_per_dirty_step",
        push.len() as f64 / dirty.max(1) as f64,
        "ratio",
    );
    if push.len() != dirty || clean_pushes > 0 {
        out.fail(format!(
            "{} frames for {dirty} dirty steps, {clean_pushes} after clean steps",
            push.len()
        ));
    }
    Ok(())
}

/// Runs the traced variant of one workload.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let sched = sched::build(opts.workload, opts.seed, opts.seconds);
    std::fs::create_dir_all(&opts.dir).map_err(|e| e.to_string())?;
    let mut out = Outcome::default();
    let mut m = Metrics::default();
    m.set("store.fsync_us", run::fsync_us(&opts.dir), "us");
    untraced(&sched, opts, &mut m, &mut out)?;
    let log = SpanLog::new();
    let router = topology(&opts.dir, &log)?;
    let replayed = replay(&sched, &router, &log)?;
    let spans = std::mem::take(&mut *log.spans.lock().expect("span log lock"));
    out.attempted += replayed.len() as u64;
    for r in &replayed {
        if let Err(e) = check::ok(&r.response) {
            out.fail(format!("traced {}: {e}", check::clip(&r.req.line)));
        }
    }
    span_metrics(&replayed, &spans, &mut m);
    engine_peel(&sched, &replayed, &mut m)?;
    pool_peel(&sched, &replayed, &mut m)?;
    walk_peel(&sched, opts.seed, &mut m)?;
    store_peel(&sched, &opts.dir, &mut m)?;
    subscribe_peel(&sched, &mut m, &mut out)?;
    out.metrics = m;
    Ok(out)
}
