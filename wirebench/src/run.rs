//! The end-to-end run: set the deployment up, drive the ladder, check
//! every output, and reduce the client-observed timings to metrics.

use crate::check::{self, clip, Oracle};
use crate::deploy::{self, Deployment};
use crate::load::{self, ConnRun};
use crate::sched::{self, Kind, OpClass, Rung, Schedule, Workload, CONNS, SHARDS};
use crate::stats::{median, percentile, tail_percentile, Metrics};
use ocqa_engine::json::Json;
use std::collections::HashMap;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The metrics the benchmark of record reports for every workload
/// (`--trace 0`), with their units. Each run also prints the
/// workload-specific ones (per-plan and mutation latencies, push
/// latency, storage amplification) and the highest tail percentile with
/// ten samples beyond it in its report. The gated tail is p75: on
/// read-cold the 40 ms delayed-ACK stall hits 5–10 % of answers, so p90
/// sits on the edge of the stalled cluster and flips between runs.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("answer_p50_ms", "ms"),
    ("answer_p75_ms", "ms"),
    ("max_rps_at_slo", "req/s"),
    ("server_rss_mb", "MB"),
];

/// Latency growth over a rung that marks its backlog as growing.
const GROWTH_MS: f64 = 1000.0;

/// Deployments set up per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Everything a run needs from the command line and the environment.
#[derive(Clone, Debug)]
pub struct Opts {
    /// The workload.
    pub workload: Workload,
    /// The seed.
    pub seed: u64,
    /// Seconds of measuring (the whole ladder).
    pub seconds: f64,
    /// The release `ocqa` binary.
    pub bin: PathBuf,
    /// Scratch directory for data dirs (removed afterwards).
    pub dir: PathBuf,
}

/// A run's outcome: metrics plus the check verdicts.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metrics by name.
    pub metrics: Metrics,
    /// Operations attempted (requests sent, plus checks).
    pub attempted: u64,
    /// Failed operations: `ok:false`, missing responses, oracle
    /// mismatches, lost writes.
    pub failed: u64,
    /// Human-readable reasons for every failure and validity breach.
    pub problems: Vec<String>,
    /// One line per rung: rate, verdict and load-generator validity.
    pub rungs: Vec<String>,
}

impl Outcome {
    /// Counts one failure and keeps its reason.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(why);
        }
    }
}

/// The deployment with its client connections, ready for the ladder.
pub struct Live {
    /// The processes.
    pub dep: Deployment,
    /// One connection per load thread, to the router.
    pub conns: Vec<TcpStream>,
    /// Seconds each set-up took.
    pub setup_s: Vec<f64>,
}

/// Sends `lines` pipelined on `stream` and returns the responses in order.
fn pipelined(stream: &mut TcpStream, lines: &[String]) -> Result<Vec<String>, String> {
    use std::io::Write;
    let mut out = String::new();
    for l in lines {
        out.push_str(l);
        out.push('\n');
    }
    stream
        .write_all(out.as_bytes())
        .map_err(|e| e.to_string())?;
    let mut buf = Vec::new();
    lines
        .iter()
        .map(|_| load::read_response(stream, &mut buf).map_err(|e| e.to_string()))
        .collect()
}

/// Brings a fresh deployment, reached through `conns`, to the state the
/// schedule starts from: databases created, handles prepared, plans
/// primed, read-hot keys warm.
pub fn prepare_state(sched: &Schedule, conns: &mut [TcpStream]) -> Result<(), String> {
    let creates: Vec<String> = sched.dbs.iter().map(sched::create_line).collect();
    for (db, resp) in sched.dbs.iter().zip(pipelined(&mut conns[0], &creates)?) {
        let v = check::ok(&resp).map_err(|e| format!("create {}: {e}", db.name))?;
        if v.get("shard").and_then(Json::as_u64) != Some(db.shard as u64) {
            return Err(format!("create {} landed off shard {}", db.name, db.shard));
        }
    }
    let prepares: Vec<String> = sched
        .prepares
        .iter()
        .map(|q| sched::prepare_line(q))
        .collect();
    for (i, resp) in pipelined(&mut conns[0], &prepares)?.iter().enumerate() {
        let v = check::ok(resp)?;
        if check::field(&v, "id") != Some(&format!("q{}", i + 1)) {
            return Err(format!("prepare {i} answered {}", clip(resp)));
        }
    }
    let mut buf = Vec::new();
    for (db, line) in sched.dbs.iter().zip(&sched.prime) {
        let resp = load::exchange(&mut conns[0], &mut buf, line).map_err(|e| e.to_string())?;
        check::ok(&resp).map_err(|e| format!("prime {}: {e}", db.name))?;
    }
    let share = sched.warm.len().div_ceil(conns.len()).max(1);
    let warmed: Vec<Result<Vec<String>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(sched.warm.chunks(share))
            .map(|(c, lines)| s.spawn(move || pipelined(c, lines)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm thread"))
            .collect()
    });
    for resp in warmed
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?
        .iter()
        .flatten()
    {
        check::ok(resp).map_err(|e| format!("warm: {e}"))?;
    }
    Ok(())
}

/// Spawns the deployment and prepares its state, timing both.
fn setup_once(sched: &Schedule, opts: &Opts) -> Result<Live, String> {
    let t0 = Instant::now();
    let dep = Deployment::start(&opts.bin, &opts.dir, SHARDS)?;
    let mut conns = (0..CONNS)
        .map(|_| load::connect(&dep.router.addr).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    prepare_state(sched, &mut conns)?;
    let setup = t0.elapsed().as_secs_f64();
    Ok(Live {
        dep,
        conns,
        setup_s: vec![setup],
    })
}

/// Sets up `repeats` times (tearing down all but the last) and returns
/// the last deployment with every set-up time.
pub fn setup(sched: &Schedule, opts: &Opts, repeats: usize) -> Result<Live, String> {
    let mut times = Vec::new();
    for _ in 1..repeats {
        let live = setup_once(sched, opts)?;
        times.extend(live.setup_s);
    }
    let mut live = setup_once(sched, opts)?;
    times.append(&mut live.setup_s);
    live.setup_s = times;
    if let Some(sub) = &sched.subscribe {
        let mut buf = Vec::new();
        let resp = load::exchange(&mut live.conns[0], &mut buf, sub).map_err(|e| e.to_string())?;
        check::ok(&resp).map_err(|e| format!("subscribe: {e}"))?;
    }
    Ok(live)
}

/// Drives one rung on every connection at once.
pub fn drive_rung(conns: &mut [TcpStream], rung: &Rung) -> Vec<ConnRun> {
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(&rung.conns)
            .map(|(stream, reqs)| {
                s.spawn(move || {
                    std::thread::sleep(start.saturating_duration_since(Instant::now()));
                    load::drive(stream, reqs, start)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    })
}

/// One answered (or failed) request, flattened for the reductions.
#[derive(Clone, Debug)]
pub struct Done<'a> {
    /// The scheduled request.
    pub req: &'a sched::Req,
    /// Latency from due time (ms), when answered with `"ok":true`.
    pub latency_ms: Option<f64>,
    /// The response line.
    pub response: Option<&'a str>,
    /// How late the generator sent it (ms).
    pub late_ms: f64,
}

/// Every sent request of a rung, with its outcome.
pub fn flatten<'a>(rung: &'a Rung, runs: &'a [ConnRun]) -> Vec<Done<'a>> {
    let mut out = Vec::new();
    for (reqs, run) in rung.conns.iter().zip(runs) {
        for (req, o) in reqs.iter().zip(&run.outcomes) {
            let Some(sent) = o.sent_us else { continue };
            let ok = o
                .response
                .as_deref()
                .is_some_and(|r| r.contains("\"ok\":true"));
            out.push(Done {
                req,
                latency_ms: match (ok, o.done_us) {
                    (true, Some(done)) => Some(done.saturating_sub(req.due_us) as f64 / 1e3),
                    _ => None,
                },
                response: o.response.as_deref(),
                late_ms: sent.saturating_sub(req.due_us) as f64 / 1e3,
            });
        }
    }
    out
}

fn is_class(d: &Done, class: OpClass) -> bool {
    match class {
        OpClass::Answer => matches!(d.req.kind, Kind::Answer { .. }),
        OpClass::Mutation => matches!(d.req.kind, Kind::Mutation { .. }),
    }
}

/// Latencies of `class`, failures counted as missing every limit.
fn slo_latencies(done: &[Done], class: OpClass) -> Vec<f64> {
    done.iter()
        .filter(|d| is_class(d, class))
        .map(|d| d.latency_ms.unwrap_or(f64::INFINITY))
        .collect()
}

/// Whether the backlog grew over the rung: the median latency of its
/// last quarter (by due time) a second or more above that of its first.
/// An overloaded rung's queue grows by the excess rate every second, so
/// its latency climbs by seconds within a rung; a loaded but stable one
/// only jitters by a fraction of that.
fn backlog_grew(done: &[Done]) -> bool {
    let mut by_due: Vec<(u64, f64)> = done
        .iter()
        .map(|d| (d.req.due_us, d.latency_ms.unwrap_or(f64::INFINITY)))
        .collect();
    by_due.sort_by_key(|&(due, _)| due);
    let q = by_due.len() / 4;
    if q < 3 {
        return false;
    }
    let first: Vec<f64> = by_due[..q].iter().map(|x| x.1).collect();
    let last: Vec<f64> = by_due[by_due.len() - q..].iter().map(|x| x.1).collect();
    median(&last).unwrap_or(0.0) - median(&first).unwrap_or(0.0) >= GROWTH_MS
}

/// Verdict and load-generator validity of one rung.
#[derive(Clone, Debug)]
pub struct RungVerdict {
    /// Met the SLO with no growing backlog.
    pub pass: bool,
    /// Responses per second the rung completed.
    pub achieved_rps: f64,
    /// p99 of send lateness (ms).
    pub late_p99_ms: f64,
    /// Peak pipelined requests outstanding on one connection.
    pub max_outstanding: usize,
    /// A one-line summary.
    pub line: String,
}

/// Judges one rung against the workload's SLO.
pub fn judge(w: Workload, rung: &Rung, runs: &[ConnRun]) -> RungVerdict {
    let done = flatten(rung, runs);
    let slo = w.slo();
    let tail = percentile(&slo_latencies(&done, slo.class), slo.pct).unwrap_or(f64::INFINITY);
    let backlogged = runs.iter().any(|r| r.backlogged || r.broken.is_some());
    let grew = backlog_grew(&done);
    let late = done.iter().map(|d| d.late_ms).collect::<Vec<_>>();
    let late_p99_ms = percentile(&late, 99.0).unwrap_or(0.0);
    let max_outstanding = runs.iter().map(|r| r.max_outstanding).max().unwrap_or(0);
    let ok = done.iter().filter(|d| d.latency_ms.is_some()).count();
    let first_us = done.iter().map(|d| d.req.due_us).min().unwrap_or(0);
    let last_done_us = runs
        .iter()
        .flat_map(|r| r.outcomes.iter().filter_map(|o| o.done_us))
        .max()
        .unwrap_or(first_us + 1);
    let achieved_rps = ok as f64 / ((last_done_us - first_us).max(1) as f64 / 1e6);
    let pass = tail <= slo.limit_ms && !backlogged && !grew;
    let line = format!(
        "rung {:>6.1} req/s offered: {} p{} {:.1} ms (limit {} ms), {:.2} req/s done, \
         backlog {}, loadgen.late_p99_ms {:.3}, loadgen.max_outstanding {}",
        rung.rate * CONNS as f64,
        if pass { "PASS" } else { "MISS" },
        slo.pct,
        tail,
        slo.limit_ms,
        achieved_rps,
        if backlogged || grew {
            "growing"
        } else {
            "flat"
        },
        late_p99_ms,
        max_outstanding,
    );
    RungVerdict {
        pass,
        achieved_rps,
        late_p99_ms,
        max_outstanding,
        line,
    }
}

/// Median over a run of the fsync cost of a 4 KiB append in `dir`'s
/// filesystem, in microseconds.
pub fn fsync_us(dir: &Path) -> f64 {
    use std::io::Write;
    let path = dir.join("fsync-probe");
    let mut times = Vec::new();
    if let Ok(mut f) = std::fs::File::create(&path) {
        let block = [0x5Au8; 4096];
        for _ in 0..32 {
            let t = Instant::now();
            if f.write_all(&block).and_then(|()| f.sync_data()).is_err() {
                break;
            }
            times.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    let _ = std::fs::remove_file(&path);
    median(&times).unwrap_or(0.0)
}

/// The drive results of every rung that ran, in order.
pub struct Ladder<'a> {
    /// (rung, per-connection runs, verdict).
    pub rungs: Vec<(&'a Rung, Vec<ConnRun>, RungVerdict)>,
}

/// Runs the ladder up to the first rung that misses the SLO.
pub fn run_ladder<'a>(sched: &'a Schedule, conns: &mut [TcpStream], up_to: usize) -> Ladder<'a> {
    let mut rungs = Vec::new();
    for rung in sched.rungs.iter().take(up_to) {
        let runs = drive_rung(conns, rung);
        let verdict = judge(sched.workload, rung, &runs);
        let pass = verdict.pass;
        rungs.push((rung, runs, verdict));
        if !pass {
            break;
        }
    }
    Ladder { rungs }
}

fn ms_metric(m: &mut Metrics, name: &str, values: &[f64], pct: f64) {
    if let Some(v) = percentile(values, pct) {
        m.set(name, v, "ms");
    }
}

/// Reduces the nominal rung to the client-observed metrics.
pub fn nominal_metrics(ladder: &Ladder, m: &mut Metrics, out: &mut Outcome) {
    let (rung, runs, _) = &ladder.rungs[0];
    let done = flatten(rung, runs);
    let answers: Vec<&Done> = done
        .iter()
        .filter(|d| is_class(d, OpClass::Answer))
        .collect();
    let lat: Vec<f64> = answers.iter().filter_map(|d| d.latency_ms).collect();
    ms_metric(m, "answer_p50_ms", &lat, 50.0);
    ms_metric(m, "answer_p75_ms", &lat, 75.0);
    ms_metric(m, "answer_p90_ms", &lat, 90.0);
    m.set("answer_samples", lat.len() as f64, "count");
    if let Some(p) = tail_percentile(lat.len()) {
        out.rungs.push(format!(
            "answer tail: p{p} = {:.3} ms over {} answers",
            percentile(&lat, p).unwrap_or(0.0),
            lat.len()
        ));
        if p >= 99.0 {
            ms_metric(m, "answer_p99_ms", &lat, 99.0);
        }
    }
    // Per plan, and the workload-validity ratios.
    let mut by_plan: HashMap<String, Vec<f64>> = HashMap::new();
    let (mut cached, mut unpaired, mut coalesced, mut paired) = (0, 0, 0, 0);
    for d in &answers {
        let (Some(lat), Some(resp)) = (d.latency_ms, d.response) else {
            continue;
        };
        let Ok(v) = ocqa_engine::json::parse(resp) else {
            continue;
        };
        if let Some(plan) = check::field(&v, "plan") {
            by_plan.entry(plan.to_string()).or_default().push(lat);
        }
        let flag = |k: &str| v.get(k).and_then(Json::as_bool) == Some(true);
        if let Kind::Answer { pair: true, .. } = d.req.kind {
            paired += 1;
            coalesced += flag("coalesced") as usize;
        } else {
            unpaired += 1;
            cached += flag("cached") as usize;
        }
    }
    for (plan, lat) in &by_plan {
        ms_metric(m, &format!("answer_{plan}_p50_ms"), lat, 50.0);
    }
    m.set(
        "cache.hit_ratio",
        cached as f64 / unpaired.max(1) as f64,
        "ratio",
    );
    // Each pair has one leader and one follower.
    m.set(
        "singleflight.coalesced_ratio",
        coalesced as f64 / (paired / CONNS).max(1) as f64,
        "ratio",
    );
    let mutations: Vec<f64> = done
        .iter()
        .filter(|d| is_class(d, OpClass::Mutation))
        .filter_map(|d| d.latency_ms)
        .collect();
    if !mutations.is_empty() {
        ms_metric(m, "mutation_p50_ms", &mutations, 50.0);
        ms_metric(m, "mutation_p99_ms", &mutations, 99.0);
        m.set("mutation_samples", mutations.len() as f64, "count");
    }
}

/// Pushed frames against the dirty steps that caused them, over every
/// rung: (push latencies at the nominal rung in ms, frames, dirty steps).
pub fn push_stats(ladder: &Ladder) -> (Vec<f64>, usize, usize) {
    let sub_db = 0;
    let (mut lat, mut frames, mut dirty_total) = (Vec::new(), 0, 0);
    for (r, (rung, runs, _)) in ladder.rungs.iter().enumerate() {
        let dirty: Vec<u64> = rung.conns[0]
            .iter()
            .zip(&runs[0].outcomes)
            .filter(
                |(q, _)| matches!(q.kind, Kind::Mutation { db, dirty: true, .. } if db == sub_db),
            )
            .filter_map(|(_, o)| o.sent_us)
            .collect();
        frames += runs[0].pushes_us.len();
        dirty_total += dirty.len();
        if r == 0 {
            lat.extend(
                dirty
                    .iter()
                    .zip(&runs[0].pushes_us)
                    .map(|(sent, at)| at.saturating_sub(*sent) as f64 / 1e3),
            );
        }
    }
    (lat, frames, dirty_total)
}

/// Checks every read-hot answer and the seeded subset of the others
/// against the oracle; for write-mix also replays the acknowledged
/// mutation prefix into it. Returns the oracle for the ledger.
fn oracle_checks(sched: &Schedule, ladder: &Ladder, out: &mut Outcome) -> Option<Oracle> {
    let oracle = match Oracle::new(sched, SHARDS) {
        Ok(o) => o,
        Err(e) => {
            out.fail(e);
            return None;
        }
    };
    let mut memo: HashMap<(&str, String), String> = HashMap::new();
    // Per connection in send order, so each database's commit order is
    // replayed exactly (each mutated database has one connection).
    for c in 0..CONNS {
        let mut dead = false;
        for (rung, runs, _) in &ladder.rungs {
            for (req, o) in rung.conns[c].iter().zip(&runs[c].outcomes) {
                if o.sent_us.is_none() || dead {
                    continue;
                }
                let resp = o.response.as_deref().unwrap_or("");
                match req.kind {
                    Kind::Mutation { db, .. } => {
                        if let Err(e) = check::ok(resp) {
                            out.fail(format!("mutation {}: {e}", clip(&req.line)));
                            dead = true;
                            continue;
                        }
                        // Memoized answers were for the previous version.
                        memo.clear();
                        let want = oracle.serve(sched.dbs[db].shard, &req.oracle_line);
                        let v = (check::ok(resp), check::ok(&want));
                        if let (Ok(a), Ok(b)) = v {
                            for f in ["version", "violations", "inserted", "removed"] {
                                if a.get(f) != b.get(f) {
                                    out.fail(format!("mutation {f} differs: {}", clip(resp)));
                                }
                            }
                        }
                    }
                    Kind::Answer { db, check, .. } => {
                        let v = match check::ok(resp) {
                            Ok(v) => v,
                            Err(e) => {
                                out.fail(format!("answer {}: {e}", clip(&req.line)));
                                continue;
                            }
                        };
                        let plan = check::field(&v, "plan").unwrap_or("").to_string();
                        let spec = &sched.dbs[db];
                        if spec.plan.is_some_and(|p| p != plan) {
                            out.fail(format!(
                                "{} served plan {plan:?}, expected {:?}",
                                spec.name, spec.plan
                            ));
                        }
                        if !check {
                            continue;
                        }
                        let want = memo
                            .entry((req.oracle_line.as_str(), plan))
                            .or_insert_with_key(|(line, plan)| {
                                oracle.serve(spec.shard, &check::pinned(line, plan))
                            });
                        if let Err(e) = check::same_answer(resp, want) {
                            out.fail(format!("oracle mismatch on {}: {e}", clip(&req.line)));
                        }
                    }
                }
            }
        }
    }
    Some(oracle)
}

/// One request/response on a fresh connection to `addr`.
fn ask(addr: &str, line: &str) -> Result<String, String> {
    let mut s = load::connect(addr).map_err(|e| e.to_string())?;
    load::exchange(&mut s, &mut Vec::new(), line).map_err(|e| e.to_string())
}

/// The durability ledger: `kill -9` every primary, restart it over its
/// data dir, and require every acknowledged mutation — and nothing
/// else — in it and in its standby, with answers byte-identical to the
/// oracle's.
fn ledger(
    sched: &Schedule,
    ladder: &Ladder,
    dep: &mut Deployment,
    oracle: &Oracle,
    out: &mut Outcome,
) {
    for k in 0..SHARDS {
        if let Err(e) = dep.restart_primary(k) {
            out.fail(format!("restart primary {k}: {e}"));
            return;
        }
    }
    for db in sched.dbs.iter() {
        let snap = Json::obj([
            ("op", Json::from("fetch_snapshot")),
            ("db", Json::from(db.name.clone())),
        ])
        .to_string();
        // The last answer served on this database, pinned to the plan it
        // was served with, so all three copies sample the same way.
        let answer = ladder
            .rungs
            .iter()
            .rev()
            .flat_map(|(rung, runs, _)| flatten(rung, runs).into_iter().rev())
            .filter(|d| matches!(d.req.kind, Kind::Answer { db: i, .. } if sched.dbs[i].name == db.name))
            .find_map(|d| {
                let v = check::ok(d.response?).ok()?;
                Some(check::pinned(&d.req.oracle_line, check::field(&v, "plan")?))
            });
        let want_snap = oracle.serve(db.shard, &snap);
        let image = |resp: &str| -> Result<(u64, String), String> {
            let v = check::ok(resp)?;
            let img = ocqa_engine::decode_image(check::field(&v, "image").unwrap_or(""))
                .map_err(|e| e.to_string())?;
            Ok((img.version, img.db.to_string()))
        };
        let want = match image(&want_snap) {
            Ok(w) => w,
            Err(e) => {
                out.fail(format!("oracle snapshot {}: {e}", db.name));
                continue;
            }
        };
        let targets = [
            ("restarted primary", dep.primaries[db.shard].addr.clone()),
            ("standby", dep.standbys[db.shard].addr.clone()),
        ];
        for (role, addr) in targets {
            out.attempted += 1;
            match ask(&addr, &snap).and_then(|r| image(&r)) {
                Ok(got) if got == want => {}
                Ok(got) => out.fail(format!(
                    "{role} of {} holds version {} ({} fact bytes), acked ledger says {} ({})",
                    db.name,
                    got.0,
                    got.1.len(),
                    want.0,
                    want.1.len()
                )),
                Err(e) => out.fail(format!("{role} snapshot {}: {e}", db.name)),
            }
            if let Some(line) = &answer {
                out.attempted += 1;
                let expected = oracle.serve(db.shard, line);
                if let Err(e) = ask(&addr, line).and_then(|r| check::same_answer(&r, &expected)) {
                    out.fail(format!("{role} answer on {} differs: {e}", db.name));
                }
            }
        }
    }
}

/// Runs one workload end to end.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let sched = sched::build(opts.workload, opts.seed, opts.seconds);
    std::fs::create_dir_all(&opts.dir).map_err(|e| e.to_string())?;
    let fsync = fsync_us(&opts.dir);
    let mut live = setup(&sched, opts, SETUP_REPEATS)?;
    let ladder = run_ladder(&sched, &mut live.conns, sched.rungs.len());
    let mut out = Outcome::default();
    let mut m = Metrics::default();
    m.set("setup_s", median(&live.setup_s).unwrap_or(0.0), "s");
    m.set("store.fsync_us", fsync, "us");
    for (_, runs, v) in &ladder.rungs {
        out.rungs.push(v.line.clone());
        for r in runs {
            if let Some(why) = &r.broken {
                out.problems.push(format!("connection: {why}"));
            }
            for f in &r.other_frames {
                out.fail(format!("unexpected frame {}", clip(f)));
            }
        }
    }
    let best = ladder.rungs.iter().take_while(|(_, _, v)| v.pass).last();
    m.set(
        "max_rps_at_slo",
        best.map(|(_, _, v)| v.achieved_rps).unwrap_or(0.0),
        "req/s",
    );
    let nominal = &ladder.rungs[0].2;
    m.set("loadgen.late_p99_ms", nominal.late_p99_ms, "ms");
    m.set(
        "loadgen.max_outstanding",
        nominal.max_outstanding as f64,
        "count",
    );
    nominal_metrics(&ladder, &mut m, &mut out);
    drop(std::mem::take(&mut live.conns));
    m.set("server_rss_mb", live.dep.peak_rss_mb(), "MB");
    let oracle = oracle_checks(&sched, &ladder, &mut out);
    if sched.workload == Workload::WriteMix {
        let (push, frames, dirty) = push_stats(&ladder);
        ms_metric(&mut m, "push_p50_ms", &push, 50.0);
        m.set(
            "subscribe.pushes_per_dirty_step",
            frames as f64 / dirty.max(1) as f64,
            "ratio",
        );
        if frames != dirty {
            out.fail(format!("{frames} estimate frames for {dirty} dirty steps"));
        }
        let acked: usize = ladder
            .rungs
            .iter()
            .flat_map(|(rung, runs, _)| flatten(rung, runs))
            .filter_map(|d| match d.req.kind {
                Kind::Mutation { fact_bytes, .. } if d.latency_ms.is_some() => Some(fact_bytes),
                _ => None,
            })
            .sum();
        let user: usize = acked + sched.dbs.iter().map(|d| d.facts.len()).sum::<usize>();
        let stored: u64 = live
            .dep
            .data_dirs
            .iter()
            .map(|d| deploy::dir_bytes(d))
            .sum();
        m.set(
            "store_bytes_per_user_byte",
            stored as f64 / user as f64,
            "ratio",
        );
        if let Some(oracle) = &oracle {
            ledger(&sched, &ladder, &mut live.dep, oracle, &mut out);
        }
    }
    drop(live);
    let _ = std::fs::remove_dir_all(&opts.dir);
    out.attempted += ladder
        .rungs
        .iter()
        .map(|(rung, runs, _)| flatten(rung, runs).len() as u64)
        .sum::<u64>();
    out.metrics = m;
    validity(&sched, &mut out);
    Ok(out)
}

/// The workload-validity conditions the benchmark's reading relies on.
fn validity(sched: &Schedule, out: &mut Outcome) {
    let m = &out.metrics;
    let hit = m.get("cache.hit_ratio").unwrap_or(0.0);
    let breach = match sched.workload {
        Workload::ReadHot if hit < 0.99 => Some(format!("read-hot cache.hit_ratio {hit} < 0.99")),
        Workload::ReadCold if hit > 0.01 => Some(format!("read-cold cache.hit_ratio {hit} > 0.01")),
        _ => None,
    };
    if let Some(b) = breach {
        out.fail(b);
    }
}
