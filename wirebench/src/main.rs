//! `wirebench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload (`read-hot`, `read-cold` or `write-mix`) against a
//! freshly spawned deployment of the `ocqa` binary named by `$OCQA_BIN`.
//! With `--trace 0` it drives the open-loop rate ladder and reports the
//! end-to-end metrics; with `--trace 1` it reports the per-layer metrics
//! of the traced run. A human-readable report goes to stderr; the last
//! line of stdout is the JSON result
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`, preceded by a
//! provenance line. Exits non-zero when any output check fails.

use ocqa_engine::json::Json;
use ocqa_wirebench::run::{self, Opts, Outcome, END_TO_END};
use ocqa_wirebench::sched::{self, Workload, CONNS};
use ocqa_wirebench::stats::Metrics;
use ocqa_wirebench::trace;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> String {
    "usage: wirebench --workload read-hot|read-cold|write-mix --seed N \
     --seconds S --trace 0|1   (server binary from $OCQA_BIN)"
        .into()
}

struct Args {
    opts: Opts,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(usage)?;
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return Err(usage()),
        }
    }
    let bin = std::env::var_os("OCQA_BIN")
        .map(PathBuf::from)
        .ok_or("OCQA_BIN must name the release ocqa binary")?;
    if !bin.is_file() {
        return Err(format!("OCQA_BIN {} is not a file", bin.display()));
    }
    let (Some(workload), Some(seed), Some(seconds)) = (workload, seed, seconds) else {
        return Err(usage());
    };
    let dir = PathBuf::from(".wirebench-run").join(format!(
        "{}-{seed}-{}",
        workload.name(),
        std::process::id()
    ));
    Ok(Args {
        opts: Opts {
            workload,
            seed,
            seconds,
            bin,
            dir,
        },
        trace: trace.ok_or_else(usage)?,
    })
}

/// The conditions a reader needs to interpret the figures.
fn provenance(opts: &Opts, trace: bool, fsync_us: Option<f64>) -> Json {
    let w = opts.workload;
    let slo = w.slo();
    // Only a checkout's own `.git` names its revision (a parent
    // repository's would be wrong).
    let rev = std::path::Path::new(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "HEAD"])
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    let ladder: Vec<Json> = (0..sched::MAX_RUNGS)
        .map(|r| Json::Num(w.nominal_rate() * CONNS as f64 * w.ladder_factor().powi(r as i32)))
        .collect();
    Json::obj([
        ("workload", Json::from(w.name())),
        ("seed", Json::from(opts.seed)),
        ("seconds", Json::Num(opts.seconds)),
        ("trace", Json::from(trace)),
        (
            "cores",
            Json::from(
                std::thread::available_parallelism()
                    .map(|n| n.get() as u64)
                    .unwrap_or(0),
            ),
        ),
        ("connections", Json::from(CONNS as u64)),
        ("nominal_rps", Json::Num(w.nominal_rate() * CONNS as f64)),
        ("ladder_rps", Json::Arr(ladder)),
        (
            "slo",
            Json::from(format!(
                "{} p{} <= {} ms",
                match slo.class {
                    sched::OpClass::Answer => "answer",
                    sched::OpClass::Mutation => "mutation",
                },
                slo.pct,
                slo.limit_ms
            )),
        ),
        ("deployment", Json::from(ocqa_wirebench::deploy::FLAGS)),
        (
            "flush_policy",
            Json::from(ocqa_wirebench::deploy::FLUSH_POLICY),
        ),
        ("git_revision", Json::from(rev)),
        (
            "store.fsync_us",
            fsync_us.map(Json::Num).unwrap_or(Json::Null),
        ),
    ])
}

fn report(out: &Outcome, wanted: &[(&str, &str)]) -> (Json, bool) {
    let mut metrics = Json::obj([]);
    let mut complete = true;
    for (name, unit) in wanted {
        match out.metrics.get(name) {
            Some(v) => metrics.set(
                name,
                Json::obj([("value", Json::Num(v)), ("unit", Json::from(*unit))]),
            ),
            None => complete = false,
        }
    }
    (metrics, complete)
}

fn print_table(title: &str, m: &Metrics) {
    eprintln!("{title}");
    for (name, (value, unit)) in &m.0 {
        eprintln!("  {name:<36} {value:>14.4} {unit}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wirebench: {e}");
            return ExitCode::from(2);
        }
    };
    let opts = &args.opts;
    let result = if args.trace {
        trace::run(opts)
    } else {
        run::run(opts)
    };
    let _ = std::fs::remove_dir_all(&opts.dir);
    if let Some(parent) = opts.dir.parent() {
        let _ = std::fs::remove_dir(parent); // only when no other run uses it
    }
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("wirebench: {}: {e}", opts.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let wanted: Vec<(&str, &str)> = if args.trace {
        trace::PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    for line in &out.rungs {
        eprintln!("{line}");
    }
    print_table(
        &format!("{} (seed {}):", opts.workload.name(), opts.seed),
        &out.metrics,
    );
    eprintln!(
        "  {:<36} {:>14.6} ratio  ({} failed of {} attempted)",
        "failed_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for p in &out.problems {
        eprintln!("  problem: {p}");
    }
    let (metrics, complete) = report(&out, &wanted);
    if !complete {
        eprintln!("wirebench: a named metric was not measured");
    }
    let correct = out.failed == 0 && complete;
    println!(
        "{}",
        provenance(opts, args.trace, out.metrics.get("store.fsync_us"))
    );
    let all: Json = Json::Obj(
        out.metrics
            .0
            .iter()
            .map(|(k, (v, u))| {
                (
                    k.clone(),
                    Json::obj([("value", Json::Num(*v)), ("unit", Json::from(*u))]),
                )
            })
            .collect(),
    );
    println!("{}", Json::obj([("all_metrics", all)]));
    println!(
        "{}",
        Json::obj([
            ("correct", Json::from(correct)),
            ("attempted", Json::from(out.attempted.max(1))),
            ("failed", Json::from(out.failed)),
            ("metrics", metrics),
        ])
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
