//! The benchmark's own tests: schedules are a pure function of the seed,
//! and a minimal-length run of each workload, end to end and traced,
//! emits every named metric with its unit and passes its output checks.

use ocqa_wirebench::run::{self, Opts, END_TO_END};
use ocqa_wirebench::sched::{self, Workload};
use ocqa_wirebench::trace::{self, PER_LAYER};
use std::path::PathBuf;
use std::process::Command;

#[test]
fn same_seed_gives_a_byte_identical_schedule() {
    for w in Workload::ALL {
        let a = sched::build(w, 7, 5.0).fingerprint();
        let b = sched::build(w, 7, 5.0).fingerprint();
        assert_eq!(a, b, "{} schedule differs for one seed", w.name());
        let c = sched::build(w, 8, 5.0).fingerprint();
        assert_ne!(a, c, "{} schedule ignores the seed", w.name());
    }
}

#[test]
fn schedules_are_open_loop_and_sorted() {
    for w in Workload::ALL {
        let s = sched::build(w, 3, 5.0);
        assert_eq!(s.prime.len(), s.dbs.len());
        for rung in &s.rungs {
            for reqs in &rung.conns {
                assert!(!reqs.is_empty());
                assert!(reqs.windows(2).all(|p| p[0].due_us <= p[1].due_us));
                assert!(reqs.iter().all(|q| q.due_us < rung.duration_us));
            }
        }
    }
}

/// Builds the release server the benchmark spawns.
fn server() -> PathBuf {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .args(["build", "--release", "--quiet", "-p", "ocqa-cli"])
        .current_dir(&root)
        .status()
        .expect("run cargo");
    assert!(status.success(), "building the ocqa server failed");
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(|d| root.join(d))
        .unwrap_or_else(|| root.join("target"));
    target.join("release").join("ocqa")
}

#[test]
fn minimal_runs_emit_every_metric_and_pass_their_checks() {
    let bin = server();
    for w in Workload::ALL {
        for traced in [false, true] {
            let opts = Opts {
                workload: w,
                seed: 11,
                seconds: 1.0,
                bin: bin.clone(),
                dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
                    .join(format!("wirebench-{}-{traced}", w.name())),
            };
            let out = if traced {
                trace::run(&opts)
            } else {
                run::run(&opts)
            }
            .unwrap_or_else(|e| panic!("{} (traced {traced}): {e}", w.name()));
            let _ = std::fs::remove_dir_all(&opts.dir);
            assert_eq!(out.failed, 0, "{}: {:?}", w.name(), out.problems);
            let named: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
            for (name, unit) in named {
                let got = out.metrics.0.get(*name);
                assert!(got.is_some(), "{} lacks {name}", w.name());
                assert_eq!(
                    got.map(|(_, u)| *u),
                    Some(*unit),
                    "{} unit of {name}",
                    w.name()
                );
            }
        }
    }
}
