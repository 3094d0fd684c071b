//! The deployment under test, spawned from the release `ocqa` binary:
//! `ocqa route --standby` over two `ocqa serve --shards 1 --data-dir`
//! primaries, each replicating (`--replicate-to`) to a plain `ocqa serve`
//! standby. Everything else is left at its default.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;

/// The flags every process gets, for the provenance record.
pub const FLAGS: &str = "route --upstream P0 --upstream P1 --standby S0 --standby S1; \
    primaries: serve --shards 1 --data-dir DIR --replicate-to Sk; standbys: serve; \
    all other flags default (planner cost, workers and conn-workers auto, \
    group commit off)";
/// The WAL flush policy those flags imply.
pub const FLUSH_POLICY: &str = "one fsync per append (--group-commit-us 0)";

/// One spawned server process.
pub struct Proc {
    child: Child,
    /// The address it listens on.
    pub addr: String,
    stderr: Option<JoinHandle<()>>,
}

impl Proc {
    /// Spawns `bin args… --listen 127.0.0.1:0` and waits until it
    /// accepts, reading the bound address off its startup banner.
    fn spawn(bin: &Path, args: &[String]) -> Result<Proc, String> {
        let mut child = Command::new(bin)
            .args(args)
            .args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut lines = BufReader::new(child.stderr.take().expect("stderr is piped")).lines();
        let mut addr = None;
        for line in lines.by_ref() {
            let line = line.map_err(|e| e.to_string())?;
            if let Some(rest) = line.split("listening on ").nth(1) {
                addr = rest.split_whitespace().next().map(str::to_string);
                break;
            }
        }
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!(
                "{} {args:?} exited before listening",
                bin.display()
            ));
        };
        // Keep draining stderr so the server never blocks on a full pipe.
        let stderr = std::thread::spawn(move || lines.map_while(Result::ok).for_each(drop));
        Ok(Proc {
            child,
            addr,
            stderr: Some(stderr),
        })
    }

    /// Peak resident set (`VmHWM`) in kB.
    pub fn peak_rss_kb(&self) -> u64 {
        std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("VmHWM:"))
                    .and_then(|v| v.split_whitespace().next()?.parse().ok())
            })
            .unwrap_or(0)
    }
}

/// Dropping a process `kill -9`s it and reaps it.
impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

/// The five-process deployment; dropping it kills every process.
pub struct Deployment {
    bin: PathBuf,
    /// Per shard: its data directory.
    pub data_dirs: Vec<PathBuf>,
    /// Per shard: the standby (spawned first).
    pub standbys: Vec<Proc>,
    /// Per shard: the primary.
    pub primaries: Vec<Proc>,
    /// The router every client connects to.
    pub router: Proc,
}

impl Deployment {
    /// Spawns the deployment with fresh data directories under `dir`.
    pub fn start(bin: &Path, dir: &Path, shards: usize) -> Result<Deployment, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut standbys = Vec::new();
        let mut primaries = Vec::new();
        let mut data_dirs = Vec::new();
        for k in 0..shards {
            standbys.push(Proc::spawn(bin, &["serve".into()])?);
            let data = dir.join(format!("primary-{k}"));
            primaries.push(Proc::spawn(bin, &primary_args(&data, &standbys[k].addr))?);
            data_dirs.push(data);
        }
        let mut args = vec!["route".to_string()];
        for (p, s) in primaries.iter().zip(&standbys) {
            args.extend(["--upstream".into(), p.addr.clone()]);
            args.extend(["--standby".into(), s.addr.clone()]);
        }
        let router = Proc::spawn(bin, &args)?;
        Ok(Deployment {
            bin: bin.to_path_buf(),
            data_dirs,
            standbys,
            primaries,
            router,
        })
    }

    /// Sum of every process's peak RSS, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        let kb: u64 = self
            .standbys
            .iter()
            .chain(&self.primaries)
            .chain(std::iter::once(&self.router))
            .map(Proc::peak_rss_kb)
            .sum();
        kb as f64 / 1024.0
    }

    /// `kill -9` primary `k` and start it again over its data directory.
    pub fn restart_primary(&mut self, k: usize) -> Result<(), String> {
        let standby = self.standbys[k].addr.clone();
        drop(self.primaries.remove(k));
        let fresh = Proc::spawn(&self.bin, &primary_args(&self.data_dirs[k], &standby))?;
        self.primaries.insert(k, fresh);
        Ok(())
    }
}

fn primary_args(data: &Path, standby: &str) -> Vec<String> {
    vec![
        "serve".into(),
        "--shards".into(),
        "1".into(),
        "--data-dir".into(),
        data.display().to_string(),
        "--replicate-to".into(),
        standby.to_string(),
    ]
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
