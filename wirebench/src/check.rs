//! Output checks: the in-process oracle every checked answer must match
//! byte for byte, and the write-mix durability ledger.

use crate::sched::Schedule;
use ocqa_engine::json::{self, Json};
use ocqa_engine::{Engine, EngineConfig};
use std::sync::Arc;

/// The answer fields that must match the oracle byte for byte.
const FIELDS: [&str; 5] = ["plan", "db_version", "walks", "failed_walks", "answers"];

/// One in-process single-shard engine per deployed shard, holding the
/// same databases created in the same order — so the same version
/// counters — as the deployment's primaries.
pub struct Oracle {
    shards: Vec<Arc<Engine>>,
}

impl Oracle {
    /// Creates every database of `sched` on its shard's oracle.
    pub fn new(sched: &Schedule, shards: usize) -> Result<Oracle, String> {
        let shards: Vec<Arc<Engine>> = (0..shards)
            .map(|_| Engine::new(EngineConfig::default()))
            .collect();
        for db in &sched.dbs {
            let resp = shards[db.shard]
                .handle_line(&crate::sched::create_line(db))
                .to_string();
            ok(&resp).map_err(|e| format!("oracle create {}: {e}", db.name))?;
        }
        for (db, line) in sched.dbs.iter().zip(&sched.prime) {
            let resp = shards[db.shard].handle_line(line).to_string();
            ok(&resp).map_err(|e| format!("oracle prime {}: {e}", db.name))?;
        }
        Ok(Oracle { shards })
    }

    /// `shard`'s oracle engine.
    pub fn engine(&self, shard: usize) -> &Arc<Engine> {
        &self.shards[shard]
    }

    /// Serves one line on `shard`'s oracle.
    pub fn serve(&self, shard: usize, line: &str) -> String {
        self.shards[shard].handle_line(line).to_string()
    }
}

/// `line` with an explicit `plan` pin. Answers are a pure function of
/// the request *and* its plan; the pin lets the oracle reproduce a served
/// answer whatever plan the server's cost model picked for it.
pub fn pinned(line: &str, plan: &str) -> String {
    let mut v = json::parse(line).expect("scheduled lines are valid JSON");
    v.set("plan", Json::from(plan.to_string()));
    v.to_string()
}

/// Parses a response, requiring `"ok":true`.
pub fn ok(resp: &str) -> Result<Json, String> {
    let v = json::parse(resp).map_err(|e| format!("unparseable response: {e}"))?;
    match v.get("ok").and_then(Json::as_bool) {
        Some(true) => Ok(v),
        _ => Err(format!("not ok: {}", clip(resp))),
    }
}

/// Compares the [`FIELDS`] of a served answer with the oracle's.
pub fn same_answer(served: &str, expected: &str) -> Result<(), String> {
    let (s, e) = (ok(served)?, ok(expected)?);
    for field in FIELDS {
        let got = s.get(field).map(Json::to_string);
        let want = e.get(field).map(Json::to_string);
        if got != want {
            return Err(format!(
                "{field}: served {} but oracle {}",
                clip(&got.unwrap_or_default()),
                clip(&want.unwrap_or_default())
            ));
        }
    }
    Ok(())
}

/// A string field of a response, if present.
pub fn field<'a>(v: &'a Json, key: &str) -> Option<&'a str> {
    v.get(key).and_then(Json::as_str)
}

/// The first 200 bytes of a line, for error messages.
pub fn clip(s: &str) -> String {
    s.chars().take(200).collect()
}
