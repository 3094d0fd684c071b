//! Engine-level errors, surfaced to clients as `{"ok":false,"error":…}`.

use crate::planner::PlanKind;
use std::fmt;

/// Anything that can go wrong while serving a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The request line was not valid JSON or missed required fields.
    BadRequest(String),
    /// Facts / constraints / query text failed to parse.
    Parse(String),
    /// The named database does not exist in the catalog.
    UnknownDatabase(String),
    /// A database with that name already exists.
    DatabaseExists(String),
    /// The named prepared-query handle does not exist.
    UnknownPrepared(String),
    /// The generator name is not recognized.
    UnknownGenerator(String),
    /// A fact violated the database schema.
    Schema(String),
    /// Sampling failed (generator could not produce a distribution).
    Sampling(String),
    /// An explicit `plan` override is structurally unsound for the
    /// database × generator: the named feasibility gate rejected it.
    /// Rendered with structured `plan`/`gate` fields so clients can tell
    /// "you asked for an impossible plan" from a generic bad request.
    PlanRejected {
        /// The plan the client forced.
        plan: PlanKind,
        /// The feasibility gate that rejected it (`"key-cover"`,
        /// `"denial-fragment"`, `"component-local"`, `"group-policy"`).
        gate: &'static str,
        /// The human-readable explanation.
        message: String,
    },
    /// A constraint has more body or head atoms than a repairing walk can
    /// enumerate subsets of; refused at install so no later `answer`
    /// trips over it. Rendered with structured `constraint`/`limit`
    /// fields.
    ConstraintTooWide {
        /// The offending constraint, as rendered by the parser.
        constraint: String,
        /// Its atom count (the larger of body and head).
        atoms: usize,
        /// The enumerable maximum.
        limit: usize,
    },
    /// The storage backend failed to journal or recover state.
    Storage(String),
    /// The owning shard is at its concurrent-sampling admission limit;
    /// the request was rejected *before* any counter moved, so a retry
    /// is accounted like a fresh request (no double counting).
    ShardFull(u32),
    /// A remote upstream shard server could not be reached (or spoke
    /// garbage) — the multi-process router's transport failure.
    Unavailable(String),
    /// The cluster topology changed under the client (its pinned
    /// `"epoch"` is stale) or the addressed database is mid-move.
    /// Rendered with structured `"retry": true` and `"epoch"` fields so
    /// clients re-resolve and retry instead of treating it as a failure.
    StaleTopology {
        /// The router's current topology epoch.
        epoch: u64,
        /// The human-readable explanation.
        message: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            EngineError::Parse(msg) => write!(f, "parse error: {msg}"),
            EngineError::UnknownDatabase(name) => write!(f, "unknown database {name:?}"),
            EngineError::DatabaseExists(name) => write!(f, "database {name:?} already exists"),
            EngineError::UnknownPrepared(id) => write!(f, "unknown prepared query {id:?}"),
            EngineError::UnknownGenerator(name) => write!(f, "unknown generator {name:?}"),
            EngineError::Schema(msg) => write!(f, "schema error: {msg}"),
            EngineError::Sampling(msg) => write!(f, "sampling error: {msg}"),
            EngineError::PlanRejected { message, .. } => write!(f, "bad request: {message}"),
            EngineError::ConstraintTooWide {
                constraint,
                atoms,
                limit,
            } => write!(
                f,
                "bad request: constraint {constraint:?} has {atoms} atoms; repairing walks \
                 enumerate subsets of at most {limit}"
            ),
            EngineError::Storage(msg) => write!(f, "storage error: {msg}"),
            EngineError::ShardFull(shard) => write!(
                f,
                "shard {shard} is at its sampling admission limit; retry shortly"
            ),
            EngineError::Unavailable(msg) => write!(f, "upstream unavailable: {msg}"),
            EngineError::StaleTopology { epoch, message } => {
                write!(f, "topology changed (epoch {epoch}): {message}")
            }
        }
    }
}

impl std::error::Error for EngineError {}
