//! Wire-level serving benchmark for `ocqa`: seeded open-loop workloads
//! driven through `ocqa route` at a real five-process deployment, with
//! every output checked, plus a traced in-process run that splits each
//! workload's latency into the layers it crosses.
//!
//! The command line is described in `main.rs`; `run.sh` builds and runs it.

pub mod check;
pub mod deploy;
pub mod load;
pub mod run;
pub mod sched;
pub mod stats;
pub mod trace;
