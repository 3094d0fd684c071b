//! Operational consistent query answering.
//!
//! This crate implements the contribution of *“An Operational Approach to
//! Consistent Query Answering”* (Calautti, Libkin, Pieris; PODS 2018):
//!
//! * [`BaseDomain`] — the base `B(D, Σ)` of facts over `dom(D)` and the
//!   constants of `Σ` (the universe operations draw from);
//! * [`Operation`] — the updates `+F` / `−F` of Definition 1;
//! * justified-operation generation and verification (Definition 3 /
//!   Proposition 1), in [`justified`];
//! * [`RepairState`] — repairing sequences with requirements **req1**,
//!   **req2**, *no cancellation* and *global justification of additions*
//!   (Definition 4);
//! * [`ChainGenerator`] and the paper's generators — uniform (`M^u_Σ`,
//!   Proposition 4), the preference/support generator of Example 4 and the
//!   trust-based integration generator of Example 5;
//! * [`explore`] — exact enumeration of the repairing Markov chain, its
//!   hitting distribution, operational repairs `[[D]]_{MΣ}` (Definition 6)
//!   and failing mass;
//! * [`answer`] — `CP(t̄)` and operational consistent answers (Definition
//!   7), the `FP^#P`-hard exact problem of Theorem 5;
//! * [`markov`] — generic absorbing-chain analysis over exact rationals
//!   (fundamental-matrix cross-check of Proposition 3);
//! * [`sample`] — the `Sample` random walk and the additive-error
//!   approximation scheme of Theorem 9 (sequential and multi-threaded);
//! * [`tree`] — the repairing chain as a lazily memoized tree
//!   (Proposition 10), so repeated walks over one snapshot reuse each
//!   node's extensions and draw thresholds;
//! * [`keyrepair`] — the §5 practical scheme for key violations with
//!   deletion repairs (`R − R_del` query rewriting, group-wise sampling).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod answer;
mod base;
pub mod explain;
pub mod explore;
mod generators;
pub mod justified;
pub mod keyrepair;
pub mod localize;
pub mod markov;
mod operation;
mod patch;
pub mod sample;
mod state;
pub mod tree;

pub use base::BaseDomain;
pub use generators::{
    ChainGenerator, GeneratorError, PreferenceGenerator, TrustGenerator, UniformGenerator,
    WeightFnGenerator,
};
pub use operation::{FactSet, Operation};
pub use patch::PatchSource;
pub use state::{RepairContext, RepairState};
