//! End-to-end and per-layer benchmark of the deep-web surfacing and serving
//! system: full builds, open-loop cluster serving and refresh churn, with a
//! traced run that breaks time down by layer. See `README.md`.

pub mod catalog;
pub mod openloop;
pub mod phases;
pub mod record;
pub mod run;
pub mod stats;
pub mod system;
pub mod tap;
pub mod trace;
