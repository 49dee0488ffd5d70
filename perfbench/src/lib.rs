//! End-to-end benchmark of the AVIV code generator and the `avivd` server.
//!
//! Its workloads time calls into the public functions of `aviv-ir`,
//! `aviv-isdl`, `aviv`, `aviv-verify` and `aviv-vm`, and the real `avivd`
//! binary, from outside; see the README for what each one measures and why.

pub mod calib;
pub mod check;
pub mod corpus;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod workload;
