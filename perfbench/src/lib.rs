//! The KARYON campaign benchmark: end-to-end throughput of scenario
//! campaigns on three workloads, and a traced run that attributes their time
//! to the library's layers.
//!
//! Everything is measured from outside the library: the benchmark calls its
//! public entry points ([`karyon_scenario::builtin_registry`],
//! [`karyon_scenario::Campaign::from_json_str`] and the campaign run entry
//! points, all behind [`session::run_session`]) and times them with
//! `std::time::Instant`.  The traced run adds timing decorators
//! ([`decorators`]) and benchmark-side twins of two family bodies
//! ([`twins`]); spans stay in memory ([`spans`]) until the run ends.
//!
//! See `README.md` next to this crate for the workloads, the metrics and the
//! layer each per-layer metric attributes.

pub mod bench;
pub mod check;
pub mod decorators;
pub mod session;
pub mod spans;
pub mod twins;
pub mod workload;
