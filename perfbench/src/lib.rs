//! Shared pieces of the benchmark binaries: metric tables and the
//! result line ([`report`]) and the order statistics ([`stats`]).

pub mod report;
pub mod stats;
