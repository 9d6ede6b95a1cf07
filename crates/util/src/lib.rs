//! # april-util — workspace utilities
//!
//! Small, dependency-free helpers shared across the workspace:
//!
//! * [`rng`]: vendored deterministic pseudo-random number generators
//!   (splitmix64 and xoshiro256\*\*) used by the network
//!   fault-injection layer, the experiment binaries, and the
//!   randomized test suites, so the workspace builds and tests with no
//!   network access and every "random" run is exactly reproducible
//!   from a seed.
//! * [`wire`]: the hand-rolled little-endian binary codec behind the
//!   snapshot formats (DESIGN.md §11) and the april-serve protocol,
//!   where each layout is one field list read and written alike.

#![deny(missing_docs)]

pub mod rng;
pub mod wire;

pub use rng::{splitmix64, Rng};
