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
//! * [`hash`]: a deterministic multiply–xor hasher for hot-path hash
//!   maps keyed by simulator-generated integers, where SipHash's
//!   collision hardening is pure overhead.

#![deny(missing_docs)]

pub mod hash;
pub mod rng;
pub mod wire;

pub use hash::DetState;
pub use rng::{splitmix64, Rng};

/// Compile-time assertion that `T` is [`Send`].
///
/// The parallel machine moves node state, protocol payloads, and fault
/// plans across worker threads; a future field of a non-`Send` type
/// (an `Rc`, a raw pointer) would silently push the failure to the one
/// crate that spawns threads. Instead, each crate pins the contract
/// down where the type is defined:
///
/// ```
/// struct Payload {
///     words: Vec<u32>,
/// }
/// const _: () = april_util::assert_send::<Payload>();
/// ```
///
/// Breaking the bound becomes a compile error in the owning crate, with
/// the offending type named in the diagnostic.
pub const fn assert_send<T: Send>() {}
