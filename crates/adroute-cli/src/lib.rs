//! The `adroute` command-line tools as a library: argument parsing and
//! the pure command implementations, exposed so workspace integration
//! tests (notably `tests/profile_determinism.rs`) can drive complete
//! command lines in-process instead of spawning the binary.

pub mod args;
pub mod commands;
pub mod scenario;
