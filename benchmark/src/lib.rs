//! The repo's benchmark: the paper's pipelines end to end and layer by
//! layer, driven through the library's public functions only, from one
//! process and one thread. See `README.md` beside this crate.

pub mod alloc;
pub mod harness;
pub mod hbh;
pub mod inputs;
pub mod json;
pub mod metrics;
pub mod oracle;
pub mod orwg;
pub mod report;
pub mod stats;
pub mod trace;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;
