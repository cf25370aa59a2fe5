//! The unified testing framework (Section IV): dataset preparation, the
//! evaluation runner and its backends, and report formatting. The
//! algorithms it drives, and their registry, live in `tc-algos`.

pub mod backend;
pub mod claims;
pub mod csv;
pub mod report;
pub mod runner;
