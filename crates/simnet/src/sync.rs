//! The workspace synchronization facade, re-exported from
//! [`sieve_stats::sync`] (where it lives, below every runtime crate).

pub use sieve_stats::sync::*;
