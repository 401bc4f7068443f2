//! Model-check invariant suite for the SiEVE runtime. The tests live in
//! `tests/`; run them with:
//!
//! ```text
//! cargo test -p sieve-check-tests --features model-check
//! ```
//!
//! Without `--features model-check` the suite compiles against the
//! uninstrumented facade and the model tests are skipped at compile time.

use sieve_simnet::{GuardedPop, ShardQueue};

/// A guarded worker's next delivery, blocking as the fleet's shard loop
/// does: `try_pop_guarded`, parking in `wait_for_work` while it reports
/// `Empty`. A delivered item's lane is completed at once, so the result
/// is never `Empty`; `Shutdown` is the worker's exit signal.
// lint:allow(dead-pub): the worker step crates/check-tests/tests/{shard_queue,seeded_bug,wakeup}.rs share
pub fn guarded_next<T>(q: &ShardQueue<T>) -> GuardedPop<T> {
    loop {
        match q.try_pop_guarded() {
            GuardedPop::Item(key, v) => {
                q.complete(key, None);
                return GuardedPop::Item(key, v);
            }
            GuardedPop::Empty => q.wait_for_work(),
            other => return other,
        }
    }
}
