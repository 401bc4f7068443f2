//! The schedule explorer: bounded-preemption DFS over scheduling decisions
//! with a seeded random-schedule fallback for state spaces too big to
//! enumerate.
//!
//! Each *execution* runs the model body once under a serialized schedule
//! (see `crate::rt`). The explorer keeps a stack of decision nodes
//! mirroring the recorded choices of the last execution; backtracking picks
//! the deepest decision with an untried runnable alternative that stays
//! within the preemption cap, truncates, and replays that prefix. When the
//! DFS budget runs out before the space is exhausted, a fixed number of
//! seeded random schedules sweep the remaining space probabilistically.

use crate::rt::{self, Choice, Tail, Tid, Violation};

/// One decision point on the DFS stack.
#[derive(Debug)]
struct Node {
    runnable: Vec<Tid>,
    /// Alternatives tried so far; the last entry is the decision the
    /// current prefix replays at this level.
    tried: Vec<Tid>,
    was_running: Tid,
    was_running_runnable: bool,
    preemptions_before: usize,
}

impl Node {
    fn from_choice(c: &Choice) -> Self {
        Self {
            runnable: c.runnable.clone(),
            tried: vec![c.chosen],
            was_running: c.was_running,
            was_running_runnable: c.was_running_runnable,
            preemptions_before: c.preemptions_before,
        }
    }

    /// An untried runnable thread that keeps the path within the
    /// preemption cap.
    fn next_alternative(&self, max_preemptions: usize) -> Option<Tid> {
        self.runnable.iter().copied().find(|t| {
            if self.tried.contains(t) {
                return false;
            }
            let preempts = self.was_running_runnable && *t != self.was_running;
            !preempts || self.preemptions_before < max_preemptions
        })
    }
}

/// Outcome of one [`Checker::check`] run.
#[derive(Debug)]
pub struct Report {
    /// Number of distinct schedules executed (DFS + random fallback).
    pub executions: usize,
    /// Whether the DFS exhausted the bounded-preemption schedule space.
    /// `false` means the execution budget ran out and the random fallback
    /// took over.
    pub complete: bool,
    /// The first violation found, if any; exploration stops at the first.
    pub violation: Option<Violation>,
}

/// Context switches away from a still-runnable thread allowed per
/// schedule. Most real concurrency bugs surface within 2 preemptions
/// (CHESS); raising this grows the space combinatorially.
const MAX_PREEMPTIONS: usize = 2;

/// Per-execution step budget; exceeding it is reported as a livelock.
const MAX_STEPS: usize = 50_000;

/// Seed for the random-schedule fallback.
const SEED: u64 = 0x5EED_CAFE;

/// Configurable model checker. Defaults: up to 4,096 DFS executions and 128
/// random-schedule executions; every schedule runs with preemption bound
/// 2 and 50,000 steps.
#[derive(Debug, Clone)]
pub struct Checker {
    max_dfs_executions: usize,
    random_executions: usize,
}

impl Default for Checker {
    fn default() -> Self {
        Self {
            max_dfs_executions: 4096,
            random_executions: 128,
        }
    }
}

impl Checker {
    /// A checker with default budgets.
    // lint:allow(dead-pub): crates/check-tests/tests/*.rs build every model's checker with it
    pub fn new() -> Self {
        Self::default()
    }

    /// Caps the number of DFS executions before falling back to random
    /// schedules.
    #[must_use]
    // lint:allow(dead-pub): the DFS budget crates/check-tests/tests/{fleet,steal,shard_queue}.rs set per model
    pub fn max_dfs_executions(mut self, n: usize) -> Self {
        self.max_dfs_executions = n;
        self
    }

    /// Number of seeded random schedules to run when the DFS budget is
    /// exhausted without completing.
    #[must_use]
    // lint:allow(dead-pub): the random-schedule budget crates/check-tests/tests/fleet.rs sets per model
    pub fn random_executions(mut self, n: usize) -> Self {
        self.random_executions = n;
        self
    }

    /// Explores schedules of `f`, stopping at the first violation.
    // lint:allow(dead-pub): crates/check-tests/tests/*.rs run every model through it
    pub fn check<F>(&self, f: F) -> Report
    where
        F: Fn() + Send + Sync,
    {
        let mut executions = 0usize;
        let mut stack: Vec<Node> = Vec::new();
        let mut prefix: Vec<Tid> = Vec::new();

        // DFS phase.
        loop {
            if executions >= self.max_dfs_executions {
                break;
            }
            let (choices, violation) = rt::run_once(
                &f,
                prefix.clone(),
                Tail::Default,
                MAX_STEPS,
                MAX_PREEMPTIONS,
            );
            executions += 1;
            if let Some(v) = violation {
                return Report {
                    executions,
                    complete: false,
                    violation: Some(v),
                };
            }
            for c in choices.iter().skip(stack.len()) {
                stack.push(Node::from_choice(c));
            }
            // Backtrack to the deepest node with an untried alternative.
            let next = loop {
                let Some(node) = stack.last_mut() else {
                    return Report {
                        executions,
                        complete: true,
                        violation: None,
                    };
                };
                if let Some(alt) = node.next_alternative(MAX_PREEMPTIONS) {
                    node.tried.push(alt);
                    break alt;
                }
                stack.pop();
            };
            let _ = next;
            prefix = stack
                .iter()
                .map(|n| *n.tried.last().expect("node has at least one tried pick"))
                .collect();
        }

        // Random fallback phase: the DFS budget ran out.
        for k in 0..self.random_executions {
            let (_, violation) = rt::run_once(
                &f,
                Vec::new(),
                Tail::Random(SEED.wrapping_add(k as u64)),
                MAX_STEPS,
                MAX_PREEMPTIONS,
            );
            executions += 1;
            if let Some(v) = violation {
                return Report {
                    executions,
                    complete: false,
                    violation: Some(v),
                };
            }
        }
        Report {
            executions,
            complete: false,
            violation: None,
        }
    }
}

/// Checks `f` with default budgets and panics on the first violation —
/// the drop-in way to write a model test.
///
/// # Panics
///
/// Panics with the violation (message + failing schedule) if one is found.
pub fn model<F>(f: F) -> Report
where
    F: Fn() + Send + Sync,
{
    let report = Checker::new().check(f);
    if let Some(v) = &report.violation {
        panic!(
            "model check failed after {} executions: {v}",
            report.executions
        );
    }
    report
}
