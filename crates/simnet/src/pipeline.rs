//! Tandem-queue pipeline simulation.
//!
//! The end-to-end SiEVE deployment is a linear pipeline: camera encode →
//! camera→edge transfer → edge processing → edge→cloud transfer → cloud
//! processing. Each stage is a FIFO single server (exactly how the paper's
//! NiFi operators behave with one concurrent task), so the whole system is a
//! tandem queue and can be simulated exactly by tracking each stage's
//! next-free time — no event heap needed, which keeps multi-million-frame
//! simulations cheap and deterministic.

/// What a stage does to one item.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepWork {
    /// Occupy the stage for `secs` of compute.
    Compute {
        /// Service seconds (already adjusted for node speed).
        secs: f64,
    },
    /// Push `bytes` through the stage's link.
    Transfer {
        /// Payload size in bytes.
        bytes: u64,
    },
    /// The item does not use this stage (e.g. a filtered-out frame).
    Skip,
}

/// Description of one pipeline stage.
#[derive(Debug, Clone, PartialEq)]
pub enum StageSpec {
    /// A compute stage; service times come with each item.
    Compute {
        /// Stage name for reports.
        name: String,
    },
    /// A network transfer stage.
    Transfer {
        /// Stage name for reports.
        name: String,
        /// Bandwidth in bits per second.
        bandwidth_bps: f64,
        /// Per-transfer latency in seconds.
        latency_secs: f64,
    },
}

impl StageSpec {
    /// The stage's display name.
    pub fn name(&self) -> &str {
        match self {
            StageSpec::Compute { name } => name,
            StageSpec::Transfer { name, .. } => name,
        }
    }
}

/// One item's passage through the pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ItemResult {
    /// Arrival time at the pipeline entrance (seconds).
    pub arrival: f64,
    /// Completion time at the last stage (seconds).
    pub completion: f64,
}

/// Aggregate outcome of a pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// Per-stage busy seconds.
    pub stage_busy_secs: Vec<f64>,
    /// Per-stage item counts (items that did not `Skip` the stage).
    pub stage_items: Vec<u64>,
    /// Per-stage transferred bytes (compute stages report 0).
    pub stage_bytes: Vec<u64>,
    /// Time the last item completed.
    pub makespan_secs: f64,
    /// Number of items pushed through.
    pub items: u64,
}

impl PipelineReport {
    /// Items per second of simulated wall-clock (the paper's Fig 4 metric:
    /// total frames / total time).
    pub fn throughput(&self, total_items: u64) -> f64 {
        if self.makespan_secs <= 0.0 {
            0.0
        } else {
            total_items as f64 / self.makespan_secs
        }
    }
}

/// A linear pipeline of FIFO single-server stages.
#[derive(Debug, Clone)]
pub struct Pipeline {
    stages: Vec<StageSpec>,
    free_at: Vec<f64>,
    report: PipelineReport,
}

impl Pipeline {
    /// Builds a pipeline from stage specs.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty.
    pub fn new(stages: Vec<StageSpec>) -> Self {
        assert!(!stages.is_empty(), "pipeline needs at least one stage");
        let n = stages.len();
        Self {
            stages,
            free_at: vec![0.0; n],
            report: PipelineReport {
                stage_busy_secs: vec![0.0; n],
                stage_items: vec![0; n],
                stage_bytes: vec![0; n],
                makespan_secs: 0.0,
                items: 0,
            },
        }
    }

    /// The stage specs.
    pub fn stages(&self) -> &[StageSpec] {
        &self.stages
    }

    /// Pushes one item through the pipeline.
    ///
    /// `work[i]` describes the item's demand on stage `i`. The item visits
    /// stages in order; `Skip` stages are passed through instantly.
    ///
    /// # Panics
    ///
    /// Panics if `work.len()` differs from the stage count.
    pub fn submit(&mut self, arrival: f64, work: &[StepWork]) -> ItemResult {
        assert_eq!(work.len(), self.stages.len(), "work/stage length mismatch");
        let mut t = arrival;
        for (i, w) in work.iter().enumerate() {
            let service = match (w, &self.stages[i]) {
                (StepWork::Skip, _) => continue,
                (StepWork::Compute { secs }, StageSpec::Compute { .. }) => *secs,
                (
                    StepWork::Transfer { bytes },
                    StageSpec::Transfer {
                        bandwidth_bps,
                        latency_secs,
                        ..
                    },
                ) => {
                    self.report.stage_bytes[i] += bytes;
                    (*bytes as f64 * 8.0) / bandwidth_bps + latency_secs
                }
                (w, s) => panic!("work kind {:?} does not match stage '{}'", w, s.name()),
            };
            let start = t.max(self.free_at[i]);
            let finish = start + service;
            self.free_at[i] = finish;
            self.report.stage_busy_secs[i] += service;
            self.report.stage_items[i] += 1;
            t = finish;
        }
        self.report.items += 1;
        self.report.makespan_secs = self.report.makespan_secs.max(t);
        ItemResult {
            arrival,
            completion: t,
        }
    }

    /// The aggregate report so far.
    pub fn report(&self) -> &PipelineReport {
        &self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_stage() -> Pipeline {
        Pipeline::new(vec![
            StageSpec::Compute {
                name: "decode".into(),
            },
            StageSpec::Transfer {
                name: crate::topology::WAN_STAGE.into(),
                bandwidth_bps: 8e6, // 1 MB/s
                latency_secs: 0.0,
            },
        ])
    }

    #[test]
    fn single_item_latency_is_sum_of_services() {
        let mut p = two_stage();
        let r = p.submit(
            0.0,
            &[
                StepWork::Compute { secs: 0.5 },
                StepWork::Transfer { bytes: 1_000_000 },
            ],
        );
        assert!((r.completion - 1.5).abs() < 1e-9);
    }

    #[test]
    fn fifo_queueing_at_bottleneck() {
        let mut p = two_stage();
        // Two items arrive together; stage 0 takes 1s each, so the second
        // finishes stage 0 at t=2.
        let work = [
            StepWork::Compute { secs: 1.0 },
            StepWork::Transfer { bytes: 0 },
        ];
        let r1 = p.submit(0.0, &work);
        let r2 = p.submit(0.0, &work);
        assert!((r1.completion - 1.0).abs() < 1e-9);
        assert!((r2.completion - 2.0).abs() < 1e-9);
    }

    #[test]
    fn pipelining_overlaps_stages() {
        let mut p = two_stage();
        // Stage 0: 1s, stage 1: 1s. Two items: total 3s (pipelined), not 4.
        let work = [
            StepWork::Compute { secs: 1.0 },
            StepWork::Transfer { bytes: 1_000_000 },
        ];
        p.submit(0.0, &work);
        let r2 = p.submit(0.0, &work);
        assert!((r2.completion - 3.0).abs() < 1e-9);
    }

    #[test]
    fn skip_stages_cost_nothing() {
        let mut p = two_stage();
        let r = p.submit(2.0, &[StepWork::Skip, StepWork::Skip]);
        assert_eq!(r.completion, 2.0);
        assert_eq!(p.report().stage_items, vec![0, 0]);
        assert_eq!(p.report().items, 1);
    }

    #[test]
    fn report_accumulates_bytes_and_busy_time() {
        let mut p = two_stage();
        for i in 0..4 {
            p.submit(
                i as f64,
                &[
                    StepWork::Compute { secs: 0.1 },
                    StepWork::Transfer { bytes: 500_000 },
                ],
            );
        }
        let rep = p.report();
        assert_eq!(rep.stage_bytes[1], 2_000_000);
        assert!((rep.stage_busy_secs[0] - 0.4).abs() < 1e-9);
        assert_eq!(rep.items, 4);
        assert!(rep.throughput(4) > 0.0);
    }

    #[test]
    #[should_panic(expected = "does not match stage")]
    fn mismatched_work_kind_panics() {
        let mut p = two_stage();
        p.submit(0.0, &[StepWork::Transfer { bytes: 1 }, StepWork::Skip]);
    }

    #[test]
    fn throughput_matches_bottleneck_rate() {
        let mut p = two_stage();
        // 100 items, bottleneck = stage 0 at 10ms -> ~100 items/s.
        for _ in 0..100 {
            p.submit(
                0.0,
                &[
                    StepWork::Compute { secs: 0.01 },
                    StepWork::Transfer { bytes: 1000 },
                ],
            );
        }
        let tput = p.report().throughput(100);
        assert!((tput - 100.0).abs() / 100.0 < 0.1, "throughput {tput}");
    }
}
