//! The closed loop's unit of work: one campaign, set up, run op by op,
//! and carried to a checked verdict.

use crate::spans::Tracer;
use std::time::Instant;
use tscache_core::prng::mix64;

/// Reads the host clock. Host time is what this benchmark measures.
pub fn now() -> Instant {
    #[allow(clippy::disallowed_methods)]
    Instant::now()
}

/// Nanoseconds since `start`.
pub fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The inputs of campaign slot `slot` of a run seeded `seed`: the
/// workload's generated inputs depend on nothing else.
pub fn sub_seed(seed: u64, slot: usize) -> u64 {
    mix64(seed ^ mix64(0xca3b_a16e ^ slot as u64))
}

/// What running one campaign produced, with its phase timings.
#[derive(Debug, Clone)]
pub struct Outcome<V> {
    /// Ops attempted (samples, measured runs, or shards).
    pub ops: u64,
    /// Ops that failed (typed configuration errors, quarantined or
    /// retried shards).
    pub failed: u64,
    /// Host ns from the first op to the last.
    pub op_ns: u64,
    /// Host ns from the last op to the checked verdict (analysis, or
    /// report and digest).
    pub verdict_ns: u64,
    /// FNV-1a over every simulated output of the campaign.
    pub digest: u64,
    /// The simulated verdict the workload's check inspects.
    pub verdict: V,
}

/// One of the benchmark's workloads.
pub trait Campaign {
    /// Built inputs: everything that exists before the first timed op.
    type Inputs;
    /// Per-campaign verdict for [`Campaign::check`].
    type Verdict: Clone;

    /// Distinct input sets per run; campaign `i` reuses slot
    /// `i % DISTINCT`.
    const DISTINCT: usize;

    /// What one op is, and the input size, for the report.
    fn describe(&self) -> String;

    /// Builds the inputs of one campaign (the `setup_s` phase).
    fn setup(&self, sub_seed: u64, t: &mut Tracer, op: u64) -> Result<Self::Inputs, String>;

    /// Runs the campaign's ops and carries them to a verdict.
    fn run(
        &self,
        inputs: Self::Inputs,
        t: &mut Tracer,
        op: u64,
    ) -> Result<Outcome<Self::Verdict>, String>;

    /// Checks the verdicts of the run's distinct campaigns.
    fn check(&self, verdicts: &[Self::Verdict]) -> Result<(), String>;

    /// Describes the simulated results of the run's distinct campaigns.
    fn report(&self, verdicts: &[Self::Verdict]) -> Vec<String>;
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric `name` = `value` `unit`.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric { name: name.into(), value, unit }
    }
}
