//! `fleet`: the smoke [`SweepSpec`] through the crash-safe executor,
//! with `nproc` workers, into a fresh campaign directory, then the
//! campaign report. Its shards are short and span every attack,
//! platform, contention setting and defense, so machine construction,
//! the interference, shared-LLC, coherence, TTL and RTOS paths, and the
//! JSONL/fsync/manifest write path all show here.

use crate::campaign::{now, ns_since, Campaign, Outcome};
use crate::checks::{check_fleet, FleetVerdict};
use crate::spans::Tracer;
use std::cell::Cell;
use std::path::{Path, PathBuf};
use tscache_fleet::digest::Fnv64;
use tscache_fleet::executor::{launch, CampaignResult, ExecutorConfig, RunOutcome};
use tscache_fleet::fault::FaultPlan;
use tscache_fleet::report::write_campaign_report;
use tscache_fleet::spec::{ShardJob, SweepSpec};

/// The smoke sweep, reseeded from the campaign slot.
pub fn spec(sub_seed: u64) -> SweepSpec {
    SweepSpec { campaign_seed: sub_seed, ..SweepSpec::smoke() }
}

/// One campaign's inputs: the validated spec, its expansion, and the
/// fresh campaign directory.
#[derive(Debug)]
pub struct Inputs {
    /// The sweep.
    pub spec: SweepSpec,
    /// Its shard jobs.
    pub jobs: Vec<ShardJob>,
    /// The campaign directory (created, empty).
    pub dir: PathBuf,
}

/// A finished fleet campaign.
#[derive(Debug, Clone)]
pub struct FleetCampaign {
    /// Completion record for the check.
    pub verdict: FleetVerdict,
    /// Shard attempts that crashed and were retried.
    pub retries: u64,
    /// Bytes the campaign and its report left on disk.
    pub bytes_written: u64,
    /// The executor's bit-identity fingerprint.
    pub campaign_digest: u64,
}

/// The fleet workload; campaign directories go under `tmp`.
#[derive(Debug)]
pub struct Fleet {
    tmp: PathBuf,
    workers: usize,
    next_dir: Cell<u64>,
}

impl Fleet {
    /// A fleet workload running `workers` executor threads, with its
    /// campaign directories under `tmp`.
    pub fn new(tmp: PathBuf, workers: usize) -> Self {
        Fleet { tmp, workers, next_dir: Cell::new(0) }
    }

    /// Executor settings with `workers` threads.
    fn executor(workers: usize) -> ExecutorConfig {
        ExecutorConfig { workers, progress: false, ..ExecutorConfig::default() }
    }

    /// Runs `inputs` with `workers` executor threads, writes the
    /// report, and removes the campaign directory.
    pub fn run_campaign(
        inputs: &Inputs,
        workers: usize,
        t: &mut Tracer,
        op: u64,
    ) -> Result<Ran, String> {
        let ran = Self::launch_and_report(inputs, workers, t, op);
        let bytes_written = bytes_under(&inputs.dir);
        let _ = std::fs::remove_dir_all(&inputs.dir);
        ran.map(|ran| Ran { bytes_written, ..ran })
    }

    fn launch_and_report(
        inputs: &Inputs,
        workers: usize,
        t: &mut Tracer,
        op: u64,
    ) -> Result<Ran, String> {
        let start = now();
        let span = t.open("fleet.launch", op);
        let outcome =
            launch(&inputs.spec, &inputs.dir, &Self::executor(workers), &FaultPlan::none());
        t.close(span);
        let launch_ns = ns_since(start);
        let result = match outcome.map_err(|e| e.to_string())? {
            RunOutcome::Finished(result) => result,
            RunOutcome::Killed { records_durable } => {
                return Err(format!("fleet: halted with {records_durable} records, no fault armed"))
            }
        };
        let span = t.open("fleet.report", op);
        let report = write_campaign_report(&inputs.spec, &inputs.dir);
        t.close(span);
        let report = report.map_err(|e| e.to_string())?;
        let digests = std::fs::read(report.join("digests.txt"))
            .map_err(|e| format!("{}: {e}", report.display()))?;
        let mut h = Fnv64::new();
        h.write_u64(result.campaign_digest);
        for s in &result.scenarios {
            h.write(s.key.as_bytes()).write_u64(s.digest);
            h.write_f64(s.pwcet.unwrap_or(f64::NAN));
        }
        h.write(&digests);
        let report_ns = ns_since(start) - launch_ns;
        Ok(Ran { result, digest: h.finish(), launch_ns, report_ns, bytes_written: 0 })
    }
}

/// A fleet campaign that ran to its report.
#[derive(Debug)]
pub struct Ran {
    /// The executor's merged result.
    pub result: CampaignResult,
    /// FNV-1a over the result's digests and the report's `digests.txt`.
    pub digest: u64,
    /// Host ns in `launch`.
    pub launch_ns: u64,
    /// Host ns writing the report.
    pub report_ns: u64,
    /// Bytes the campaign and its report left on disk.
    pub bytes_written: u64,
}

/// Total size of the regular files under `dir`.
fn bytes_under(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => bytes_under(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

impl Campaign for Fleet {
    type Inputs = Inputs;
    type Verdict = FleetCampaign;

    const DISTINCT: usize = 2;

    fn describe(&self) -> String {
        let shards = spec(0).jobs().map_or(0, |j| j.len());
        format!(
            "op = one committed shard; the smoke sweep ({shards} shards) per campaign on {} \
             executor workers, then the campaign report",
            self.workers
        )
    }

    /// Expands the spec and creates the campaign directory.
    fn setup(&self, sub_seed: u64, t: &mut Tracer, op: u64) -> Result<Inputs, String> {
        let spec = spec(sub_seed);
        let span = t.open("fleet.expand", op);
        let jobs = spec.validate().and_then(|()| spec.jobs());
        t.close(span);
        let jobs = jobs.map_err(|e| e.to_string())?;
        let n = self.next_dir.get();
        self.next_dir.set(n + 1);
        let dir = self.tmp.join(format!("campaign-{n}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Inputs { spec, jobs, dir })
    }

    fn run(
        &self,
        inputs: Inputs,
        t: &mut Tracer,
        op: u64,
    ) -> Result<Outcome<FleetCampaign>, String> {
        let Ran { result, digest, launch_ns, report_ns, bytes_written } =
            Self::run_campaign(&inputs, self.workers, t, op)?;
        let quarantined = result.quarantined.len();
        let verdict = FleetCampaign {
            verdict: FleetVerdict {
                shards_expected: result.shards_expected,
                shards_completed: result.shards_completed,
                quarantined,
            },
            retries: result.accounting.retries,
            bytes_written,
            campaign_digest: result.campaign_digest,
        };
        Ok(Outcome {
            ops: inputs.jobs.len() as u64,
            failed: quarantined as u64 + result.accounting.retries,
            op_ns: launch_ns,
            verdict_ns: report_ns,
            digest,
            verdict,
        })
    }

    fn check(&self, verdicts: &[FleetCampaign]) -> Result<(), String> {
        verdicts.iter().try_for_each(|v| check_fleet(&v.verdict))
    }

    fn report(&self, verdicts: &[FleetCampaign]) -> Vec<String> {
        verdicts
            .iter()
            .enumerate()
            .map(|(i, v)| {
                format!(
                    "fleet campaign {i} (simulated): {}/{} shards, {} quarantined, {} retries, \
                     {} bytes written, campaign digest {:#018x}",
                    v.verdict.shards_completed,
                    v.verdict.shards_expected,
                    v.verdict.quarantined,
                    v.retries,
                    v.bytes_written,
                    v.campaign_digest
                )
            })
            .collect()
    }
}
