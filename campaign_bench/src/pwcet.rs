//! `pwcet`: the Fig. 1 MBPTA campaign on TSCache. The multipath
//! control task runs under the paper's protocol — fresh placement
//! seed and flush before every run — so every run starts with a cold
//! placement memo and Random Modulo's permutation network dominates.
//! Then [`analyze`] validates i.i.d. and fits the pWCET curve.

use crate::campaign::{now, ns_since, Campaign, Outcome};
use crate::checks::{check_pwcet, PwcetVerdict};
use crate::spans::Tracer;
use tscache_core::prng::{mix64, SplitMix64};
use tscache_core::seed::{ProcessId, Seed};
use tscache_core::setup::SetupKind;
use tscache_fleet::digest::Fnv64;
use tscache_mbpta::analysis::{analyze, MbptaAnalysis, MbptaConfig};
use tscache_sim::layout::Layout;
use tscache_sim::machine::Machine;
use tscache_sim::synthetic::MultipathTask;
use tscache_sim::workload::{collect_execution_times, MeasurementProtocol, Workload};

/// Measured runs per campaign (the MBPTA sample size of Fig. 1).
pub const RUNS: u32 = 1000;

/// The per-run exceedance probability the paper quotes pWCET at.
pub const EXCEEDANCE: f64 = 1e-10;

/// The measured platform.
pub const SETUP: SetupKind = SetupKind::TsCache;

/// One campaign's inputs: the task (its decision vector drawn from the
/// seed) and the measurement protocol (its placement-seed stream
/// rooted at the seed).
#[derive(Debug)]
pub struct Inputs {
    task: MultipathTask,
    protocol: MeasurementProtocol,
}

impl Inputs {
    /// The task, for replaying its op stream elsewhere.
    pub fn task_mut(&mut self) -> &mut MultipathTask {
        &mut self.task
    }
}

/// Builds the standard multipath task (256 steps over 6 one-page
/// paths) with a seed-drawn decision vector, and its protocol.
pub fn inputs(sub_seed: u64) -> Result<Inputs, String> {
    let mut layout = Layout::new(0x10_0000);
    let code = layout.alloc("mp.code", 1024, 32);
    let data = layout.alloc("mp.data", 6 * 4096, 4096);
    let task = MultipathTask::new(code, data, 256, 6, mix64(sub_seed ^ 0x7a5c));
    let protocol = MeasurementProtocol {
        runs: RUNS,
        rng_seed: mix64(sub_seed ^ 0x5eed),
        ..Default::default()
    };
    protocol.validate().map_err(|e| e.to_string())?;
    Ok(Inputs { task, protocol })
}

/// Collects one campaign's execution times through the library's
/// protocol loop.
pub fn collect(inputs: &mut Inputs) -> Vec<u64> {
    collect_execution_times(SETUP, &mut inputs.task, &inputs.protocol)
}

/// The same protocol, spelled out call by call so each step can carry
/// a span: build the machine, then per run `set_process_seed`,
/// `flush_caches`, `reset_counters` and `Workload::run`. It must return
/// exactly what [`collect`] returns (checked before spans are taken).
pub fn collect_stepwise(inputs: &mut Inputs, t: &mut Tracer, op: u64) -> Vec<u64> {
    let protocol = &inputs.protocol;
    let span = t.open("machine.build", op);
    let mut machine = Machine::from_setup_depth(
        protocol.defense.effective_setup(SETUP),
        protocol.depth,
        protocol.rng_seed,
    );
    machine.apply_defense(protocol.defense);
    t.close(span);
    let pid = ProcessId::new(1);
    machine.set_process(pid);
    let mut rng = SplitMix64::new(protocol.rng_seed ^ 0x6d65_6173);
    let mut times = Vec::with_capacity(protocol.runs as usize);
    for _ in 0..protocol.runs {
        let run = t.open("pwcet.run", op);
        let span = t.open("machine.reseed", op);
        machine.set_process_seed(pid, Seed::random(&mut rng));
        t.close(span);
        let span = t.open("machine.flush", op);
        machine.flush_caches();
        t.close(span);
        machine.reset_counters();
        let span = t.open("workload.run", op);
        inputs.task.run(&mut machine);
        t.close(span);
        times.push(machine.cycles());
        t.close(run);
    }
    times
}

/// The MBPTA verdict of one campaign.
pub fn verdict(a: &MbptaAnalysis) -> PwcetVerdict {
    PwcetVerdict {
        iid_passed: a.is_mbpta_valid(),
        pwcet: a.pwcet(EXCEEDANCE),
        observed_max: a.summary.max,
    }
}

/// The Fig. 1 workload.
#[derive(Debug)]
pub struct Pwcet;

impl Campaign for Pwcet {
    type Inputs = Inputs;
    type Verdict = PwcetVerdict;

    const DISTINCT: usize = 32;

    fn describe(&self) -> String {
        format!(
            "op = one measured task run; {RUNS} runs of the multipath task on {SETUP} per \
             campaign (reseed + flush each), then MBPTA"
        )
    }

    fn setup(&self, sub_seed: u64, _t: &mut Tracer, _op: u64) -> Result<Inputs, String> {
        inputs(sub_seed)
    }

    fn run(
        &self,
        mut inputs: Inputs,
        t: &mut Tracer,
        op: u64,
    ) -> Result<Outcome<PwcetVerdict>, String> {
        let start = now();
        let times =
            if t.is_on() { collect_stepwise(&mut inputs, t, op) } else { collect(&mut inputs) };
        let op_ns = ns_since(start);
        let span = t.open("mbpta.analyze", op);
        let analysis = analyze(&times, &MbptaConfig::default());
        t.close(span);
        let v = verdict(&analysis);
        let mut h = Fnv64::new();
        for &c in &times {
            h.write_u64(c);
        }
        h.write_f64(analysis.iid.ljung_box.p_value).write_f64(analysis.iid.ks.p_value);
        h.write_f64(v.pwcet).write(&[v.iid_passed as u8]);
        let verdict_ns = ns_since(start) - op_ns;
        Ok(Outcome {
            ops: times.len() as u64,
            failed: 0,
            op_ns,
            verdict_ns,
            digest: h.finish(),
            verdict: v,
        })
    }

    fn check(&self, verdicts: &[PwcetVerdict]) -> Result<(), String> {
        check_pwcet(verdicts)
    }

    fn report(&self, verdicts: &[PwcetVerdict]) -> Vec<String> {
        let pwcets: Vec<f64> = verdicts.iter().map(|v| v.pwcet).collect();
        let passed = verdicts.iter().filter(|v| v.iid_passed).count();
        let mut lines = vec![format!(
            "pwcet_cycles (simulated): pWCET@1e-10 median {:.0} cycles over {} campaigns; \
             i.i.d. passed in {passed} of them",
            crate::stats::median(&pwcets),
            verdicts.len()
        )];
        if let Some(v) = verdicts.first() {
            lines.push(format!(
                "  campaign 0: pWCET@1e-10 {:.0} cycles, observed max {:.0}, i.i.d. {}",
                v.pwcet,
                v.observed_max,
                if v.iid_passed { "passed" } else { "rejected" }
            ));
        }
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::sub_seed;

    #[test]
    fn seed_changes_task_and_placement_seeds() {
        let a = inputs(sub_seed(1, 0)).expect("valid protocol");
        let b = inputs(sub_seed(2, 0)).expect("valid protocol");
        assert_ne!(a.protocol.rng_seed, b.protocol.rng_seed);
        // Different decision vectors change the job's memory stream.
        let (mut a, mut b) = (a, b);
        let run = |i: &mut Inputs| {
            let mut m = Machine::from_setup(SetupKind::Deterministic, 1);
            m.enable_trace();
            i.task.run(&mut m);
            m.take_trace().iter().map(|e| e.addr.as_u64()).collect::<Vec<_>>()
        };
        assert_ne!(run(&mut a), run(&mut b));
    }

    #[test]
    fn stepwise_protocol_reproduces_the_library_loop() {
        let mut a = inputs(sub_seed(3, 0)).expect("valid protocol");
        a.protocol.runs = 40;
        let mut b = inputs(sub_seed(3, 0)).expect("valid protocol");
        b.protocol.runs = 40;
        assert_eq!(collect(&mut a), collect_stepwise(&mut b, &mut Tracer::off(), 0));
    }
}
