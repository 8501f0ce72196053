//! The traced run: per-layer metrics, separate from the timed runs.
//!
//! It first checks that the span-carrying Bernstein and pWCET paths
//! reproduce the library's untraced results exactly, then profiles the
//! fleet, the Fig. 5 Bernstein campaign (over every input slot, where
//! its verdict is checked) and the pWCET campaign with spans around
//! every layer call the benchmark makes, runs the layer ladder on the
//! named workload's op stream, and finally alternates untraced and
//! traced campaigns of the named workload to measure what tracing
//! costs. Every traced run reports every layer, so the metric set is
//! the same whichever workload is named.

use crate::bernstein::{self, Pair};
use crate::campaign::{now, ns_since, sub_seed, Campaign, Metric};
use crate::checks::{check_bernstein, check_fleet, FleetVerdict};
use crate::fleet::{Fleet, Ran};
use crate::ladder::{self, AesInputs};
use crate::pwcet::{self, Pwcet};
use crate::spans::{self_ns, Tracer};
use crate::stats::{median, quantile_sorted, sorted, Timing};
use crate::Workload;
use tscache_core::setup::SetupKind;
use tscache_fleet::digest::Fnv64;
use tscache_fleet::job::run_shard;
use tscache_fleet::spec::{AttackKind, ShardJob};
use tscache_mbpta::analysis::{analyze, MbptaConfig};
use tscache_sca::bernstein::run_attack;
use tscache_sca::sampling::TimingSample;

/// What a traced run produced.
#[derive(Debug)]
pub struct Traced {
    /// Whether the Fig. 5 verdict held over the profiled slots.
    pub correct: bool,
    /// Every per-layer metric.
    pub metrics: Vec<Metric>,
    /// FNV-1a over the simulated outputs of the profiled campaigns.
    pub sim_digest: u64,
    /// Ops attempted over every campaign the run made.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// Human-readable findings.
    pub lines: Vec<String>,
    /// Every span, for writing out.
    pub tracer: Tracer,
}

fn shard_span(attack: AttackKind) -> &'static str {
    match attack {
        AttackKind::Bernstein => "fleet.shard.bernstein",
        AttackKind::Pwcet => "fleet.shard.pwcet",
        AttackKind::PrimeProbe => "fleet.shard.prime-probe",
        AttackKind::FlushReload => "fleet.shard.flush-reload",
        AttackKind::Rtos => "fleet.shard.rtos",
    }
}

/// Checks, with spans off, that the decomposed paths reproduce the
/// library's one-call campaigns exactly.
fn check_equivalence(s0: u64) -> Result<(), String> {
    let mut a = pwcet::inputs(s0)?;
    let mut b = pwcet::inputs(s0)?;
    if pwcet::collect(&mut a) != pwcet::collect_stepwise(&mut b, &mut Tracer::off(), 0) {
        return Err("pwcet: the stepwise protocol diverged from collect_execution_times".into());
    }
    let off = &mut Tracer::off();
    let pairs = bernstein::collect(bernstein::build_nodes(s0, off, 0)?, off, 0);
    for attack in bernstein::analyze_all(&pairs, off, 0) {
        let reference = run_attack(bernstein::config(attack.setup, s0));
        if bernstein::attack_digest(&attack.result) != bernstein::attack_digest(&reference) {
            return Err(format!(
                "bernstein: {}: node-by-node path diverged from run_attack",
                attack.setup
            ));
        }
    }
    Ok(())
}

/// Runs every shard alone, in order; returns their total host ns and
/// FNV-1a over their result digests.
fn shard_sweep(jobs: &[ShardJob], t: &mut Tracer) -> Result<(u64, u64), String> {
    let (mut ns, mut h) = (0u64, Fnv64::new());
    for job in jobs {
        let span = t.open(shard_span(job.scenario.attack), 2);
        let start = now();
        let out = run_shard(job, true);
        ns += ns_since(start);
        t.close(span);
        h.write_u64(out.map_err(|e| format!("shard {}: {e}", job.shard))?.digest);
    }
    Ok((ns, h.finish()))
}

/// One fleet campaign through a one-worker executor, checked complete.
fn serial_campaign(fleet: &Fleet, s0: u64, t: &mut Tracer) -> Result<Ran, String> {
    let ran = Fleet::run_campaign(&fleet.setup(s0, t, 2)?, 1, t, 2)?;
    check_fleet(&FleetVerdict {
        shards_expected: ran.result.shards_expected,
        shards_completed: ran.result.shards_completed,
        quarantined: ran.result.quarantined.len(),
    })?;
    Ok(ran)
}

/// Runs the traced profile for `workload`.
pub fn run(workload: Workload, seed: u64, seconds: u64, fleet: &Fleet) -> Result<Traced, String> {
    let s0 = sub_seed(seed, 0);
    check_equivalence(s0)?;
    let mut lines = vec![
        "equivalence: stepwise pwcet protocol == collect_execution_times; node-by-node bernstein \
         == run_attack (all setups)"
            .to_string(),
    ];

    let mut t = Tracer::on(now());
    let mut metrics = Vec::new();
    let mut digest = Fnv64::new();
    let (mut attempted, mut failed) = (0u64, 0u64);

    // Fleet: every shard timed alone, and the same campaign through a
    // one-worker executor, whose excess over the shards is its own
    // cost. Sweep, launch, launch, sweep: the order cancels host drift
    // that changes linearly across the four, but the difference of
    // two ~7 s totals still carries the host's drift.
    let jobs = crate::fleet::spec(s0).jobs().map_err(|e| e.to_string())?;
    let (sweep_a, shards_digest) = shard_sweep(&jobs, &mut t)?;
    let first = serial_campaign(fleet, s0, &mut t)?;
    let second = serial_campaign(fleet, s0, &mut t)?;
    let (sweep_b, shards_again) = shard_sweep(&jobs, &mut t)?;
    if (second.digest, shards_again) != (first.digest, shards_digest) {
        return Err("fleet: a repeated campaign diverged on the same inputs".into());
    }
    digest.write_u64(shards_digest).write_u64(first.digest);
    attempted += 4 * jobs.len() as u64;
    let result = &first.result;
    failed += 2 * (result.quarantined.len() as u64 + result.accounting.retries);
    let (launch_a, launch_b) = (first.launch_ns, second.launch_ns);
    let executor_self = (launch_a + launch_b) as f64 / 2.0 - (sweep_a + sweep_b) as f64 / 2.0;
    lines.push(format!(
        "fleet one-worker: shard sweeps {:.3} s, {:.3} s; launches {:.3} s, {:.3} s",
        sweep_a as f64 / 1e9,
        sweep_b as f64 / 1e9,
        launch_a as f64 / 1e9,
        launch_b as f64 / 1e9
    ));
    metrics.push(Metric::new("fleet.executor_self_ms", executor_self / 1e6, "ms"));
    metrics.push(Metric::new("fleet.bytes_written", first.bytes_written as f64, "bytes"));
    metrics.push(Metric::new("fleet.retries", result.accounting.retries as f64, "count"));

    // Bernstein, node by node, on every input slot: its verdict is
    // statistical, so it is checked over all of them.
    let mut verdicts = Vec::with_capacity(bernstein::SLOTS);
    for slot in 0..bernstein::SLOTS {
        let op = 10 + slot as u64;
        let nodes = bernstein::build_nodes(sub_seed(seed, slot), &mut t, op)?;
        let pairs = bernstein::collect(nodes, &mut t, op);
        let attacks = bernstein::analyze_all(&pairs, &mut t, op);
        let (mut bytes, mut count) = (0usize, 0usize);
        for Pair { attacker: a, victim: v, .. } in &pairs {
            bytes += (a.capacity() + v.capacity()) * std::mem::size_of::<TimingSample>();
            count += a.len() + v.len();
        }
        attempted += count as u64;
        for attack in &attacks {
            digest.write_u64(bernstein::attack_digest(&attack.result));
        }
        if slot == 0 {
            let per_sample = bytes as f64 / count as f64;
            metrics.push(Metric::new("sampling.bytes_per_sample", per_sample, "bytes"));
            let tscache = attacks.iter().find(|a| a.setup == SetupKind::TsCache);
            let bits = tscache.map_or(f64::NAN, |a| a.result.bits_determined());
            metrics.push(Metric::new("bernstein.leaked_bits", bits, "bits"));
        }
        verdicts.push(attacks.iter().map(bernstein::verdict_row).collect::<Vec<_>>());
    }
    lines.extend(bernstein::report(&verdicts));
    let verdict = check_bernstein(&verdicts);
    lines.push(match &verdict {
        Ok(()) => "checks: passed".to_string(),
        Err(e) => format!("checks: FAILED: {e}"),
    });

    // pWCET, call by call.
    let mut inputs = pwcet::inputs(s0)?;
    let times = pwcet::collect_stepwise(&mut inputs, &mut t, 1);
    let span = t.open("mbpta.analyze", 1);
    let analysis = analyze(&times, &MbptaConfig::default());
    t.close(span);
    attempted += times.len() as u64;
    for &c in &times {
        digest.write_u64(c);
    }
    metrics.push(Metric::new("mbpta.pwcet_cycles", analysis.pwcet(pwcet::EXCEEDANCE), "cycles"));

    // The ladder, on the named workload's own op stream.
    let aes = AesInputs::new(s0);
    let stream = match workload {
        Workload::Pwcet => ladder::multipath_stream(s0)?,
        Workload::Fleet => [aes.stream(), ladder::multipath_stream(s0)?].concat(),
    };
    lines.push(format!("ladder: {} ops of the {} op stream", stream.len(), workload.name()));
    ladder::run(&stream, &aes, s0, &mut metrics);

    // What tracing costs: untraced and traced campaigns alternate for
    // half the run's seconds, which keeps a traced run under two minutes.
    let half = seconds.div_ceil(2);
    let (overhead, loop_ops, loop_failed) = match workload {
        Workload::Pwcet => overhead(&Pwcet, s0, half, &mut t, None)?,
        Workload::Fleet => overhead(fleet, s0, half, &mut t, Some(first.digest))?,
    };
    attempted += loop_ops;
    failed += loop_failed;
    lines.push(format!(
        "trace overhead: traced campaign_s / untraced campaign_s - 1 = {overhead:.4}; traced and \
         untraced campaigns reproduced each other bit for bit"
    ));
    metrics.push(Metric::new("trace.overhead_frac", overhead, "frac"));

    span_metrics(&t, &mut metrics, &mut lines);
    metrics.push(Metric::new("host.calibration_mops", crate::host::calibration_mops(), "Mop/s"));
    Ok(Traced {
        correct: verdict.is_ok(),
        metrics,
        sim_digest: digest.finish(),
        attempted,
        failed,
        lines,
        tracer: t,
    })
}

/// Alternates untraced and traced campaigns on slot-0 inputs until
/// `seconds` pass (at least two pairs); every campaign must produce
/// the same digest (and `expect`, when given). Returns the traced
/// campaign_s over the untraced one, minus one, with ops and failures.
fn overhead<C: Campaign>(
    c: &C,
    s0: u64,
    seconds: u64,
    t: &mut Tracer,
    expect: Option<u64>,
) -> Result<(f64, u64, u64), String> {
    let start = now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut ops, mut failed) = (0, 0);
    let mut digest = expect;
    let mut pair = 0u64;
    while pair < 2 || ns_since(start) < seconds * 1_000_000_000 {
        for tracing in [false, true] {
            let mut off = Tracer::off();
            let tr = if tracing { &mut *t } else { &mut off };
            let op = 100 + pair;
            let inputs = c.setup(s0, tr, op)?;
            let out = c.run(inputs, tr, op)?;
            if *digest.get_or_insert(out.digest) != out.digest {
                return Err(format!(
                    "traced and untraced campaigns diverged on the same inputs (pair {pair})"
                ));
            }
            ops += out.ops;
            failed += out.failed;
            let secs = (out.op_ns + out.verdict_ns) as f64 / 1e9;
            if tracing {
                traced.push(secs)
            } else {
                plain.push(secs)
            }
        }
        pair += 1;
    }
    Ok((median(&traced) / median(&plain) - 1.0, ops, failed))
}

/// Per-layer times from the spans: each layer's self time.
fn span_metrics(t: &Tracer, out: &mut Vec<Metric>, lines: &mut Vec<String>) {
    let spans = t.spans();
    let med = |name: &str| median(&self_ns(spans, name));
    out.push(Metric::new("sampling.build_us", med("sampling.build") / 1e3, "us"));
    out.push(Metric::new(
        "sampling.collect_us_per_sample",
        med("sampling.collect") / bernstein::SAMPLES_PER_NODE as f64 / 1e3,
        "us",
    ));
    out.push(Metric::new("bernstein.analyze_ms", med("bernstein.analyze") / 1e6, "ms"));
    out.push(Metric::new("machine.reseed_us", med("machine.reseed") / 1e3, "us"));
    out.push(Metric::new("machine.flush_us", med("machine.flush") / 1e3, "us"));
    let run = Timing::of(&self_ns(spans, "workload.run"));
    out.push(Metric::new("workload.run_us.p50", run.median / 1e3, "us"));
    out.push(Metric::new("workload.run_us.tail", run.tail_or_median() / 1e3, "us"));
    lines.push(format!("workload.run_us: {} (ns)", run));
    out.push(Metric::new("mbpta.analyze_ms", med("mbpta.analyze") / 1e6, "ms"));
    out.push(Metric::new("fleet.expand_ms", med("fleet.expand") / 1e6, "ms"));
    out.push(Metric::new("fleet.report_ms", med("fleet.report") / 1e6, "ms"));
    let shard_names = AttackKind::ALL.map(shard_span);
    let shards: Vec<f64> = shard_names.iter().flat_map(|n| self_ns(spans, n)).collect();
    let shards = sorted(&shards);
    out.push(Metric::new("fleet.shard_ms_p50", quantile_sorted(&shards, 0.5) / 1e6, "ms"));
    out.push(Metric::new("fleet.shard_ms_p95", quantile_sorted(&shards, 0.95) / 1e6, "ms"));
    for name in shard_names {
        let metric = name.replace("fleet.shard.", "fleet.shard_ms.");
        out.push(Metric::new(metric, med(name) / 1e6, "ms"));
    }
}
