//! Campaign benchmark for the tscache simulator.
//!
//! Runs one workload as a closed loop — one campaign after another
//! from this process, with the simulator's thread count (`nproc`
//! unless `RAYON_NUM_THREADS`/`TSCACHE_THREADS` say otherwise) — for
//! `--seconds`, checks every campaign's simulated verdict, and prints
//! the end-to-end metrics; with `--trace 1` it instead makes the
//! traced run that reports the per-layer metrics.
//!
//! ```text
//! cargo run --offline --release --manifest-path campaign_bench/Cargo.toml -- \
//!     --workload <pwcet|fleet> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the root of the simulator's source tree. The last line
//! of standard output is a JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. Temporary campaign directories
//! go under `.bench_tmp/` and the traced run's spans to `.bench_out/`.

mod bernstein;
mod campaign;
mod checks;
mod fleet;
mod host;
mod ladder;
mod profile;
mod pwcet;
mod spans;
mod stats;

use campaign::{now, ns_since, sub_seed, Campaign, Metric, Outcome};
use spans::Tracer;
use stats::Timing;
use std::path::Path;
use std::process::ExitCode;
use tscache_fleet::digest::Fnv64;

/// Extra set-ups timed after each campaign, so `setup_s` is a median
/// of many samples spread over the whole run like the campaigns.
const EXTRA_SETUPS: usize = 8;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Fig. 1 MBPTA campaign on TSCache.
    Pwcet,
    /// The smoke sweep through the fleet executor.
    Fleet,
}

impl Workload {
    const ALL: [Workload; 2] = [Workload::Pwcet, Workload::Fleet];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Pwcet => "pwcet",
            Workload::Fleet => "fleet",
        }
    }
}

/// Parsed command line.
#[derive(Debug, PartialEq, Eq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag} {value}: not a number"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// A finished run: what to print and the JSON result.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    sim_digest: u64,
    lines: Vec<String>,
}

/// Runs `f`, appending its host time in seconds to `samples`.
fn timed<T>(samples: &mut Vec<f64>, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    let start = now();
    let out = f()?;
    samples.push(ns_since(start) as f64 / 1e9);
    Ok(out)
}

/// The closed loop: campaigns until `seconds` pass and every distinct
/// input slot ran once.
fn timed_run<C: Campaign>(c: &C, seed: u64, seconds: u64) -> Result<Report, String> {
    let mut lines = vec![format!("input: {}", c.describe())];
    let off = &mut Tracer::off();
    let start = now();
    let mut setups = Vec::new();
    let mut outcomes: Vec<Outcome<C::Verdict>> = Vec::new();
    while outcomes.len() < C::DISTINCT || ns_since(start) < seconds * 1_000_000_000 {
        let op = outcomes.len() as u64;
        let slot = sub_seed(seed, outcomes.len() % C::DISTINCT);
        let inputs = timed(&mut setups, || c.setup(slot, off, op))?;
        outcomes.push(c.run(inputs, off, op)?);
        for _ in 0..EXTRA_SETUPS {
            drop(timed(&mut setups, || c.setup(slot, off, op))?);
        }
    }

    let campaigns: Vec<f64> =
        outcomes.iter().map(|o| (o.op_ns + o.verdict_ns) as f64 / 1e9).collect();
    let (setup, campaign) = (Timing::of(&setups), Timing::of(&campaigns));
    let attempted: u64 = outcomes.iter().map(|o| o.ops).sum();
    let failed: u64 = outcomes.iter().map(|o| o.failed).sum();
    // Throughput over the whole timed phase: host drift comes in slow
    // regimes, which a run-long ratio averages and a median does not.
    let op_secs = outcomes.iter().map(|o| o.op_ns).sum::<u64>() as f64 / 1e9;
    let rate = attempted as f64 / op_secs;
    let rss = host::peak_rss_mb().ok_or("cannot read the peak resident set size")?;
    lines.push(format!("campaigns: {} ({} distinct input slots)", outcomes.len(), C::DISTINCT));
    lines.push(format!("setup_s: {setup} s"));
    lines.push(format!("ops_per_s: {rate:.3} ops/s over {op_secs:.3} s of ops"));
    lines.push(format!("campaign_s: {campaign} s"));
    lines.push(format!("peak_rss_mb: {rss:.1} MiB"));
    lines.push(format!(
        "failed_frac: {failed}/{attempted} = {:.6}",
        failed as f64 / attempted.max(1) as f64
    ));

    let digests: Vec<u64> = outcomes.iter().map(|o| o.digest).collect();
    let distinct: Vec<C::Verdict> =
        outcomes.iter().take(C::DISTINCT).map(|o| o.verdict.clone()).collect();
    lines.extend(c.report(&distinct));
    let verdict = checks::check_repeats(&digests, C::DISTINCT).and_then(|()| c.check(&distinct));
    lines.push(match &verdict {
        Ok(()) => "checks: passed".to_string(),
        Err(e) => format!("checks: FAILED: {e}"),
    });
    let mut sim = Fnv64::new();
    for &d in digests.iter().take(C::DISTINCT) {
        sim.write_u64(d);
    }
    Ok(Report {
        correct: verdict.is_ok(),
        attempted,
        failed,
        metrics: vec![
            Metric::new("setup_s", setup.median, "s"),
            Metric::new("ops_per_s", rate, "1/s"),
            Metric::new("campaign_s", campaign.median, "s"),
            Metric::new("peak_rss_mb", rss, "MiB"),
        ],
        sim_digest: sim.finish(),
        lines,
    })
}

fn traced_run(args: &Args, fleet: &fleet::Fleet, out_dir: &Path) -> Result<Report, String> {
    let traced = profile::run(args.workload, args.seed, args.seconds, fleet)?;
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("spans-{}-{}.jsonl", args.workload.name(), args.seed));
    traced.tracer.write_jsonl(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut lines = traced.lines;
    lines.push(format!("spans: {} written to {}", traced.tracer.spans().len(), path.display()));
    Ok(Report {
        correct: traced.correct,
        attempted: traced.attempted,
        failed: traced.failed,
        metrics: traced.metrics,
        sim_digest: traced.sim_digest,
        lines,
    })
}

fn json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("campaign_bench: {e}");
            eprintln!(
                "usage: campaign_bench --workload <pwcet|fleet> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let root = match std::env::current_dir() {
        Ok(root) => root,
        Err(e) => {
            eprintln!("campaign_bench: no working directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "host: nproc {} threads {} profile {} commit {} source_digest {:#018x} calibration {:.1} Mop/s",
        host::nproc(),
        host::threads(),
        host::profile(),
        host::commit(&root),
        host::source_digest(&root),
        host::calibration_mops()
    );
    println!(
        "workload: {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );

    let tmp_root = root.join(".bench_tmp");
    let tmp = tmp_root.join(format!("run-{}", std::process::id()));
    let fleet = fleet::Fleet::new(tmp.clone(), host::threads());
    let result = if args.trace {
        traced_run(&args, &fleet, &root.join(".bench_out"))
    } else {
        match args.workload {
            Workload::Pwcet => timed_run(&pwcet::Pwcet, args.seed, args.seconds),
            Workload::Fleet => timed_run(&fleet, args.seed, args.seconds),
        }
    };
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(&tmp_root);

    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("campaign_bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(bad) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("campaign_bench: metric {} is not a finite number", bad.name);
        return ExitCode::FAILURE;
    }
    for line in &report.lines {
        println!("{line}");
    }
    println!("calibration at end: {:.1} Mop/s", host::calibration_mops());
    println!("sim_digest: {:#018x}", report.sim_digest);
    println!("{}", json(&report));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv("--workload pwcet --seed 7 --seconds 10 --trace 1"));
        assert_eq!(a, Ok(Args { workload: Workload::Pwcet, seed: 7, seconds: 10, trace: true }));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload fleet --seed x --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload fleet --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload fleet --seed 1 --seconds")).is_err());
        assert!(parse_args(&argv("--bogus 1")).is_err());
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric::new("setup_s", 0.25, "s")],
            sim_digest: 0,
            lines: Vec::new(),
        };
        assert_eq!(
            json(&r),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
