//! Correctness checks on each workload's simulated outputs. A violated
//! check fails the run.
//!
//! Two of the paper's verdicts are statistical, so they are checked
//! over the run's distinct campaigns rather than one seed at a time:
//! at α = 0.05 the Ljung-Box and KS tests together reject about one
//! i.i.d. series in ten, and the Bernstein analysis's 4σ significance
//! gate passes a noise-only key byte about once in a hundred. A check
//! that demanded a clean result from every seed would fail healthy
//! runs; these allow the tests' own false-positive rates with a wide
//! margin and still fail when a mechanism is broken, which pushes the
//! rate towards one.

use tscache_core::setup::SetupKind;

/// Key bytes per AES-128 attack.
const KEY_BYTES: usize = 16;

/// Largest share of TSCache key bytes the gate may flag as
/// significant (noise floor ≈ 0.9%; a leaking setup flags a third or
/// more).
pub const TSCACHE_MAX_SIGNIFICANT_FRAC: f64 = 1.0 / 16.0;

/// Largest share of pWCET campaigns whose i.i.d. tests may reject
/// (noise floor ≈ 10%; a broken protocol rejects nearly all).
pub const MAX_IID_REJECT_FRAC: f64 = 5.0 / 16.0;

/// One setup's Bernstein attack outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetupVerdict {
    /// The attacked setup.
    pub setup: SetupKind,
    /// log₂ of the residual keyspace.
    pub residual_log2: f64,
    /// Key bytes whose correlation landscape passed the significance gate.
    pub significant_bytes: usize,
    /// Whether every true key byte stayed feasible.
    pub key_feasible: bool,
}

/// Checks the Fig. 5 verdict over the run's distinct campaigns: the
/// deterministic setup leaks in every campaign, no true key byte is
/// ever discarded, and TSCache's significant bytes stay at the
/// gate's false-positive floor.
pub fn check_bernstein(campaigns: &[Vec<SetupVerdict>]) -> Result<(), String> {
    if campaigns.is_empty() {
        return Err("bernstein: no campaign ran".into());
    }
    let mut tscache_flagged = 0usize;
    for (i, rows) in campaigns.iter().enumerate() {
        let find = |setup| {
            rows.iter()
                .find(|v| v.setup == setup)
                .ok_or_else(|| format!("bernstein: campaign {i} has no {setup} result"))
        };
        let det = find(SetupKind::Deterministic)?;
        if det.residual_log2 >= 128.0 {
            return Err(format!(
                "bernstein: campaign {i}: the deterministic setup did not leak (residual 2^{:.1})",
                det.residual_log2
            ));
        }
        if let Some(v) = rows.iter().find(|v| !v.key_feasible) {
            return Err(format!("bernstein: campaign {i}: {} discarded a true key byte", v.setup));
        }
        tscache_flagged += find(SetupKind::TsCache)?.significant_bytes;
    }
    let tested = campaigns.len() * KEY_BYTES;
    if tscache_flagged as f64 > TSCACHE_MAX_SIGNIFICANT_FRAC * tested as f64 {
        return Err(format!(
            "bernstein: TSCache leaked: {tscache_flagged} of {tested} key bytes significant \
             (at most {:.0}% allowed)",
            100.0 * TSCACHE_MAX_SIGNIFICANT_FRAC
        ));
    }
    Ok(())
}

/// One pWCET campaign's MBPTA outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PwcetVerdict {
    /// Whether both i.i.d. tests passed at α = 0.05.
    pub iid_passed: bool,
    /// pWCET at 10⁻¹⁰ per run, in cycles.
    pub pwcet: f64,
    /// Largest observed execution time, in cycles.
    pub observed_max: f64,
}

/// Checks the Fig. 1 verdict over the run's distinct campaigns: each
/// pWCET bounds its observed maximum, and the i.i.d. tests reject no
/// more often than their false-positive rate allows.
pub fn check_pwcet(campaigns: &[PwcetVerdict]) -> Result<(), String> {
    if campaigns.is_empty() {
        return Err("pwcet: no campaign ran".into());
    }
    for (i, v) in campaigns.iter().enumerate() {
        if !(v.pwcet.is_finite() && v.pwcet >= v.observed_max) {
            return Err(format!(
                "pwcet: campaign {i}: pWCET {:.0} below the observed maximum {:.0}",
                v.pwcet, v.observed_max
            ));
        }
    }
    let rejected = campaigns.iter().filter(|v| !v.iid_passed).count();
    if rejected as f64 > MAX_IID_REJECT_FRAC * campaigns.len() as f64 {
        return Err(format!(
            "pwcet: i.i.d. tests rejected {rejected} of {} campaigns (at most {:.0}% allowed)",
            campaigns.len(),
            100.0 * MAX_IID_REJECT_FRAC
        ));
    }
    Ok(())
}

/// One fleet campaign's completion record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetVerdict {
    /// Shards the spec expands to.
    pub shards_expected: usize,
    /// Shards committed.
    pub shards_completed: usize,
    /// Shards given up on.
    pub quarantined: usize,
}

/// Checks that a fleet campaign finished complete with nothing
/// quarantined.
pub fn check_fleet(v: &FleetVerdict) -> Result<(), String> {
    if v.quarantined > 0 {
        return Err(format!("fleet: {} shards quarantined", v.quarantined));
    }
    if v.shards_completed != v.shards_expected {
        return Err(format!(
            "fleet: campaign incomplete: {}/{} shards",
            v.shards_completed, v.shards_expected
        ));
    }
    Ok(())
}

/// Checks that campaign `i` reproduced campaign `i % distinct` bit for
/// bit (the loop revisits the same inputs once it has run them all).
pub fn check_repeats(digests: &[u64], distinct: usize) -> Result<(), String> {
    match (distinct..digests.len()).find(|&i| digests[i] != digests[i % distinct]) {
        None => Ok(()),
        Some(i) => Err(format!(
            "campaign {i} digest {:#018x} differs from campaign {} ({:#018x}) on the same inputs",
            digests[i],
            i % distinct,
            digests[i % distinct]
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn campaign(det: f64, ts_flagged: usize) -> Vec<SetupVerdict> {
        SetupKind::ALL
            .iter()
            .map(|&setup| {
                let (residual_log2, significant_bytes) = match setup {
                    SetupKind::Deterministic => (det, 6),
                    SetupKind::TsCache => (128.0 - ts_flagged as f64, ts_flagged),
                    _ => (128.0, 0),
                };
                SetupVerdict { setup, residual_log2, significant_bytes, key_feasible: true }
            })
            .collect()
    }

    #[test]
    fn bernstein_accepts_the_paper_verdict_with_noise() {
        let mut runs: Vec<_> = (0..8).map(|_| campaign(90.0, 0)).collect();
        runs[3] = campaign(95.0, 2);
        assert_eq!(check_bernstein(&runs), Ok(()));
    }

    #[test]
    fn bernstein_rejects_a_silent_deterministic_setup() {
        let mut runs: Vec<_> = (0..8).map(|_| campaign(90.0, 0)).collect();
        runs[5] = campaign(128.0, 0);
        assert!(check_bernstein(&runs).unwrap_err().contains("did not leak"));
    }

    #[test]
    fn bernstein_rejects_a_leaking_tscache() {
        let runs: Vec<_> = (0..8).map(|_| campaign(90.0, 2)).collect();
        assert!(check_bernstein(&runs).unwrap_err().contains("TSCache leaked"));
    }

    #[test]
    fn bernstein_rejects_a_discarded_key_byte_and_empty_runs() {
        let mut runs = vec![campaign(90.0, 0)];
        runs[0][1].key_feasible = false;
        assert!(check_bernstein(&runs).unwrap_err().contains("true key byte"));
        assert!(check_bernstein(&[]).is_err());
    }

    fn pwcet(iid_passed: bool) -> PwcetVerdict {
        PwcetVerdict { iid_passed, pwcet: 12_000.0, observed_max: 11_000.0 }
    }

    #[test]
    fn pwcet_tolerates_the_tests_false_rejections() {
        let mut runs = vec![pwcet(true); 32];
        for r in runs.iter_mut().take(10) {
            r.iid_passed = false;
        }
        assert_eq!(check_pwcet(&runs), Ok(()));
    }

    #[test]
    fn pwcet_rejects_non_iid_campaigns() {
        let mut runs = vec![pwcet(true); 32];
        for r in runs.iter_mut().take(11) {
            r.iid_passed = false;
        }
        assert!(check_pwcet(&runs).unwrap_err().contains("rejected 11 of 32"));
    }

    #[test]
    fn pwcet_rejects_a_bound_below_the_observed_maximum() {
        let mut runs = vec![pwcet(true); 4];
        runs[2].pwcet = 10_000.0;
        assert!(check_pwcet(&runs).unwrap_err().contains("below the observed maximum"));
        runs[2].pwcet = f64::NAN;
        assert!(check_pwcet(&runs).is_err());
    }

    #[test]
    fn fleet_rejects_quarantine_and_incomplete_campaigns() {
        let ok = FleetVerdict { shards_expected: 282, shards_completed: 282, quarantined: 0 };
        assert_eq!(check_fleet(&ok), Ok(()));
        let quarantined = FleetVerdict { shards_completed: 281, quarantined: 1, ..ok };
        assert!(check_fleet(&quarantined).unwrap_err().contains("quarantined"));
        let short = FleetVerdict { shards_completed: 280, ..ok };
        assert!(check_fleet(&short).unwrap_err().contains("incomplete"));
    }

    #[test]
    fn repeats_must_reproduce_their_first_run() {
        assert_eq!(check_repeats(&[1, 2, 3, 1, 2], 3), Ok(()));
        assert_eq!(check_repeats(&[1, 2], 3), Ok(()));
        assert!(check_repeats(&[1, 2, 3, 1, 5], 3).unwrap_err().contains("campaign 4"));
    }
}
