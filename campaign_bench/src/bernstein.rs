//! The Fig. 5 campaign: attacker and victim [`CryptoNode`]s collect
//! timed encryptions on every setup, then [`analyze`] correlates them.
//! Most host time goes to the hierarchy batch walk, simulated AES and
//! scalar loads, with the placement memo hot (seeds change only every
//! 32 768 jobs).
//!
//! Every traced run profiles it over [`SLOTS`] input slots and checks
//! its verdict there. It is not a timed workload: its host time tracked
//! the host's memory-subsystem drift, IQR/median 0.26–0.37 over two sets
//! of ten seeds, beyond the largest bound a metric may have.
//!
//! The nodes run one after another on the calling thread. A node's
//! machine cannot leave the thread that built it, so this is what keeps
//! building every node (the set-up) apart from the collection without
//! pinning nodes to worker threads.

use crate::checks::SetupVerdict;
use crate::spans::Tracer;
use tscache_core::prng::{Prng, SplitMix64};
use tscache_core::setup::SetupKind;
use tscache_fleet::digest::Fnv64;
use tscache_sca::bernstein::{analyze, AttackResult};
use tscache_sca::sampling::{CryptoNode, Role, SamplingConfig, TimingSample};

/// Input slots a traced run profiles; the verdict is checked over all.
pub const SLOTS: usize = 6;

/// Timed encryptions per node. Enough that the deterministic setup
/// leaks on every seed tried (residual 2^80–2^108), at ~4 s per
/// campaign.
pub const SAMPLES_PER_NODE: u32 = 16_000;

/// The attacker profiles its own node with this known key.
pub const ATTACKER_KEY: [u8; 16] = [0; 16];

/// The paper's Fig. 5 residual keyspaces (log₂), measured on its
/// cycle-accurate platform; Random-and-Safe postdates the paper.
pub const PAPER_RESIDUAL_LOG2: [(SetupKind, f64); 4] = [
    (SetupKind::Deterministic, 80.0),
    (SetupKind::RpCache, 108.0),
    (SetupKind::Mbpta, 104.0),
    (SetupKind::TsCache, 128.0),
];

/// The victim's secret key, derived from the campaign seed exactly as
/// [`tscache_sca::bernstein::run_attack`] derives it.
pub fn victim_key(master_seed: u64) -> [u8; 16] {
    let mut rng = SplitMix64::new(master_seed ^ 0x006b_6579);
    let mut key = [0u8; 16];
    for b in key.iter_mut() {
        *b = (rng.next_u32() & 0xff) as u8;
    }
    key
}

/// The sampling configuration of `setup` in campaign slot `sub_seed`.
pub fn config(setup: SetupKind, sub_seed: u64) -> SamplingConfig {
    SamplingConfig::standard(setup, SAMPLES_PER_NODE, sub_seed)
}

/// The campaign's built nodes: attacker then victim of every setup, in
/// [`SetupKind::ALL`] order, with the victim keys.
#[derive(Debug)]
pub struct Nodes {
    nodes: Vec<(SetupKind, [u8; 16], CryptoNode)>,
}

/// Builds both nodes of every setup.
pub fn build_nodes(sub_seed: u64, t: &mut Tracer, op: u64) -> Result<Nodes, String> {
    let mut nodes = Vec::with_capacity(2 * SetupKind::ALL.len());
    for setup in SetupKind::ALL {
        let cfg = config(setup, sub_seed);
        let key = victim_key(cfg.master_seed);
        for (role, k) in [(Role::Attacker, ATTACKER_KEY), (Role::Victim, key)] {
            let span = t.open("sampling.build", op);
            let node = CryptoNode::try_new(cfg, role, &k);
            t.close(span);
            nodes.push((setup, key, node.map_err(|e| format!("{setup} {role:?} node: {e}"))?));
        }
    }
    Ok(Nodes { nodes })
}

/// One setup's two sample streams.
#[derive(Debug)]
pub struct Pair {
    /// The attacked setup.
    pub setup: SetupKind,
    /// The victim's key.
    pub victim_key: [u8; 16],
    /// The attacker node's samples.
    pub attacker: Vec<TimingSample>,
    /// The victim node's samples.
    pub victim: Vec<TimingSample>,
}

/// Collects every node's samples, one node after another, and pairs
/// them per setup.
pub fn collect(nodes: Nodes, t: &mut Tracer, op: u64) -> Vec<Pair> {
    let mut streams = nodes.nodes.into_iter().map(|(setup, key, mut node)| {
        let span = t.open("sampling.collect", op);
        let samples = node.collect();
        t.close(span);
        (setup, key, samples)
    });
    let mut pairs = Vec::with_capacity(SetupKind::ALL.len());
    while let (Some((setup, victim_key, attacker)), Some((_, _, victim))) =
        (streams.next(), streams.next())
    {
        pairs.push(Pair { setup, victim_key, attacker, victim });
    }
    pairs
}

/// Runs the correlation analysis of every setup.
pub fn analyze_all(pairs: &[Pair], t: &mut Tracer, op: u64) -> Vec<SetupAttack> {
    pairs
        .iter()
        .map(|p| {
            let span = t.open("bernstein.analyze", op);
            let result = analyze(&p.attacker, &ATTACKER_KEY, &p.victim, &p.victim_key);
            t.close(span);
            SetupAttack { setup: p.setup, result }
        })
        .collect()
}

/// One setup's attack.
#[derive(Debug, Clone)]
pub struct SetupAttack {
    /// The attacked setup.
    pub setup: SetupKind,
    /// The correlation analysis outcome.
    pub result: AttackResult,
}

/// FNV-1a over an attack's full outcome (scores, gate, feasible sets).
pub fn attack_digest(r: &AttackResult) -> u64 {
    let mut h = Fnv64::new();
    for b in &r.bytes {
        h.write_u64(b.byte as u64).write(&[b.true_value, b.significant as u8]);
        for &s in &b.scores {
            h.write_f64(s);
        }
        h.write(&b.feasible);
    }
    h.finish()
}

/// The verdict the Fig. 5 check inspects for one setup's attack.
pub fn verdict_row(a: &SetupAttack) -> SetupVerdict {
    SetupVerdict {
        setup: a.setup,
        residual_log2: a.result.residual_keyspace_log2(),
        significant_bytes: a.result.bytes.iter().filter(|b| b.significant).count(),
        key_feasible: a.result.bytes.iter().all(|b| b.is_feasible(b.true_value)),
    }
}

/// Describes the verdicts of the profiled slots: slot 0's residual
/// keyspaces beside the paper's, and the TSCache node's leaked bits.
pub fn report(verdicts: &[Vec<SetupVerdict>]) -> Vec<String> {
    let mut lines =
        vec!["Fig. 5 residual keyspace of slot 0, simulated vs the paper's measurement on its \
         hardware platform (the model is not validated against hardware):"
            .to_string()];
    for v in verdicts.first().into_iter().flatten() {
        let paper = PAPER_RESIDUAL_LOG2
            .iter()
            .find(|(s, _)| *s == v.setup)
            .map_or("-".to_string(), |(_, p)| format!("2^{p:.0}"));
        lines.push(format!(
            "  {:<14} simulated 2^{:>5.1} ({} significant bytes)   paper {paper}",
            v.setup.label(),
            v.residual_log2,
            v.significant_bytes
        ));
    }
    let leaked: Vec<f64> = verdicts
        .iter()
        .flatten()
        .filter(|v| v.setup == SetupKind::TsCache)
        .map(|v| 128.0 - v.residual_log2)
        .collect();
    lines.push(format!(
        "leaked_bits (simulated, TSCache node): median {:.1} over {} slots (expected 0; per slot \
         {leaked:.1?})",
        crate::stats::median(&leaked),
        leaked.len()
    ));
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::sub_seed;

    #[test]
    fn seed_changes_keys_and_sampling_streams() {
        let (a, b) = (sub_seed(1, 0), sub_seed(2, 0));
        assert_ne!(a, b);
        assert_ne!(victim_key(a), victim_key(b));
        assert_eq!(victim_key(a), victim_key(a));
        assert_eq!(config(SetupKind::TsCache, a).master_seed, a);
        assert_ne!(sub_seed(1, 0), sub_seed(1, 1), "slots of one run differ");
    }
}
