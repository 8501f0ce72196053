//! The layer ladder: a workload's own op stream, built through the
//! public [`SimAes128::build_trace`] and [`Workload`] APIs, replayed
//! into each lower layer's public entry point in turn — machine,
//! hierarchy, one cache, the placement function, and the contended and
//! shared-LLC engines — with a memo-cold pass after each reseed, and
//! the simulated counts read at the same boundaries.

use crate::campaign::{now, ns_since, Metric};
use std::hint::black_box;
use tscache_aes::sim_cipher::{AesLayout, SimAes128};
use tscache_core::addr::LineAddr;
use tscache_core::cache::Cache;
use tscache_core::geometry::CacheGeometry;
use tscache_core::hierarchy::TraceOp;
use tscache_core::placement::{PlacementEngine, PlacementKind};
use tscache_core::prng::{mix64, Prng, SplitMix64};
use tscache_core::replacement::ReplacementKind;
use tscache_core::seed::{ProcessId, Seed};
use tscache_core::setup::{HierarchyDepth, SetupKind};
use tscache_interference::{ContentionConfig, SystemConfig};
use tscache_sim::layout::Layout;
use tscache_sim::machine::Machine;
use tscache_sim::workload::Workload;

/// Host time each ladder measurement spends at least.
const BUDGET_NS: u64 = 40_000_000;
/// Repetitions each ladder measurement makes at least.
const MIN_REPS: usize = 5;
/// Encryptions in the AES op stream.
const ENCRYPTIONS: usize = 256;
/// Cache footprints (lines) of the single-cache sweep: from inside the
/// L1's 1024-entry placement memo to well past the 8192-entry cap.
const FOOTPRINTS: [u64; 4] = [512, 2048, 8192, 32_768];

const PID: ProcessId = ProcessId::new(1);
const SETUP: SetupKind = SetupKind::TsCache;
const DEPTH: HierarchyDepth = HierarchyDepth::TwoLevel;

/// Median host ns per item of `f`, which processes `items` items per
/// call; `f` gets the repetition index.
fn per_item_ns(items: usize, mut f: impl FnMut(usize)) -> f64 {
    let (mut reps, mut spent) = (Vec::new(), 0u64);
    while reps.len() < MIN_REPS || spent < BUDGET_NS {
        let start = now();
        f(reps.len());
        let ns = ns_since(start);
        spent += ns;
        reps.push(ns as f64 / items.max(1) as f64);
    }
    crate::stats::median(&reps)
}

/// A TSCache machine running process 1 under `seed`.
fn machine(seed: u64) -> Machine {
    let mut m = Machine::from_setup_depth(SETUP, DEPTH, seed);
    m.set_process(PID);
    m.set_process_seed(PID, Seed::new(mix64(seed)));
    m
}

/// The Bernstein campaign's cipher and plaintexts.
#[derive(Debug)]
pub struct AesInputs {
    aes: SimAes128,
    plaintexts: Vec<[u8; 16]>,
}

impl AesInputs {
    /// The cipher at the campaign nodes' layout, keyed as a victim of
    /// campaign `sub_seed`, and a seed-drawn plaintext stream.
    pub fn new(sub_seed: u64) -> Self {
        let mut layout = Layout::new(0x10_0000);
        let aes_layout = AesLayout::install(&mut layout, "aes");
        let aes = SimAes128::new(&crate::bernstein::victim_key(sub_seed), aes_layout);
        let mut rng = SplitMix64::new(mix64(sub_seed ^ 0x9_1e57));
        let plaintexts = (0..ENCRYPTIONS)
            .map(|_| {
                let mut pt = [0u8; 16];
                pt[..8].copy_from_slice(&rng.next_u64().to_le_bytes());
                pt[8..].copy_from_slice(&rng.next_u64().to_le_bytes());
                pt
            })
            .collect();
        AesInputs { aes, plaintexts }
    }

    /// Every encryption's memory ops, in program order.
    pub fn stream(&self) -> Vec<TraceOp> {
        let m = machine(0);
        let mut ops = Vec::with_capacity(self.plaintexts.len() * 256);
        for pt in &self.plaintexts {
            self.aes.build_trace(&m, &mut ops, pt);
        }
        ops
    }
}

/// One job of the pWCET workload's task, as the memory ops it issues
/// (captured with the machine's event trace).
pub fn multipath_stream(sub_seed: u64) -> Result<Vec<TraceOp>, String> {
    let mut inputs = crate::pwcet::inputs(sub_seed)?;
    let mut m = machine(sub_seed);
    m.enable_trace();
    inputs.task_mut().run(&mut m);
    Ok(m.take_trace().into_iter().map(|e| TraceOp { kind: e.kind, addr: e.addr }).collect())
}

/// Runs the ladder on `stream`, appending one metric per layer.
pub fn run(stream: &[TraceOp], aes: &AesInputs, seed: u64, out: &mut Vec<Metric>) {
    let n = stream.len();
    let mut buf = Vec::with_capacity(512);

    // Simulated AES: trace construction alone, then the full cipher.
    let m = machine(seed);
    let build = per_item_ns(aes.plaintexts.len(), |_| {
        for pt in &aes.plaintexts {
            buf.clear();
            black_box(aes.aes.build_trace(&m, &mut buf, pt));
        }
    });
    out.push(Metric::new("aes.build_trace_ns", build, "ns"));
    let mut m = machine(seed);
    let encrypt = per_item_ns(aes.plaintexts.len(), |_| {
        for pt in &aes.plaintexts {
            black_box(aes.aes.encrypt_with(&mut m, &mut buf, pt));
        }
    });
    out.push(Metric::new("aes.encrypt_ns", encrypt, "ns"));

    // Machine: construction, batch replay, scalar loads.
    let build = per_item_ns(1, |rep| {
        black_box(Machine::from_setup_depth(SETUP, DEPTH, seed ^ rep as u64));
    });
    out.push(Metric::new("machine.build_us", build / 1e3, "us"));
    let mut m = machine(seed);
    m.run_trace(stream);
    let replay = per_item_ns(n, |_| {
        black_box(m.run_trace(black_box(stream)));
    });
    out.push(Metric::new("machine.run_trace_ns", replay, "ns"));
    let load = per_item_ns(n, |_| {
        for op in stream {
            black_box(m.load(op.addr));
        }
    });
    out.push(Metric::new("machine.load_ns", load, "ns"));

    // Hierarchy: the first pass after a reseed runs with a cold
    // placement memo; the second pass under the same seed runs hot.
    let mut h = SETUP.build_depth(DEPTH, seed);
    let (mut cold, mut hot) = (Vec::new(), Vec::new());
    let mut ratios = None;
    per_item_ns(n, |rep| {
        h.set_process_seed(PID, Seed::new(mix64(seed ^ rep as u64)));
        h.flush_all();
        h.reset_stats();
        let start = now();
        black_box(h.access_batch(PID, black_box(stream)));
        cold.push(ns_since(start) as f64 / n as f64);
        let (l1i, l1d, l2) = (*h.l1i().stats(), *h.l1d().stats(), *h.l2().stats());
        ratios.get_or_insert((
            (l1i.misses() + l1d.misses()) as f64 / (l1i.accesses() + l1d.accesses()).max(1) as f64,
            l2.misses() as f64 / l2.accesses().max(1) as f64,
        ));
        let start = now();
        black_box(h.access_batch(PID, black_box(stream)));
        hot.push(ns_since(start) as f64 / n as f64);
    });
    out.push(Metric::new("hierarchy.access_ns", crate::stats::median(&hot), "ns"));
    out.push(Metric::new("hierarchy.access_ns.reseeded", crate::stats::median(&cold), "ns"));
    let (l1, l2) = ratios.unwrap_or_default();
    out.push(Metric::new("hierarchy.l1_miss_ratio", l1, "ratio"));
    out.push(Metric::new("hierarchy.l2_miss_ratio", l2, "ratio"));

    // One cache (TSCache's L1: Random Modulo + random replacement)
    // over a footprint sweep, reseeded then hot.
    let (mut cold_sum, mut hot_sum) = (0.0, 0.0);
    for footprint in FOOTPRINTS {
        let lines: Vec<LineAddr> = (0..footprint).map(|i| LineAddr::new(0x8000 + i)).collect();
        let mut c = Cache::new(
            "L1D",
            CacheGeometry::paper_l1(),
            PlacementKind::RandomModulo,
            ReplacementKind::Random,
            seed,
        );
        let (mut cold, mut hot) = (Vec::new(), Vec::new());
        per_item_ns(lines.len(), |rep| {
            c.set_seed(PID, Seed::new(mix64(seed ^ rep as u64)));
            c.flush();
            let start = now();
            black_box(c.access_batch(PID, black_box(&lines)));
            cold.push(ns_since(start) as f64 / lines.len() as f64);
            let start = now();
            black_box(c.access_batch(PID, black_box(&lines)));
            hot.push(ns_since(start) as f64 / lines.len() as f64);
        });
        cold_sum += crate::stats::median(&cold);
        hot_sum += crate::stats::median(&hot);
    }
    let k = FOOTPRINTS.len() as f64;
    out.push(Metric::new("cache.access_ns", hot_sum / k, "ns"));
    out.push(Metric::new("cache.access_ns.reseeded", cold_sum / k, "ns"));

    // Placement alone, each policy at the level TSCache or the
    // deterministic setups use it.
    for (kind, geom, name) in [
        (
            PlacementKind::RandomModulo,
            CacheGeometry::paper_l1(),
            "placement.place_ns.random-modulo",
        ),
        (PlacementKind::HashRp, CacheGeometry::paper_l2(), "placement.place_ns.hash-rp"),
        (PlacementKind::Modulo, CacheGeometry::paper_l1(), "placement.place_ns.modulo"),
        (PlacementKind::RpCache, CacheGeometry::paper_l1(), "placement.place_ns.rpcache"),
    ] {
        let lines: Vec<LineAddr> = stream.iter().map(|op| geom.line_of(op.addr)).collect();
        let mut engine = PlacementEngine::new(kind, &geom);
        let seed = Seed::new(mix64(seed));
        let ns = per_item_ns(lines.len(), |_| {
            for &l in &lines {
                black_box(engine.place(black_box(l), seed));
            }
        });
        out.push(Metric::new(name, ns, "ns"));
    }

    // Interference: an FIR co-runner on the bus, then inside a shared LLC.
    let mut contended = machine(seed);
    contended.attach_standard_enemies(SETUP, DEPTH, &ContentionConfig::default(), mix64(seed));
    contended.run_trace(stream);
    let contention = contended.contention_cycles();
    let ns = per_item_ns(n, |_| {
        black_box(contended.run_trace(black_box(stream)));
    });
    out.push(Metric::new("interference.run_trace_ns.contended", ns, "ns"));
    out.push(Metric::new(
        "interference.contention_cycles_per_op",
        contention as f64 / n as f64,
        "cycles",
    ));
    let mut shared = Machine::from_setup_shared(SETUP, DEPTH, SystemConfig::default(), seed);
    shared.set_process(PID);
    shared.set_process_seed(PID, Seed::new(mix64(seed)));
    shared.attach_standard_enemies(SETUP, DEPTH, &ContentionConfig::default(), mix64(seed));
    shared.run_trace(stream);
    let ns = per_item_ns(n, |_| {
        black_box(shared.run_trace(black_box(stream)));
    });
    out.push(Metric::new("interference.run_trace_ns.shared", ns, "ns"));
}
