//! The multi-core differential suite: the merge loop's batched walks
//! must be bit-identical to its per-op reference walk — per-core
//! cycles, bus waits, MSHR accounting, per-level statistics (including
//! writeback counters) and final cache contents — across every
//! placement × replacement × depth × arbitration combination, with
//! write-back caches on.

use tscache_core::cache::{Cache, WritePolicy};
use tscache_core::geometry::CacheGeometry;
use tscache_core::hierarchy::{Hierarchy, SharedLlc, TraceOp};
use tscache_core::placement::PlacementKind;
use tscache_core::replacement::ReplacementKind;
use tscache_core::seed::{ProcessId, Seed};
use tscache_core::setup::{HierarchyDepth, SetupKind};
use tscache_core::stats::CacheStats;
use tscache_interference::{
    execute, execute_reference, Arbitration, BusConfig, CoreRun, MshrConfig, SystemConfig,
};

/// Deterministic mixed trace whose footprint overflows the small
/// hierarchies below at every level.
fn recorded_trace(salt: u64, len: usize) -> Vec<TraceOp> {
    TraceOp::mixed_trace(salt, len, 1 << 14)
}

/// A small per-core hierarchy (8×2 L1s, 32×4 L2, optional 64×4 L3)
/// with uniform policies, a seeded process and write-back caches.
fn small_hierarchy(
    placement: PlacementKind,
    replacement: ReplacementKind,
    depth: HierarchyDepth,
    core: u64,
) -> Hierarchy {
    let l1 = CacheGeometry::new(8, 2, 32).unwrap();
    let l2 = CacheGeometry::new(32, 4, 32).unwrap();
    let l3 = CacheGeometry::new(64, 4, 32).unwrap();
    let mut unified = vec![(Cache::new("L2", l2, placement, replacement, core ^ 0x33), 10)];
    if depth == HierarchyDepth::ThreeLevel {
        unified.push((Cache::new("L3", l3, placement, replacement, core ^ 0x44), 30));
    }
    let mut h = Hierarchy::from_parts(
        Cache::new("L1I", l1, placement, replacement, core ^ 0x11),
        Cache::new("L1D", l1, placement, replacement, core ^ 0x22),
        unified,
        1,
        80,
    );
    h.set_process_seed(ProcessId::new(1), Seed::new(core.wrapping_mul(0xabcd) | 1));
    h.set_write_policy(WritePolicy::WriteBack);
    h
}

fn contents_of(c: &Cache) -> Vec<(u32, u32, u64, u16)> {
    c.contents().map(|(s, w, l, o)| (s, w, l.as_u64(), o.as_u16())).collect()
}

/// Stats, contents and dirty-line count of one cache.
type CacheState = (CacheStats, Vec<(u32, u32, u64, u16)>, usize);

fn cache_state(c: &Cache) -> CacheState {
    (*c.stats(), contents_of(c), c.dirty_lines())
}

/// [`cache_state`] of every level of `h`, L1I first.
fn hierarchy_state(h: &Hierarchy) -> Vec<CacheState> {
    [h.l1i(), h.l1d()].into_iter().chain(h.unified_levels()).map(cache_state).collect()
}

fn assert_hierarchies_identical(a: &Hierarchy, b: &Hierarchy, label: &str) {
    let pairs = [(a.l1i(), b.l1i()), (a.l1d(), b.l1d())];
    for (x, y) in pairs.into_iter().chain(a.unified_levels().zip(b.unified_levels())) {
        assert_eq!(x.stats(), y.stats(), "{label}: {} stats diverge", x.label());
        assert_eq!(contents_of(x), contents_of(y), "{label}: {} contents diverge", x.label());
        assert_eq!(x.dirty_lines(), y.dirty_lines(), "{label}: {} dirty lines diverge", x.label());
    }
}

#[test]
fn contended_batch_is_bit_identical_to_scalar_interleaving() {
    let pid = ProcessId::new(1);
    for depth in HierarchyDepth::ALL {
        for placement in PlacementKind::ALL {
            for replacement in ReplacementKind::ALL {
                for arbitration in Arbitration::ALL {
                    let label = format!("{placement}/{replacement}/{depth}/{arbitration}");
                    let cfg = SystemConfig {
                        bus: BusConfig { arbitration, ..BusConfig::default() },
                        mshr: Some(MshrConfig { entries: 2, window_ops: 6, stall_cycles: 5 }),
                    };
                    let salt = (placement as usize * 64 + replacement as usize * 8 + depth as usize)
                        as u64
                        + 1;
                    let traces: Vec<Vec<TraceOp>> = (0..3)
                        .map(|c| recorded_trace(salt ^ (c as u64) << 8, 420 + 60 * c))
                        .collect();
                    let mut scalar_h: Vec<Hierarchy> = (0..3)
                        .map(|c| small_hierarchy(placement, replacement, depth, c as u64))
                        .collect();
                    let mut batch_h: Vec<Hierarchy> = (0..3)
                        .map(|c| small_hierarchy(placement, replacement, depth, c as u64))
                        .collect();
                    let scalar = {
                        let mut cores: Vec<CoreRun<'_>> = scalar_h
                            .iter_mut()
                            .zip(&traces)
                            .map(|(h, t)| CoreRun { hierarchy: h, pid, ops: t })
                            .collect();
                        execute_reference(&mut cores, &mut [], None, &cfg)
                    };
                    let batch = {
                        let mut cores: Vec<CoreRun<'_>> = batch_h
                            .iter_mut()
                            .zip(&traces)
                            .map(|(h, t)| CoreRun { hierarchy: h, pid, ops: t })
                            .collect();
                        execute(&mut cores, &mut [], None, &cfg, None)
                    };
                    assert_eq!(scalar, batch, "{label}: engine outcomes diverge");
                    for (i, (a, b)) in scalar_h.iter().zip(&batch_h).enumerate() {
                        assert_hierarchies_identical(a, b, &format!("{label}/core{i}"));
                    }
                }
            }
        }
    }
}

#[test]
fn paper_presets_match_across_engines_with_active_writebacks() {
    // The four DAC'18 setups at both depths, three cores, write-back
    // caches: the production path the campaign layers drive.
    let pid = ProcessId::new(1);
    for setup in SetupKind::ALL {
        for depth in HierarchyDepth::ALL {
            let label = format!("{setup}/{depth}");
            let cfg = SystemConfig::default();
            // A footprint well past the 16 KiB paper L1, so dirty
            // lines really get evicted.
            let traces: Vec<Vec<TraceOp>> = (0..3)
                .map(|c| TraceOp::mixed_trace(0xd5e ^ setup as u64 ^ (c as u64) << 9, 900, 1 << 17))
                .collect();
            let build = |c: u64| {
                let mut h = setup.build_depth(depth, 40 + c);
                h.set_process_seed(pid, Seed::new(0x77 + c));
                h.set_write_policy(WritePolicy::WriteBack);
                h
            };
            let mut scalar_h: Vec<Hierarchy> = (0..3).map(|c| build(c as u64)).collect();
            let mut batch_h: Vec<Hierarchy> = (0..3).map(|c| build(c as u64)).collect();
            let scalar = {
                let mut cores: Vec<CoreRun<'_>> = scalar_h
                    .iter_mut()
                    .zip(&traces)
                    .map(|(h, t)| CoreRun { hierarchy: h, pid, ops: t })
                    .collect();
                execute_reference(&mut cores, &mut [], None, &cfg)
            };
            let batch = {
                let mut cores: Vec<CoreRun<'_>> = batch_h
                    .iter_mut()
                    .zip(&traces)
                    .map(|(h, t)| CoreRun { hierarchy: h, pid, ops: t })
                    .collect();
                execute(&mut cores, &mut [], None, &cfg, None)
            };
            assert_eq!(scalar, batch, "{label}");
            for (i, (a, b)) in scalar_h.iter().zip(&batch_h).enumerate() {
                assert_hierarchies_identical(a, b, &format!("{label}/core{i}"));
            }
            // The mixed write trace on write-back caches must really
            // exercise the writeback plumbing.
            let wbs: u64 = scalar_h
                .iter()
                .map(|h| {
                    h.l1d().stats().writebacks()
                        + h.unified_levels().map(|l| l.stats().writebacks()).sum::<u64>()
                })
                .sum();
            assert!(wbs > 0, "{label}: no writeback traffic generated");
        }
    }
}

/// The per-core *private* portion of a shared-LLC platform: split L1s
/// plus an optional private L2, per-core pid and seeds.
fn small_private(
    placement: PlacementKind,
    replacement: ReplacementKind,
    depth: HierarchyDepth,
    policy: WritePolicy,
    core: u64,
) -> (Hierarchy, ProcessId) {
    let l1 = CacheGeometry::new(8, 2, 32).unwrap();
    let l2 = CacheGeometry::new(32, 4, 32).unwrap();
    let mut unified = Vec::new();
    if depth == HierarchyDepth::ThreeLevel {
        unified.push((Cache::new("L2", l2, placement, replacement, core ^ 0x33), 10));
    }
    let mut h = Hierarchy::from_private_parts(
        Cache::new("L1I", l1, placement, replacement, core ^ 0x11),
        Cache::new("L1D", l1, placement, replacement, core ^ 0x22),
        unified,
        1,
        80,
    );
    let pid = ProcessId::new(1 + core as u16);
    h.set_process_seed(pid, Seed::new(core.wrapping_mul(0xabcd) | 1));
    h.set_write_policy(policy);
    (h, pid)
}

fn small_shared_llc(
    placement: PlacementKind,
    replacement: ReplacementKind,
    policy: WritePolicy,
    pids: &[ProcessId],
) -> SharedLlc {
    let mut llc = SharedLlc::new(
        Cache::new("SLLC", CacheGeometry::new(64, 4, 32).unwrap(), placement, replacement, 0x55),
        10,
        80,
    );
    llc.set_write_policy(policy);
    for (k, &pid) in pids.iter().enumerate() {
        llc.set_process_seed(pid, Seed::new(0x511c ^ (k as u64) << 8 | 1));
    }
    llc
}

#[test]
fn shared_llc_batch_is_bit_identical_to_scalar_interleaving() {
    // The shared axis of the acceptance criterion: three cores funnel
    // into one shared last level (so cross-core evictions really
    // happen), across placement × replacement × arbitration × write
    // policy × private depth. Everything must match: engine outcomes,
    // every private level, and the shared cache itself — stats,
    // contents, dirty lines.
    for depth in HierarchyDepth::ALL {
        for placement in PlacementKind::ALL {
            for replacement in ReplacementKind::ALL {
                for arbitration in Arbitration::ALL {
                    for policy in [WritePolicy::WriteThrough, WritePolicy::WriteBack] {
                        let label = format!(
                            "shared/{placement}/{replacement}/{depth}/{arbitration}/{policy:?}"
                        );
                        let cfg = SystemConfig {
                            bus: BusConfig { arbitration, ..BusConfig::default() },
                            mshr: Some(MshrConfig { entries: 2, window_ops: 6, stall_cycles: 5 }),
                        };
                        let salt = (placement as usize * 64
                            + replacement as usize * 8
                            + depth as usize) as u64
                            + 0x9000;
                        let traces: Vec<Vec<TraceOp>> = (0..3)
                            .map(|c| recorded_trace(salt ^ (c as u64) << 8, 360 + 40 * c))
                            .collect();
                        let run = |scalar: bool| {
                            let mut cores_h: Vec<(Hierarchy, ProcessId)> = (0..3)
                                .map(|c| {
                                    small_private(placement, replacement, depth, policy, c as u64)
                                })
                                .collect();
                            let pids: Vec<ProcessId> =
                                cores_h.iter().map(|&(_, pid)| pid).collect();
                            let mut llc = small_shared_llc(placement, replacement, policy, &pids);
                            let out = {
                                let mut cores: Vec<CoreRun<'_>> = cores_h
                                    .iter_mut()
                                    .zip(&traces)
                                    .map(|((h, pid), t)| CoreRun {
                                        hierarchy: h,
                                        pid: *pid,
                                        ops: t,
                                    })
                                    .collect();
                                if scalar {
                                    execute_reference(&mut cores, &mut [], Some(&mut llc), &cfg)
                                } else {
                                    execute(&mut cores, &mut [], Some(&mut llc), &cfg, None)
                                }
                            };
                            (out, cores_h.into_iter().map(|(h, _)| h).collect::<Vec<_>>(), llc)
                        };
                        let (scalar_out, scalar_h, scalar_llc) = run(true);
                        let (batch_out, batch_h, batch_llc) = run(false);
                        assert_eq!(scalar_out, batch_out, "{label}: engine outcomes diverge");
                        for (i, (a, b)) in scalar_h.iter().zip(&batch_h).enumerate() {
                            assert_hierarchies_identical(a, b, &format!("{label}/core{i}"));
                        }
                        assert_eq!(
                            scalar_llc.cache().stats(),
                            batch_llc.cache().stats(),
                            "{label}: shared-LLC stats diverge"
                        );
                        assert_eq!(
                            contents_of(scalar_llc.cache()),
                            contents_of(batch_llc.cache()),
                            "{label}: shared-LLC contents diverge"
                        );
                        assert_eq!(
                            scalar_llc.cache().dirty_lines(),
                            batch_llc.cache().dirty_lines(),
                            "{label}: shared-LLC dirty lines diverge"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn shared_llc_paper_presets_match_across_engines() {
    // The four DAC'18 setups on the paper-geometry shared platform
    // (SetupKind::build_private + build_shared_llc), both depths,
    // write-back on — the production path Machine::from_setup_shared
    // drives.
    for setup in SetupKind::ALL {
        for depth in HierarchyDepth::ALL {
            let label = format!("shared-preset/{setup}/{depth}");
            let cfg = SystemConfig::default();
            let traces: Vec<Vec<TraceOp>> = (0..3)
                .map(|c| TraceOp::mixed_trace(0xf00 ^ setup as u64 ^ (c as u64) << 9, 800, 1 << 17))
                .collect();
            let run = |scalar: bool| {
                let mut hs: Vec<Hierarchy> = (0..3u64)
                    .map(|c| {
                        let mut h = setup.build_private(depth, 40 + c);
                        h.set_process_seed(ProcessId::new(1 + c as u16), Seed::new(0x77 + c));
                        h.set_write_policy(WritePolicy::WriteBack);
                        h
                    })
                    .collect();
                let mut llc = setup.build_shared_llc(depth, 40);
                llc.set_write_policy(WritePolicy::WriteBack);
                for c in 0..3u64 {
                    llc.set_process_seed(ProcessId::new(1 + c as u16), Seed::new(0x99 + c));
                }
                let out = {
                    let mut cores: Vec<CoreRun<'_>> = hs
                        .iter_mut()
                        .enumerate()
                        .zip(&traces)
                        .map(|((c, h), t)| CoreRun {
                            hierarchy: h,
                            pid: ProcessId::new(1 + c as u16),
                            ops: t,
                        })
                        .collect();
                    if scalar {
                        execute_reference(&mut cores, &mut [], Some(&mut llc), &cfg)
                    } else {
                        execute(&mut cores, &mut [], Some(&mut llc), &cfg, None)
                    }
                };
                (out, hs, llc)
            };
            let (scalar_out, scalar_h, scalar_llc) = run(true);
            let (batch_out, batch_h, batch_llc) = run(false);
            assert_eq!(scalar_out, batch_out, "{label}");
            for (i, (a, b)) in scalar_h.iter().zip(&batch_h).enumerate() {
                assert_hierarchies_identical(a, b, &format!("{label}/core{i}"));
            }
            assert_eq!(scalar_llc.cache().stats(), batch_llc.cache().stats(), "{label}");
            assert_eq!(contents_of(scalar_llc.cache()), contents_of(batch_llc.cache()), "{label}");
        }
    }
}

/// A trace interleaving private traffic with reads, writes and
/// flushes of a shared coherent segment at `shared_base`: the
/// coherence-affected workload shape (upgrade invalidations, flush
/// broadcasts, back-invalidations all fire).
fn coherent_trace(salt: u64, len: usize, shared_base: u64) -> Vec<TraceOp> {
    use tscache_core::addr::Addr;
    let mut state = salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|i| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let shared_line = Addr::new(shared_base + ((state >> 18) % 16) * 32);
            match i % 13 {
                0 | 5 | 9 => TraceOp::read(shared_line),
                3 => TraceOp::write(shared_line),
                7 => TraceOp::flush(shared_line),
                _ => {
                    let addr = Addr::new((state >> 16) % (1 << 14));
                    if state & 2 == 0 {
                        TraceOp::read(addr)
                    } else {
                        TraceOp::write(addr)
                    }
                }
            }
        })
        .collect()
}

#[test]
fn coherence_axis_batch_is_bit_identical_to_scalar_interleaving() {
    // The coherence axis of the acceptance criterion: two cores share
    // (and write, and flush) a coherent read-mostly segment while a
    // third runs pure private traffic — so the batch engine really
    // mixes pre-executed and per-op cores — across placement ×
    // replacement × write policy × private depth. Everything must
    // match bit for bit: engine outcomes *including the coherence
    // counters*, every private level (stats carry per-cache
    // invalidation counts), and the shared cache.
    const SHARED_BASE: u64 = 1 << 20;
    for depth in HierarchyDepth::ALL {
        for placement in PlacementKind::ALL {
            for replacement in ReplacementKind::ALL {
                for policy in [WritePolicy::WriteThrough, WritePolicy::WriteBack] {
                    let label = format!("coherent/{placement}/{replacement}/{depth}/{policy:?}");
                    let cfg = SystemConfig {
                        bus: BusConfig::default(),
                        mshr: Some(MshrConfig { entries: 2, window_ops: 6, stall_cycles: 5 }),
                    };
                    let salt = (placement as usize * 64 + replacement as usize * 8 + depth as usize)
                        as u64
                        + 0xc0;
                    let traces: Vec<Vec<TraceOp>> = vec![
                        coherent_trace(salt ^ 0x1, 420, SHARED_BASE),
                        coherent_trace(salt ^ 0x2, 380, SHARED_BASE),
                        // Core 2 never touches the shared segment: it
                        // stays pre-batchable in the batch engine.
                        recorded_trace(salt ^ 0x3, 400),
                    ];
                    let run = |scalar: bool| {
                        let mut cores_h: Vec<(Hierarchy, ProcessId)> = (0..3)
                            .map(|c| small_private(placement, replacement, depth, policy, c as u64))
                            .collect();
                        let pids: Vec<ProcessId> = cores_h.iter().map(|&(_, pid)| pid).collect();
                        let mut llc = small_shared_llc(placement, replacement, policy, &pids);
                        llc.add_coherent_range(tscache_core::addr::Addr::new(SHARED_BASE), 512);
                        for (h, _) in cores_h.iter_mut() {
                            h.add_coherent_range(tscache_core::addr::Addr::new(SHARED_BASE), 512);
                        }
                        let out = {
                            let mut cores: Vec<CoreRun<'_>> = cores_h
                                .iter_mut()
                                .zip(&traces)
                                .map(|((h, pid), t)| CoreRun { hierarchy: h, pid: *pid, ops: t })
                                .collect();
                            if scalar {
                                execute_reference(&mut cores, &mut [], Some(&mut llc), &cfg)
                            } else {
                                execute(&mut cores, &mut [], Some(&mut llc), &cfg, None)
                            }
                        };
                        (out, cores_h.into_iter().map(|(h, _)| h).collect::<Vec<_>>(), llc)
                    };
                    let (scalar_out, scalar_h, scalar_llc) = run(true);
                    let (batch_out, batch_h, batch_llc) = run(false);
                    assert_eq!(scalar_out, batch_out, "{label}: engine outcomes diverge");
                    for (i, (a, b)) in scalar_h.iter().zip(&batch_h).enumerate() {
                        assert_hierarchies_identical(a, b, &format!("{label}/core{i}"));
                    }
                    assert_eq!(
                        scalar_llc.cache().stats(),
                        batch_llc.cache().stats(),
                        "{label}: shared-LLC stats diverge"
                    );
                    assert_eq!(
                        contents_of(scalar_llc.cache()),
                        contents_of(batch_llc.cache()),
                        "{label}: shared-LLC contents diverge"
                    );
                    // The axis must actually exercise coherence: the
                    // sharing cores invalidate each other, the private
                    // core is never touched.
                    let invalidations: u64 =
                        scalar_out.cores.iter().map(|c| c.coh_invalidations).sum();
                    let txns: u64 = scalar_out.cores.iter().map(|c| c.coh_txns).sum();
                    assert!(invalidations > 0, "{label}: no invalidation ever landed");
                    assert!(txns > 0, "{label}: no coherence bus transaction issued");
                    assert_eq!(
                        scalar_out.cores[2].coh_invalidations, 0,
                        "{label}: coherence traffic reached the private core"
                    );
                }
            }
        }
    }
}

#[test]
fn arbitration_policies_differ_and_order_sensibly() {
    // Same workload under the three policies: the contended core's
    // wait should be zero only when it never collides, and TDMA (a
    // bandwidth-partitioned bus) should generally cost the most.
    let pid = ProcessId::new(1);
    let mut waits = Vec::new();
    for arbitration in Arbitration::ALL {
        let cfg =
            SystemConfig { bus: BusConfig { arbitration, ..BusConfig::default() }, mshr: None };
        let traces: Vec<Vec<TraceOp>> =
            (0..2).map(|c| recorded_trace(0xaa ^ c as u64, 800)).collect();
        let mut hs: Vec<Hierarchy> = (0..2)
            .map(|c| {
                small_hierarchy(
                    PlacementKind::Modulo,
                    ReplacementKind::Lru,
                    HierarchyDepth::TwoLevel,
                    c as u64,
                )
            })
            .collect();
        let mut cores: Vec<CoreRun<'_>> = hs
            .iter_mut()
            .zip(&traces)
            .map(|(h, t)| CoreRun { hierarchy: h, pid, ops: t })
            .collect();
        let out = execute(&mut cores, &mut [], None, &cfg, None);
        let wait: u64 = out.cores.iter().map(|c| c.bus_wait).sum();
        assert!(wait > 0, "{arbitration}: two miss-heavy cores never collided");
        waits.push((arbitration, wait));
    }
    let tdma = waits.iter().find(|(a, _)| matches!(a, Arbitration::Tdma { .. })).unwrap().1;
    let rr = waits.iter().find(|(a, _)| matches!(a, Arbitration::RoundRobin)).unwrap().1;
    assert!(tdma > rr, "TDMA should pay more queuing than round-robin (tdma {tdma}, rr {rr})");
}

#[test]
fn segments_with_persistent_co_runners_match_the_reference_walk() {
    // The path machine trace replay takes: one measured core run in
    // segments against two persistent cyclic co-runners. Segment
    // lengths are no multiple of the co-runners' 128-op chunk, so
    // batched co-runners end segments mid-chunk with pre-walked
    // lookahead; between segments one co-runner is flushed, then a
    // late coherent range makes every co-runner reclassify. Batched
    // and per-op walks must agree bit for bit on every report, every
    // private level and the shared cache, after every segment.
    use tscache_core::addr::Addr;
    use tscache_interference::CoRunner;
    const SHARED_BASE: u64 = 1 << 20;
    const LATE_BASE: u64 = 1 << 21;
    for shared in [false, true] {
        for depth in HierarchyDepth::ALL {
            for placement in PlacementKind::ALL {
                for replacement in ReplacementKind::ALL {
                    let label =
                        format!("segment/{placement}/{replacement}/{depth}/shared={shared}");
                    let salt = (placement as usize * 64 + replacement as usize * 8 + depth as usize)
                        as u64
                        + 0x5e9;
                    let cfg = SystemConfig {
                        bus: BusConfig::default(),
                        mshr: Some(MshrConfig { entries: 2, window_ops: 6, stall_cycles: 5 }),
                    };
                    let primary_ops = coherent_trace(salt ^ 0x1, 700, SHARED_BASE);
                    // Co-runner 1 shares (writes, flushes) the coherent
                    // segment; co-runner 2 streams private data that
                    // the late range later covers.
                    let co_ops = [
                        coherent_trace(salt ^ 0x2, 300, SHARED_BASE),
                        recorded_trace(salt ^ 0x3, 500)
                            .into_iter()
                            .map(|op| TraceOp {
                                kind: op.kind,
                                addr: Addr::new(op.addr.as_u64() % 4096 + LATE_BASE),
                            })
                            .collect::<Vec<_>>(),
                    ];
                    let build = |c: u64| {
                        let policy = WritePolicy::WriteBack;
                        if shared {
                            small_private(placement, replacement, depth, policy, c)
                        } else {
                            (small_hierarchy(placement, replacement, depth, c), ProcessId::new(1))
                        }
                    };
                    let run = |reference: bool| {
                        let (mut h, pid) = build(0);
                        let mut co: Vec<CoRunner> = (1..3u64)
                            .map(|c| {
                                let (h, pid) = build(c);
                                CoRunner::new(h, pid, co_ops[c as usize - 1].clone())
                            })
                            .collect();
                        let pids: Vec<ProcessId> =
                            std::iter::once(pid).chain(co.iter().map(|c| c.pid())).collect();
                        let mut llc = shared.then(|| {
                            let mut llc = small_shared_llc(
                                placement,
                                replacement,
                                WritePolicy::WriteBack,
                                &pids,
                            );
                            llc.add_coherent_range(Addr::new(SHARED_BASE), 512);
                            llc
                        });
                        h.add_coherent_range(Addr::new(SHARED_BASE), 512);
                        for c in &mut co {
                            c.hierarchy_mut().add_coherent_range(Addr::new(SHARED_BASE), 512);
                        }
                        let mut snapshots = Vec::new();
                        let mut start = 0;
                        for (k, len) in [150usize, 77, 301, 172].into_iter().enumerate() {
                            match k {
                                1 => co[1].flush(),
                                2 => {
                                    if let Some(llc) = llc.as_mut() {
                                        llc.add_coherent_range(Addr::new(LATE_BASE), 4096);
                                    }
                                    h.add_coherent_range(Addr::new(LATE_BASE), 4096);
                                    for c in &mut co {
                                        c.hierarchy_mut()
                                            .add_coherent_range(Addr::new(LATE_BASE), 4096);
                                        c.reclassify();
                                    }
                                }
                                _ => {}
                            }
                            let ops = &primary_ops[start..start + len];
                            start += len;
                            let mut runs = [CoreRun { hierarchy: &mut h, pid, ops }];
                            let out = if reference {
                                execute_reference(&mut runs, &mut co, llc.as_mut(), &cfg)
                            } else {
                                execute(&mut runs, &mut co, llc.as_mut(), &cfg, None)
                            };
                            let llc_state = llc.as_ref().map(|l| cache_state(l.cache()));
                            let private: Vec<_> = std::iter::once(&h)
                                .chain(co.iter().map(|c| c.hierarchy()))
                                .map(hierarchy_state)
                                .collect();
                            snapshots.push((out, private, llc_state));
                        }
                        snapshots
                    };
                    let (batched, reference) = (run(false), run(true));
                    for (k, (b, r)) in batched.iter().zip(&reference).enumerate() {
                        assert_eq!(b.0, r.0, "{label}/segment{k}: reports diverge");
                        assert_eq!(b.1, r.1, "{label}/segment{k}: private levels diverge");
                        assert_eq!(b.2, r.2, "{label}/segment{k}: shared LLC diverges");
                    }
                    // The first segment must leave the flushed co-runner
                    // mid-chunk, and every segment must run both enemies.
                    assert_ne!(batched[0].0.cores[2].ops % 128, 0, "{label}: chunk-aligned flush");
                    for (k, (out, _, _)) in batched.iter().enumerate() {
                        assert!(
                            out.cores[1].ops > 0 && out.cores[2].ops > 0,
                            "{label}/segment{k}: a co-runner never ran"
                        );
                    }
                    if shared {
                        let drained: u64 = batched
                            .iter()
                            .flat_map(|(out, _, _)| &out.cores)
                            .map(|c| c.coh_invalidations)
                            .sum();
                        assert!(drained > 0, "{label}: no invalidation ever landed");
                    }
                }
            }
        }
    }
}
