//! Contended multi-core execution: N cores with private hierarchies
//! share one memory bus; last-level miss fills and memory-bound
//! writebacks arbitrate for it, MSHR files bound per-level miss
//! parallelism.
//!
//! # Execution model
//!
//! One deterministic discrete-event loop drives every multicore path.
//! Its participants are *finite* cores ([`CoreRun`], a trace run to
//! completion) and persistent *cyclic* co-runners ([`CoRunner`], an
//! enemy trace replayed round after round across calls). At every step
//! the participant with the smallest clock (ties: lowest core index)
//! among those with work executes its next op to completion, and the
//! loop runs while any finite core has ops left. N finite cores
//! therefore run to completion, and one measured core plus co-runners
//! runs until the measured trace ends: the trace segment a machine's
//! replay charges. Co-runners only advance while their clocks trail a
//! finite core's, so every transaction that could delay a finite core
//! is arbitrated. Cores are numbered finite cores first, in slice
//! order, then co-runners ([`Cores`]).
//!
//! An op's cost is its solo hierarchy cost ([`OpTiming::cycles`]) plus
//! any MSHR structural stall plus the queuing delay of its bus
//! transactions. With private hierarchies contention is *timing-only*:
//! cache contents, hit/miss outcomes, statistics and RNG draws per core
//! are exactly those of the same trace run solo.
//!
//! Clock ties between cores resolve by core index (lowest first), so
//! permuting *distinct* cores may legitimately shift individual
//! queuing waits; everything the caches and MSHRs decide — per-core
//! base cycles, transaction, stall and coalesce counts — is invariant
//! under core reordering (with co-runners, for the finite cores only:
//! co-runner *progress* depends on the interleaving by construction),
//! and the unit/probe suites pin exactly that split.
//!
//! # Batched and reference walks
//!
//! [`execute`] pre-walks each participant's private levels through the
//! hierarchy batch path ([`Hierarchy::access_batch_timed`], exporting
//! the shared-level requests in front of a shared LLC) —
//! a finite core's whole trace at once, a co-runner's trace in chunks
//! of `CO_CHUNK` (128) ops — and merges the recorded per-op outcomes.
//! [`execute_reference`] runs the same loop but walks every op through
//! the scalar path ([`Hierarchy::access_detailed`] /
//! [`Hierarchy::access_upper_detailed`]) at merge time. Private levels
//! make per-core cache work independent of the interleaving, so the two
//! agree bit for bit; the differential suite pins reports, every
//! private level and the shared cache across placement × replacement ×
//! depth × arbitration, for finite cores and co-runners alike.
//!
//! A co-runner's pre-walked chunk may run ahead of the merge when a
//! call returns; the next call consumes the rest, and
//! [`CoRunner::flush`] or [`CoRunner::reclassify`] discards it (it then
//! re-executes from the first unmerged op). The reference walks the
//! same rest through the scalar path when its call returns, so both
//! modes hand the next call the same caches and lookahead.
//!
//! # Shared last level
//!
//! With a [`SharedLlc`], each core's private levels stay per-core while
//! every shared-level fill and writeback is resolved against the one
//! shared cache *at merge time*, in exact global op order. Contention
//! then is **not** timing-only: cores evict each other's shared-level
//! lines (the cross-core Prime+Probe channel) unless per-core way
//! partitions on the shared level restore isolation. The shared-level
//! order is a deterministic function of the clocks both walks compute
//! identically, so they stay bit-identical.
//!
//! When the LLC has coherence armed, [`coherence`] runs the MSI actions
//! of every op in one canonical sequence. A participant whose trace
//! flushes or touches a coherence-tracked line walks op by op at merge
//! time in both modes, so invalidations from other cores reach it
//! before its next op; every other participant can never hold a
//! tracked line, so no invalidation reaches it and pre-walking it stays
//! sound.
//!
//! Bus accounting at the shared level: a shared-LLC **hit costs no bus
//! transaction** — only LLC misses (off-chip reads) and writebacks
//! that pass the LLC unabsorbed (or dirty LLC victims) arbitrate for
//! the bus. MSHR files remain per core (a per-core view of miss
//! parallelism): misses of different cores on the same line never
//! coalesce with each other.

use crate::bus::{Bus, BusReport};
use crate::mshr::{MshrConfig, MshrFile, MshrOutcome};
use tscache_core::addr::LineAddr;
use tscache_core::cache::Writeback;
use tscache_core::hierarchy::{
    AccessKind, Hierarchy, LlcRequests, LlcResolution, OpTiming, SharedLlc, TraceOp,
};
use tscache_core::seed::ProcessId;
use tscache_telemetry::{Event, RecorderHandle};

pub use crate::bus::{Arbitration, BusConfig};

/// The contention model of a platform: one shared bus plus (optional)
/// MSHR files at every cache level of every core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemConfig {
    /// Shared-bus model.
    pub bus: BusConfig,
    /// MSHR files (`None` = unbounded miss parallelism, no
    /// coalescing).
    pub mshr: Option<MshrConfig>,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig { bus: BusConfig::default(), mshr: Some(MshrConfig::default()) }
    }
}

/// One-knob description of a contended campaign, consumed by the
/// attack-sampling and measurement layers: how many co-runner cores,
/// which bus/MSHR model, and whether caches run write-back (so dirty
/// evictions join the bus traffic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContentionConfig {
    /// Enemy cores running alongside the measured core.
    pub co_runners: u32,
    /// Bus + MSHR model.
    pub system: SystemConfig,
    /// Run every core's caches write-back.
    pub write_back: bool,
}

impl Default for ContentionConfig {
    fn default() -> Self {
        ContentionConfig { co_runners: 1, system: SystemConfig::default(), write_back: true }
    }
}

/// A core running a finite trace to completion.
#[derive(Debug)]
pub struct CoreRun<'a> {
    /// The core's private hierarchy.
    pub hierarchy: &'a mut Hierarchy,
    /// The process executing on this core.
    pub pid: ProcessId,
    /// The core's trace.
    pub ops: &'a [TraceOp],
}

/// Per-core accounting of one engine run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreReport {
    /// Ops executed.
    pub ops: u64,
    /// Total cycles including stalls and bus waits (the core's final
    /// clock).
    pub cycles: u64,
    /// Solo cycles (what the trace costs with no contention).
    pub base_cycles: u64,
    /// Queuing cycles spent waiting for the bus.
    pub bus_wait: u64,
    /// Cycles lost to MSHR structural stalls.
    pub mshr_stall_cycles: u64,
    /// Misses that coalesced into a pending MSHR entry.
    pub mshr_coalesced: u64,
    /// Bus read transactions (last-level misses that went off-chip).
    pub mem_reads: u64,
    /// Bus write transactions (writebacks that reached memory).
    pub mem_writebacks: u64,
    /// Coherence transactions this core's ops issued on the bus
    /// (upgrade invalidations, flush broadcasts, inclusive
    /// back-invalidations).
    pub coh_txns: u64,
    /// Line copies coherence actions drained from this core's private
    /// levels (the *receiving* side: remote upgrades, flush
    /// broadcasts, shared-level back-invalidations).
    pub coh_invalidations: u64,
}

/// Result of one engine run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterferenceOutcome {
    /// Per-core accounting, in core order (finite cores, then
    /// co-runners).
    pub cores: Vec<CoreReport>,
    /// Shared-bus accounting.
    pub bus: BusReport,
}

/// Every core of a platform, numbered as the merge loop and the
/// coherence directory number them: the finite cores first, then the
/// co-runners.
#[derive(Debug)]
pub struct Cores<'s, 'a> {
    /// Cores running a finite trace: core `j` is `runs[j]`.
    pub runs: &'s mut [CoreRun<'a>],
    /// Persistent co-runners: core `runs.len() + k` is `co[k]`.
    pub co: &'s mut [CoRunner],
}

impl Cores<'_, '_> {
    fn len(&self) -> usize {
        self.runs.len() + self.co.len()
    }

    fn pid(&self, j: usize) -> ProcessId {
        match j.checked_sub(self.runs.len()) {
            None => self.runs[j].pid,
            Some(k) => self.co[k].pid,
        }
    }

    fn hierarchy(&mut self, j: usize) -> &mut Hierarchy {
        match j.checked_sub(self.runs.len()) {
            None => &mut *self.runs[j].hierarchy,
            Some(k) => &mut self.co[k].hierarchy,
        }
    }

    /// Core `j` as a merge lane; `cursors` holds the finite cores'
    /// progress (a co-runner carries its own).
    #[inline]
    fn lane<'l>(&'l mut self, cursors: &'l mut [Cursor], j: usize) -> Lane<'l> {
        match j.checked_sub(self.runs.len()) {
            None => {
                let r = &mut self.runs[j];
                Lane {
                    hierarchy: &mut *r.hierarchy,
                    pid: r.pid,
                    ops: r.ops,
                    cyclic: false,
                    cur: &mut cursors[j],
                }
            }
            Some(k) => {
                let r = &mut self.co[k];
                Lane {
                    hierarchy: &mut r.hierarchy,
                    pid: r.pid,
                    ops: &r.ops,
                    cyclic: true,
                    cur: &mut r.cursor,
                }
            }
        }
    }
}

/// The deterministic event-merge state: bus, MSHR files, per-core
/// clocks and reports.
struct Merger {
    bus: Bus,
    /// MSHR files per core per level (empty when disabled).
    mshr: Vec<Vec<MshrFile>>,
    clocks: Vec<u64>,
    reports: Vec<CoreReport>,
    depths: Vec<usize>,
    /// Bus service cycles, mirrored for trace emission.
    bus_service: u32,
    /// Observer-only trace sink. Timing, outcomes and statistics are
    /// computed identically whether this is attached or not — the
    /// recorder never feeds back.
    recorder: Option<RecorderHandle>,
}

impl Merger {
    fn new(cfg: &SystemConfig, depths: Vec<usize>) -> Self {
        let n = depths.len();
        let mshr = match cfg.mshr {
            Some(m) => depths.iter().map(|&d| (0..d).map(|_| MshrFile::new(m)).collect()).collect(),
            None => vec![Vec::new(); n],
        };
        Merger {
            bus: Bus::new(cfg.bus, n),
            mshr,
            clocks: vec![0; n],
            reports: vec![CoreReport::default(); n],
            depths,
            bus_service: cfg.bus.service_cycles,
            recorder: None,
        }
    }

    /// Executes op `seq` of `core` (touching `line`) with solo timing
    /// `t`: MSHR checks, then bus arbitration for its read and
    /// writeback transactions, then for `coh_txns` coherence
    /// transactions (upgrade invalidations, flush broadcasts,
    /// back-invalidations).
    fn step(&mut self, core: usize, seq: u64, line: u64, t: OpTiming, coh_txns: u8) {
        let depth = self.depths[core];
        let ts0 = self.clocks[core];
        if let Some(rec) = &self.recorder {
            rec.borrow_mut().record_walk(ts0, core as u8, depth, t.miss_mask, t.mem_writebacks);
        }
        let report = &mut self.reports[core];
        let mut stall = 0u64;
        let mut mem_read = t.memory_read(depth);
        for (level, file) in self.mshr[core].iter_mut().enumerate() {
            if t.miss_mask >> level & 1 == 1 {
                match file.on_miss(line, seq) {
                    MshrOutcome::Coalesced => {
                        report.mshr_coalesced += 1;
                        if level == depth - 1 {
                            // Rides the pending fill: no second
                            // off-chip read.
                            mem_read = false;
                        }
                        if let Some(rec) = &self.recorder {
                            rec.borrow_mut().record(
                                ts0,
                                Event::MshrCoalesce { core: core as u8, level: level as u8 },
                            );
                        }
                    }
                    MshrOutcome::Allocated => {}
                    MshrOutcome::Stalled => {
                        stall += file.stall_cycles() as u64;
                        if let Some(rec) = &self.recorder {
                            rec.borrow_mut().record(
                                ts0,
                                Event::MshrStall {
                                    core: core as u8,
                                    level: level as u8,
                                    cycles: file.stall_cycles(),
                                },
                            );
                        }
                    }
                }
            }
        }
        let mut at = self.clocks[core] + stall + t.cycles as u64;
        let mut wait = 0u64;
        let bus_txn = |bus: &mut Bus, at: &mut u64, wait: &mut u64| {
            let g = bus.grant(core, *at);
            if let Some(rec) = &self.recorder {
                rec.borrow_mut().record(
                    g,
                    Event::BusGrant {
                        core: core as u8,
                        wait: (g - *at).min(u32::MAX as u64) as u32,
                        service: self.bus_service,
                    },
                );
            }
            *wait += g - *at;
            *at = g;
        };
        if mem_read {
            bus_txn(&mut self.bus, &mut at, &mut wait);
            report.mem_reads += 1;
        }
        for _ in 0..t.mem_writebacks {
            bus_txn(&mut self.bus, &mut at, &mut wait);
            report.mem_writebacks += 1;
        }
        for _ in 0..coh_txns {
            bus_txn(&mut self.bus, &mut at, &mut wait);
            report.coh_txns += 1;
        }
        report.ops += 1;
        report.cycles += stall + t.cycles as u64 + wait;
        report.base_cycles += t.cycles as u64;
        report.bus_wait += wait;
        report.mshr_stall_cycles += stall;
        self.clocks[core] = at;
        if let Some(rec) = &self.recorder {
            rec.borrow_mut().record(
                ts0,
                Event::Op {
                    core: core as u8,
                    cycles: (stall + t.cycles as u64 + wait).min(u32::MAX as u64) as u32,
                    miss_mask: t.miss_mask,
                },
            );
        }
    }

    fn finish(self) -> InterferenceOutcome {
        InterferenceOutcome { cores: self.reports, bus: self.bus.report() }
    }

    /// The core to advance next: smallest clock among cores with work
    /// remaining, lowest index on ties.
    fn next_core(&self, remaining: impl Fn(usize) -> bool) -> Option<usize> {
        let mut best = None;
        for c in 0..self.clocks.len() {
            if remaining(c) && best.is_none_or(|b: usize| self.clocks[c] < self.clocks[b]) {
                best = Some(c);
            }
        }
        best
    }
}

/// Which private walk a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Walk {
    /// Pre-walk each chunk through the hierarchy batch path.
    Batched,
    /// Walk each op through the scalar path at merge time.
    PerOp,
}

/// Ops a co-runner pre-walks per hierarchy batch call (a finite core
/// pre-walks its whole trace at once).
const CO_CHUNK: usize = 128;

/// Merge progress of one participant: its trace position, its op
/// clock, and the chunk of its trace a batched run pre-walks.
#[derive(Debug, Default)]
struct Cursor {
    /// Next op to merge.
    pos: usize,
    /// Ops merged over the participant's lifetime: the sequence number
    /// MSHR op windows expire against.
    seq: u64,
    /// The open chunk is `base..end`; none is open while `pos >= end`.
    base: usize,
    end: usize,
    /// The open chunk was opened in front of a shared LLC.
    shared: bool,
    /// Batched runs: the open chunk's pre-walked private timings
    /// (`events[i]` is op `base + i`) and its shared-level requests,
    /// with their consumption cursors. Empty for a chunk the reference
    /// walks at merge time.
    events: Vec<OpTiming>,
    requests: LlcRequests,
    fill_pos: usize,
    wb_pos: usize,
    /// Memoized [`prebatchable`] verdict (the trace and the LLC's
    /// coherent ranges are fixed while it is set).
    prebatch: Option<bool>,
}

impl Cursor {
    /// Walks the open chunk's unmerged ops `pos..end` ahead of the
    /// merge and buffers their outcomes: through the hierarchy batch
    /// path, or op by op through the scalar path in the export order
    /// the batch path pins (a reference run's lookahead at the end of
    /// a call).
    fn walk_ahead(&mut self, h: &mut Hierarchy, pid: ProcessId, ops: &[TraceOp], walk: Walk) {
        let chunk = &ops[self.pos..self.end];
        self.base = self.pos;
        self.fill_pos = 0;
        self.wb_pos = 0;
        self.requests.clear();
        match (walk, self.shared) {
            (Walk::Batched, shared) => {
                let llc = shared.then_some(&mut self.requests);
                h.access_batch_timed(pid, chunk, &mut self.events, llc);
            }
            (Walk::PerOp, shared) => {
                self.events.clear();
                for (i, op) in chunk.iter().enumerate() {
                    self.events.push(if shared {
                        let wbs = &mut self.requests.writebacks;
                        let up = h.access_upper_detailed(pid, op.kind, op.addr, i as u32, wbs);
                        if let Some(line) = up.fill {
                            self.requests.fills.push(line);
                            self.requests.fill_idx.push(i as u32);
                        }
                        OpTiming {
                            cycles: up.cycles,
                            miss_mask: up.miss_mask,
                            mem_writebacks: up.mem_writebacks,
                        }
                    } else {
                        h.access_detailed(pid, op.kind, op.addr)
                    });
                }
            }
        }
    }
}

/// One participant, as the merge loop drives it for one op.
struct Lane<'l> {
    hierarchy: &'l mut Hierarchy,
    pid: ProcessId,
    ops: &'l [TraceOp],
    /// A co-runner: its trace wraps and it pre-walks `CO_CHUNK`-op
    /// chunks.
    cyclic: bool,
    cur: &'l mut Cursor,
}

/// One op's private-level outcome: its timing through the private
/// levels and, in front of a shared LLC, its fill request and the
/// writebacks to deliver before it.
struct Private<'w> {
    seq: u64,
    op: TraceOp,
    t: OpTiming,
    fill: Option<LineAddr>,
    wbs: &'w [Writeback],
}

impl Lane<'_> {
    /// Walks (or takes the pre-walked outcome of) the lane's next op,
    /// opening a chunk first when none is open and the lane may be
    /// pre-walked on this platform.
    #[inline]
    fn next<'w>(
        &'w mut self,
        llc: Option<&SharedLlc>,
        walk: Walk,
        scratch: &'w mut Vec<Writeback>,
    ) -> Private<'w> {
        let cur = &mut *self.cur;
        if cur.pos >= cur.end {
            if cur.pos >= self.ops.len() {
                cur.pos = 0;
                cur.end = 0;
            }
            let offset_bits = self.hierarchy.l1i().geometry().offset_bits();
            let chunked = llc.is_none_or(|llc| {
                *cur.prebatch.get_or_insert_with(|| prebatchable(self.ops, llc, offset_bits))
            });
            if chunked {
                cur.end = if self.cyclic {
                    (cur.pos + CO_CHUNK).min(self.ops.len())
                } else {
                    self.ops.len()
                };
                cur.shared = llc.is_some();
                cur.events.clear();
                if walk == Walk::Batched {
                    cur.walk_ahead(self.hierarchy, self.pid, self.ops, Walk::Batched);
                }
            }
        }
        let op = self.ops[cur.pos];
        let (t, fill, wbs) = if cur.pos < cur.end && !cur.events.is_empty() {
            // A pre-walked private-platform chunk carries memory
            // penalties and no requests: replaying it in front of a
            // shared LLC would silently skip the shared level.
            assert_eq!(cur.shared, llc.is_some(), "participant changed platforms mid-chunk");
            let i = cur.pos - cur.base;
            let (fill, wbs) = if cur.shared {
                cur.requests.take_for_op(i as u32, &mut cur.fill_pos, &mut cur.wb_pos)
            } else {
                (None, &[][..])
            };
            (cur.events[i], fill, wbs)
        } else if llc.is_some() {
            scratch.clear();
            let up = self.hierarchy.access_upper_detailed(self.pid, op.kind, op.addr, 0, scratch);
            let t = OpTiming {
                cycles: up.cycles,
                miss_mask: up.miss_mask,
                mem_writebacks: up.mem_writebacks,
            };
            (t, up.fill, &scratch[..])
        } else {
            (self.hierarchy.access_detailed(self.pid, op.kind, op.addr), None, &[][..])
        };
        cur.pos += 1;
        cur.seq += 1;
        Private { seq: cur.seq - 1, op, t, fill, wbs }
    }
}

/// Whether a trace may be pre-walked through its private levels on a
/// shared platform: it must contain no [`AccessKind::Flush`] ops (their
/// shared-level and coherence side runs at merge time) and — once
/// coherence is armed — touch no coherence-tracked line (other cores'
/// invalidations may then reach into its private levels mid-trace, so
/// its private outcomes are no longer a pure function of its own
/// trace).
fn prebatchable(ops: &[TraceOp], llc: &SharedLlc, offset_bits: u32) -> bool {
    let coherent = llc.has_coherence();
    ops.iter().all(|op| {
        op.kind != AccessKind::Flush
            && !(coherent && llc.is_coherent_line(op.addr.line(offset_bits)))
    })
}

/// Composes one op's private-level timing with its shared-level
/// resolution: a hit costs only the shared level's hit cycles (no bus
/// transaction), a miss adds the memory penalty and sets the shared
/// level's miss bit (`shared_bit`), and unabsorbed writebacks plus a
/// dirty shared-level victim become memory-bound bus writes.
fn compose_llc(mut t: OpTiming, r: LlcResolution, shared_bit: usize) -> OpTiming {
    t.cycles += r.cycles;
    if r.miss {
        t.miss_mask |= 1 << shared_bit;
    }
    t.mem_writebacks += r.mem_writebacks;
    t
}

/// The one merge loop behind [`execute`] and [`execute_reference`].
fn run(
    mut cores: Cores<'_, '_>,
    mut llc: Option<&mut SharedLlc>,
    cfg: &SystemConfig,
    walk: Walk,
    recorder: Option<&RecorderHandle>,
) -> InterferenceOutcome {
    let n = cores.runs.len();
    let shared = llc.is_some() as usize;
    let depths = (0..cores.len()).map(|j| cores.hierarchy(j).depth() + shared).collect();
    let offsets: Vec<u32> =
        (0..cores.len()).map(|j| cores.hierarchy(j).l1i().geometry().offset_bits()).collect();
    let mut merger = Merger::new(cfg, depths);
    merger.recorder = recorder.cloned();
    let mut cursors: Vec<Cursor> = (0..n).map(|_| Cursor::default()).collect();
    let mut live = cores.runs.iter().filter(|r| !r.ops.is_empty()).count();
    let mut scratch: Vec<Writeback> = Vec::new();
    let coherent = llc.as_deref().is_some_and(SharedLlc::has_coherence);
    while live > 0 {
        let c = merger
            .next_core(|j| j >= n || cursors[j].pos < cores.runs[j].ops.len())
            .expect("a finite core has ops left");
        let mut lane = cores.lane(&mut cursors, c);
        let pid = lane.pid;
        let p = lane.next(llc.as_deref(), walk, &mut scratch);
        let line = p.op.addr.line(offsets[c]);
        let (mut t, victim) = match llc.as_deref_mut() {
            Some(llc) => {
                let (r, victim) = llc.resolve(pid, p.fill, p.wbs);
                (compose_llc(p.t, r, merger.depths[c] - 1), victim)
            }
            None => (p.t, None),
        };
        let (seq, kind, fill) = (p.seq, p.op.kind, p.fill);
        let mut coh_txns = 0;
        if let Some(llc) = llc.as_deref_mut().filter(|_| coherent) {
            let op = CoherentOp { core: c, kind, line, fill, victim };
            let trace = merger.recorder.as_ref().map(|rec| (rec, merger.clocks[c]));
            let (txns, dirty) = coherence(llc, &mut cores, op, Some(&mut merger.reports), trace);
            coh_txns = txns;
            t.mem_writebacks += dirty;
        }
        merger.step(c, seq, line.as_u64(), t, coh_txns);
        if c < n && cursors[c].pos == cores.runs[c].ops.len() {
            live -= 1;
        }
    }
    if walk == Walk::PerOp {
        // A batched run leaves each co-runner's open chunk pre-walked
        // past the merge; walk the same ops now, so both modes hand
        // the next call (or a flush) the same caches and lookahead.
        for co in cores.co.iter_mut() {
            let cur = &mut co.cursor;
            if cur.pos < cur.end && cur.events.is_empty() {
                cur.walk_ahead(&mut co.hierarchy, co.pid, &co.ops, Walk::PerOp);
            }
        }
    }
    merger.finish()
}

/// Runs `runs` to completion alongside the persistent co-runners `co`
/// (see the module docs for the loop), pre-walking private levels
/// through the hierarchy batch path. With `llc`, every core's last
/// level is that one shared cache. Bus and MSHR state start fresh per
/// call; co-runner trace position and cache state carry over. The
/// optional `recorder` observes the merge without changing any
/// outcome. Bit-identical to [`execute_reference`], as the
/// differential suite pins.
pub fn execute(
    runs: &mut [CoreRun<'_>],
    co: &mut [CoRunner],
    llc: Option<&mut SharedLlc>,
    cfg: &SystemConfig,
    recorder: Option<&RecorderHandle>,
) -> InterferenceOutcome {
    run(Cores { runs, co }, llc, cfg, Walk::Batched, recorder)
}

/// The reference engine: [`execute`]'s loop with every op walked
/// through the scalar hierarchy path at merge time.
pub fn execute_reference(
    runs: &mut [CoreRun<'_>],
    co: &mut [CoRunner],
    llc: Option<&mut SharedLlc>,
    cfg: &SystemConfig,
) -> InterferenceOutcome {
    run(Cores { runs, co }, llc, cfg, Walk::PerOp, None)
}

/// One op as the coherence protocol sees it, after its shared-level
/// resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoherentOp {
    /// The issuing core, numbered as in [`Cores`].
    pub core: usize,
    /// The op's kind.
    pub kind: AccessKind,
    /// The line the op touched.
    pub line: LineAddr,
    /// The line the op requested from the shared level, if any.
    pub fill: Option<LineAddr>,
    /// The line that fill displaced from the shared level, if any.
    pub victim: Option<LineAddr>,
}

/// Runs the MSI actions of one op on a coherent platform, in the one
/// canonical order every multicore path shares. After (1) the op's
/// private walk and (2) its writebacks and fill against the shared
/// level come (3) inclusive back-invalidation when the fill evicted a
/// tracked line, (4) sharer recording for a tracked fill, (5) upgrade
/// invalidations for a write to a tracked line, and (6) the flush
/// broadcast: the other cores' private copies (the issuer drained its
/// own in its private walk) and the shared-level copies under every
/// core's placement view.
///
/// Returns the coherence bus transactions the op issued and the dirty
/// copies it drained (memory-bound bus writes charged to the op).
/// `reports`, when given, credits each receiving core with the copies
/// it lost; `recorder` pairs a trace sink with the op's timestamp.
/// Does nothing while the LLC has no coherent range.
pub fn coherence(
    llc: &mut SharedLlc,
    cores: &mut Cores<'_, '_>,
    op: CoherentOp,
    mut reports: Option<&mut [CoreReport]>,
    recorder: Option<(&RecorderHandle, u64)>,
) -> (u8, u8) {
    if !llc.has_coherence() {
        return (0, 0);
    }
    let (c, line) = (op.core, op.line);
    let record = |event: Event| {
        if let Some((rec, ts)) = recorder {
            rec.borrow_mut().record(ts, event);
        }
    };
    let (mut txns, mut dirty) = (0u8, 0u8);
    if let Some(victim) = op.victim.filter(|&v| llc.is_coherent_line(v)) {
        let sharers = llc.clear_sharers(victim);
        if sharers != 0 {
            txns += 1;
            dirty += drain(cores, reports.as_deref_mut(), sharers, victim);
            record(Event::CohBackInvalidate { core: c as u8 });
        }
    }
    if op.fill.is_some_and(|l| llc.is_coherent_line(l)) {
        llc.note_sharer(line, c);
    }
    if op.kind == AccessKind::Write && llc.is_coherent_line(line) {
        let others = llc.retain_sharer(line, c);
        if others != 0 {
            txns += 1;
            dirty += drain(cores, reports.as_deref_mut(), others, line);
            let invalidated = others.count_ones().min(u8::MAX as u32) as u8;
            record(Event::CohUpgrade { core: c as u8, invalidated });
        }
    }
    if op.kind == AccessKind::Flush && llc.is_coherent_line(line) {
        txns += 1;
        let sharers = llc.clear_sharers(line) & !(1u32 << c);
        dirty += drain(cores, reports, sharers, line);
        for j in 0..cores.len() {
            if llc.invalidate_copy(cores.pid(j), line).dirty {
                dirty += 1;
            }
        }
        let invalidated = sharers.count_ones().min(u8::MAX as u32) as u8;
        record(Event::CohFlush { core: c as u8, invalidated });
    }
    (txns, dirty)
}

/// Drains the private copies of `line` from every core whose bit is
/// set in `targets` (a directory bitmap; bits past the platform's cores
/// are skipped), crediting each receiver's report with the copies it
/// lost. Returns the dirty copies drained.
fn drain(
    cores: &mut Cores<'_, '_>,
    mut reports: Option<&mut [CoreReport]>,
    targets: u32,
    line: LineAddr,
) -> u8 {
    let mut dirty = 0u32;
    let mut bits = targets;
    while bits != 0 {
        let j = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        if j >= cores.len() {
            continue;
        }
        let pid = cores.pid(j);
        let inv = cores.hierarchy(j).invalidate_line(pid, line);
        if let Some(reports) = reports.as_deref_mut() {
            reports[j].coh_invalidations += inv.copies as u64;
        }
        dirty += inv.dirty;
    }
    dirty.min(u8::MAX as u32) as u8
}

/// A persistent enemy core: a private hierarchy cyclically replaying
/// an enemy trace alongside the measured core. Trace position and
/// cache state persist across calls, so a long campaign sees the
/// enemy's steady-state working set rather than a cold cache per job.
#[derive(Debug)]
pub struct CoRunner {
    hierarchy: Hierarchy,
    pid: ProcessId,
    ops: Vec<TraceOp>,
    cursor: Cursor,
}

impl CoRunner {
    /// Creates an enemy core replaying `ops` (cyclically) as `pid` on
    /// its own `hierarchy`.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty.
    pub fn new(hierarchy: Hierarchy, pid: ProcessId, ops: Vec<TraceOp>) -> Self {
        assert!(!ops.is_empty(), "co-runner needs a non-empty trace");
        CoRunner { hierarchy, pid, ops, cursor: Cursor::default() }
    }

    /// The enemy core's hierarchy (statistics inspection).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Mutably borrows the hierarchy (seed management between epochs).
    pub fn hierarchy_mut(&mut self) -> &mut Hierarchy {
        &mut self.hierarchy
    }

    /// The enemy process id.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// Discards the unmerged rest of the open chunk, so the next merged
    /// op re-executes from the first position no merge has consumed,
    /// and forgets the memoized pre-batchability verdict. Required
    /// whenever the platform's coherence configuration changes after
    /// this co-runner already ran: the chunk was pre-walked under the
    /// old classification.
    pub fn reclassify(&mut self) {
        let cur = &mut self.cursor;
        cur.end = cur.pos;
        cur.events.clear();
        cur.requests.clear();
        cur.prebatch = None;
    }

    /// Flushes the enemy core's caches and discards its unmerged
    /// lookahead ([`reclassify`](Self::reclassify)): the next merged op
    /// re-executes on the cold cache from the first position no merge
    /// has consumed. A hyperperiod flush lands between segments, where
    /// the lookahead is model speculation (pre-walked against the
    /// pre-flush state), not architected history — so it is dropped
    /// rather than replayed; the trace *position* survives. Dirty
    /// lines drain to memory, counted by the caches they leave.
    pub fn flush(&mut self) {
        self.reclassify();
        self.hierarchy.flush_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tscache_core::addr::Addr;
    use tscache_core::seed::Seed;
    use tscache_core::setup::SetupKind;

    fn trace(salt: u64, len: usize) -> Vec<TraceOp> {
        TraceOp::mixed_trace(salt, len, 1 << 17)
    }

    fn pair() -> (Hierarchy, Hierarchy) {
        let mk = |salt| {
            let mut h = SetupKind::TsCache.build(salt);
            h.set_process_seed(ProcessId::new(1), Seed::new(salt ^ 5));
            h
        };
        (mk(1), mk(2))
    }

    /// Runs `primary` as the one finite core against `co` — the
    /// segment a machine's trace replay charges.
    fn segment(
        h: &mut Hierarchy,
        pid: ProcessId,
        ops: &[TraceOp],
        co: &mut [CoRunner],
        llc: Option<&mut SharedLlc>,
    ) -> InterferenceOutcome {
        execute(&mut [CoreRun { hierarchy: h, pid, ops }], co, llc, &SystemConfig::default(), None)
    }

    /// Advances a lone co-runner by one op outside any merge, returning
    /// the op it walked.
    fn advance(co: &mut CoRunner, llc: Option<&SharedLlc>, walk: Walk) -> TraceOp {
        let mut cores = Cores { runs: &mut [], co: core::slice::from_mut(co) };
        let mut scratch = Vec::new();
        cores.lane(&mut [], 0).next(llc, walk, &mut scratch).op
    }

    #[test]
    fn batch_engine_matches_reference_engine() {
        for arbitration in Arbitration::ALL {
            let cfg = SystemConfig {
                bus: BusConfig { arbitration, ..BusConfig::default() },
                ..SystemConfig::default()
            };
            let (t0, t1) = (trace(3, 900), trace(4, 700));
            let (mut a0, mut a1) = pair();
            let (mut b0, mut b1) = pair();
            for h in [&mut a0, &mut a1, &mut b0, &mut b1] {
                h.set_write_policy(tscache_core::cache::WritePolicy::WriteBack);
            }
            let pid = ProcessId::new(1);
            let reference = execute_reference(
                &mut [
                    CoreRun { hierarchy: &mut a0, pid, ops: &t0 },
                    CoreRun { hierarchy: &mut a1, pid, ops: &t1 },
                ],
                &mut [],
                None,
                &cfg,
            );
            let batch = execute(
                &mut [
                    CoreRun { hierarchy: &mut b0, pid, ops: &t0 },
                    CoreRun { hierarchy: &mut b1, pid, ops: &t1 },
                ],
                &mut [],
                None,
                &cfg,
                None,
            );
            assert_eq!(reference, batch, "{arbitration}");
            assert_eq!(a0.total_stats(), b0.total_stats(), "{arbitration}");
            assert_eq!(a1.total_stats(), b1.total_stats(), "{arbitration}");
        }
    }

    #[test]
    fn contention_only_adds_cycles() {
        let (mut solo, _) = pair();
        let (mut c0, mut c1) = pair();
        let pid = ProcessId::new(1);
        let t0 = trace(7, 800);
        let t1 = trace(8, 800);
        let solo_out = execute(
            &mut [CoreRun { hierarchy: &mut solo, pid, ops: &t0 }],
            &mut [],
            None,
            &SystemConfig::default(),
            None,
        );
        let contended = execute(
            &mut [
                CoreRun { hierarchy: &mut c0, pid, ops: &t0 },
                CoreRun { hierarchy: &mut c1, pid, ops: &t1 },
            ],
            &mut [],
            None,
            &SystemConfig::default(),
            None,
        );
        assert_eq!(solo_out.cores[0].base_cycles, contended.cores[0].base_cycles);
        assert!(contended.cores[0].cycles >= solo_out.cores[0].cycles);
        assert!(contended.cores[0].bus_wait > 0, "two miss-heavy cores never collided");
        // Private caches: contention must not change cache outcomes.
        assert_eq!(solo.total_stats(), c0.total_stats());
    }

    #[test]
    fn contended_segment_is_deterministic_and_no_cheaper_than_solo() {
        let run = || {
            let (mut h, enemy) = pair();
            let mut co = vec![CoRunner::new(enemy, ProcessId::new(9), trace(11, 300))];
            segment(&mut h, ProcessId::new(1), &trace(12, 500), &mut co, None)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        let primary = a.cores[0];
        assert!(primary.cycles >= primary.base_cycles);
        assert_eq!(
            primary.cycles,
            primary.base_cycles + primary.bus_wait + primary.mshr_stall_cycles
        );
    }

    #[test]
    fn core_order_only_moves_queuing_waits() {
        // Three *distinct* cores with fixed traces, permuted: clock
        // ties resolve by core index, so individual queuing waits may
        // shift — but everything the caches and MSHRs decide is
        // ordering-invariant per core (ops, base cycles, transaction
        // and stall/coalesce counts), and so is the bus's transaction
        // total. An engine bug that let the interleaving leak into
        // cache or MSHR outcomes would trip this (the CI determinism
        // probe pins the same property for a segment's measured
        // core).
        let traces: Vec<Vec<TraceOp>> =
            (0..3u64).map(|c| trace(60 + c, 400 + 50 * c as usize)).collect();
        let build = |c: u64| {
            let mut h = SetupKind::TsCache.build(80 + c);
            h.set_process_seed(ProcessId::new(1), Seed::new(17 + c));
            h
        };
        let order_invariant = |r: &CoreReport| {
            (
                r.ops,
                r.base_cycles,
                r.mem_reads,
                r.mem_writebacks,
                r.mshr_stall_cycles,
                r.mshr_coalesced,
            )
        };
        let run = |perm: [usize; 3]| {
            let mut hs: Vec<Hierarchy> = perm.iter().map(|&c| build(c as u64)).collect();
            let mut cores: Vec<CoreRun<'_>> = hs
                .iter_mut()
                .zip(perm.iter())
                .map(|(h, &c)| CoreRun { hierarchy: h, pid: ProcessId::new(1), ops: &traces[c] })
                .collect();
            let out = execute(&mut cores, &mut [], None, &SystemConfig::default(), None);
            // Report per original core id, independent of position.
            let mut by_core = [CoreReport::default(); 3];
            for (pos, &c) in perm.iter().enumerate() {
                by_core[c] = out.cores[pos];
            }
            (by_core, out.bus)
        };
        let (plain, plain_bus) = run([0, 1, 2]);
        let (permuted, permuted_bus) = run([2, 0, 1]);
        for c in 0..3 {
            assert_eq!(
                order_invariant(&plain[c]),
                order_invariant(&permuted[c]),
                "core {c}: ordering leaked into cache/MSHR outcomes"
            );
        }
        assert_eq!(plain_bus.transactions, permuted_bus.transactions);
        assert_eq!(plain_bus.busy_cycles, permuted_bus.busy_cycles);
        assert_ne!(
            order_invariant(&plain[0]),
            order_invariant(&plain[1]),
            "cores must be genuinely distinct"
        );
    }

    /// A small shared-LLC platform: `n` private L1-only cores (distinct
    /// pids 1..=n, distinct RNG streams) plus one shared 64×4 LLC.
    fn shared_platform(n: usize, salt: u64) -> (Vec<Hierarchy>, Vec<ProcessId>, SharedLlc) {
        use tscache_core::cache::Cache;
        use tscache_core::geometry::CacheGeometry;
        use tscache_core::placement::PlacementKind;
        use tscache_core::replacement::ReplacementKind;
        let l1 = CacheGeometry::new(8, 2, 32).unwrap();
        let mk = |label: &str, geom, s| {
            Cache::new(label, geom, PlacementKind::RandomModulo, ReplacementKind::Random, s)
        };
        let mut cores = Vec::new();
        let mut pids = Vec::new();
        for c in 0..n as u64 {
            let mut h = Hierarchy::from_private_parts(
                mk("L1I", l1, salt ^ c ^ 0x11),
                mk("L1D", l1, salt ^ c ^ 0x22),
                Vec::new(),
                1,
                80,
            );
            let pid = ProcessId::new(1 + c as u16);
            h.set_process_seed(pid, Seed::new(salt.wrapping_mul(31) ^ c | 1));
            cores.push(h);
            pids.push(pid);
        }
        let mut llc =
            SharedLlc::new(mk("SLLC", CacheGeometry::new(64, 4, 32).unwrap(), salt ^ 0x55), 10, 80);
        for (c, &pid) in pids.iter().enumerate() {
            llc.set_process_seed(pid, Seed::new(salt.wrapping_mul(77) ^ c as u64 | 1));
        }
        (cores, pids, llc)
    }

    #[test]
    fn shared_batch_engine_matches_shared_reference_engine() {
        for arbitration in Arbitration::ALL {
            let cfg = SystemConfig {
                bus: BusConfig { arbitration, ..BusConfig::default() },
                ..SystemConfig::default()
            };
            let traces = [trace(51, 700), trace(52, 600)];
            let run = |reference: bool| {
                let (mut hs, pids, mut llc) = shared_platform(2, 5);
                for h in &mut hs {
                    h.set_write_policy(tscache_core::cache::WritePolicy::WriteBack);
                }
                llc.set_write_policy(tscache_core::cache::WritePolicy::WriteBack);
                let mut cores: Vec<CoreRun<'_>> = hs
                    .iter_mut()
                    .zip(&pids)
                    .zip(&traces)
                    .map(|((h, &pid), t)| CoreRun { hierarchy: h, pid, ops: t })
                    .collect();
                let out = if reference {
                    execute_reference(&mut cores, &mut [], Some(&mut llc), &cfg)
                } else {
                    execute(&mut cores, &mut [], Some(&mut llc), &cfg, None)
                };
                let stats: Vec<_> = hs.iter().map(|h| h.total_stats()).collect();
                let contents: Vec<_> = llc.cache().contents().collect();
                (out, stats, *llc.cache().stats(), contents)
            };
            assert_eq!(run(true), run(false), "{arbitration}");
        }
    }

    #[test]
    fn shared_llc_hit_pays_no_bus_transaction() {
        // One core cycling 32 lines: they thrash the tiny L1 but fit
        // the 256-line LLC, so steady state is all LLC hits — and the
        // bus must see exactly the LLC misses, not the L1 misses.
        let ops: Vec<TraceOp> =
            (0..2000u64).map(|i| TraceOp::read(Addr::new((i % 32) * 4096))).collect();
        let (mut hs, pids, mut llc) = shared_platform(1, 9);
        let out = segment(&mut hs[0], pids[0], &ops, &mut [], Some(&mut llc));
        let llc_stats = llc.cache().stats();
        assert!(llc_stats.hits() > 0, "no steady-state LLC hits");
        assert_eq!(out.cores[0].mem_reads, llc_stats.misses(), "bus reads ≠ LLC misses");
        assert_eq!(out.bus.transactions, out.cores[0].mem_reads + out.cores[0].mem_writebacks);
        assert!(
            hs[0].l1d().stats().misses() > llc_stats.misses(),
            "L1 misses should exceed LLC misses (hits must bypass the bus)"
        );
    }

    #[test]
    fn shared_llc_makes_contention_state_visible_and_partitions_hide_it() {
        // The victim cycles a working set that is LLC-resident when
        // alone. An enemy streaming through the same shared LLC evicts
        // victim lines — unless per-core way partitions isolate them.
        // The footprints are disjoint: cores sharing *data* would hit
        // on each other's lines (the Flush+Reload channel), which no
        // partition closes.
        let victim_ops: Vec<TraceOp> =
            (0..3000u64).map(|i| TraceOp::read(Addr::new((i % 48) * 4096))).collect();
        let enemy_ops: Vec<TraceOp> = trace(83, 3000)
            .into_iter()
            .map(|op| TraceOp { kind: op.kind, addr: Addr::new(op.addr.as_u64() + (1 << 24)) })
            .collect();
        let run = |with_enemy: bool, partitioned: bool| {
            let (mut hs, pids, mut llc) = shared_platform(2, 13);
            if partitioned {
                llc.set_way_partition(pids[0], 0, 2);
                llc.set_way_partition(pids[1], 2, 4);
            }
            let mut cores = Vec::new();
            let mut iter = hs.iter_mut();
            let h0 = iter.next().unwrap();
            cores.push(CoreRun { hierarchy: h0, pid: pids[0], ops: &victim_ops });
            if with_enemy {
                cores.push(CoreRun {
                    hierarchy: iter.next().unwrap(),
                    pid: pids[1],
                    ops: &enemy_ops,
                });
            }
            let out = execute(&mut cores, &mut [], Some(&mut llc), &SystemConfig::default(), None);
            (out.cores[0], llc.cache().stats().cross_process_evictions())
        };
        let (solo, _) = run(false, false);
        let (contended, cross) = run(true, false);
        assert!(cross > 0, "enemy never evicted a victim LLC line");
        assert!(
            contended.mem_reads > solo.mem_reads,
            "shared-LLC contention must cost the victim extra off-chip reads \
             (solo {}, contended {})",
            solo.mem_reads,
            contended.mem_reads
        );
        let (partitioned, cross_part) = run(true, true);
        assert_eq!(cross_part, 0, "partitioned LLC still saw cross-core evictions");
        // Partitioned victim behaves as if partitioned-solo: the enemy
        // changes nothing it can observe in its own cache outcomes.
        let (part_solo, _) = run(false, true);
        assert_eq!(partitioned.mem_reads, part_solo.mem_reads);
        assert_eq!(partitioned.base_cycles, part_solo.base_cycles);
    }

    #[test]
    fn contended_shared_segment_is_deterministic_and_accounts_cycles() {
        let run = || {
            let (mut hs, pids, mut llc) = shared_platform(2, 21);
            let mut hs = hs.drain(..);
            let mut h = hs.next().unwrap();
            let enemy = hs.next().unwrap();
            let mut co = vec![CoRunner::new(enemy, pids[1], trace(31, 300))];
            let seg = segment(&mut h, pids[0], &trace(32, 500), &mut co, Some(&mut llc));
            (seg, *llc.cache().stats())
        };
        let (a, llc_a) = run();
        let (b, llc_b) = run();
        assert_eq!(a, b);
        assert_eq!(llc_a, llc_b);
        assert!(a.cores[1].ops > 0, "enemy never ran");
        let primary = a.cores[0];
        assert_eq!(
            primary.cycles,
            primary.base_cycles + primary.bus_wait + primary.mshr_stall_cycles
        );
    }

    #[test]
    fn co_runner_flush_keeps_per_op_position_and_rewinds_lookahead() {
        let ops: Vec<TraceOp> = (0..10u64).map(|i| TraceOp::read(Addr::new(i * 4096))).collect();
        // Per-op walk (a flush in the trace rules out pre-walking): the
        // cursor is the next op, so a flush must not move it.
        let mut per_op_ops = ops.clone();
        per_op_ops.push(TraceOp::flush(Addr::new(0)));
        let (mut hs, pids, llc) = shared_platform(1, 3);
        let mut co = CoRunner::new(hs.remove(0), pids[0], per_op_ops.clone());
        for _ in 0..5 {
            advance(&mut co, Some(&llc), Walk::Batched);
        }
        assert!(co.cursor.events.is_empty(), "a flushing trace was pre-walked");
        co.flush();
        let op = advance(&mut co, Some(&llc), Walk::Batched);
        assert_eq!(op, per_op_ops[5], "flush rewound a per-op co-runner's trace position");
        // Pre-walked chunk: the unmerged lookahead is discarded,
        // resuming at the first unmerged op (which re-executes on the
        // cold cache).
        let (mut hs, pids, llc) = shared_platform(1, 4);
        let mut co = CoRunner::new(hs.remove(0), pids[0], ops.clone());
        for _ in 0..3 {
            advance(&mut co, Some(&llc), Walk::Batched);
        }
        assert_eq!(co.cursor.events.len(), ops.len(), "coherence-free trace not pre-walked");
        co.flush();
        assert!(co.cursor.events.is_empty(), "flush kept the pre-walked lookahead");
        let op = advance(&mut co, Some(&llc), Walk::Batched);
        assert_eq!(op, ops[3], "flush did not resume at the first unconsumed op");
    }

    #[test]
    fn reclassify_reacts_to_late_coherent_ranges() {
        let ops: Vec<TraceOp> = (0..12u64).map(|i| TraceOp::read(Addr::new(i * 4096))).collect();
        let (mut hs, pids, mut llc) = shared_platform(1, 5);
        let mut co = CoRunner::new(hs.remove(0), pids[0], ops.clone());
        for _ in 0..4 {
            advance(&mut co, Some(&llc), Walk::Batched);
        }
        assert_eq!(co.cursor.prebatch, Some(true), "coherence-free trace must be batchable");
        // The platform declares a coherent range covering the trace
        // *after* the co-runner already ran: the memoized verdict and
        // the pre-walked lookahead are both stale.
        llc.add_coherent_range(Addr::new(0), 12 * 4096);
        co.reclassify();
        let op = advance(&mut co, Some(&llc), Walk::Batched);
        assert_eq!(co.cursor.prebatch, Some(false), "stale pre-batchability verdict survived");
        assert!(co.cursor.events.is_empty(), "coherence-affected trace was pre-walked");
        assert_eq!(op, ops[4], "reclassify lost the first unconsumed op");
    }

    #[test]
    fn tdma_bounds_per_transaction_wait() {
        let slot_cycles = 16u32;
        let cfg = SystemConfig {
            bus: BusConfig { arbitration: Arbitration::Tdma { slot_cycles }, service_cycles: 8 },
            mshr: None,
        };
        let (mut c0, mut c1) = pair();
        let pid = ProcessId::new(1);
        let (t0, t1) = (trace(31, 600), trace(32, 600));
        let out = execute(
            &mut [
                CoreRun { hierarchy: &mut c0, pid, ops: &t0 },
                CoreRun { hierarchy: &mut c1, pid, ops: &t1 },
            ],
            &mut [],
            None,
            &cfg,
            None,
        );
        // Every transaction waits at most one full TDMA round.
        let round = (slot_cycles as u64) * 2;
        for (i, core) in out.cores.iter().enumerate() {
            let txns = core.mem_reads + core.mem_writebacks;
            assert!(core.bus_wait <= txns * round, "core {i} waited beyond the TDMA bound");
        }
    }

    #[test]
    fn mshr_disabled_never_stalls_or_coalesces() {
        let cfg = SystemConfig { mshr: None, ..SystemConfig::default() };
        let (mut c0, mut c1) = pair();
        let pid = ProcessId::new(1);
        let (t0, t1) = (trace(41, 400), trace(42, 400));
        let out = execute(
            &mut [
                CoreRun { hierarchy: &mut c0, pid, ops: &t0 },
                CoreRun { hierarchy: &mut c1, pid, ops: &t1 },
            ],
            &mut [],
            None,
            &cfg,
            None,
        );
        for core in &out.cores {
            assert_eq!(core.mshr_stall_cycles, 0);
            assert_eq!(core.mshr_coalesced, 0);
        }
    }

    #[test]
    fn co_runner_mshr_windows_expire_with_its_op_sequence() {
        // A cyclic enemy trace of 16 lines all aliasing one L1 set:
        // every access misses L1, and the revisit distance (16 ops)
        // exceeds the MSHR op window (8), so entries must have expired
        // by the time a line comes around again — zero coalescing. A
        // frozen sequence number would instead pin the first 8 lines
        // in the file forever and falsely coalesce every revisit.
        let enemy_ops: Vec<TraceOp> =
            (0..16u64).map(|i| TraceOp::read(Addr::new(i * 128 * 32))).collect();
        let mut enemy = SetupKind::Deterministic.build(3);
        enemy.access_batch(ProcessId::new(9), &enemy_ops); // warm L2
        let mut co = vec![CoRunner::new(enemy, ProcessId::new(9), enemy_ops)];
        let mut h = SetupKind::Deterministic.build(1);
        let seg = segment(&mut h, ProcessId::new(1), &trace(5, 2000), &mut co, None);
        assert!(seg.cores[1].ops > 32, "enemy barely ran; test needs several trace cycles");
        assert_eq!(
            seg.cores[1].mshr_coalesced, 0,
            "revisit distance exceeds the MSHR window — nothing may coalesce"
        );
    }

    #[test]
    fn tiny_mshr_file_stalls_a_miss_streak() {
        let cfg = SystemConfig {
            mshr: Some(MshrConfig { entries: 1, window_ops: 16, stall_cycles: 6 }),
            ..SystemConfig::default()
        };
        let mut h = SetupKind::Deterministic.build(1);
        // A pure miss streak: distinct lines, no reuse.
        let t: Vec<TraceOp> = (0..400u64).map(|i| TraceOp::read(Addr::new(i * 4096))).collect();
        let pid = ProcessId::new(1);
        let out =
            execute(&mut [CoreRun { hierarchy: &mut h, pid, ops: &t }], &mut [], None, &cfg, None);
        assert!(out.cores[0].mshr_stall_cycles > 0, "1-entry MSHR never stalled a miss streak");
    }
}
