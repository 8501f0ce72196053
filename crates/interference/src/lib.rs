//! # tscache-interference — multi-core contention modelling
//!
//! The shared-resource interference layer of the reproduction: in a
//! high-performance multicore, time-predictability is threatened by
//! *contention* on shared hardware as much as by cache layout. This
//! crate models the three mechanisms the paper's setting cares about:
//!
//! * a **shared memory bus** ([`bus`]) serializing every off-chip
//!   transaction under round-robin, fixed-priority or TDMA
//!   arbitration;
//! * **MSHR files** ([`mshr`]) bounding miss-level parallelism per
//!   cache level and coalescing overlapping misses to one fill;
//! * **multi-core execution** ([`multicore`]): one deterministic
//!   event-merge loop ([`execute`]) over N cores with private
//!   [`Hierarchy`](tscache_core::hierarchy::Hierarchy) instances — finite
//!   traces run to completion ([`CoreRun`]) and persistent cyclic enemy
//!   cores ([`CoRunner`]) — whose last-level misses and memory-bound
//!   writebacks contend for the bus. It pre-walks private levels through
//!   the hierarchy batch path; [`execute_reference`] runs the same loop
//!   with per-op scalar walks, and the differential suite pins the two
//!   bit-identical.
//!
//! With private hierarchies, contention is timing-only by
//! construction: per-core cache contents, statistics and RNG streams
//! are exactly those of a solo run, so every existing
//! differential/property suite keeps its meaning and a contended pWCET
//! curve can never undercut the solo curve of the same workload.
//!
//! With a **shared last level**
//! ([`SharedLlc`](tscache_core::hierarchy::SharedLlc), passed to the
//! same loop), contention additionally reaches cache *state*: cores
//! evict each other's shared-level lines — the cross-core Prime+Probe
//! channel of the §7 partitioning ablation — unless per-core way
//! partitions on the shared level restore isolation. On a coherent
//! platform every op's MSI actions run in one function, [`coherence`],
//! shared by the merge loop and the machine's scalar ops. Either way
//! the loop stays deterministic and bit-identical to its reference
//! walk.

pub mod bus;
pub mod mshr;
pub mod multicore;

pub use bus::{Arbitration, Bus, BusConfig, BusReport};
pub use mshr::{MshrConfig, MshrFile, MshrOutcome};
pub use multicore::{
    coherence, execute, execute_reference, CoRunner, CoherentOp, ContentionConfig, CoreReport,
    CoreRun, Cores, InterferenceOutcome, SystemConfig,
};
