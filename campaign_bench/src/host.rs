//! Host facts recorded with every run: core count, the pinned thread
//! count, build profile, code version, peak memory, and a calibration
//! rate that makes host drift visible (it normalizes nothing).

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use tscache_core::prng::mix64;
use tscache_fleet::digest::Fnv64;

/// Cores the OS grants this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The simulator's worker-thread count (`RAYON_NUM_THREADS`,
/// `TSCACHE_THREADS`, else `nproc`); the fleet gets this many workers.
pub fn threads() -> usize {
    tscache_core::parallel::thread_count()
}

/// `release` or `debug`.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The checked-out commit, read from `.git` in `root`; `none` outside
/// a git checkout.
pub fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|s| s.trim().to_string())
            .or_else(|_| packed_ref(&git, reference).ok_or(()))
            .unwrap_or_else(|_| format!("unresolved {reference}")),
    }
}

fn packed_ref(git: &Path, reference: &str) -> Option<String> {
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (hash, name) = l.split_once(' ')?;
        (name == reference).then(|| hash.to_string())
    })
}

/// FNV-1a over the simulator's sources (`Cargo.toml`, `Cargo.lock`,
/// `src/` and `crates/*/src/`, in sorted path order): identifies the
/// measured code where no git metadata exists.
pub fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    for name in ["Cargo.toml", "Cargo.lock"] {
        files.push(root.join(name));
    }
    collect_rs(&root.join("src"), &mut files);
    if let Ok(crates) = std::fs::read_dir(root.join("crates")) {
        for entry in crates.flatten() {
            files.push(entry.path().join("Cargo.toml"));
            collect_rs(&entry.path().join("src"), &mut files);
        }
    }
    files.sort();
    let mut h = Fnv64::new();
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            h.write(f.strip_prefix(root).unwrap_or(&f).to_string_lossy().as_bytes());
            h.write(&bytes);
        }
    }
    h.finish()
}

fn collect_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Millions of `mix64` steps per second of host time: a fixed
/// integer loop owned by the benchmark, so a change in it between runs
/// is host drift, not a change in the simulator. Median of five reps.
pub fn calibration_mops() -> f64 {
    const STEPS: u64 = 1 << 22;
    let mut rates: Vec<f64> = (0..5)
        .map(|rep| {
            // Host-time measurement is this benchmark's purpose.
            #[allow(clippy::disallowed_methods)]
            let start = Instant::now();
            let mut x = black_box(rep as u64);
            for _ in 0..STEPS {
                x = mix64(x);
            }
            black_box(x);
            STEPS as f64 / start.elapsed().as_secs_f64() / 1e6
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    rates[2]
}
