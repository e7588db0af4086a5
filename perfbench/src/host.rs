//! What every result is recorded with: the host fingerprint, the source
//! revision and the process's peak memory.

use std::path::Path;

/// CPU model, online CPU count and the engine's dispatched kernel tier.
pub fn fingerprint() -> (String, usize, &'static str) {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    (cpu, cpus, navft_nn::simd_kernel_name())
}

/// The git revision of the checkout, or — outside a git repository — the
/// [`source_digest`], so results from an exported tree still name the code
/// they measured.
pub fn revision(root: &Path, source_digest: &str) -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| source_digest.to_string())
}

/// An FNV-1a digest of the benchmarked sources (`Cargo.toml`,
/// `Cargo.lock` and every file under `crates/` and `perfbench/src/`):
/// unlike a git revision it also tells uncommitted edits apart.
pub fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    for dir in ["crates", "perfbench/src"] {
        collect_files(&root.join(dir), &mut files);
    }
    files.push(root.join("Cargo.toml"));
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for file in files {
        let name = file.strip_prefix(root).unwrap_or(&file).to_string_lossy().into_owned();
        for byte in name.bytes().chain(std::fs::read(&file).unwrap_or_default()) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("tree-{hash:016x}")
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// The process's peak resident set size in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
