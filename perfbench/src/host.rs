//! The host fingerprint recorded with every result, and the process's
//! peak resident set.

use std::path::Path;
use std::process::Command;

/// Worker threads the host offers (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// The first `model name` line of `/proc/cpuinfo` and the SIMD tiers the
/// kernels dispatch on.
fn cpu() -> (String, bool, bool) {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = info
        .lines()
        .find_map(|line| line.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map_or("unknown", |(_, model)| model.trim())
        .to_string();
    let flags = info
        .lines()
        .find(|line| line.starts_with("flags"))
        .unwrap_or_default();
    let has = |flag: &str| flags.split_whitespace().any(|f| f == flag);
    (model, has("avx2"), has("avx512f"))
}

/// `rustc -V` of the toolchain on the path (the one cargo built with).
fn rustc_version() -> String {
    Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
        .arg("-V")
        .output()
        .ok()
        .filter(|output| output.status.success())
        .map_or("unknown".into(), |output| {
            String::from_utf8_lossy(&output.stdout).trim().to_string()
        })
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `unknown` outside a git checkout.
fn git_sha() -> String {
    let git = Path::new(".git");
    let read = |path: &Path| std::fs::read_to_string(path).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(sha) = read(&git.join(reference)) {
        return sha.trim().to_string();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (sha, name) = line.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// One JSON object describing the host and the run.
pub fn fingerprint(workload: &str, seed: u64, telemetry: bool) -> String {
    let (model, avx2, avx512) = cpu();
    let escape = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    format!(
        "{{\"nproc\":{},\"cpu\":\"{}\",\"avx2\":{avx2},\"avx512f\":{avx512},\
         \"rustc\":\"{}\",\"git_sha\":\"{}\",\"workload\":\"{workload}\",\"seed\":{seed},\
         \"telemetry\":{telemetry}}}",
        nproc(),
        escape(&model),
        escape(&rustc_version()),
        escape(&git_sha()),
    )
}

/// Peak resident set of this process (`VmHWM`) in MiB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kib = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kib.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
