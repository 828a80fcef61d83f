//! Host and knob facts recorded with every result, and the process's peak
//! memory.

use dualphase_als::obs::json::Json;
use dualphase_als::par::SchedConfig;

/// Environment variables that change how the program runs.
const KNOBS: [&str; 3] = ["ALS_THREADS", "ALS_SCHED", "ALS_SIMD"];

/// The knobs that are set in the environment, with their values. The
/// workloads pin their thread counts, but the scheduler and the SIMD path
/// follow the environment, so a set knob changes what is measured.
pub fn env_overrides() -> Vec<(&'static str, String)> {
    KNOBS.iter().filter_map(|&k| std::env::var(k).ok().map(|v| (k, v))).collect()
}

/// The SIMD path the simulation kernels take in this process.
pub fn simd_path() -> &'static str {
    if !dualphase_als::sim::kernel::simd_enabled() {
        return "scalar";
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return "avx2";
    }
    "chunked"
}

/// Host, toolchain, source and knob facts.
pub fn facts() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let overrides = env_overrides();
    let mut env = Json::obj();
    for (k, v) in &overrides {
        env.set(k, v.as_str());
    }
    Json::obj()
        .with("nproc", nproc)
        .with("cpu", cpu)
        .with("rustc", rustc)
        .with("git_head", git_head())
        .with("env_overrides", env)
        .with(
            "resolved",
            Json::obj()
                .with("ALS_THREADS", "ignored: each workload sets its thread count")
                .with("ALS_SCHED", format!("{:?}", SchedConfig::from_env()))
                .with("ALS_SIMD", simd_path()),
        )
}

/// The checked-out commit, read from `.git` in the working directory (the
/// benchmark runs from the repository root); `unknown` outside a git
/// checkout.
fn git_head() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|_| packed_ref(r))
            .unwrap_or(head),
        None => head,
    }
}

fn packed_ref(name: &str) -> Result<String, std::io::Error> {
    let packed = std::fs::read_to_string(".git/packed-refs")?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(name).map(|h| h.trim().to_string()))
        .ok_or_else(|| std::io::Error::other("ref not packed"))
}

/// Peak resident memory of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
