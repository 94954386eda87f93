//! Host measurements read from `/proc` (no `libc` is vendored): CPU time,
//! peak resident memory and steal time, plus the host/build fingerprint
//! attached to every result.

use std::fs;
use std::path::Path;
use std::process::Command;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (`USER_HZ`,
/// fixed at 100 on Linux for every userspace ABI).
const USER_HZ: f64 = 100.0;

fn read(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// CPU time of every live thread of this process, in seconds, from the
/// nanosecond `task/*/schedstat` counters. Threads that already exited
/// are not counted, so callers keep their worker threads alive across
/// the measured interval (the library's worker pool is persistent).
pub fn own_cpu_s() -> Result<f64, String> {
    let dir = "/proc/self/task";
    let entries = fs::read_dir(dir).map_err(|e| format!("cannot list {dir}: {e}"))?;
    let mut ns: u64 = 0;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot list {dir}: {e}"))?;
        let path = entry.path().join("schedstat");
        // A thread may exit between the listing and the read.
        let Ok(text) = fs::read_to_string(&path) else {
            continue;
        };
        let first = text.split_whitespace().next().unwrap_or("0");
        ns += first.parse::<u64>().unwrap_or(0);
    }
    Ok(ns as f64 * 1e-9)
}

/// User plus system CPU time of process `pid` in seconds, from
/// `/proc/<pid>/stat`. Includes threads that have exited, at tick
/// resolution (10 ms).
pub fn process_cpu_s(pid: u32) -> Result<f64, String> {
    let text = read(&format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 after the name.
    let after = text
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed /proc stat line")?;
    let fields: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| format!("malformed /proc/{pid}/stat"))
    };
    Ok((tick(11)? + tick(12)?) / USER_HZ)
}

/// Peak resident set (`VmHWM`) of process `pid` (`None`: this process),
/// in MiB.
pub fn peak_rss_mib(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = read(&path)?;
    let line = text
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or_else(|| format!("no VmHWM in {path}"))?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("malformed VmHWM in {path}"))?;
    Ok(kib / 1024.0)
}

/// Aggregate CPU tick counters from the first line of `/proc/stat`:
/// `(busy, steal)`, where busy is every non-idle tick the guest ran.
fn cpu_ticks() -> Result<(u64, u64), String> {
    let text = read("/proc/stat")?;
    let line = text.lines().next().ok_or("empty /proc/stat")?;
    let values: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    if values.len() < 8 {
        return Err("malformed /proc/stat".into());
    }
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user.
    let busy = values[0] + values[1] + values[2] + values[5] + values[6];
    Ok((busy, values[7]))
}

/// Measures steal between [`StealMeter::start`] and [`StealMeter::share`]:
/// the share of the CPU time the guest wanted (busy plus stolen ticks)
/// that the hypervisor gave to other guests. Idle ticks are left out, so
/// the share does not shrink when the workload leaves a vCPU idle.
pub struct StealMeter {
    start: (u64, u64),
}

impl StealMeter {
    pub fn start() -> Result<Self, String> {
        Ok(StealMeter {
            start: cpu_ticks()?,
        })
    }

    pub fn share(&self) -> Result<f64, String> {
        let (busy, steal) = cpu_ticks()?;
        let db = busy.saturating_sub(self.start.0);
        let ds = steal.saturating_sub(self.start.1);
        Ok(if db + ds == 0 {
            0.0
        } else {
            ds as f64 / (db + ds) as f64
        })
    }
}

/// `(key, value)` facts about the host and the build, in output order.
pub fn fingerprint(root: &Path, threads: usize, lanes: usize) -> Vec<(String, String)> {
    let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let mut avx512: Vec<&str> = cpuinfo
        .lines()
        .find(|l| l.starts_with("flags"))
        .map(|l| {
            l.split_whitespace()
                .filter(|f| f.starts_with("avx512"))
                .collect()
        })
        .unwrap_or_default();
    avx512.sort_unstable();
    avx512.dedup();
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let rustflags = fs::read_to_string(root.join(".cargo/config.toml"))
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.trim_start().starts_with("rustflags"))
                .map(|l| l.trim().to_string())
        })
        .unwrap_or_else(|| "none".into());
    vec![
        ("nproc".into(), nproc),
        ("cpu_model".into(), model),
        ("avx512".into(), avx512.join(",")),
        ("rustc".into(), rustc),
        ("rustflags".into(), rustflags),
        ("threads".into(), threads.to_string()),
        ("lanes".into(), lanes.to_string()),
        ("commit".into(), commit(root)),
    ]
}

/// The checked-out commit, or — in a plain source tree without `.git` —
/// an FNV-1a hash over the sources and manifests that make up the build.
fn commit(root: &Path) -> String {
    let git = root.join(".git");
    if let Ok(head) = fs::read_to_string(git.join("HEAD")) {
        let head = head.trim();
        let Some(reference) = head.strip_prefix("ref: ") else {
            return head.to_string();
        };
        if let Ok(id) = fs::read_to_string(git.join(reference)) {
            return id.trim().to_string();
        }
        let packed = fs::read_to_string(git.join("packed-refs")).unwrap_or_default();
        if let Some(line) = packed.lines().find(|l| l.ends_with(reference)) {
            return line.split_whitespace().next().unwrap_or("unknown").into();
        }
        return format!("unresolved {reference}");
    }
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut files = Vec::new();
    for top in [
        "Cargo.toml",
        "Cargo.lock",
        ".cargo",
        "src",
        "crates",
        "vendor",
    ] {
        collect_files(&root.join(top), &mut files);
    }
    files.sort();
    for file in &files {
        for byte in fs::read(file).unwrap_or_default() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("tree-fnv1a:{hash:016x} ({} files)", files.len())
}

fn collect_files(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = fs::read_dir(path) {
        for entry in entries.flatten() {
            collect_files(&entry.path(), out);
        }
    }
}
