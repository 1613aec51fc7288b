//! What the benchmark reads from the host: process CPU time, peak
//! resident memory, the core count, and a scratch directory that is
//! removed again however the run ends.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// `/proc/<pid>/stat` counts CPU time in `USER_HZ` ticks, which Linux
/// fixes at 100 per second on every architecture this runs on.
const USER_HZ: f64 = 100.0;

/// Process CPU seconds so far (user + system, every thread), from
/// fields 14 and 15 of `/proc/self/stat`. 0 where `/proc` is absent.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    parse_cpu_ticks(&stat).map_or(0.0, |t| t as f64 / USER_HZ)
}

/// utime + stime out of one `/proc/<pid>/stat` line. The command name
/// (field 2) may hold spaces and parentheses, so fields are counted
/// from the *last* `)`.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state); utime is field 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size in MB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    parse_vm_hwm_kb(&status).map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `out/` in the benchmark's own directory (the one the package was
/// built from), created on demand. Everything the benchmark writes lands
/// under it.
pub fn out_dir() -> std::io::Result<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// A fresh directory under `out/tmp/`, removed on drop — also when the
/// run fails or panics, so no data dir outlives its workload.
#[derive(Debug)]
pub struct TempDir(PathBuf);

static NEXT_TEMP: AtomicU64 = AtomicU64::new(0);

impl TempDir {
    /// Creates `out/tmp/<pid>-<n>`.
    pub fn new() -> std::io::Result<Self> {
        let n = NEXT_TEMP.fetch_add(1, Ordering::Relaxed);
        let path = out_dir()?
            .join("tmp")
            .join(format!("{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_survive_a_hostile_command_name() {
        let line = "123 (a) b (c)) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 4 0 99 1 2";
        assert_eq!(parse_cpu_ticks(line), Some(300));
        assert_eq!(parse_cpu_ticks("no parens"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kb() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t  20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480));
        assert_eq!(parse_vm_hwm_kb("Name: x\n"), None);
    }

    #[test]
    fn temp_dirs_are_distinct_and_removed_on_drop() {
        let a = TempDir::new().unwrap();
        let b = TempDir::new().unwrap();
        assert_ne!(a.path(), b.path());
        let kept = a.path().to_path_buf();
        assert!(kept.is_dir());
        drop(a);
        assert!(!kept.exists());
        drop(b);
    }
}
