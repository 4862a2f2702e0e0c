//! What a run records about where it ran, and the one directory it may
//! write to.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Cores the process may use; recorded with every result that depends on
/// threads.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM line in /proc/self/status"))
}

/// `debug` or `release`, from how this binary was compiled.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The commit the working directory is at, read from `.git` without
/// starting a process; `unknown` outside a git checkout.
pub fn commit() -> String {
    let head = match fs::read_to_string(".git/HEAD") {
        Ok(h) => h,
        Err(_) => return "unknown".into(),
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(reference) => fs::read_to_string(Path::new(".git").join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
    }
}

/// Root of all on-disk state, inside the working directory (the driver's
/// checkout) and named in `.gitignore`.
pub const TMP_ROOT: &str = ".bench_tmp";

/// One run's scratch directory under [`TMP_ROOT`], removed when dropped —
/// on success, on error and on unwinding alike.
#[derive(Debug)]
pub struct RunDir {
    path: PathBuf,
}

impl RunDir {
    pub fn create(workload: &str, seed: u64) -> io::Result<Self> {
        let path = Path::new(TMP_ROOT).join(format!("{workload}-{seed}-{}", std::process::id()));
        // A stale directory of a killed run with the same pid is not ours
        // to trust.
        if path.exists() {
            fs::remove_dir_all(&path)?;
        }
        fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    /// A fresh, empty sub-directory (set-up runs several times per run).
    pub fn fresh(&self, name: &str) -> io::Result<PathBuf> {
        let p = self.path.join(name);
        if p.exists() {
            fs::remove_dir_all(&p)?;
        }
        fs::create_dir_all(&p)?;
        Ok(p)
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
        // Leaves the root only while another run or a kept trace uses it.
        let _ = fs::remove_dir(TMP_ROOT);
    }
}
