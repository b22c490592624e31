//! `cli_all_quick`: what a user types and waits for. Runs the built
//! `xmp-experiments all --quick --seed N` as a subprocess in a scratch
//! directory next to the benchmark binary, and measures it from outside:
//! wall clock, exit status, stdout, and the child's resident high-water
//! mark polled from `/proc`.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// One subprocess repetition.
#[derive(Debug)]
pub struct CliRep {
    pub wall_s: f64,
    pub peak_rss_bytes: u64,
    pub ok: bool,
    pub stdout_bytes: u64,
    /// Digest of stdout (stderr carries the wall-clock banners).
    pub digest: u64,
}

/// The `xmp-experiments` binary `run.sh` built beside this executable.
pub fn find_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bin = exe.with_file_name("xmp-experiments");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "{} not found; build and run with examples/benchmark/run.sh",
            bin.display()
        ))
    }
}

fn scratch_root(bin: &Path) -> PathBuf {
    bin.parent()
        .expect("binary has a directory")
        .join("benchmark-scratch")
}

fn fresh_dir(bin: &Path, tag: &str) -> std::io::Result<PathBuf> {
    let dir = scratch_root(bin).join(format!("{}-{tag}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// `VmHWM` of a live process, in bytes.
fn vm_hwm(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// Set-up as the user pays it: prepare the working directory and start the
/// program (here: start it with no command, which prints usage and exits).
pub fn setup_once(bin: &Path) -> Result<f64, String> {
    let t0 = Instant::now();
    let dir = fresh_dir(bin, "setup").map_err(|e| format!("scratch dir: {e}"))?;
    let status = Command::new(bin)
        .current_dir(&dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    let secs = t0.elapsed().as_secs_f64();
    // Usage exits 2; anything else means the binary is not what we built.
    if status.code() != Some(2) && !status.success() {
        return Err(format!("{} without arguments: {status}", bin.display()));
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(secs)
}

/// One timed run of `args` (after the binary name) in a fresh directory.
pub fn run_once(bin: &Path, args: &[&str], seed: u64) -> Result<CliRep, String> {
    let dir = fresh_dir(bin, "run").map_err(|e| format!("scratch dir: {e}"))?;
    let t0 = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        .arg("--seed")
        .arg(seed.to_string())
        .current_dir(&dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut buf = Vec::new();
        stdout.read_to_end(&mut buf).map(|_| buf)
    });
    let pid = child.id();
    let mut peak = 0u64;
    let status = loop {
        peak = peak.max(vm_hwm(pid).unwrap_or(0));
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("wait: {e}"));
            }
        }
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let out = reader
        .join()
        .map_err(|_| "stdout reader panicked".to_string())?
        .map_err(|e| format!("read stdout: {e}"))?;
    let _ = std::fs::remove_dir_all(&dir);
    let mut h = DefaultHasher::new();
    out.hash(&mut h);
    Ok(CliRep {
        wall_s,
        peak_rss_bytes: peak,
        ok: status.success(),
        stdout_bytes: out.len() as u64,
        digest: h.finish(),
    })
}
