//! Building `ncar-bench` from the checkout and running `ncar-bench serve`
//! as a child process.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use sxd::Client;

/// Cargo's target directory for builds started from the checkout root:
/// `$CARGO_TARGET_DIR` when set (relative to the root), else `target`.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// Build the release `ncar-bench` binary of the checkout in the current
/// directory and return its path. Fails when the current directory is not
/// a checkout of the repository.
pub fn build() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet", "-p", "ncar-bench", "--bin"])
        .arg("ncar-bench")
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building ncar-bench failed ({status})"));
    }
    let bin = target_dir().join("release").join("ncar-bench");
    if !bin.is_file() {
        return Err(format!("{} is missing after the build", bin.display()));
    }
    Ok(bin)
}

/// A running `ncar-bench serve`. Dropping it kills and reaps the child, so
/// no error path leaves a daemon behind.
pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    /// The public endpoint (the router, for a cluster).
    pub addr: String,
    /// Member addresses of a cluster, in member-index order; empty for a
    /// single daemon.
    pub members: Vec<String>,
}

impl Daemon {
    /// Spawn `bin serve <args>` on an ephemeral port and wait for its
    /// readiness lines (`sxd listening on`, plus `sxd cluster:` when
    /// `--cluster` is among the args).
    pub fn spawn(bin: &Path, args: &[String]) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut daemon = Daemon {
            child,
            stdout: BufReader::new(stdout),
            addr: String::new(),
            members: Vec::new(),
        };
        let clustered = args.iter().any(|a| a == "--cluster");
        let mut line = String::new();
        while daemon.addr.is_empty() || (clustered && daemon.members.is_empty()) {
            line.clear();
            match daemon.stdout.read_line(&mut line) {
                Ok(0) | Err(_) => return Err("daemon exited before it was ready".into()),
                Ok(_) => {}
            }
            if let Some(addr) = line.trim().strip_prefix("sxd listening on ") {
                daemon.addr = addr.to_string();
            } else if let Some(rest) = line.trim().strip_prefix("sxd cluster: ") {
                let addrs = rest.split_once(" on ").map_or("", |(_, a)| a);
                daemon.members = addrs.split_whitespace().map(str::to_string).collect();
            }
        }
        Ok(daemon)
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The daemon's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("cannot read the daemon's /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM line in /proc status".into())
    }

    /// Ask the daemon to shut down and wait for it to exit cleanly.
    pub fn stop(mut self) -> Result<(), String> {
        Client::connect(&self.addr)
            .and_then(|mut c| c.shutdown())
            .map_err(|e| format!("shutdown request failed: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("daemon did not exit within 30s of shutdown".into()),
                Err(e) => return Err(format!("waiting for the daemon: {e}")),
            }
        }
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
