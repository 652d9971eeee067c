//! The serving subcommands reject flags they do not read, before they
//! open any socket: a retired or misspelt flag must not start a daemon
//! or reach a server silently.

use std::process::Command;
use std::time::{Duration, Instant};

#[test]
fn stats_rejects_an_unknown_flag_before_connecting() {
    // Nothing listens on port 1: reaching the connection would fail too,
    // but with a connection error instead of the flag.
    let out = Command::new(env!("CARGO_BIN_EXE_ncar-bench"))
        .args(["stats", "--dispatchers", "4", "--addr", "127.0.0.1:1"])
        .output()
        .expect("run ncar-bench stats");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "stats accepted --dispatchers: {stderr}");
    assert!(stderr.contains("unknown flag --dispatchers"), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "only the flag error, no connection error: {stderr}");
}

#[test]
fn serve_rejects_an_unknown_flag_instead_of_starting() {
    for flag in ["--dispatchers", "--workers", "--admit-timeout"] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_ncar-bench"))
            .args(["serve", "--addr", "127.0.0.1:0", flag, "4"])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn ncar-bench serve");
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            if let Some(status) = child.try_wait().expect("poll serve") {
                break status;
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                panic!("serve {flag} 4 started a daemon");
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        let out = child.wait_with_output().expect("collect serve output");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!status.success());
        assert!(stderr.contains(&format!("unknown flag {flag}")), "{stderr}");
        assert!(out.stdout.is_empty(), "serve printed {:?}", String::from_utf8_lossy(&out.stdout));
    }
}
