//! A reader that closes stdout early (`amped … | head -1`) must not make
//! the CLI panic: the output is larger than a pipe buffer, so the rest of
//! the write hits a closed pipe, and the process exits quietly.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn closing_stdout_after_one_line_exits_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_amped"))
        .args([
            "search",
            "--model",
            "megatron-145b",
            "--accel",
            "a100",
            "--nodes",
            "128",
            "--per-node",
            "8",
            "--batch",
            "2048",
            "--json",
            "--top",
            "1000",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("amped spawns");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("reads one line");
    assert_eq!(first.trim(), "{");
    // The reader (and with it the pipe's read end) is dropped here.
    let out = child.wait_with_output().expect("amped exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "status {:?}, stderr:\n{stderr}",
        out.status
    );
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
}
