//! A reader that closes `lumen`'s stdout early (`lumen all | head -1`)
//! ends the run quietly: no panic message, no panic exit status.

use std::process::{Command, Stdio};

#[test]
fn closed_stdout_pipe_is_a_quiet_exit() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_lumen"))
        .arg("all")
        .env_remove("LUMEN_CACHE_DIR")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("lumen starts");
    // Close the read end before the first line is written, so every
    // write to stdout fails with a broken pipe.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("lumen exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("panicked"),
        "panic text on stderr: {stderr}"
    );
    assert_ne!(out.status.code(), Some(101), "panic exit status");
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
}
