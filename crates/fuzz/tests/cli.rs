//! Integration tests of the `rewire-fuzz` command line: a malformed
//! invocation prints the usage and exits 2 instead of panicking.

use std::process::Command;

fn usage_error(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_rewire-fuzz"))
        .args(args)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: rewire-fuzz"), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    stderr
}

#[test]
fn bad_arguments_are_usage_errors() {
    assert!(usage_error(&["--bogus"]).contains("`--bogus`"));
    assert!(usage_error(&["--seeds", "5..3"]).contains("is empty"));
    usage_error(&["--seeds=7"]);
    usage_error(&["--jobs", "0"]);
    usage_error(&["--budget-ms", "soon"]);
    assert!(usage_error(&["--replay"]).contains("needs a value"));
}
