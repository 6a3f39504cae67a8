//! The trace path through the built binary: `serve-sim --telemetry`
//! writes the same bytes twice for one seed, every `trace` action reads
//! that trace, and the Chrome export is JSON holding one record per
//! trace line beside its thread-name metadata.

use fakeaudit_telemetry::json::{self, Value};
use std::path::PathBuf;
use std::process::{Command, Output};

fn fakeaudit(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_fakeaudit"))
        .args(args)
        .output()
        .expect("fakeaudit runs");
    assert!(out.status.success(), "fakeaudit {args:?} failed: {out:?}");
    out
}

/// Writes the seed-7 simulator trace to a file of this test's own.
fn seed7_trace(name: &str) -> (PathBuf, Vec<u8>) {
    let path = std::env::temp_dir().join(format!(
        "fakeaudit-trace-{name}-{}.jsonl",
        std::process::id()
    ));
    let arg = path.to_str().expect("temp path is UTF-8");
    fakeaudit(&["serve-sim", "--seed", "7", "--quiet", "--telemetry", arg]);
    let bytes = std::fs::read(&path).expect("trace written");
    (path, bytes)
}

#[test]
fn a_seeded_trace_is_byte_identical_and_every_trace_action_reads_it() {
    let (first, bytes) = seed7_trace("a");
    let (second, again) = seed7_trace("b");
    std::fs::remove_file(second).expect("remove second trace");
    assert!(!bytes.is_empty());
    assert!(bytes == again, "same seed, different trace bytes");

    let input = first.to_str().expect("temp path is UTF-8");
    for action in ["analyze", "slo", "profile"] {
        fakeaudit(&["trace", action, "--input", input]);
    }
    let export = fakeaudit(&["trace", "export", "--input", input, "--format", "chrome"]);
    std::fs::remove_file(&first).expect("remove trace");

    let text = String::from_utf8(export.stdout).expect("export is UTF-8");
    let doc = json::parse(&text).expect("the Chrome export parses");
    let records = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("a traceEvents array");
    let events = records
        .iter()
        .filter(|r| r.get("ph").and_then(Value::as_str) != Some("M"))
        .count();
    let lines = bytes.iter().filter(|&&b| b == b'\n').count();
    assert_eq!(events, lines, "one exported record per trace line");
    assert!(records.len() > events, "thread-name metadata is exported");
}
