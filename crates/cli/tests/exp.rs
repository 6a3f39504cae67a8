//! `fakeaudit exp` through the built binary: stdout carries exactly the
//! artifact, `--out` writes the same bytes and nothing else, and without
//! `--out` no file is written.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// An empty working directory of the test's own.
fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fakeaudit-exp-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create work dir");
    dir
}

fn fakeaudit(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fakeaudit"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("fakeaudit runs")
}

fn files_in(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("read work dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    names
}

#[test]
fn out_holds_exactly_what_stdout_carries_and_nothing_else_is_written() {
    let dir = workdir("out");
    let args = ["exp", "exp_detect_time", "--quick", "--seed", "7"];
    let printed = fakeaudit(&dir, &args);
    assert!(printed.status.success(), "{printed:?}");
    assert!(
        printed.stdout.starts_with(b"{\n"),
        "stdout is the JSON artifact"
    );
    assert!(String::from_utf8_lossy(&printed.stderr).starts_with("E14:"));
    assert!(files_in(&dir).is_empty(), "no --out, no file");

    let written = fakeaudit(&dir, &[&args[..], &["--out", "monitor.json"]].concat());
    assert!(written.status.success(), "{written:?}");
    assert!(written.stdout.is_empty(), "the artifact went to the file");
    assert_eq!(files_in(&dir), ["monitor.json"]);
    assert_eq!(
        std::fs::read(dir.join("monitor.json")).expect("read --out file"),
        printed.stdout
    );
    std::fs::remove_dir_all(&dir).expect("remove work dir");
}

#[test]
fn list_names_every_experiment_and_a_stray_option_writes_nothing() {
    let dir = workdir("list");
    let list = fakeaudit(&dir, &["exp", "--list"]);
    assert!(list.status.success(), "{list:?}");
    let text = String::from_utf8(list.stdout).expect("utf-8 list");
    assert_eq!(text.lines().count(), 17, "{text}");
    assert!(text.lines().any(|l| l.starts_with("exp_chaos ")), "{text}");

    let stray = fakeaudit(
        &dir,
        &["exp", "exp_bias", "--persist", "history", "--out", "x"],
    );
    assert!(!stray.status.success());
    assert!(String::from_utf8_lossy(&stray.stderr).contains("--persist"));
    assert!(files_in(&dir).is_empty(), "a rejected run writes nothing");
    std::fs::remove_dir_all(&dir).expect("remove work dir");
}
