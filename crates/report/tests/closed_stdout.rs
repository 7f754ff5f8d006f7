//! `adios-report` writes through a closed pipe without panicking: a
//! reader that stops early (`adios-report render doc.json | head`)
//! ends the output quietly, with the exit code the command would have
//! returned.

use std::process::{Command, Stdio};

/// A metrics document whose render and self-diff each print far more
/// than a pipe buffer holds, so the writer meets the closed read end
/// whether or not it started writing before the close.
fn big_doc(dir: &std::path::Path, name: &str, value: u64) -> std::path::PathBuf {
    let fields: Vec<String> = (0..5_000).map(|i| format!("\"metric_{i}\":{value}")).collect();
    let path = dir.join(name);
    let doc = format!("{{\"schema\":\"adios.metrics/2\",\"s\":{{{}}}}}", fields.join(","));
    std::fs::write(&path, doc).expect("write the test document");
    path
}

/// Run `adios-report` with its stdout read end closed at once; return
/// its exit code and stderr.
fn run_closed(args: &[&std::ffi::OsStr]) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_adios-report"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn adios-report");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for adios-report");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn closed_stdout_is_a_quiet_exit_with_the_commands_code() {
    let dir = std::env::temp_dir().join(format!("adios-report-closed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the test directory");
    let a = big_doc(&dir, "a.json", 1);
    let b = big_doc(&dir, "b.json", 2);

    let (code, err) = run_closed(&["render".as_ref(), a.as_os_str()]);
    assert_eq!((code, err.as_str()), (Some(0), ""), "render");

    // The diff verdict survives the closed pipe: documents that differ
    // still exit 2 under --fail-on-delta.
    let (code, err) =
        run_closed(&["diff".as_ref(), a.as_os_str(), b.as_os_str(), "--fail-on-delta".as_ref()]);
    assert_eq!((code, err.as_str()), (Some(2), ""), "diff --fail-on-delta");
    let (code, err) = run_closed(&["diff".as_ref(), a.as_os_str(), b.as_os_str()]);
    assert_eq!((code, err.as_str()), (Some(0), ""), "diff");

    std::fs::remove_dir_all(&dir).expect("remove the test directory");
}
