//! `repro-cli` writes its output files before it prints, and a closed
//! stdout ends the printing quietly: a reader that stops early
//! (`repro-cli sweep … --json-out f.json | head -n 1`) neither loses
//! `f.json` nor turns the run into a panic.

use simcore::Json;
use std::path::Path;
use std::process::{Command, Stdio};

/// Run `repro-cli` with the space-separated `args`, then `out`, with
/// its stdout read end closed at once; return its exit code and stderr.
fn run_closed(args: &str, out: &Path) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro-cli"))
        .args(args.split_whitespace())
        .arg(out)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn repro-cli");
    drop(child.stdout.take());
    let done = child.wait_with_output().expect("wait for repro-cli");
    let stderr = String::from_utf8_lossy(&done.stderr).into_owned();
    (done.status.code(), stderr)
}

/// The file at `path` exists and parses as a JSON document with `schema`.
fn schema_of(path: &Path) -> String {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    doc.get("schema")
        .and_then(Json::as_str)
        .expect("a schema field")
        .to_string()
}

#[test]
fn closed_stdout_keeps_the_output_files_and_exits_0() {
    let dir = std::env::temp_dir().join(format!("repro-cli-closed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the test directory");

    let sweep_json = dir.join("sweep.json");
    let sweep = "sweep --nodes 2 --vms 2 --data-mb 16 --pairs cc,dd --json-out";
    let (code, err) = run_closed(sweep, &sweep_json);
    assert_eq!((code, err.as_str()), (Some(0), ""), "{sweep}");
    assert_eq!(schema_of(&sweep_json), "adios.bench/1");

    let service_json = dir.join("service.json");
    let serve = "serve-jobs --nodes 2 --vms 2 --data-mb 16 --duration-s 60 --rate 6 --seed 42 \
                 --tenants sort:1 --policy cc --metrics-out";
    let (code, err) = run_closed(serve, &service_json);
    assert_eq!((code, err.as_str()), (Some(0), ""), "{serve}");
    assert_eq!(schema_of(&service_json), "adios.metrics/3");

    std::fs::remove_dir_all(&dir).expect("remove the test directory");
}
