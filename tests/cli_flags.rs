//! `repro-cli` flag handling end to end: list flags parse as lists,
//! and bad values exit 2 with a message naming the flag — never a
//! panic.

use std::process::{Command, Output};

fn repro_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro-cli"))
        .args(args)
        .output()
        .expect("repro-cli runs")
}

#[test]
fn sweep_takes_a_node_list() {
    let out = repro_cli(&[
        "sweep",
        "--nodes",
        "2,3",
        "--vms",
        "1",
        "--data-mb",
        "16",
        "--pairs",
        "cc",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for shape in ["2x1 VMs, 16 MB/VM: best cc", "3x1 VMs, 16 MB/VM: best cc"] {
        assert!(stdout.contains(shape), "missing {shape:?} in\n{stdout}");
    }
}

#[test]
fn bad_flag_values_exit_2_without_panicking() {
    for (args, needle) in [
        (&["run", "--nodes", "x"][..], "--nodes"),
        (&["sweep", "--nodes", "2,x"][..], "--nodes"),
        (&["serve-jobs", "--rate", "fast"][..], "--rate"),
        // Valid numbers, impossible job: one VM cannot hold two
        // replicas.
        (
            &[
                "sweep",
                "--nodes",
                "1,2",
                "--vms",
                "1",
                "--data-mb",
                "16",
                "--pairs",
                "cc",
            ][..],
            "1x1 VMs",
        ),
    ] {
        let out = repro_cli(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(needle),
            "{args:?} must name {needle}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    }
}
