//! `repro-cli` flag handling end to end: list flags parse as lists,
//! and unknown flags and bad values exit 2 with a message naming the
//! flag — never a panic.

use adaptive_disk_sched::metasched::{Experiment, MetaScheduler};
use adaptive_disk_sched::mrsim::{JobSpec, WorkloadSpec};
use adaptive_disk_sched::vcluster::ClusterParams;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

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
        // Values that parse but cannot run are refused before the
        // tenants are calibrated: each used to panic, hang, or (for
        // the time flags) overflow the nanosecond clock.
        (&["serve-jobs", "--rate", "0"][..], "--rate"),
        (&["serve-jobs", "--rate", "-1"][..], "--rate"),
        (&["serve-jobs", "--rate", "nan"][..], "--rate"),
        (&["serve-jobs", "--rate", "inf"][..], "--rate"),
        (&["serve-jobs", "--margin", "nan"][..], "--margin"),
        (&["serve-jobs", "--max-concurrent", "0"][..], "--max-concurrent"),
        (&["serve-jobs", "--retune-s", "0"][..], "--retune-s"),
        (&["serve-jobs", "--duration-s", "99999999999"][..], "--duration-s"),
        (&["serve-jobs", "--retune-s", "99999999999"][..], "--retune-s"),
        (&["serve-jobs", "--switch-cost-ms", "99999999999999999"][..], "--switch-cost-ms"),
        // Fits the clock, but past the one-hour ceiling: each switch
        // adds it to the service clock, which used to overflow.
        (
            &[
                "serve-jobs",
                "--nodes",
                "2",
                "--vms",
                "2",
                "--data-mb",
                "16",
                "--duration-s",
                "60",
                "--policy",
                "dd",
                "--switch-cost-ms",
                "18446744073709",
            ][..],
            "--switch-cost-ms",
        ),
        // A stall well under the ceiling, but after a retune tick that
        // fits the clock and lies past the one-year horizon: the
        // switch on that tick used to overflow it.
        (
            &[
                "serve-jobs",
                "--nodes",
                "2",
                "--vms",
                "2",
                "--data-mb",
                "16",
                "--duration-s",
                "60",
                "--policy",
                "dd",
                "--retune-s",
                "18446744073",
                "--switch-cost-ms",
                "1000",
            ][..],
            "--retune-s",
        ),
        (&["run", "--policy", "phase", "--tick-ms", "0"][..], "--tick-ms"),
        (&["run", "--policy", "phase", "--tick-ms", "99999999999999999"][..], "--tick-ms"),
        // A typo'd or retired flag is rejected, not silently ignored.
        (
            &["run", "--nodse", "2", "--vms", "2", "--data-mb", "16"][..],
            "unknown flag --nodse",
        ),
        (
            &["run", "--flight-out", "f.json"][..],
            "unknown flag --flight-out",
        ),
        // `--policy` alone turns the online switcher on; `--mode` is
        // retired.
        (
            &["run", "--mode", "reactive", "--policy", "phase"][..],
            "unknown flag --mode",
        ),
        // A policy-only flag without the policy that reads it is
        // rejected before the simulation starts.
        (
            &[
                "run",
                "--nodes",
                "2",
                "--vms",
                "2",
                "--data-mb",
                "16",
                "--busy-pair",
                "dd",
            ][..],
            "--busy-pair",
        ),
        (
            &["run", "--policy", "phase", "--busy-pair", "dd"][..],
            "--busy-pair",
        ),
        (
            &["run", "--policy", "queue", "--map-pair", "ad"][..],
            "--map-pair",
        ),
        (&["run", "--tick-ms", "100"][..], "--tick-ms"),
        (&["run", "--policy", "plan"][..], "--policy"),
        // Retired subcommands: the benches `table2_waves` and
        // `fig5_switch_cost` answer their questions.
        (&["waves"][..], "unknown subcommand \"waves\""),
        (&["switch-cost"][..], "unknown subcommand \"switch-cost\""),
        // `--json` is a bool, parsed before the tune runs.
        (&["tune", "--json", "x"][..], "--json"),
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

/// `serve-jobs --policy` is parsed with the other flags: a bad pair code
/// exits 2 at once, even on a shape whose tenant calibration would take
/// minutes.
#[test]
fn serve_jobs_checks_policy_before_calibrating() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro-cli"))
        .args([
            "serve-jobs",
            "--nodes",
            "64",
            "--vms",
            "4",
            "--data-mb",
            "512",
            "--policy",
            "zz",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("repro-cli starts");
    let deadline = Instant::now() + Duration::from_secs(5);
    let status = loop {
        if let Some(status) = child.try_wait().expect("repro-cli waits") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("--policy zz was still running after 5 s: it calibrated first");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let stderr = child.wait_with_output().expect("repro-cli output").stderr;
    let stderr = String::from_utf8_lossy(&stderr);
    assert_eq!(status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--policy"), "{stderr}");
}

/// Bare invocation prints the usage text built from the flag table:
/// every subcommand and every flag it accepts.
#[test]
fn bare_invocation_lists_every_subcommand_and_flag() {
    let out = repro_cli(&[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    #[rustfmt::skip]
    let table: [(&str, &[&str]); 4] = [
        ("run", &[
            "workload", "pair", "nodes", "vms", "data-mb", "telemetry", "metrics-out",
            "trace-out", "profile-out", "policy", "tick-ms", "busy-pair", "idle-pair",
            "map-pair", "reduce-pair",
        ]),
        ("sweep", &[
            "workload", "nodes", "vms", "data-mb", "telemetry", "pairs", "parallel-copies",
            "json-out",
        ]),
        ("tune", &["workload", "nodes", "vms", "data-mb", "telemetry", "json"]),
        ("serve-jobs", &[
            "nodes", "vms", "telemetry", "duration-s", "rate", "seed", "tenants", "data-mb",
            "policy", "margin", "switch-cost-ms", "retune-s", "max-concurrent",
            "arrivals-file", "metrics-out",
        ]),
    ];
    for (cmd, flags) in table {
        let line = stderr
            .lines()
            .find(|l| l.split_whitespace().next() == Some(cmd))
            .unwrap_or_else(|| panic!("no usage line for {cmd}:\n{stderr}"));
        let listed: Vec<&str> = line.split_whitespace().skip(1).collect();
        let want: Vec<String> = flags.iter().map(|f| format!("--{f}")).collect();
        assert_eq!(listed, want, "{cmd}");
    }
    let subcommands = stderr.lines().filter(|l| l.starts_with("  ")).count();
    assert_eq!(subcommands, 4, "{stderr}");
}

/// `tune --json true` prints the `adios.tune/2` decision-audit document
/// itself, byte for byte what the library serializes.
#[test]
fn tune_json_prints_the_tune_document() {
    let out = repro_cli(&[
        "tune",
        "--nodes",
        "2",
        "--vms",
        "2",
        "--data-mb",
        "16",
        "--json",
        "true",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut params = ClusterParams::default();
    params.shape.nodes = 2;
    params.shape.vms_per_node = 2;
    let mut job = JobSpec::new(WorkloadSpec::sort());
    job.data_per_vm_bytes = 16 << 20;
    let doc = MetaScheduler::new(Experiment::new(params, job))
        .tune()
        .to_json()
        .to_string();
    assert_eq!(stdout, doc + "\n");
    assert!(
        stdout.starts_with("{\"schema\":\"adios.tune/2\""),
        "{stdout}"
    );
    assert!(stdout.contains("\"decisions\":["), "{stdout}");
}

/// `run --policy phase` with no other switch flag consults the online
/// policy and logs its switches.
#[test]
fn run_policy_turns_the_online_switcher_on() {
    let out = repro_cli(&[
        "run",
        "--nodes",
        "2",
        "--vms",
        "2",
        "--data-mb",
        "16",
        "--policy",
        "phase",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("  online switch at "), "{stdout}");
}

#[test]
fn tune_json_false_prints_the_text_report() {
    let out = repro_cli(&[
        "tune",
        "--nodes",
        "2",
        "--vms",
        "2",
        "--data-mb",
        "16",
        "--json",
        "false",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.starts_with("default (CFQ, CFQ): "), "{stdout}");
    assert!(!stdout.contains('{'), "--json false printed JSON: {stdout}");
}

#[test]
fn sweep_names_the_default_cell_per_parallel_copies_group() {
    let out = repro_cli(&[
        "sweep",
        "--nodes",
        "2",
        "--vms",
        "2",
        "--data-mb",
        "16",
        "--pairs",
        "cc,dd",
        "--parallel-copies",
        "1,5",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for default in ["; default cc@pc1 ", "; default cc@pc5 "] {
        assert!(stdout.contains(default), "missing {default:?} in\n{stdout}");
    }
}

/// `serve-jobs` reads `ADIOS_STRICT`: any non-empty value but `0`
/// replays the service trace through the oracle and prints its verdict.
#[test]
fn strict_serve_jobs_prints_the_oracle_verdict_for_any_truthy_value() {
    for (value, verdict) in [("1", true), ("yes", true), ("0", false)] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro-cli"))
            .args([
                "serve-jobs",
                "--nodes",
                "2",
                "--vms",
                "2",
                "--data-mb",
                "16",
                "--duration-s",
                "60",
                "--rate",
                "6",
                "--seed",
                "42",
                "--tenants",
                "sort:1",
                "--policy",
                "cc",
            ])
            .env("ADIOS_STRICT", value)
            .output()
            .expect("repro-cli runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "ADIOS_STRICT={value}\n{stdout}");
        assert_eq!(
            stdout.contains("  oracle: clean ("),
            verdict,
            "ADIOS_STRICT={value}\n{stdout}"
        );
    }
}
