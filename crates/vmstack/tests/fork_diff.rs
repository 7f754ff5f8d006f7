//! Differential suite for forked node runs: a run paused where its
//! switch pops, cloned and given a target, must finish exactly as a
//! fresh run scheduled with that target. Random shapes (1–4 VMs; dd
//! writers, sequential readers, random and round-robin-file processes;
//! start delays), random start pairs and targets (both levels, Dom0
//! only, guests only), and switch instants at 0, at a process's start
//! instant (a same-instant tie), mid-run and after the last completion.
//! Each pair of runs is compared on every output a caller can read:
//! makespan, per-process finish times, disk statistics, each level's
//! counters, the exported metrics, telemetry and throughput documents,
//! and the trace. (In-tree `simcore::check` harness.)

use iosched::{Dir, SchedKind, SchedPair};
use simcore::check::{check, Gen};
use simcore::{MetricsRegistry, SimDuration, SimTime, Telemetry};
use vmstack::runner::{NodeRunner, Pattern, SyntheticProc};
use vmstack::NodeParams;

const MIB: u64 = 1024 * 1024;

/// A random process in VM `vm`, over its own extent `slot` of the image.
fn gen_proc(g: &mut Gen, vm: u32, slot: u64) -> SyntheticProc {
    let bytes = g.u64_in(1, 12) * MIB;
    let start = slot * 64 * MIB / 512;
    let mut p = match g.usize_in(0, 4) {
        0 => SyntheticProc::dd_writer(vm, slot as u32, start, bytes),
        1 => SyntheticProc::seq_reader(vm, slot as u32, start, bytes),
        2 => SyntheticProc {
            pattern: Pattern::Random { seed: g.u64_in(0, 1 << 20) },
            ..SyntheticProc::seq_reader(vm, slot as u32, start, bytes)
        },
        _ => SyntheticProc {
            pattern: Pattern::RoundRobinFiles { files: g.u64_in(2, 9) },
            dir: if g.bool() { Dir::Write } else { Dir::Read },
            ..SyntheticProc::dd_writer(vm, slot as u32, start, bytes)
        },
    };
    if g.bool() {
        p.start_delay = SimDuration::from_millis(g.u64_in(1, 400));
    }
    p
}

fn gen_pair(g: &mut Gen) -> SchedPair {
    *g.pick(&SchedPair::all())
}

/// A switch target: both levels, Dom0 only or the guests only.
fn gen_target(g: &mut Gen) -> (Option<SchedKind>, Option<SchedKind>) {
    let p = gen_pair(g);
    match g.usize_in(0, 3) {
        0 => (Some(p.host), Some(p.guest)),
        1 => (Some(p.host), None),
        _ => (None, Some(p.guest)),
    }
}

/// Everything a caller can read from a finished run.
#[derive(Debug, PartialEq)]
struct Observed {
    makespan: SimDuration,
    proc_finish: Vec<SimDuration>,
    pair: SchedPair,
    disk: String,
    levels: String,
    metrics: String,
    telemetry: String,
    throughput: String,
    trace_digest: u64,
    trace_len: u64,
}

fn finish(r: &mut NodeRunner) -> Observed {
    let out = r.run();
    let stack = r.stack();
    let mut levels = MetricsRegistry::new();
    stack.dom0_counters().export(&mut levels, "dom0");
    for vm in 0..stack.vm_count() {
        stack.guest_counters(vm).export(&mut levels, &format!("guest{vm}"));
    }
    let mut metrics = MetricsRegistry::new();
    stack.export_metrics(&mut metrics);
    let mut telemetry = MetricsRegistry::new();
    stack.export_telemetry(&mut telemetry, 0);
    let mut throughput = MetricsRegistry::new();
    stack.export_throughput(&mut throughput);
    Observed {
        makespan: out.makespan,
        proc_finish: out.proc_finish,
        pair: stack.pair(),
        disk: format!("{:?}", stack.disk_stats()),
        levels: levels.into_json().to_string(),
        metrics: metrics.into_json().to_string(),
        telemetry: telemetry.into_json().to_string(),
        throughput: throughput.into_json().to_string(),
        trace_digest: stack.trace().digest(),
        trace_len: stack.trace().total(),
    }
}

/// Schedule a switch to `target` at `at` through the public entry point
/// that matches its scope.
fn schedule(r: &mut NodeRunner, at: SimTime, target: (Option<SchedKind>, Option<SchedKind>)) {
    match target {
        (Some(host), Some(guest)) => r.switch_at(at, SchedPair::new(host, guest)),
        (Some(host), None) => r.switch_host_at(at, host),
        (None, Some(guest)) => r.switch_guests_at(at, guest),
        (None, None) => unreachable!("a switch targets at least one level"),
    }
}

#[test]
fn forked_runs_equal_fresh_runs() {
    check(64, |g| {
        let vms = g.u32_in(1, 5);
        let nprocs = g.usize_in(1, 5);
        let procs: Vec<SyntheticProc> = (0..nprocs)
            .map(|i| {
                let vm = g.u32_in(0, vms);
                gen_proc(g, vm, i as u64)
            })
            .collect();
        let telemetry = if g.bool() { Telemetry::Full } else { Telemetry::Counters };
        let params = NodeParams { trace_capacity: usize::MAX, telemetry, ..NodeParams::default() };
        let from = gen_pair(g);
        let build = || {
            let mut r = NodeRunner::new(params.clone(), vms, from);
            for p in &procs {
                r.add_proc(p.clone());
            }
            r
        };
        let solo = build().run().makespan;
        let at = SimTime::ZERO
            + match g.usize_in(0, 4) {
                0 => SimDuration::ZERO,
                1 => g.pick(&procs).start_delay,
                2 => SimDuration::from_nanos(g.u64_in(1, solo.as_nanos().max(2))),
                _ => solo + SimDuration::from_millis(g.u64_in(0, 50)),
            };
        let mut prefix = build();
        schedule(&mut prefix, at, gen_target(g));
        assert_eq!(prefix.run_to_switch(), Some(at), "the switch pops at its instant");
        for _ in 0..2 {
            let target = gen_target(g);
            let mut fork = prefix.clone();
            fork.retarget_switch(target.0, target.1);
            let mut fresh = build();
            schedule(&mut fresh, at, target);
            assert_eq!(finish(&mut fork), finish(&mut fresh), "fork to {target:?} at {at}");
        }
    });
}
