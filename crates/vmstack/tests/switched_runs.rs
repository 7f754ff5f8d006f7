//! Switched-run goldens: one `NodeRunner` run per starting pair, each
//! switched to another pair mid-run, pinned by makespan, trace digest
//! and the Dom0 arrival counts. The switch quiesces Dom0 while the
//! guests keep dispatching, so ring segments are staged and re-enter
//! the Dom0 elevator one by one after the thaw; elsewhere every guest
//! dispatch enters Dom0 as one run whose per-segment records are
//! replayed in id order. Both paths feed the trace digest, which the
//! cluster goldens cover only without a switch. Two more runs switch
//! one level only (Dom0, or every guest) and pin both levels'
//! `LevelCounters` besides.
//!
//! Every golden is also reached through a fork: one run per start pair
//! paused where its switch pops, cloned three ways, each clone given
//! another target. The clone aimed at the golden's target must match
//! the golden, and every clone must match a fresh run of its target.
//!
//! If a deliberate behaviour change invalidates these values,
//! re-capture them with
//! `cargo test -q -p vmstack --test switched_runs -- --ignored --nocapture`
//! and say so in the commit message.

use iosched::{SchedKind, SchedPair};
use simcore::{MetricsRegistry, SimTime};
use vmstack::runner::{NodeRunner, SyntheticProc};
use vmstack::NodeParams;

const MIB: u64 = 1024 * 1024;

/// When every run switches.
const SWITCH_AT: SimTime = SimTime::from_millis(700);

/// `(makespan_ns, trace_digest, dom0 arrivals, dom0 merges_back)`.
type Fingerprint = (u64, u64, u64, u64);

/// Three VMs under `start`: two writers and two readers, VM 2 running
/// one of each.
fn runner(start: SchedPair) -> NodeRunner {
    let params = NodeParams { trace_capacity: usize::MAX, ..NodeParams::default() };
    let mut r = NodeRunner::new(params, 3, start);
    r.add_proc(SyntheticProc::dd_writer(0, 0, 0, 48 * MIB));
    r.add_proc(SyntheticProc::seq_reader(1, 0, 0, 32 * MIB));
    r.add_proc(SyntheticProc::dd_writer(2, 0, 0, 24 * MIB));
    r.add_proc(SyntheticProc::seq_reader(2, 1, 64 * MIB / 512, 24 * MIB));
    r
}

/// Start under pair `start`, switch to pair `15 - start` at 700 ms.
fn fingerprint(start: usize) -> Fingerprint {
    let pairs = SchedPair::all();
    let mut r = runner(pairs[start]);
    r.switch_at(SWITCH_AT, pairs[15 - start]);
    finish(&mut r, pairs[15 - start])
}

/// Run `r` to completion, where it must end under pair `want`.
fn finish(r: &mut NodeRunner, want: SchedPair) -> Fingerprint {
    let out = r.run();
    let stack = r.stack();
    assert_eq!(stack.pair(), want, "switch never completed");
    let dom0 = stack.dom0_counters();
    (out.makespan.as_nanos(), stack.trace().digest(), dom0.arrivals, dom0.merges_back)
}

/// A run under `start` paused where its switch at [`SWITCH_AT`] pops.
/// The switch's placeholder target is replaced on each clone.
fn paused(start: SchedPair) -> NodeRunner {
    let mut r = runner(start);
    r.switch_at(SWITCH_AT, start);
    assert_eq!(r.run_to_switch(), Some(SWITCH_AT), "the switch must pop");
    r
}

/// Captured from the per-segment Dom0 path, before guest dispatches
/// entered Dom0 as runs.
const GOLDENS: [Fingerprint; 16] = [
    (3278187119, 0x9b02c68ca6a36a05, 3072, 2718),
    (3208136744, 0x226740e4dc1782f0, 3072, 2717),
    (3174551503, 0x0f682d694f6a4479, 3072, 2712),
    (3188086365, 0x94be82816756df4e, 3072, 2716),
    (3135689353, 0x0fd72815fa53311b, 3072, 2728),
    (2987747794, 0xd29a63d3b603c728, 3072, 2718),
    (2987747794, 0x9ddf9294116addd3, 3072, 2718),
    (2987747794, 0xff7a57735aa2ab7f, 3072, 2718),
    (2826117410, 0x689a30ab2e2ff927, 3072, 2707),
    (2794349966, 0xd5787d399d611b7a, 3072, 2705),
    (2794349966, 0x103436467d51dfc5, 3072, 2705),
    (2826117411, 0xc61a97f7d6e4c72c, 3072, 2707),
    (3222985602, 0xaae48407ddfa1539, 3072, 2724),
    (3210346658, 0xb480cf4dcdbd606d, 3072, 2718),
    (3189400341, 0x6b21c33c21c18f05, 3072, 2718),
    (3238086364, 0x540d94bedbae2ec2, 3072, 2725),
];

/// `(makespan_ns, trace_digest, dom0 switches, guest switches summed,
/// FNV-1a of both levels' exported LevelCounters)`.
type ScopedFingerprint = (u64, u64, u64, u64, u64);

/// FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The scoped switch of one golden: Dom0 to deadline (`host_only`), or
/// every guest to anticipatory, as `(host, guest)` targets, and the
/// pair the run ends under.
fn scoped_target(host_only: bool) -> (Option<SchedKind>, Option<SchedKind>, SchedPair) {
    if host_only {
        (Some(SchedKind::Deadline), None, SchedPair::new(SchedKind::Deadline, SchedKind::Cfq))
    } else {
        let guest = SchedKind::Anticipatory;
        (None, Some(guest), SchedPair::new(SchedKind::Cfq, guest))
    }
}

/// Start under the default pair and switch one level at 700 ms: Dom0
/// to deadline (`host_only`), or every guest to anticipatory.
fn scoped_fingerprint(host_only: bool) -> ScopedFingerprint {
    let mut r = runner(SchedPair::DEFAULT);
    let (host, guest, want) = scoped_target(host_only);
    if host_only {
        r.switch_host_at(SWITCH_AT, host.expect("a Dom0 target"));
    } else {
        r.switch_guests_at(SWITCH_AT, guest.expect("a guest target"));
    }
    scoped_finish(&mut r, want)
}

/// Run `r` to completion, where it must end under pair `want`, and
/// fingerprint both levels.
fn scoped_finish(r: &mut NodeRunner, want: SchedPair) -> ScopedFingerprint {
    let out = r.run();
    let stack = r.stack();
    assert_eq!(stack.pair(), want, "scoped switch never completed");
    let mut reg = MetricsRegistry::new();
    stack.dom0_counters().export(&mut reg, "dom0_elevator");
    let mut guest_switches = 0;
    for vm in 0..stack.vm_count() {
        let c = stack.guest_counters(vm);
        c.export(&mut reg, "guest_elevator");
        guest_switches += c.switches;
    }
    (
        out.makespan.as_nanos(),
        stack.trace().digest(),
        stack.dom0_counters().switches,
        guest_switches,
        fnv1a(reg.into_json().to_string().as_bytes()),
    )
}

/// Captured with the scoped entry points `switch_host_at` and
/// `switch_guests_at` before both levels shared one switch path.
const SCOPED_GOLDENS: [(bool, ScopedFingerprint); 2] = [
    (true, (2874551515, 0xd8b7beaaadc7d499, 1, 0, 0x6a0bf8eb8fb6fd37)),
    (false, (2039400387, 0xab9e994ef24271fa, 0, 3, 0x4abef12b5a5a6de9)),
];

#[test]
fn scoped_switches_match_goldens() {
    for (host_only, golden) in SCOPED_GOLDENS {
        let got = scoped_fingerprint(host_only);
        assert_eq!(got, golden, "scoped switch (host_only {host_only}) drifted");
    }
}

#[test]
fn switched_runs_match_goldens() {
    for (start, golden) in GOLDENS.iter().enumerate() {
        assert_eq!(fingerprint(start), *golden, "switched run from pair {start} drifted");
    }
}

#[test]
fn forked_runs_match_goldens_and_fresh_runs() {
    let pairs = SchedPair::all();
    for (start, golden) in GOLDENS.iter().enumerate() {
        let prefix = paused(pairs[start]);
        for to in [15 - start, start, (start + 5) % 16] {
            let mut fork = prefix.clone();
            fork.retarget_switch(Some(pairs[to].host), Some(pairs[to].guest));
            let got = finish(&mut fork, pairs[to]);
            if to == 15 - start {
                assert_eq!(got, *golden, "forked run from pair {start} drifted");
            }
            let mut fresh = runner(pairs[start]);
            fresh.switch_at(SWITCH_AT, pairs[to]);
            assert_eq!(got, finish(&mut fresh, pairs[to]), "fork {start} -> {to} is not fresh");
        }
    }
}

#[test]
fn forked_scoped_switches_match_goldens() {
    // Both scoped goldens start under the default pair, so one prefix
    // serves them both; a third clone switches both levels.
    let prefix = paused(SchedPair::DEFAULT);
    for (host_only, golden) in SCOPED_GOLDENS {
        let (host, guest, want) = scoped_target(host_only);
        let mut fork = prefix.clone();
        fork.retarget_switch(host, guest);
        assert_eq!(scoped_finish(&mut fork, want), golden, "forked scoped switch drifted");
    }
    let both = SchedPair::new(SchedKind::Noop, SchedKind::Deadline);
    let mut fork = prefix.clone();
    fork.retarget_switch(Some(both.host), Some(both.guest));
    let mut fresh = runner(SchedPair::DEFAULT);
    fresh.switch_at(SWITCH_AT, both);
    assert_eq!(scoped_finish(&mut fork, both), scoped_finish(&mut fresh, both));
}

#[test]
#[ignore]
fn capture_goldens() {
    for start in 0..16 {
        let (m, d, a, b) = fingerprint(start);
        println!("    ({m}, 0x{d:016x}, {a}, {b}),");
    }
    for host_only in [true, false] {
        let (m, d, h, g, f) = scoped_fingerprint(host_only);
        println!("    ({host_only}, ({m}, 0x{d:016x}, {h}, {g}, 0x{f:016x})),");
    }
}
