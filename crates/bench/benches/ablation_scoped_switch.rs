//! Ablation — per-level switch costs: the paper (§IV-B) says it is
//! analysing "switching the disk schedulers within the VMs while fixing
//! the disk scheduler within the VMM and vice versa". This bench does
//! that analysis with the dd methodology: cost of Dom0-only,
//! guests-only, and both-level switches between the same endpoints.

use iosched::{SchedKind, SchedPair};
use repro_bench::{print_table, quick};
use simcore::SimTime;
use vmstack::runner::{NodeRunner, SyntheticProc};
use vmstack::NodeParams;

fn dd_runner(pair: SchedPair, bytes: u64) -> NodeRunner {
    let mut r = NodeRunner::new(NodeParams::default(), 4, pair);
    for vm in 0..4 {
        r.add_proc(SyntheticProc::dd_writer(vm, 0, 0, bytes));
    }
    r
}

fn main() {
    let bytes: u64 = if quick() { 150_000_000 } else { 600_000_000 };
    let from = SchedPair::new(SchedKind::Cfq, SchedKind::Cfq);
    let to = SchedKind::Anticipatory;

    let base = dd_runner(from, bytes).run().makespan;
    let half = SimTime::ZERO + base.div(2);

    let mut rows = Vec::new();
    let mut costs = Vec::new();
    for (label, want, f) in [
        (
            "Dom0 only (c->a, guests keep CFQ)",
            SchedPair::new(to, from.guest),
            Box::new(|r: &mut NodeRunner| r.switch_host_at(half, to)) as Box<dyn Fn(&mut NodeRunner)>,
        ),
        (
            "guests only (c->a, Dom0 keeps CFQ)",
            SchedPair::new(from.host, to),
            Box::new(|r: &mut NodeRunner| r.switch_guests_at(half, to)),
        ),
        (
            "both levels (cc->aa)",
            SchedPair::new(to, to),
            Box::new(|r: &mut NodeRunner| r.switch_at(half, SchedPair::new(to, to))),
        ),
    ] {
        let mut r = dd_runner(from, bytes);
        f(&mut r);
        let t = r.run().makespan;
        assert_eq!(r.stack().pair(), want, "{label}: the switch never completed");
        // Switch targets change mid-run throughput too; report raw
        // makespan delta as the paper's formula would.
        let cost = t.as_secs_f64() - base.as_secs_f64();
        costs.push(cost);
        rows.push(vec![label.to_string(), format!("{:.1}", t.as_secs_f64()), format!("{cost:+.1}")]);
    }
    println!("no-switch baseline: {:.1}s (4 VMs x {} MB dd)", base.as_secs_f64(), bytes / 1_000_000);
    print_table(
        "Ablation — per-level switch overhead (s)",
        &["switch", "makespan (s)", "delta vs no switch"],
        &rows,
    );
    println!("(single-level switches avoid one of the two drain+stall rounds)");
}
