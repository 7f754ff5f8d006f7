//! Fig. 6 — per-phase performance score of every pair for sort: the
//! input the heuristic ranks pairs by.
//!
//! Paper shape: the per-phase orderings differ from the whole-job
//! ordering, which is what gives a multi-pair assignment room to win.

use iosched::SchedPair;
use metasched::{profile_pairs_cached, EvalCache, Experiment, PhaseSplit};
use mrsim::WorkloadSpec;
use repro_bench::{paper_cluster, paper_job, print_table};

fn main() {
    let exp = Experiment::new(paper_cluster(), paper_job(WorkloadSpec::sort()));
    let profiles = profile_pairs_cached(&exp, &SchedPair::all(), &EvalCache::new());
    let mut rows: Vec<Vec<String>> = profiles
        .iter()
        .map(|p| {
            vec![
                p.pair.to_string(),
                format!("{:.1}", p.phase[0].as_secs_f64()),
                format!("{:.1}", p.phase[1].as_secs_f64()),
                format!("{:.1}", p.phase[2].as_secs_f64()),
                format!("{:.1}", p.total.as_secs_f64()),
            ]
        })
        .collect();
    rows.sort_by(|a, b| a[4].parse::<f64>().unwrap().partial_cmp(&b[4].parse::<f64>().unwrap()).unwrap());
    print_table(
        "Fig. 6 — per-phase scores (s) of each pair, sort",
        &["pair", "Ph1 (maps)", "Ph2 (shuffle tail)", "Ph3 (reduce)", "total"],
        &rows,
    );
    let best_ph1 = metasched::rank_for_phase(&profiles, PhaseSplit::Two, 0)[0];
    let best_tail = metasched::rank_for_phase(&profiles, PhaseSplit::Two, 1)[0];
    let best_total = metasched::best_single(&profiles).pair;
    println!("best Ph1: {best_ph1}; best Ph2+3: {best_tail}; best whole-job: {best_total}");
}
