//! Ablation — Algorithm 1 vs exhaustive enumeration of the two-phase
//! `S^P` space (16² = 256 plans): solution quality and evaluation cost.
//!
//! The paper argues brute force is impractical in general and accepts a
//! (possibly sub-optimal) greedy answer in ≤ P×S runs; here both are
//! cheap enough to compare outright.

use iosched::SchedPair;
use metasched::{
    algorithm1, profile_pairs_cached, CachedEvaluator, EvalCache, Experiment, PhaseSplit,
    PlanEvaluator,
};
use mrsim::WorkloadSpec;
use repro_bench::{paper_cluster, paper_job};
use simcore::par::par_map;

fn main() {
    let exp = Experiment::new(paper_cluster(), paper_job(WorkloadSpec::sort()));
    let pairs = SchedPair::all();
    // One memo cache shared by all three components: profiling seeds the
    // single-pair scores, the heuristic and the exhaustive enumeration
    // re-use them (the 16 diagonal plans of the 16x16 grid, plus every
    // plan the greedy walk already measured, cost nothing).
    let cache = EvalCache::new();
    let profiles = profile_pairs_cached(&exp, &pairs, &cache);
    let eval = CachedEvaluator::new(&exp, &cache);

    let heuristic = algorithm1(&eval, PhaseSplit::Two, &profiles);

    let mut plans = Vec::new();
    for &a in &pairs {
        for &b in &pairs {
            plans.push([a, b]);
        }
    }
    let exhaustive: Vec<([SchedPair; 2], f64, bool)> = par_map(&plans, |&pl| {
        let (t, cached) = eval.evaluate(&pl);
        (pl, t.as_secs_f64(), cached)
    });
    let (best_plan, best_t, _) = exhaustive
        .iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .cloned()
        .unwrap();

    println!("\n## Ablation — heuristic vs exhaustive (sort, 2 phases)\n");
    println!(
        "heuristic : {:?} in {} evaluations -> {:.1}s",
        heuristic.resolved.iter().map(|p| p.code()).collect::<Vec<_>>(),
        heuristic.runs(),
        heuristic.time.as_secs_f64()
    );
    // The heuristic's own audit: per phase, the candidate table in
    // ranking-walk order with cache provenance.
    for d in &heuristic.decisions {
        let cands: Vec<String> = d
            .candidates
            .iter()
            .map(|c| {
                format!(
                    "{}@{} {:.1}s{}",
                    c.pair.code(),
                    c.rank,
                    c.time.as_secs_f64(),
                    if c.cached { "*" } else { "" }
                )
            })
            .collect();
        println!(
            "  ph{} candidates [{}] -> {} (margin {:.2}s, stop {:?})",
            d.phase,
            cands.join(", "),
            d.chosen.code(),
            d.margin.as_secs_f64(),
            d.stop
        );
    }
    // The exhaustive baseline's score table per phase-1 pair: best
    // completion and how many of its 16 plans the memo cache served
    // (`*` = at least the shared diagonal/profile entries).
    for &a in &pairs {
        let row: Vec<&([SchedPair; 2], f64, bool)> = exhaustive
            .iter()
            .filter(|(pl, _, _)| pl[0] == a)
            .collect();
        let best = row
            .iter()
            .min_by(|x, y| x.1.partial_cmp(&y.1).unwrap())
            .unwrap();
        let hits = row.iter().filter(|(_, _, c)| *c).count();
        println!(
            "  exhaustive ph1={}: best tail {} {:.1}s ({}/16 cached)",
            a.code(),
            best.0[1].code(),
            best.1,
            hits
        );
    }
    println!(
        "exhaustive: [{}, {}] in 256 evaluations -> {:.1}s",
        best_plan[0].code(),
        best_plan[1].code(),
        best_t
    );
    let regret = 100.0 * (heuristic.time.as_secs_f64() / best_t - 1.0);
    println!("heuristic regret vs optimum: {regret:.2}%");
    let stats = cache.stats();
    println!(
        "memo cache: {} hits / {} misses ({} simulations avoided)",
        stats.hits, stats.misses, stats.hits
    );
    assert!(
        stats.hits >= pairs.len() as u64,
        "at least the 16 diagonal plans must be served from the cache"
    );
    assert!(
        regret < 10.0,
        "the greedy answer should be within 10% of the optimum"
    );
    assert!(heuristic.runs() <= 2 * pairs.len());
}
