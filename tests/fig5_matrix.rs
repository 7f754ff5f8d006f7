//! The full-size Fig. 5 switch-cost matrix, run the way the benchmark's
//! `switch_matrix_dd` workload runs it: the 16 solo dd runs under
//! `par_map`, then one `par_map` task per row, whose 16 cells switch at
//! half the row's solo time. Every makespan must equal the values the
//! benchmark pins in `adios-bench/expected.json`, so the forked cells
//! of `DdConfig::time_with_switch` are checked at the size the
//! benchmark times, not only at test sizes.
//!
//! A release build runs it in well under a second; a debug build
//! ignores it. Run it with `cargo test --release --test fig5_matrix`.

use adaptive_disk_sched::iosched::SchedPair;
use adaptive_disk_sched::metasched::DdConfig;
use simcore::json::Json;
use simcore::par::par_map;
use simcore::{SimDuration, SimTime};

/// The pinned makespans of one output array of `switch_matrix_dd`.
fn pinned(key: &str) -> Vec<u64> {
    let doc = Json::parse(include_str!("../adios-bench/expected.json")).expect("valid JSON");
    let arr = doc.get("switch_matrix_dd").and_then(|m| m.get(key)).and_then(Json::as_arr);
    arr.unwrap_or_else(|| panic!("expected.json has no switch_matrix_dd.{key} array"))
        .iter()
        .map(|v| v.as_i64().expect("a makespan in ns") as u64)
        .collect()
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn full_size_matrix_matches_the_benchmark() {
    let cfg = DdConfig::default();
    let states = SchedPair::all();
    let solo: Vec<u64> = par_map(&states, |&p| cfg.time_single(p).as_nanos());
    assert_eq!(solo, pinned("solo_ns"), "solo makespans drifted");
    let rows: Vec<usize> = (0..states.len()).collect();
    let combined: Vec<u64> = par_map(&rows, |&i| {
        let half = SimTime::ZERO + SimDuration::from_nanos(solo[i]).div(2);
        states
            .iter()
            .map(|&to| cfg.time_with_switch(states[i], to, half).as_nanos())
            .collect::<Vec<_>>()
    })
    .concat();
    assert_eq!(combined, pinned("combined_ns"), "switched makespans drifted");
    assert_eq!(combined.iter().sum::<u64>(), 7_390_629_920_896);
}
