#!/usr/bin/env bash
# Hermetic CI: build and test the whole workspace fully offline, then
# verify the resolved dependency graph contains nothing from outside
# this repository. Run from anywhere; no network, no cargo registry.
set -euo pipefail
cd "$(dirname "$0")/.."

# --all-targets compiles every bench and test harness too: a bench
# that no longer builds is a CI failure, not a surprise at bench time.
cargo build --release --offline --workspace --all-targets
cargo test -q --offline --workspace

# The benchmark is a package of its own (not a workspace member), so
# its unit tests — quick sizes of every workload, pinned outputs, the
# BENCHMARK.json contract — need their own invocation.
cargo test -q --offline --manifest-path adios-bench/Cargo.toml

# Lint gate: the whole workspace, every test and bench target included,
# must be clippy-clean. -D warnings turns any new lint into a CI
# failure instead of scroll-by noise.
cargo clippy -q --offline --workspace --all-targets -- -D warnings

# Causality guard: re-run the pairs smoke suite with the EventQueue's
# push-before-watermark check enabled in the release build. In normal
# release runs the check compiles to nothing; ADIOS_STRICT=1 turns it
# into a hard panic, so a batching or queue change that lets an event
# be scheduled in the past fails CI instead of silently corrupting a
# simulation.
ADIOS_STRICT=1 cargo test -q --release --offline --test pairs_smoke

# Smoke-run the micro-benchmark harness (shrunken iteration counts):
# proves the in-tree timer harness and its workloads stay runnable,
# and that it emits a parseable BENCH_micro.json.
bench_json="$(mktemp)"
BENCH_MICRO_OUT="${bench_json}" REPRO_QUICK=1 \
  cargo bench --offline -p repro-bench --bench criterion_micro
grep -q '"schema":"adios.bench/1"' "${bench_json}" \
  || { echo "error: BENCH_micro.json missing or unstamped" >&2; exit 1; }

# Structural comparison against the committed baseline: timings drift
# from machine to machine, but the set of benchmarks and their recorded
# fields must match — a dropped or renamed bench fails here (exit 2).
cargo run -q --release --offline -p adios-report -- diff \
  --shape --fail-on-delta BENCH_micro.json "${bench_json}"

# Headline-cell wall gate: the 64x4 sweep cell (64 MB/VM sort, default
# pair) must stay interactive. The slab elevator kernel plus the
# incremental network solver hold it at ~0.93 s on the reference box
# (see EXPERIMENTS.md; the pre-rework stack took 11 s+); the gate
# allows ~60% headroom for slower/loaded CI hosts while still catching
# any real regression. Override with ADIOS_WALL_GATE_S (fractional
# seconds accepted) for unusually slow machines.
wall_gate_s="${ADIOS_WALL_GATE_S:-1.5}"
wall_gate_ms="$(awk -v s="${wall_gate_s}" 'BEGIN{printf "%d", s * 1000}')"
t0="$(date +%s%N)"
cargo run -q --release --offline --bin repro-cli -- run \
  --nodes 64 --vms 4 --data-mb 64 > /dev/null
t1="$(date +%s%N)"
wall_ms=$(( (t1 - t0) / 1000000 ))
if (( wall_ms > wall_gate_ms )); then
  echo "error: 64x4 headline cell took ${wall_ms} ms (> ${wall_gate_s} s gate)" >&2
  # Don't leave the next person guessing: re-run the cell under the
  # full-telemetry span profiler and print where the wall time went.
  gate_profile="$(mktemp)"
  cargo run -q --release --offline --bin repro-cli -- run \
    --nodes 64 --vms 4 --data-mb 64 --telemetry full \
    --profile-out "${gate_profile}" > /dev/null
  echo "span attribution of the regressed cell:" >&2
  cargo run -q --release --offline -p adios-report -- render "${gate_profile}" \
    | sed -n '/\[subsystems\]/,/^$/p' >&2
  rm -f "${gate_profile}"
  exit 1
fi
echo "ci: 64x4 headline cell ${wall_ms} ms (gate ${wall_gate_s} s)"

# Observability smoke: a full-telemetry sort run must produce a metrics
# document that adios-report renders, and whose self-diff is empty
# (--fail-on-delta exits 2 on any differing value).
metrics_json="$(mktemp)"
cargo run -q --release --offline --bin repro-cli -- run \
  --nodes 2 --vms 2 --data-mb 96 --telemetry full --metrics-out "${metrics_json}"
cargo run -q --release --offline -p adios-report -- render "${metrics_json}" > /dev/null
cargo run -q --release --offline -p adios-report -- diff \
  "${metrics_json}" "${metrics_json}" --fail-on-delta > /dev/null
rm -f "${bench_json}" "${metrics_json}"

# Multi-job service smoke: a short 3-tenant Poisson stream through
# `serve-jobs` under the strict oracle (slot capacities, job
# lifecycle, byte conservation fail the run), emitting a schema-bumped
# adios.metrics/3 document that adios-report renders.
service_json="$(mktemp)"
ADIOS_STRICT=1 cargo run -q --release --offline --bin repro-cli -- serve-jobs \
  --nodes 2 --vms 2 --data-mb 16 --duration-s 60 --rate 6 --seed 42 \
  --policy adaptive --metrics-out "${service_json}"
grep -q '"schema":"adios.metrics/3"' "${service_json}" \
  || { echo "error: serve-jobs metrics missing the /3 schema" >&2; exit 1; }
cargo run -q --release --offline -p adios-report -- render "${service_json}" > /dev/null
rm -f "${service_json}"

# Profiler smoke: a full-telemetry run must export an adios.profile/1
# document that renders as the flame-style share table, and whose
# self-diff passes the subsystem share gate (exit 0 — the same gate
# that exits 2 when shares shift between two real profiles).
profile_json="$(mktemp)"
cargo run -q --release --offline --bin repro-cli -- run \
  --nodes 4 --vms 4 --data-mb 64 --telemetry full \
  --profile-out "${profile_json}" > /dev/null
grep -q '"schema":"adios.profile/1"' "${profile_json}" \
  || { echo "error: --profile-out must write an adios.profile/1 document" >&2; exit 1; }
cargo run -q --release --offline -p adios-report -- render "${profile_json}" > /dev/null
cargo run -q --release --offline -p adios-report -- diff \
  "${profile_json}" "${profile_json}" --fail-on-share-delta > /dev/null
# Subsystem shares must also fold into the regression ledger.
profile_ledger="$(mktemp)"; rm -f "${profile_ledger}"
cargo run -q --release --offline -p adios-report -- history \
  --ledger "${profile_ledger}" "${profile_json}" > /dev/null
grep -q '"kind":"profile"' "${profile_ledger}" \
  || { echo "error: profile shares missing from history ledger" >&2; exit 1; }
rm -f "${profile_json}" "${profile_ledger}"

# Flight-recorder smoke: an injected oracle violation must fail the
# strict service run (exit 1), leave a replayable adios.flight/1
# post-mortem behind, and `adios-report replay` must re-find the same
# violation offline (exit 2).
flight_json="$(mktemp)"
set +e
ADIOS_STRICT=1 ADIOS_INJECT_VIOLATION=1 \
  cargo run -q --release --offline --bin repro-cli -- serve-jobs \
  --nodes 2 --vms 2 --data-mb 16 --duration-s 60 --rate 6 --seed 42 \
  --policy cc --flight-out "${flight_json}" > /dev/null 2>&1
flight_rc=$?
set -e
[[ "${flight_rc}" -eq 1 ]] \
  || { echo "error: injected violation must fail the strict run (got ${flight_rc})" >&2; exit 1; }
grep -q '"schema":"adios.flight/1"' "${flight_json}" \
  || { echo "error: strict failure must leave an adios.flight/1 dump" >&2; exit 1; }
set +e
cargo run -q --release --offline -p adios-report -- replay "${flight_json}" > /dev/null
replay_rc=$?
set -e
[[ "${replay_rc}" -eq 2 ]] \
  || { echo "error: flight replay must re-find the violation (got ${replay_rc})" >&2; exit 1; }
rm -f "${flight_json}"

# Decision-observability smoke: the cross-run ledger must ingest the
# committed bench documents into a fresh ledger (exit 0, two entries,
# schema-gated inside `history`), and a mini-sweep over two node
# counts (a comma list), two pairs and two parallel-copies settings
# must round-trip through `rank`, `correlate` and `overlap`. `rank`
# without --require-crossover must exit 0 even when the tiny grid has
# none; the Fig. 6 crossover itself is covered by unit tests and the
# EXPERIMENTS.md 4x4/512MB recipe.
ledger="$(mktemp)"; rm -f "${ledger}"
cargo run -q --release --offline -p adios-report -- history \
  --ledger "${ledger}" BENCH_micro.json BENCH_sweep.json > /dev/null
[[ "$(wc -l < "${ledger}")" -eq 2 ]] \
  || { echo "error: history ledger must hold exactly 2 entries" >&2; exit 1; }
# Idempotence: re-ingesting the same documents must not grow the ledger.
cargo run -q --release --offline -p adios-report -- history \
  --ledger "${ledger}" BENCH_micro.json BENCH_sweep.json > /dev/null
[[ "$(wc -l < "${ledger}")" -eq 2 ]] \
  || { echo "error: history re-ingest must be idempotent" >&2; exit 1; }
grep -q '"kind":"sweep"' "${ledger}" \
  || { echo "error: sweep entry missing from ledger" >&2; exit 1; }
# The regenerated sweep document carries the multi-job service column
# set; its cells must fold into the ledger's sweep metrics.
grep -q '"mj_adaptive_latency_s"' "${ledger}" \
  || { echo "error: multi-job bench cells missing from ledger" >&2; exit 1; }
sweep_dir="$(mktemp -d)"
cargo run -q --release --offline --bin repro-cli -- sweep \
  --nodes 2,3 --vms 2 --data-mb 64 --pairs cc,dd --parallel-copies 1,5 \
  --metrics-dir "${sweep_dir}" > /dev/null
cargo run -q --release --offline -p adios-report -- rank \
  --metrics-dir "${sweep_dir}" > /dev/null
cargo run -q --release --offline -p adios-report -- correlate \
  --metrics-dir "${sweep_dir}" > /dev/null
overlap_out="$(cargo run -q --release --offline -p adios-report -- overlap \
  --metrics-dir "${sweep_dir}")"
[[ "$(grep -cE '^ +[15] +4 ' <<< "${overlap_out}")" -eq 2 ]] \
  || { echo "error: overlap must report both parallel-copies settings" >&2; \
       echo "${overlap_out}" >&2; exit 1; }
rm -rf "${ledger}" "${sweep_dir}"

# Dependency guard: every node reachable over normal, build, and dev
# edges must be a path crate inside this repo. A registry dependency
# shows up without a local path and fails the grep below.
root="$(pwd)"
external="$(cargo tree --workspace --offline -e normal,build,dev --prefix none \
  | sed 's/ (\*)$//' | sort -u | grep -vF "(${root}" || true)"
if [[ -n "${external}" ]]; then
  echo "error: non-workspace dependencies crept back in:" >&2
  echo "${external}" >&2
  exit 1
fi

echo "ci: offline build (all targets) + tests + clippy + strict causality smoke + bench smoke/shape + report smoke + serve-jobs oracle smoke + profiler/flight smoke + history/rank/correlate/overlap smoke green; dependency graph is workspace-only"
