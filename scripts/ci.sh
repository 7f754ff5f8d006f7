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

# Doc gate: every intra-doc link must resolve, and public docs must not
# link to private items. A deleted item that a doc comment still names
# fails here instead of rendering as dead text.
RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --no-deps --workspace

# Causality guard: re-run the pairs smoke suite in a release build.
# The EventQueue's push-before-watermark check panics in every build,
# so a batching or queue change under release optimizations that lets
# an event be scheduled in the past fails CI instead of silently
# corrupting a simulation.
cargo test -q --release --offline --test pairs_smoke

# The full-size Fig. 5 matrix, with its cells forked from one shared
# prefix per row as `DdConfig::time_with_switch` runs them, must
# reproduce every makespan the benchmark pins in
# adios-bench/expected.json. A debug build ignores the test, so it runs
# here in release.
cargo test -q --release --offline --test fig5_matrix

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

# Paper switch benches at shrunken sizes. `fig5_switch_cost` asserts a
# completed Dom0 switch and a broadly non-commutative cost matrix;
# `ablation_scoped_switch` switches Dom0 only, the guests only and both
# levels, and asserts each lands on its pair.
for bench in fig5_switch_cost ablation_scoped_switch; do
  REPRO_QUICK=1 cargo bench -q --offline -p repro-bench --bench "${bench}" > /dev/null
done

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
# adios.metrics/3 document that adios-report renders. The stdout check
# proves strict mode really replayed the trace: a run that skipped the
# oracle would exit 0 without the verdict line.
service_json="$(mktemp)"
service_out="$(ADIOS_STRICT=1 cargo run -q --release --offline --bin repro-cli -- serve-jobs \
  --nodes 2 --vms 2 --data-mb 16 --duration-s 60 --rate 6 --seed 42 \
  --policy adaptive --metrics-out "${service_json}")"
grep -qF '  oracle: clean (' <<< "${service_out}" \
  || { echo "error: strict serve-jobs must print its oracle verdict" >&2; \
       echo "${service_out}" >&2; exit 1; }
grep -q '"schema":"adios.metrics/3"' "${service_json}" \
  || { echo "error: serve-jobs metrics missing the /3 schema" >&2; exit 1; }
cargo run -q --release --offline -p adios-report -- render "${service_json}" > /dev/null
# Its self-diff must be clean. The policy's name and the registry's
# `policy` section share a top-level key; the diff pairs the n-th field
# of a name with the n-th field of that name, so each meets itself.
cargo run -q --release --offline -p adios-report -- diff \
  "${service_json}" "${service_json}" --fail-on-delta > /dev/null
rm -f "${service_json}"

# The same strict check at the tenant_stream_2pm shape: 14 days at 2
# jobs/min. The run keeps its whole trace (3,977,523 records in the
# varint store) and the oracle decodes and replays all of it; the
# record count pins the stream.
long_json="$(mktemp)"
long_out="$(ADIOS_STRICT=1 cargo run -q --release --offline --bin repro-cli -- serve-jobs \
  --nodes 4 --vms 4 --data-mb 64 --duration-s 1209600 --rate 2 --seed 42 --policy adaptive \
  --metrics-out "${long_json}")"
grep -qxF '  oracle: clean (3977523 records)' <<< "${long_out}" \
  || { echo "error: the 14-day strict serve-jobs must replay 3977523 records clean" >&2; \
       echo "${long_out}" >&2; exit 1; }
# Its 5.4 MB metrics document must render (JSON parsing is linear in
# the input), and a reader that stops after one line must not crash
# the renderer: under pipefail, a panic on the closed pipe (exit 101)
# fails the pipeline.
cargo run -q --release --offline -p adios-report -- render "${long_json}" > /dev/null
head_status=0
head_line="$(set -o pipefail; cargo run -q --release --offline -p adios-report -- \
  render "${long_json}" | head -n 1)" || head_status=$?
if (( head_status != 0 )) || [[ "${head_line}" != "== adios.metrics/3 ==" ]]; then
  rm -f "${long_json}"
  echo "error: render | head -1 must print the banner and exit 0 (exit ${head_status})" >&2
  exit 1
fi
# Its self-diff, by value and by shape, must be clean within 10 s: the
# diff indexes each object's keys once instead of scanning per key.
for want in "documents are identical" "documents have identical shape"; do
  shape_flag=()
  [[ "${want}" == *shape ]] && shape_flag=(--shape)
  self_status=0
  self_out="$(timeout 10 cargo run -q --release --offline -p adios-report -- diff \
    "${shape_flag[@]}" "${long_json}" "${long_json}" --fail-on-delta)" || self_status=$?
  if (( self_status != 0 )) || [[ "${self_out}" != "${want}" ]]; then
    rm -f "${long_json}"
    echo "error: the 14-day document's ${shape_flag[*]:-value} self-diff must print" \
      "\"${want}\" and exit 0 within 10 s (exit ${self_status})" >&2
    echo "${self_out}" | tail -n 5 >&2
    exit 1
  fi
done
rm -f "${long_json}"

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
rm -f "${profile_json}"

# Committed bench documents: both must render as adios.bench/1, and the
# sweep document must carry its multi-job service cells.
for doc in BENCH_micro.json BENCH_sweep.json; do
  rendered="$(cargo run -q --release --offline -p adios-report -- render "${doc}")"
  [[ "$(head -n 1 <<< "${rendered}")" == "== adios.bench/1 ==" ]] \
    || { echo "error: ${doc} must render as an adios.bench/1 document" >&2; exit 1; }
  if [[ "${doc}" == BENCH_sweep.json ]]; then
    grep -qxF '[multijob_cells]' <<< "${rendered}" \
      || { echo "error: ${doc} has no [multijob_cells] section" >&2; exit 1; }
  fi
done

# Malformed-input smoke: a 200,000-deep `[[…]]` document must be
# rejected with the JSON parser's depth error (exit 1), not abort on a
# stack overflow (exit 134).
deep_json="$(mktemp)"
{ head -c 200000 /dev/zero | tr '\0' '['; head -c 200000 /dev/zero | tr '\0' ']'; } \
  > "${deep_json}"
deep_status=0
deep_err="$(cargo run -q --release --offline -p adios-report -- render "${deep_json}" \
  2>&1 > /dev/null)" || deep_status=$?
rm -f "${deep_json}"
if (( deep_status != 1 )) || ! grep -qF 'nesting deeper than' <<< "${deep_err}"; then
  echo "error: a 200000-deep JSON array must exit 1 with the depth error" \
    "(exit ${deep_status})" >&2
  echo "${deep_err}" >&2
  exit 1
fi

# A profile span with a non-string name must be rejected with an error
# naming its path (exit 1), not rendered as a `?` row.
bad_profile="$(mktemp)"
echo '{"schema":"adios.profile/1","spans":[{"name":1}]}' > "${bad_profile}"
bad_status=0
bad_err="$(cargo run -q --release --offline -p adios-report -- render "${bad_profile}" \
  2>&1 > /dev/null)" || bad_status=$?
rm -f "${bad_profile}"
if (( bad_status != 1 )) || ! grep -qF 'spans[0].name: expected a string' <<< "${bad_err}"; then
  echo "error: a profile span named 1 must exit 1 naming spans[0].name" \
    "(exit ${bad_status})" >&2
  echo "${bad_err}" >&2
  exit 1
fi

# A service document with a non-numeric SLO field must be rejected
# with an error naming its path (exit 1), not rendered with zeros.
bad_service="$(mktemp)"
echo '{"schema":"adios.metrics/3","kind":"service","latency":{"p50_s":"x"}}' > "${bad_service}"
bad_status=0
bad_err="$(cargo run -q --release --offline -p adios-report -- render "${bad_service}" \
  2>&1 > /dev/null)" || bad_status=$?
rm -f "${bad_service}"
if (( bad_status != 1 )) || ! grep -qF 'latency.p50_s: expected a number' <<< "${bad_err}"; then
  echo "error: a service SLO field p50_s of \"x\" must exit 1 naming latency.p50_s" \
    "(exit ${bad_status})" >&2
  echo "${bad_err}" >&2
  exit 1
fi

# A share gate that could never trip (NaN) must be refused with exit 1
# naming the flag, not pass every profile pair.
gate_status=0
gate_err="$(cargo run -q --release --offline -p adios-report -- diff \
  docs/profiles/PROFILE_64x4.json docs/profiles/PROFILE_256x4.json \
  --fail-on-share-delta nan 2>&1 > /dev/null)" || gate_status=$?
if (( gate_status != 1 )) || ! grep -qF -- '--fail-on-share-delta' <<< "${gate_err}"; then
  echo "error: --fail-on-share-delta nan must exit 1 naming the flag" \
    "(exit ${gate_status})" >&2
  echo "${gate_err}" >&2
  exit 1
fi

# Cross-run tables smoke: a mini-sweep over two node counts (a comma
# list), two pairs and two parallel-copies settings must print its
# ranking (with the crossover count), its gain-vs-queue-depth
# correlation and both parallel-copies rows of the overlap table. The
# Fig. 6 crossover itself is covered by unit tests and the
# EXPERIMENTS.md 4x4/512MB recipe.
sweep_out="$(cargo run -q --release --offline --bin repro-cli -- sweep \
  --nodes 2,3 --vms 2 --data-mb 64 --pairs cc,dd --parallel-copies 1,5)"
grep -qE '^crossovers: [0-9]+$' <<< "${sweep_out}" \
  || { echo "error: sweep must print the ranking's crossovers line" >&2; \
       echo "${sweep_out}" >&2; exit 1; }
grep -qF '  corr(gain, qdepth) = ' <<< "${sweep_out}" \
  || { echo "error: sweep must print a corr(gain, qdepth) line" >&2; \
       echo "${sweep_out}" >&2; exit 1; }
[[ "$(grep -cE '^ +[15] +4 ' <<< "${sweep_out}")" -eq 2 ]] \
  || { echo "error: sweep must print both parallel-copies overlap rows" >&2; \
       echo "${sweep_out}" >&2; exit 1; }

# A sweep whose reader stops after one line must exit 0 and still write
# its --json-out document: files are written before anything is printed,
# and a closed pipe ends the printing quietly. Under pipefail, a panic on
# the closed pipe (exit 101) fails the pipeline.
pipe_json="$(mktemp)"
rm -f "${pipe_json}"
pipe_status=0
(set -o pipefail; cargo run -q --release --offline --bin repro-cli -- sweep \
  --nodes 2 --vms 2 --data-mb 16 --pairs cc,dd --json-out "${pipe_json}" \
  | head -n 1 > /dev/null) || pipe_status=$?
if (( pipe_status != 0 )) || ! grep -q '"schema":"adios.bench/1"' "${pipe_json}" 2> /dev/null; then
  rm -f "${pipe_json}"
  echo "error: sweep --json-out | head -n 1 must exit 0 and write the document" \
    "(exit ${pipe_status})" >&2
  exit 1
fi
rm -f "${pipe_json}"

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

echo "ci: offline build (all targets) + tests + clippy + doc gate + release causality smoke + release Fig. 5 matrix + bench smoke/shape + switch benches + report smoke + serve-jobs oracle smoke (60 s and 14 days, rendered whole and through head, self-diffs clean) + profiler smoke + bench-doc render + deep-JSON/bad-profile/bad-service/bad-gate rejection + sweep tables smoke + sweep through head green; dependency graph is workspace-only"
