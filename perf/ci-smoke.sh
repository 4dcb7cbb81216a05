#!/usr/bin/env bash
# Smoke run of the benchmark: every workload at 1/8 size, one timed rep,
# the traced rep and the probes, in well under 30 s after the build.
# Exits non-zero on a failed output check or a record that is not
# schema-valid JSON. Run from anywhere; wiring this into
# .github/workflows/ci.yml is left to a later issue (that file is
# outside the benchmark's paths).
set -euo pipefail
cd "$(dirname "$0")/.."
out="${1:-target/perf/smoke.json}"
cargo run --release --quiet --manifest-path perf/Cargo.toml -- --smoke --out "$out"
python3 - "$out" <<'PY'
import json, sys
record = json.load(open(sys.argv[1]))
spec = json.load(open("BENCHMARK.json"))
assert record["schema"] == 1 and record["smoke"] is True
for w in spec["workloads"]:
    r = record["workloads"][w["name"]]
    assert r["correct"] is True and r["failed"] == 0, (w["name"], r.get("errors"))
    for m in spec["end_to_end"]:
        assert isinstance(r["end_to_end"][m["name"]]["value"], (int, float)), (w["name"], m["name"])
    for layer in spec["per_layer"]:
        source = r["per_layer"] if layer["name"] in r["per_layer"] else record["probes"]
        assert layer["name"] in source, (w["name"], layer["name"])
print("perf smoke: ok")
PY
