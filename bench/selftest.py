"""Self-test of the benchmark itself; takes about a minute.

Run from the repository root::

    python3 bench/selftest.py

It runs every workload once at a small size, untraced and traced, and
checks that each metric listed in ``BENCHMARK.json`` is printed with its
unit and that no job failed. It checks that the clean paper preset still
takes the exact solver counts recorded below, so a change in solver work
shows as drift. It feeds a job expected frequencies that are deliberately
wrong and checks that the job is counted as failed, and checks that a wrap
target that no longer exists is reported absent. Exits 1 if any check
fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import run  # pins BLAS threads before numpy loads

# Counts of one clean paper-preset decompose, recorded when the benchmark
# was added. A change that alters solver work must update them on purpose.
EXPECTED_CLEAN_PRESET = {
    "decomposer.iterations": 34,
    "graph_learner.problems": 136,
    "graph_learner.inner_iters": 133563,
    "graph_learner.capped": 60,
}


def _expect(ok: bool, what: str, failures: list) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {what}")
    if not ok:
        failures.append(what)


def _units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def main() -> int:
    workloads, tracer = run.import_program()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures: list = []

    for name in run.WORKLOAD_NAMES:
        for trace, wanted in ((0, end_to_end), (1, per_layer)):
            args = argparse.Namespace(workload=name, seed=0, seconds=0.0, trace=trace)
            result = run.measure(args, workloads, tracer, [0.0], small=True)
            _expect(_units(result) == wanted,
                    f"{name} --trace {trace} prints every metric with its unit",
                    failures)
            _expect(result["correct"] and result["failed"] == 0
                    and result["attempted"] >= 1,
                    f"{name} --trace {trace} jobs all pass", failures)
            if name == "preset_graph" and trace == 1:
                counts = {key: result["metrics"][key]["value"]
                          for key in EXPECTED_CLEAN_PRESET}
                _expect(counts == EXPECTED_CLEAN_PRESET,
                        f"clean preset counts {counts} == {EXPECTED_CLEAN_PRESET}",
                        failures)
            if name == "mvmd_cli" and trace == 1:
                learner = [v["value"] for k, v in result["metrics"].items()
                           if k.startswith("graph_learner.")]
                _expect(not any(learner), "mvmd_cli does no graph_learner work",
                        failures)

    workload = workloads.WORKLOADS["mvmd_cli"]
    with run.workspace() as workdir:
        inputs = workload.setup(0, workdir, True)
        wrong = [dataclasses.replace(inp, tones_hz=tuple(t + 5.0 for t in inp.tones_hz))
                 for inp in inputs]
        tally = run.run_untraced(workload, wrong, 0.0, workdir)
    _expect(tally.attempted == 1 and tally.failed == 1,
            "a job with wrong expected frequencies counts as failed", failures)

    probe = tracer.Tracer((tracer.Target("tvgmd.decomposer", "moved_kernel",
                                         ("spectral", "moved_kernel")),))
    with probe:
        pass
    _expect(probe.absent == {"tvgmd.decomposer.moved_kernel"},
            "a wrap target that no longer exists is reported absent", failures)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
