#!/usr/bin/env python3
"""Build and run the Tai Chi simulator benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The script builds perfbench/perfbench.exe
with dune (inside the checkout, dune cache off), runs it, and checks that
the metrics it printed are exactly the ones BENCHMARK.json declares for
the mode (end_to_end for --trace 0, per_layer for --trace 1), with the
declared units and a direction. It forwards the program's report and then prints the
result as one JSON line. It exits non-zero without a result when the
build fails or the metrics do not match their declaration, and with the
program's status when a correctness check failed.
"""

import json
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    args = sys.argv[1:]
    if "--trace" not in args:
        fail("missing --trace 0|1")
    trace = args[args.index("--trace") + 1] == "1"
    try:
        with open("BENCHMARK.json") as f:
            decl = json.load(f)["per_layer" if trace else "end_to_end"]
    except (OSError, ValueError, KeyError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    units = {m["name"]: m["unit"] for m in decl}
    undirected = sorted(m["name"] for m in decl if m.get("better") not in ("higher", "lower"))
    if undirected:
        fail("BENCHMARK.json gives no direction for %s" % undirected)

    dune = [shutil.which("dune")] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            dune + ["build", "--root", ".", "--display", "quiet", "./perfbench/perfbench.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env)
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if build.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")

    run = subprocess.run([EXE] + args, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    if not lines:
        fail("no output (exit %d)" % run.returncode, run.returncode or 2)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
        metrics = {
            name: {"value": float(m["value"]), "unit": m["unit"]}
            for name, m in result["metrics"].items()
        }
    except (ValueError, KeyError, TypeError) as e:
        fail("unreadable result line: %s" % e, run.returncode or 2)

    printed = {name: m["unit"] for name, m in metrics.items()}
    if printed != units:
        extra = sorted(set(printed) - set(units))
        missing = sorted(set(units) - set(printed))
        wrong = sorted(n for n in set(printed) & set(units) if printed[n] != units[n])
        fail("metrics differ from BENCHMARK.json: undeclared %s, missing %s, unit mismatch %s"
             % (extra, missing, wrong), 3)

    result["metrics"] = metrics
    print(json.dumps(result))
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
