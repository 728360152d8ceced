#!/usr/bin/env python3
"""Build and run the wall-clock service benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the repository root. The benchmark is its own cargo package
(perfbench/Cargo.toml) built against the repository's crates by path; the
build goes to $CARGO_TARGET_DIR, or .bench_build when that is unset. The
last line of standard output is the JSON result of the run.

--smoke runs every workload briefly, untraced and traced, and checks that
the output checks pass and that every metric BENCHMARK.json names is
printed with its unit.
"""

import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def build():
    """Builds the benchmark binary; exits nonzero if the build fails."""
    env = dict(os.environ)
    target = pathlib.Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        built = subprocess.run(cmd, stdout=sys.stderr, env=env).returncode == 0
    except OSError as e:
        print(f"run.py: cannot run cargo: {e}", file=sys.stderr)
        built = False
    binary = target / "release" / "perfbench"
    if not built or not binary.is_file():
        print("run.py: benchmark build failed", file=sys.stderr)
        sys.exit(1)
    return target, binary


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def bench_args(args, target):
    """Adds run metadata and, for a traced run, the span file."""
    opts = dict(zip(args[::2], args[1::2]))
    extra = ["--rustc", rustc_version()]
    if opts.get("--trace") == "1":
        name = f"{opts.get('--workload')}-seed{opts.get('--seed')}.json"
        extra += ["--trace-out", str(target / "perfbench-spans" / name)]
    return args + extra


def smoke(target, binary):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            args = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace]
            run = subprocess.run([str(binary)] + bench_args(args, target),
                                 capture_output=True, text=True, timeout=170)
            lines = run.stdout.strip().splitlines()
            label = f"{workload} --trace {trace}"
            if run.returncode != 0 or not lines:
                problems.append(f"{label}: exit {run.returncode}: {run.stderr.strip()}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{label}: output checks failed: {run.stderr.strip()}")
            for m in spec[section]:
                got = result["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append(f"{label}: metric {m['name']} missing or not in {m['unit']}")
            if trace == "0" and not any(l.startswith("error_rate: ") for l in lines):
                problems.append(f"{label}: error_rate not printed")
            print(f"smoke: {label}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} commands, correct={result['correct']}")
    for p in problems:
        print(f"smoke: FAIL {p}", file=sys.stderr)
    return 1 if problems else 0


def main():
    args = sys.argv[1:]
    target, binary = build()
    if args == ["--smoke"]:
        sys.exit(smoke(target, binary))
    sys.exit(subprocess.run([str(binary)] + bench_args(args, target)).returncode)


if __name__ == "__main__":
    main()
