#!/usr/bin/env python3
"""Build and run the FOAM benchmark of record.

    python3 foambench/run.py --workload coupled --seed 3 --seconds 20 --trace 0

Builds the `foambench` package (this directory plus ../src) into
$CARGO_TARGET_DIR/foambench, or .bench_build/foambench when that is unset,
then runs one workload. The last line of standard output is the result
object: {"correct", "attempted", "failed", "metrics"}. Build output goes
to standard error. Exits non-zero, without a result, when the build or the
run fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("coupled", "ocean_alone", "atm_fullcore")
# The binary ends within --seconds plus one attempt; this only catches a hang.
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    base = os.environ.get("CARGO_TARGET_DIR") or str(ROOT / ".bench_build")
    return Path(base).resolve() / "foambench"


def build(out: Path) -> Path:
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", "3"], check=True,
                   stdout=sys.stderr)
    return out / "foambench"


def code_id() -> str:
    """The git commit when there is one, and a digest of the sources built."""
    sha = "none"
    try:
        top, head = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, check=True,
            timeout=10).stdout.split()
        if Path(top).resolve() == ROOT:
            sha = head[:12]
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for p in sorted(top.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return f"git:{sha} src:{h.hexdigest()[:12]}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--size", default="paper", choices=("paper", "testing"),
                    help="testing: FoamConfig::testing() sizes (smoke test)")
    ap.add_argument("--doctor-nan", action="store_true",
                    help="plant a NaN in each final state (smoke test)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        binary = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    scratch = build_dir() / f"run-{os.getpid()}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--scratch", str(scratch), "--size", args.size,
           "--code", code_id()]
    if args.trace == "1":
        spans = build_dir() / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str(spans / f"{args.workload}-seed{args.seed}.json")]
    if args.doctor_nan:
        cmd.append("--doctor-nan")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
