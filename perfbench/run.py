#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload pairs|stream|fanout --seed N \
        --seconds N --trace 0|1

Run it from the repository root. It builds perfbench/main.exe with dune
into .bench_build, with dune's shared cache off so that nothing is
written outside the checkout. Then it replaces itself with that
program, passing the arguments through. The program's last stdout line
is the result object.
"""

import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")

# Minor heap, in words, when OCAMLRUNPARAM does not set one: at the
# 256k-word default, stop-the-world minor collections made kp-opt12's
# fanout throughput swing by +-13% between identical runs.
MINOR_HEAP = "s=4M"


def revision():
    if not os.path.isdir(".git"):
        return "unknown"
    out = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=False
    )
    return out.stdout.strip() or "unknown"


def main():
    dune = shutil.which("dune")
    if dune is None:
        print("perfbench: dune is not on PATH", file=sys.stderr)
        return 2
    build = subprocess.run(
        [dune, "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--cache", "disabled", "--profile", "release", "./perfbench/main.exe"],
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    env = dict(os.environ)
    params = [p for p in env.get("OCAMLRUNPARAM", "").split(",") if p]
    if not any(p.startswith("s=") for p in params):
        env["OCAMLRUNPARAM"] = ",".join(params + [MINOR_HEAP])
    sys.stdout.flush()
    os.execve(EXE, [EXE, *sys.argv[1:], "--rev", revision()], env)


if __name__ == "__main__":
    sys.exit(main())
