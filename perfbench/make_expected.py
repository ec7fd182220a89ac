"""Build every workload natively with gcc and record its reference output.

Usage (from the repository root; needs ``gcc``)::

    python3 perfbench/make_expected.py

Each of the 14 programs is compiled with ``gcc -O1 -fwrapv`` and run;
its stdout and exit code are written to ``perfbench/expected/<name>.txt``
as ``exit <code>`` on the first line followed by stdout verbatim.  These
files are the benchmark's reference: they come from a compiler that
shares no code with ``repro``, so a wrong answer from the interpreter or
the optimizer cannot also be written into the reference.

The interpreter computes in 64-bit integers.  Three programs (bison,
clean, compress) run linear congruential generators whose products
overflow 32 bits, so they are built with a 64-bit ``int`` (and their
``%d`` conversions widened to match); every other program uses the
native 32-bit ``int``.  The benchmark itself never needs gcc.
"""

from __future__ import annotations

import re
import subprocess
import sys
import tempfile
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import WORK, use_source_tree  # noqa: E402

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

#: programs whose arithmetic needs a 64-bit ``int`` to match the interpreter
WIDE_INT = frozenset({"bison", "clean", "compress"})

_HEADERS = ("stdio.h", "stdlib.h", "string.h", "math.h")


def native_source(name: str, source: str) -> str:
    """The workload source as gcc should see it: the C library headers
    the interpreter's intrinsics stand for, then the program."""
    prelude = "".join(f"#include <{header}>\n" for header in _HEADERS)
    if name in WIDE_INT:
        # after the headers, so the library's own prototypes keep ``int``
        prelude += "#define int long\n"
        # widen %d/%i/%u/%x (with any flags/width) to their long forms
        source = re.sub(r"%([-+ 0#]*\d*)([diux])", r"%\1l\2", source)
    return prelude + source


def native_flags(defines: dict[str, str]) -> list[str]:
    return ["-O1", "-fwrapv", "-w"] + [
        f"-D{key}={value}" for key, value in sorted(defines.items())
    ]


def write_expected(path: Path, exit_code: int, stdout: str) -> None:
    path.write_text(f"exit {exit_code}\n{stdout}")


def build_and_run(workload, build_dir: Path) -> tuple[int, str]:
    c_file = build_dir / f"{workload.name}.c"
    binary = build_dir / workload.name
    c_file.write_text(native_source(workload.name, workload.source))
    subprocess.run(
        ["gcc", *native_flags(workload.defines),
         "-o", str(binary), str(c_file), "-lm"],
        check=True,
    )
    run = subprocess.run(
        [str(binary)], capture_output=True, text=True, timeout=120
    )
    return run.returncode, run.stdout


def main() -> int:
    use_source_tree()
    from repro.workloads import all_workloads

    EXPECTED_DIR.mkdir(exist_ok=True)
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK, prefix="native-") as tmp:
        for workload in all_workloads():
            exit_code, stdout = build_and_run(workload, Path(tmp))
            write_expected(EXPECTED_DIR / f"{workload.name}.txt", exit_code, stdout)
            print(f"{workload.name:<10} exit {exit_code}  {len(stdout)} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
