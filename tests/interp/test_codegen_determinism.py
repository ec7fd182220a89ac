"""The compiled tier generates the same code under every hash seed.

Each generated function's source is hashed over the 56 paper cells (the
14 workloads under ``paper_variants()``) in two interpreters whose string
hash seeds differ; the digests must match, so two runs of the tier can
be compared line by line.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]

DIGEST_SCRIPT = """
import hashlib
from repro.interp.compiled import CompiledModule, _Gen
from repro.interp.memory import MemoryImage
from repro.pipeline import compile_source, paper_variants
from repro.workloads import all_workloads

digest = hashlib.sha256()
for workload in all_workloads():
    for variant, options in paper_variants().items():
        module = compile_source(
            workload.source, options, name=workload.name, defines=workload.defines
        ).module
        cm = CompiledModule(module, MemoryImage(module))
        for name, func in module.functions.items():
            code = _Gen(cm, func, False, cm.namespaces[False]).build()
            digest.update(f"{workload.name}/{variant}/{name}\\n".encode())
            digest.update(code.source.encode())
print(digest.hexdigest())
"""


def test_generated_code_is_independent_of_the_hash_seed():
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", DIGEST_SCRIPT],
            env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for seed in ("1", "2")
    ]
    digests = []
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        digests.append(out.strip())
    assert digests[0] == digests[1]
