"""The trace layer knows nothing about what it measures: no module under
``repro.trace`` imports the IR or the pipeline."""

import ast
from pathlib import Path

import repro.trace

FORBIDDEN = ("repro.ir", "repro.pipeline")


def _imports(path: Path) -> list[str]:
    """Absolute module names ``path`` imports (relative ones resolved
    against the ``repro.trace`` package)."""
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "repro.trace".split(".")
            if node.level:
                base = base[: len(base) - node.level + 1]
                module = ".".join(base + ([node.module] if node.module else []))
            else:
                module = node.module or ""
            names.append(module)
            names.extend(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_trace_imports_neither_ir_nor_pipeline():
    package = Path(repro.trace.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert sources
    for source in sources:
        for name in _imports(source):
            assert not any(
                name == bad or name.startswith(bad + ".") for bad in FORBIDDEN
            ), f"{source.name} imports {name}"


def test_the_scan_resolves_relative_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from ..ir import instructions\nfrom .. import pipeline\n")
    names = _imports(probe)
    assert "repro.ir" in names
    assert "repro.pipeline" in names
