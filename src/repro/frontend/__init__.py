"""C front end: preprocess, parse (pycparser), and lower to tagged IL."""

from __future__ import annotations

from pycparser import CParser
from pycparser.c_parser import ParseError

from ..errors import FrontendError
from ..ir.module import Module
from .lower import ModuleLowerer
from .preprocess import preprocess

__all__ = ["compile_c", "preprocess", "ModuleLowerer"]


def compile_c(
    source: str,
    name: str = "module",
    defines: dict[str, str] | None = None,
) -> Module:
    """Compile C source text to an (unoptimized) IL module.

    Runs the mini-preprocessor, parses with pycparser, and lowers every
    function.  The produced module is verifiable but unanalyzed: pointer
    operations carry universal tag sets and calls carry universal MOD/REF
    summaries.
    """
    text = preprocess(source, defines)
    parser = CParser()
    try:
        ast = parser.parse(text, filename=name)
    except ParseError as exc:
        raise FrontendError(f"parse error: {exc}") from exc
    except AssertionError as exc:
        # pycparser asserts, instead of raising ParseError, on some malformed
        # inputs (a '}' that closes no open scope, odd declarations)
        line = getattr(parser.clex, "_lineno", None)
        detail = f" ({exc})" if str(exc) else ""
        raise FrontendError(
            f"parse error: malformed input{detail}", f"{name}:{line}"
        ) from exc
    lowerer = ModuleLowerer(name)
    module = lowerer.lower(ast)
    from ..ir.verify import verify_module

    verify_module(module)
    return module
