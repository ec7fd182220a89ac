"""C front end: preprocess, parse (pycparser), and lower to tagged IL.

Parsing goes one top-level declaration at a time through a
:class:`~repro.frontend.decls.DeclMemo`, which a ``FunctionStore``
carries across compiles: an edit re-parses only the declarations whose
text changed.  Programs that declare a typedef, and any error, take the
whole-file parse.
"""

from __future__ import annotations

from pycparser import CParser, c_ast
from pycparser.c_parser import ParseError

from ..errors import FrontendError, ReproError
from ..ir.module import Module
from .decls import DeclMemo
from .lower import ModuleLowerer
from .preprocess import preprocess

__all__ = ["DeclMemo", "ModuleLowerer", "compile_c", "preprocess"]


def compile_c(
    source: str,
    name: str = "module",
    defines: dict[str, str] | None = None,
    decls: DeclMemo | None = None,
) -> Module:
    """Compile C source text to an (unoptimized) IL module.

    Runs the mini-preprocessor, parses with pycparser, and lowers every
    function.  The produced module is verifiable but unanalyzed: pointer
    operations carry universal tag sets and calls carry universal MOD/REF
    summaries.

    Each top-level declaration is parsed on its own, through ``decls``
    (a :class:`DeclMemo`; a throwaway one when ``None``), so a
    declaration whose text is unchanged since ``name``'s last compile is
    not parsed again.  On any error, or text that contains ``typedef``
    or does not split, the whole file is parsed and lowered as one, and
    what that raises is raised: messages and coordinates never depend on
    the memo.
    """
    text = preprocess(source, defines)
    if decls is None:
        decls = DeclMemo()
    try:
        ast = decls.parse(text, name)
        module = None if ast is None else ModuleLowerer(name).lower(ast)
    except (ParseError, AssertionError, ReproError):
        module = None
    if module is None:
        module = ModuleLowerer(name).lower(_parse_whole(text, name))
    from ..ir.verify import verify_module

    verify_module(module)
    return module


def _parse_whole(text: str, name: str) -> c_ast.FileAST:
    """Parse the whole translation unit at once, with file coordinates."""
    parser = CParser()
    try:
        return parser.parse(text, filename=name)
    except ParseError as exc:
        message = str(exc)
        if not message.startswith(f"{name}: "):
            raise FrontendError(f"parse error: {message}") from exc
        # some errors ("Invalid expression") name the file but no line
        line = getattr(parser.clex, "_lineno", None)
        detail = message.removeprefix(f"{name}: ")
        raise FrontendError(f"parse error: {detail}", f"{name}:{line}") from exc
    except AssertionError as exc:
        # pycparser asserts, instead of raising ParseError, on some malformed
        # inputs (a '}' that closes no open scope, odd declarations)
        line = getattr(parser.clex, "_lineno", None)
        detail = f" ({exc})" if str(exc) else ""
        raise FrontendError(
            f"parse error: malformed input{detail}", f"{name}:{line}"
        ) from exc
