"""Top-level declarations, parsed and lowered one at a time and memoized.

An edit to one function leaves the text of every other top-level
declaration unchanged, so a compile with a store parses each
declaration on its own, reuses its AST while its text is unchanged, and
reuses each function's lowered body while nothing that body's lowering
reads has changed.  A compile without a store parses the whole file.

* :func:`split_declarations` cuts preprocessed text at top-level
  boundaries with a brace/paren-depth scan over string literals, char
  literals and ``{}();``: a declaration ends at a depth-0 ``;``, a
  function at the depth-0 ``}`` closing a ``{`` that follows ``)``,
  whose offset it returns with the function.
* :meth:`DeclMemo.lower` parses each piece with pycparser and memoizes
  it by its text.  A memoized AST's coordinates are relative to its
  declaration; the caller re-parses the whole file on any error, so no
  such coordinate reaches a message.
* It also memoizes each function definition's lowered body (a
  :class:`~repro.frontend.lower.LoweredFunction`), keyed by the
  definition's text, the pass-1 environment (every other declaration's
  text and every function's signature text, in order) and
  :meth:`~repro.frontend.lower.ModuleLowerer.body_state`.  A hit adds a
  copy of the body and replays what its lowering wrote.  Once a body is
  lowered its AST is kept only pickled, without coordinates, for a
  later miss (an edit elsewhere that changes the key).
* Text that contains the word ``typedef`` is left to the whole-file
  parse: pycparser's lexer tells type names from identifiers by the
  typedefs declared earlier, which a declaration parsed on its own does
  not see.

The memo keeps, per module name, what that name's last two compiles
used, so a declaration an edit reverts to is still held, and at most
:data:`DECL_MEMO_NAMES` names (FIFO).
"""

from __future__ import annotations

import pickle
import re
from dataclasses import dataclass, field

from pycparser import CParser, c_ast

from ..ir.module import Module
from .lower import LoweredFunction, ModuleLowerer
from .preprocess import LITERAL

__all__ = ["DECL_MEMO_NAMES", "DeclMemo", "split_declarations"]

#: module names a memo keeps declarations for (FIFO eviction beyond it)
DECL_MEMO_NAMES = 32

_TOKEN_RE = re.compile(LITERAL + r"|[{}();]", re.S)


def split_declarations(text: str) -> list[tuple[str, int | None]] | None:
    """The top-level declarations of ``text``, each stripped and paired
    with the offset of its body's ``{`` when it is a function definition
    (``None`` otherwise), or ``None`` when the scan does not consume the
    text (unbalanced brackets, or trailing text no boundary closes)."""
    decls: list[tuple[str, int | None]] = []
    depth = 0
    start = 0
    function_body = False
    body = 0
    for match in _TOKEN_RE.finditer(text):
        char = match.group()[0]
        if char == "(" or char == "{":
            if char == "{" and depth == 0:
                before = match.start() - 1
                while before >= start and text[before].isspace():
                    before -= 1
                function_body = before >= start and text[before] == ")"
                body = match.start()
            depth += 1
        elif char == ")" or char == "}":
            depth -= 1
            if depth < 0:
                return None
            if depth == 0 and char == "}" and function_body:
                piece = text[start:match.end()]
                # the body's offset in the stripped piece
                body -= match.end() - len(piece.lstrip())
                decls.append((piece.strip(), body))
                start = match.end()
        elif char == ";" and depth == 0:
            decls.append((text[start:match.end()].strip(), None))
            start = match.end()
    if depth or text[start:].strip():
        return None
    return decls


@dataclass
class _Decl:
    """One parsed top-level declaration."""

    #: the declaration's text, held once however many compiles use it
    text: str
    nodes: list[c_ast.Node]
    #: a function definition's text up to its body; ``None`` otherwise
    signature: str | None
    #: a lowered definition's body, pickled without coordinates; its
    #: node in ``nodes`` then has no body
    body: bytes | None = None

    def funcdef(self) -> c_ast.FuncDef:
        """A function definition's node, with its body."""
        node = self.nodes[0]
        if self.body is None:
            return node
        return c_ast.FuncDef(
            node.decl, node.param_decls, pickle.loads(self.body), node.coord
        )

    def drop_body(self) -> None:
        """Keep the body only pickled: lowered, it is needed again only
        when the lowered entry misses."""
        node = self.nodes[0]
        if node.body is not None:
            # no coordinate reaches a message: errors re-parse the file
            for child in _walk(node.body):
                child.coord = None
            self.body = pickle.dumps(node.body, pickle.HIGHEST_PROTOCOL)
            self.nodes = [c_ast.FuncDef(node.decl, node.param_decls, None, node.coord)]


@dataclass
class _Compile:
    """What one compile of a module name used."""

    parsed: dict[str, _Decl] = field(default_factory=dict)
    lowered: dict[tuple, LoweredFunction] = field(default_factory=dict)


class DeclMemo:
    """Parsed declarations keyed by text, and lowered function bodies."""

    def __init__(self) -> None:
        #: module name -> what its last two compiles used, newest first
        self._by_name: dict[str, tuple[_Compile, ...]] = {}

    def clear(self) -> None:
        self._by_name.clear()

    def lower(self, text: str, name: str) -> Module | None:
        """The lowered module of preprocessed ``text``: every
        declaration's AST through pass 1, then each function body from
        the memo or lowered afresh.

        Returns ``None`` when the text contains the word ``typedef`` or
        does not split; pycparser's ``ParseError`` and ``AssertionError``
        and the front end's ``ReproError`` propagate.
        """
        if "typedef" in text:
            return None
        decls = split_declarations(text)
        if decls is None:
            return None
        recent = self._by_name.get(name, ())
        used = _Compile()
        order: list[_Decl] = []
        parser = None
        for decl, body in decls:
            entry = used.parsed.get(decl) or next(
                (c.parsed[decl] for c in recent if decl in c.parsed), None
            )
            if entry is None:
                parser = parser or CParser()
                entry = _parse_decl(parser, decl, body, name)
            used.parsed[entry.text] = entry
            order.append(entry)
        lowerer = ModuleLowerer(name)
        lowerer.declare([node for entry in order for node in entry.nodes])
        env = tuple(
            entry.text if entry.signature is None else entry.signature
            for entry in order
        )
        for entry in order:
            if entry.signature is None:
                continue
            key = (entry.text, env, lowerer.body_state())
            lowered = used.lowered.get(key) or next(
                (c.lowered[key] for c in recent if key in c.lowered), None
            )
            if lowered is not None:
                lowerer.replay(lowered)
            else:
                lowered = lowerer.lower_recorded(entry.funcdef())
                entry.drop_body()
            used.lowered[key] = lowered
        self._keep(name, used)
        return lowerer.module

    def _keep(self, name: str, used: _Compile) -> None:
        """Make ``used`` the newest of ``name``'s two kept compiles."""
        recent = self._by_name.get(name)
        if recent is None:
            while len(self._by_name) >= DECL_MEMO_NAMES:
                del self._by_name[next(iter(self._by_name))]
            self._by_name[name] = (used,)
        else:
            self._by_name[name] = (used, recent[0])


def _parse_decl(
    parser: CParser, decl: str, body: int | None, name: str
) -> _Decl:
    nodes = _parse_one(parser, decl, name)
    if len(nodes) == 1 and isinstance(nodes[0], c_ast.FuncDef):
        return _Decl(decl, nodes, decl[:body])
    return _Decl(decl, nodes, None)


def _parse_one(parser: CParser, decl: str, name: str) -> list[c_ast.Node]:
    """The ext nodes of one declaration parsed on its own."""
    return parser.parse(decl, filename=name).ext


def _walk(node: c_ast.Node):
    yield node
    for _, child in node.children():
        yield from _walk(child)

