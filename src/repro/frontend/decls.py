"""Top-level declarations, parsed one at a time and memoized.

An edit to one function leaves the text of every other top-level
declaration unchanged, so the front end parses each declaration on its
own and reuses its AST while its text is unchanged.

* :func:`split_declarations` cuts preprocessed text at top-level
  boundaries with a brace/paren-depth scan over string literals, char
  literals and ``{}();``: a declaration ends at a depth-0 ``;``, a
  function at the depth-0 ``}`` closing a ``{`` that follows ``)``.
* :meth:`DeclMemo.parse` parses each piece with pycparser and memoizes
  it by its text.  A memoized AST's coordinates are relative to its
  declaration; the caller re-parses the whole file on any error, so no
  such coordinate reaches a message.
* Text that contains the word ``typedef`` is left to the whole-file
  parse: pycparser's lexer tells type names from identifiers by the
  typedefs declared earlier, which a declaration parsed on its own does
  not see.

The memo keeps, per module name, only the declarations that name's last
parse used, and at most :data:`DECL_MEMO_NAMES` names (FIFO).
"""

from __future__ import annotations

import re

from pycparser import CParser, c_ast

__all__ = ["DECL_MEMO_NAMES", "DeclMemo", "split_declarations"]

#: module names a memo keeps declarations for (FIFO eviction beyond it)
DECL_MEMO_NAMES = 32

_TOKEN_RE = re.compile(r'"(?:[^"\\\n]|\\.)*"|\'(?:[^\'\\\n]|\\.)*\'|[{}();]')


def split_declarations(text: str) -> list[str] | None:
    """The top-level declarations of ``text``, each stripped, or ``None``
    when the scan does not consume the text (unbalanced brackets, or
    trailing text no boundary closes)."""
    decls: list[str] = []
    depth = 0
    start = 0
    function_body = False
    for match in _TOKEN_RE.finditer(text):
        char = match.group()[0]
        if char == "(" or char == "{":
            if char == "{" and depth == 0:
                before = match.start() - 1
                while before >= start and text[before].isspace():
                    before -= 1
                function_body = before >= start and text[before] == ")"
            depth += 1
        elif char == ")" or char == "}":
            depth -= 1
            if depth < 0:
                return None
            if depth == 0 and char == "}" and function_body:
                decls.append(text[start:match.end()].strip())
                start = match.end()
        elif char == ";" and depth == 0:
            decls.append(text[start:match.end()].strip())
            start = match.end()
    if depth or text[start:].strip():
        return None
    return decls


class DeclMemo:
    """Parsed top-level declarations, keyed by declaration text."""

    def __init__(self) -> None:
        #: module name -> {declaration text: its ext nodes}
        self._by_name: dict[str, dict[str, list[c_ast.Node]]] = {}

    def clear(self) -> None:
        self._by_name.clear()

    def parse(self, text: str, name: str) -> c_ast.FileAST | None:
        """The AST of preprocessed ``text``, one declaration at a time.

        Returns ``None`` when the text contains the word ``typedef`` or
        does not split; pycparser's ``ParseError`` and ``AssertionError``
        propagate.
        """
        if "typedef" in text:
            return None
        decls = split_declarations(text)
        if decls is None:
            return None
        known = self._by_name.get(name, {})
        used: dict[str, list[c_ast.Node]] = {}
        parser = None
        ext: list[c_ast.Node] = []
        for decl in decls:
            nodes = used.get(decl)
            if nodes is None:
                nodes = known.get(decl)
            if nodes is None:
                parser = parser or CParser()
                nodes = _parse_one(parser, decl, name)
            used[decl] = nodes
            ext += nodes
        if name not in self._by_name:
            while len(self._by_name) >= DECL_MEMO_NAMES:
                del self._by_name[next(iter(self._by_name))]
        self._by_name[name] = used
        return c_ast.FileAST(ext)


def _parse_one(parser: CParser, decl: str, name: str) -> list[c_ast.Node]:
    """The ext nodes of one declaration parsed on its own."""
    return parser.parse(decl, filename=name).ext
