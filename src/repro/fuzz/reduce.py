"""Delta-debugging reducer: shrink a divergent C program.

Classic ddmin (Zeller & Hildebrandt) over *brace-balanced chunks* of the
source, applied recursively at every block nesting depth.  A chunk is
either a single line with no net brace delta or a whole ``{...}`` block
including its header line, so removing any subset keeps the braces
balanced and most probes stay syntactically plausible; after ddmin
settles at one depth the reducer descends into each surviving block's
interior and repeats.
Probes that fail to compile are simply rejected by the predicate (every
oracle cell crashes identically → no divergence), so the reducer needs no
C-specific knowledge beyond the chunker.

The outer loop alternates ddmin with a line-granular sweep until a fixed
point: ddmin removes big regions fast, the sweep then peels individual
statements/declarations the coarse pass could not isolate.

Every probe result is cached by source hash — ddmin revisits
configurations, and oracle probes are the expensive part.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

from ..diag.log import get_logger

_log = get_logger(__name__)

Predicate = Callable[[str], bool]


@dataclass
class ReduceStats:
    """How one reduction went."""

    probes: int = 0
    cache_hits: int = 0
    rounds: int = 0
    initial_lines: int = 0
    final_lines: int = 0
    log: list[str] = field(default_factory=list)


class _CachedPredicate:
    def __init__(self, predicate: Predicate, stats: ReduceStats) -> None:
        self.predicate = predicate
        self.stats = stats
        self.cache: dict[str, bool] = {}

    def __call__(self, source: str) -> bool:
        key = hashlib.sha256(source.encode()).hexdigest()
        if key in self.cache:
            self.stats.cache_hits += 1
            return self.cache[key]
        self.stats.probes += 1
        try:
            verdict = bool(self.predicate(source))
        except Exception as error:  # a probe must never abort the reduction
            _log.debug("probe raised %s; treating as False", error)
            verdict = False
        self.cache[key] = verdict
        return verdict


def chunk_lines(lines: list[str]) -> list[list[str]]:
    """Split into brace-balanced chunks (line, or whole block + header)."""
    chunks: list[list[str]] = []
    i = 0
    while i < len(lines):
        line = lines[i]
        delta = line.count("{") - line.count("}")
        if delta <= 0:
            chunks.append([line])
            i += 1
            continue
        # swallow lines until the block closes
        j = i + 1
        depth = delta
        while j < len(lines) and depth > 0:
            depth += lines[j].count("{") - lines[j].count("}")
            j += 1
        chunks.append(lines[i:j])
        i = j
    return chunks


def _flatten(chunks: list[list[str]]) -> list[str]:
    return [line for chunk in chunks for line in chunk]


ChunkTest = Callable[[list[list[str]]], bool]


def _ddmin(chunks: list[list[str]], test: ChunkTest) -> list[list[str]]:
    """One ddmin pass over a chunk list; returns a (possibly) smaller list
    that still satisfies ``test``."""
    n = 2
    while len(chunks) >= 2:
        subset_len = max(len(chunks) // n, 1)
        reduced = False
        # try removing each slice ("complement" step of ddmin)
        start = 0
        while start < len(chunks):
            candidate = chunks[:start] + chunks[start + subset_len:]
            if candidate and test(candidate):
                chunks = candidate
                n = max(n - 1, 2)
                reduced = True
                # restart the sweep at this position
            else:
                start += subset_len
        if not reduced:
            if n >= len(chunks):
                break
            n = min(n * 2, len(chunks))
    return chunks


def _reduce_lines(
    lines: list[str],
    test: Callable[[list[str]], bool],
) -> list[str]:
    """ddmin over ``lines``' brace-balanced chunks, then recurse into every
    surviving multi-line block's interior.

    Recursion is what lets the reducer delete a dead loop nest *inside*
    ``main``: at the top level the whole function body is a single chunk
    (it is one brace-balanced region), so only by descending past each
    block header can ddmin see the statements within.
    """
    chunks = chunk_lines(lines)
    chunks = _ddmin(chunks, lambda cand: test(_flatten(cand)))
    for i, chunk in enumerate(chunks):
        if len(chunk) <= 2:
            continue  # single line, or a header/footer pair with no interior
        header, interior, footer = chunk[0], chunk[1:-1], chunk[-1]

        def test_replacement(cand: list[str], i: int = i) -> bool:
            return test(_flatten(chunks[:i] + [cand] + chunks[i + 1:]))

        # unwrap: a block whose body alone still reproduces loses its
        # header/footer (e.g. a divergence that only needs the inner loop
        # of a nest sheds the enclosing one)
        if interior and test_replacement(interior):
            chunks[i] = _reduce_lines(interior, test_replacement)
            continue

        def test_interior(
            cand: list[str],
            test_replacement: Callable[[list[str]], bool] = test_replacement,
            header: str = header,
            footer: str = footer,
        ) -> bool:
            return test_replacement([header, *cand, footer])

        chunks[i] = [header, *_reduce_lines(interior, test_interior), footer]
    return _flatten(chunks)


def reduce_source(
    source: str,
    predicate: Predicate,
    max_rounds: int = 8,
) -> tuple[str, ReduceStats]:
    """Shrink ``source`` while ``predicate`` (the divergence check) holds.

    Returns ``(reduced_source, stats)``.  Raises ``ValueError`` if the
    original source does not satisfy the predicate — a reduction must
    start from a genuine reproducer.
    """
    stats = ReduceStats(initial_lines=len(source.splitlines()))
    cached = _CachedPredicate(predicate, stats)
    if not cached(source):
        raise ValueError("predicate does not hold on the original program")

    current = source
    for round_no in range(max_rounds):
        stats.rounds = round_no + 1
        before = len(current.splitlines())

        # coarse: recursive ddmin over brace-balanced chunks at every
        # nesting depth (re-chunked each round)
        lines = _reduce_lines(
            current.splitlines(),
            lambda cand: bool(cand) and cached("\n".join(cand) + "\n"),
        )
        current = "\n".join(lines) + "\n"

        # fine: try deleting each single line, innermost-last
        lines = current.splitlines()
        i = 0
        while i < len(lines):
            candidate_lines = lines[:i] + lines[i + 1:]
            if candidate_lines and cached("\n".join(candidate_lines) + "\n"):
                lines = candidate_lines
            else:
                i += 1
        current = "\n".join(lines) + "\n"

        after = len(lines)
        stats.log.append(f"round {round_no + 1}: {before} -> {after} lines")
        if after == before:
            break

    stats.final_lines = len(current.splitlines())
    _log.info(
        "reduced %d -> %d lines in %d probes (%d cached)",
        stats.initial_lines, stats.final_lines, stats.probes, stats.cache_hits,
    )
    return current, stats
