"""Tests of the benchmark itself; run with ``python -m pytest perfbench/tests``."""

from perfbench import use_source_tree

use_source_tree()
