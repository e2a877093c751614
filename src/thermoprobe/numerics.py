"""Shared types: the column table that scans and commands return, and the
exception types the other modules raise.

Everything in the package is deterministic: identical inputs produce
bit-identical outputs, so results can be frozen in regression tests.
"""

from __future__ import annotations

from dataclasses import dataclass


class NoConvergence(RuntimeError):
    """A solution misses its accuracy requirement, such as a root whose
    residual stays above the bound."""


class NonFiniteState(FloatingPointError):
    """A computed quantity, such as a relaxation time or a QFI curve, left the
    finite floating-point range."""


@dataclass(frozen=True)
class Table:
    """Rows of data held as columns, one block per series.

    ``columns`` names the fields in order. Each block is a tuple with one
    entry per column: a list holds one value per row of the block, and any
    other value repeats over the block. A list may be shared by several
    blocks, such as the temperature grid of every equilibrium curve.
    ``len(table)`` is the number of rows.
    """

    columns: tuple
    blocks: list

    def __post_init__(self):
        for block in self.blocks:
            lengths = {len(cell) for cell in block if isinstance(cell, list)}
            if len(block) != len(self.columns) or len(lengths) != 1:
                raise ValueError(f"a block needs one entry per column {self.columns} "
                                 f"and lists of one length, got lengths {sorted(lengths)}")

    def __len__(self):
        return sum(map(self.block_rows, self.blocks))

    @staticmethod
    def block_rows(block):
        """Number of rows of one block: the length of its lists."""
        return next(len(cell) for cell in block if isinstance(cell, list))
