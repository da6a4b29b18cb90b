"""Shipped data: the minimum-weight bounds table and the pair catalog.

The bounds table records, for every 12 <= n <= 30 and 4 <= k <= n - 4, the
best known lower and upper bound on the largest minimum weight of a
Hermitian LCD [n, k] code over the four-element field.  Flags annotate
provenance: BOLD marks lower bounds attained by an explicitly constructed
code, STAR marks the eight entries produced by the two-vector update
construction.  Upper bounds are literature data and nothing in this package
recomputes them.

The pair catalog holds the eight published (x, y) isotropic pairs, one per
starred entry, together with the seed-code parameters they apply to.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from typing import Iterator, Optional

from .errors import UnknownEntryError
from .transform import IsotropicPair

N_RANGE = range(12, 31)


def _k_range(n: int) -> range:
    return range(4, n - 3)


class Flag(Enum):
    BOLD = "B"
    STAR = "S"


@dataclass(frozen=True)
class BoundsEntry:
    n: int
    k: int
    lower: int
    upper: int
    flags: frozenset

    @property
    def bold(self) -> bool:
        return Flag.BOLD in self.flags

    @property
    def star(self) -> bool:
        return Flag.STAR in self.flags

    @property
    def exact(self) -> bool:
        return self.lower == self.upper


# The bounds CSV's columns and how each value parses.
_COLUMNS = [(name, int) for name in ("n", "k", "lower", "upper")] + [
    ("flags", lambda text: frozenset(Flag(c) for c in text.strip()))
]


class BoundsTable:
    """Map (n, k) -> BoundsEntry with validated coverage."""

    def __init__(self, entries: dict):
        for (n, k), e in entries.items():
            if e.lower > e.upper:
                raise ValueError(f"entry ({n},{k}): lower {e.lower} > upper {e.upper}")
        for n in N_RANGE:
            for k in _k_range(n):
                if (n, k) not in entries:
                    raise ValueError(f"missing entry ({n},{k})")
        for n, k in entries:
            if n not in N_RANGE or k not in _k_range(n):
                raise ValueError(f"entry ({n},{k}) outside the covered range")
        self._entries = dict(entries)

    @classmethod
    def from_csv_text(cls, text: str) -> "BoundsTable":
        """Parse the CSV form (columns n, k, lower, upper, flags).

        Raises:
            ValueError: naming the CSV line and field of a missing or
                unparsable value, or the line of a repeated (n, k), or
                from the coverage checks.
        """
        entries = {}
        reader = csv.DictReader(text.splitlines())
        for row in reader:
            values = []
            for name, parse in _COLUMNS:
                value = row.get(name)
                try:
                    values.append(parse(value))
                except (AttributeError, TypeError, ValueError):
                    problem = "missing" if value is None else f"bad value {value!r}"
                    where = f"bounds CSV line {reader.line_num}, field {name!r}"
                    raise ValueError(f"{where}: {problem}") from None
            n, k, lower, upper, flags = values
            if (n, k) in entries:
                raise ValueError(f"bounds CSV line {reader.line_num}: duplicate entry ({n},{k})")
            entries[(n, k)] = BoundsEntry(n=n, k=k, lower=lower, upper=upper, flags=flags)
        return cls(entries)

    @classmethod
    def load(cls, path: Optional[str] = None) -> "BoundsTable":
        """Load the packaged table, or a CSV at ``path`` if given.

        The packaged table is parsed once and the same table returned on
        every later call (a table has no mutators); a CSV at ``path`` is
        read afresh on every call, with or without the UTF-8 byte-order mark
        that spreadsheet tools write.
        """
        if path is not None:
            with open(path, "r", encoding="utf-8-sig") as fh:
                return cls.from_csv_text(fh.read())
        return cls._packaged()

    @classmethod
    @functools.cache
    def _packaged(cls) -> "BoundsTable":
        text = resources.files("hlcd4").joinpath("data/d4_bounds.csv").read_text()
        return cls.from_csv_text(text)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, nk) -> bool:
        return tuple(nk) in self._entries

    def __iter__(self) -> Iterator[BoundsEntry]:
        return iter(sorted(self._entries.values(), key=lambda e: (e.n, e.k)))

    def entry(self, n: int, k: int) -> BoundsEntry:
        try:
            return self._entries[(n, k)]
        except KeyError:
            raise UnknownEntryError(f"no bounds entry for ({n},{k})") from None

    def lower(self, n: int, k: int) -> int:
        return self.entry(n, k).lower

    def upper(self, n: int, k: int) -> int:
        return self.entry(n, k).upper


@dataclass(frozen=True)
class CatalogPair:
    """A published isotropic pair and the seed-code parameters it targets.

    Applying the two-vector update with this pair to a suitable LCD
    [n, k, d] seed code (supplied externally) yields an LCD [n, k, d + 1]
    code.
    """

    n: int
    k: int
    d: int
    pair: IsotropicPair


def catalog_pairs() -> list:
    """The eight packaged pairs, in table order.

    Each pair's isotropy is re-validated on load by the IsotropicPair
    constructor.
    """
    text = resources.files("hlcd4").joinpath("data/isotropic_pairs.csv").read_text()
    out = []
    for row in csv.DictReader(text.splitlines()):
        out.append(
            CatalogPair(
                n=int(row["n"]),
                k=int(row["k"]),
                d=int(row["d"]),
                pair=IsotropicPair.from_symbols(row["x"], row["y"]),
            )
        )
    return out
