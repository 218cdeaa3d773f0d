"""Stream elements: the union of data tuples and security punctuations.

A punctuated stream interleaves :class:`~repro.stream.tuples.DataTuple`
and :class:`~repro.core.punctuation.SecurityPunctuation` objects in
timestamp order, sps always preceding the tuples they protect.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Union

from repro.core.punctuation import SecurityPunctuation
from repro.stream.tuples import DataTuple

__all__ = [
    "StreamElement",
    "is_punctuation",
    "is_tuple",
    "element_ts",
    "split_elements",
    "count_elements",
]

StreamElement = Union[DataTuple, SecurityPunctuation]


def is_punctuation(element: StreamElement) -> bool:
    """Whether ``element`` is a security punctuation."""
    return isinstance(element, SecurityPunctuation)


def is_tuple(element: StreamElement) -> bool:
    """Whether ``element`` is a data tuple."""
    return isinstance(element, DataTuple)


def element_ts(element: StreamElement) -> float:
    """Timestamp of any stream element."""
    return element.ts


def split_elements(
    elements: Iterable[StreamElement],
) -> tuple[list[DataTuple], list[SecurityPunctuation]]:
    """Partition elements into (tuples, sps), preserving order."""
    tuples: list[DataTuple] = []
    sps: list[SecurityPunctuation] = []
    for element in elements:
        if isinstance(element, SecurityPunctuation):
            sps.append(element)
        else:
            tuples.append(element)
    return tuples, sps


def count_elements(elements: Iterable[StreamElement]) -> tuple[int, int]:
    """(tuple count, sp count) of an element sequence."""
    n_tuples = n_sps = 0
    for element in elements:
        if isinstance(element, SecurityPunctuation):
            n_sps += 1
        else:
            n_tuples += 1
    return n_tuples, n_sps


def iter_tuples(elements: Iterable[StreamElement]) -> Iterator[DataTuple]:
    """Only the data tuples of an element sequence."""
    for element in elements:
        if not isinstance(element, SecurityPunctuation):
            yield element


def iter_sps(elements: Iterable[StreamElement]) -> Iterator[SecurityPunctuation]:
    """Only the sps of an element sequence."""
    for element in elements:
        if isinstance(element, SecurityPunctuation):
            yield element
