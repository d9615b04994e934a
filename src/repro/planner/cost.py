"""Estimated selectivity of index probes, for EXPLAIN ANALYZE.

Planning never consults this module: whether an index is probed is
Definition 1's eligibility question alone, so every eligible index is
used.  Estimates only annotate traced runs — the ``estimated_rows``
attribute of an EXPLAIN ANALYZE ``index-scan`` operator — next to the
actual count they can be compared with:

* :class:`KeyHistogram` is an equi-depth histogram over an index's
  distinct live keys;
* :meth:`CostModel.estimate_probe` turns its range fraction into the
  fraction of documents a range probe keeps.

A model lives for one statement and builds each index's histogram once
from the data as it stands, so an estimate is a function of the data,
never of the history of deletes or of earlier estimates.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field


class KeyHistogram:
    """Equi-depth histogram over ``source.keys()`` (sorted keys).

    ``source`` is a B+Tree or an XML index, whose ``keys()`` skips the
    entries of forgotten documents.  Built once; queries cost
    O(log buckets).
    """

    def __init__(self, source, buckets: int = 64):
        keys = list(source.keys())
        self._boundaries: list = []
        if keys:
            step = max(1, len(keys) // buckets)
            self._boundaries = keys[::step]
            if self._boundaries[-1] != keys[-1]:
                self._boundaries.append(keys[-1])

    def range_fraction(self, low, high) -> float:
        """Estimated fraction of keys in [low, high] (None = open)."""
        if not self._boundaries:
            return 0.0
        buckets = len(self._boundaries)
        try:
            low_position = (bisect.bisect_left(self._boundaries, low)
                            if low is not None else 0)
            high_position = (bisect.bisect_right(self._boundaries, high)
                             if high is not None else buckets)
        except TypeError:
            return 1.0  # incomparable key types: assume everything
        width = max(0, high_position - low_position)
        return min(1.0, width / buckets)


@dataclass
class ProbeEstimate:
    """What the cost model thinks one probe will do."""

    key_fraction: float          # fraction of index keys in range
    docs_fraction: float         # fraction of table docs kept (approx)


@dataclass
class CostModel:
    """Per-statement probe estimator; one histogram per index."""

    #: Histograms keyed by index object id.
    _histograms: dict = field(default_factory=dict)

    def histogram_for(self, index) -> KeyHistogram:
        histogram = self._histograms.get(id(index))
        if histogram is None:
            histogram = KeyHistogram(index)
            self._histograms[id(index)] = histogram
        return histogram

    def estimate_probe(self, index, low, high, total_docs: int,
                       docs_with_path: int | None = None
                       ) -> ProbeEstimate:
        """Estimate a range probe against ``index``.

        ``docs_fraction`` is approximated as: (docs present in the
        index / table docs) × (key fraction in range), i.e. assuming
        entries spread evenly over documents — the standard
        independence assumption.

        ``docs_with_path`` — the number of documents containing the
        *query's* path, read from the column's path summary (see
        :meth:`repro.storage.snapshot.ReadView.docs_with_path`) — caps
        the structural coverage: a document without the path cannot
        survive the probe, however wide the key range.
        """
        if total_docs <= 0:
            return ProbeEstimate(0.0, 0.0)
        key_fraction = self.histogram_for(index).range_fraction(low, high)
        docs_in_index = index.distinct_doc_count()
        coverage = min(1.0, docs_in_index / total_docs)
        if docs_with_path is not None:
            coverage = min(coverage, docs_with_path / total_docs)
        # The entries-per-document factor widens the estimate when
        # documents hold several entries, but survivors are still a
        # subset of the covered documents — never exceed ``coverage``.
        docs_fraction = min(coverage,
                            coverage * key_fraction *
                            max(1.0, len(index) / max(1, docs_in_index)))
        return ProbeEstimate(key_fraction, docs_fraction)
