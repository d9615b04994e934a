"""Cost model: estimated selectivity of index probes.

The paper's companion work (Balmin et al., "Cost-based optimization in
DB2 XML", IBM Systems Journal 2006 — reference [2]) makes index choice
cost-based: an eligible index is only *used* when the probe is expected
to prune enough of the collection to pay for itself.  This module
provides that estimate:

* each XML index lazily maintains an equi-depth histogram over its
  keys plus a distinct-document count;
* :meth:`CostModel.probe_fraction` estimates the fraction of documents
  a range probe would keep;
* the planner (opt-in via ``cost_based=True``) skips probes whose
  estimated surviving fraction exceeds ``prefilter_threshold`` — a
  barely-selective prefilter costs an index scan and saves almost no
  document processing.

The default execution mode remains rule-based (every eligible index is
used) because that is the behaviour the paper's eligibility claims are
stated — and tested — against.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field


class KeyHistogram:
    """Equi-depth histogram over a B+Tree's keys.

    Rebuilt lazily from the leaf chain when marked stale; queries cost
    O(log buckets).
    """

    def __init__(self, tree, buckets: int = 64):
        self.tree = tree
        self.buckets = buckets
        self._boundaries: list = []
        self._total = 0
        self._built_at = -1

    def _rebuild(self) -> None:
        keys = list(self.tree.keys())
        self._total = len(keys)
        if not keys:
            self._boundaries = []
        else:
            step = max(1, len(keys) // self.buckets)
            self._boundaries = keys[::step]
            if self._boundaries[-1] != keys[-1]:
                self._boundaries.append(keys[-1])
        self._built_at = len(self.tree)

    def _ensure_fresh(self) -> None:
        # Rebuild when the tree has grown/shrunk by more than 25 %.
        current = len(self.tree)
        if self._built_at < 0 or self._built_at == 0 or \
                abs(current - self._built_at) > max(8, self._built_at // 4):
            self._rebuild()

    def range_fraction(self, low, high) -> float:
        """Estimated fraction of keys in [low, high] (None = open)."""
        self._ensure_fresh()
        if not self._boundaries or self._total == 0:
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

    key_fraction: float          # fraction of index entries in range
    docs_fraction: float         # fraction of table docs kept (approx)
    worthwhile: bool
    note: str = ""


@dataclass
class CostModel:
    """Selectivity-threshold cost model for prefilter decisions."""

    #: Skip a probe expected to keep more than this fraction of docs.
    prefilter_threshold: float = 0.9
    #: Optional feedback calibration (an object with a ``factor``
    #: attribute — see :class:`repro.autopilot.calibrate.CostCalibration`).
    #: EXPLAIN ANALYZE q-errors drive ``factor`` toward the value that
    #: would have made past estimates exact; ``None`` means the
    #: uncalibrated model (factor 1.0).
    calibration: object | None = None
    #: Cache of histograms keyed by index object id.
    _histograms: dict = field(default_factory=dict)

    @property
    def calibration_factor(self) -> float:
        factor = getattr(self.calibration, "factor", 1.0)
        # A corrupt persisted factor must never zero out or explode the
        # estimate; the calibration store clamps too, this is the belt.
        return min(10.0, max(0.1, float(factor)))

    def histogram_for(self, index) -> KeyHistogram:
        histogram = self._histograms.get(id(index))
        if histogram is None:
            histogram = KeyHistogram(index.tree)
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
            return ProbeEstimate(0.0, 0.0, True, "empty table")
        key_fraction = self.histogram_for(index).range_fraction(low, high)
        docs_in_index = index.distinct_doc_count()
        coverage = min(1.0, docs_in_index / total_docs)
        summary_note = ""
        if docs_with_path is not None:
            path_coverage = min(1.0, docs_with_path / total_docs)
            if path_coverage < coverage:
                coverage = path_coverage
                summary_note = (f", path summary caps coverage at "
                                f"{path_coverage:.2f}")
        # The entries-per-document factor widens the estimate when
        # documents hold several entries, but survivors are still a
        # subset of the covered documents — never exceed ``coverage``.
        # The calibration factor folds EXPLAIN ANALYZE feedback into
        # the independence-assumption part of the estimate only; the
        # structural ``coverage`` cap is exact and stays uncalibrated.
        factor = self.calibration_factor
        docs_fraction = min(1.0, coverage,
                            coverage * key_fraction * factor *
                            max(1.0, len(index) / max(1, docs_in_index)))
        worthwhile = docs_fraction <= self.prefilter_threshold
        calibration_note = (f", calibration x{factor:.2f}"
                            if factor != 1.0 else "")
        note = (f"estimated surviving fraction "
                f"{docs_fraction:.2f} "
                f"({'use' if worthwhile else 'skip'} probe, "
                f"threshold {self.prefilter_threshold}{summary_note}"
                f"{calibration_note})")
        return ProbeEstimate(key_fraction, docs_fraction, worthwhile,
                             note)
