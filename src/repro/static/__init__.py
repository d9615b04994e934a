"""Static analysis: type & cardinality inference for XQuery / SQL-XML.

The paper's whole contribution is *static* reasoning — Definition 1 and
Sections 3.1–3.10 decide index eligibility and pitfalls from the query
text alone.  This package makes that reasoning a reusable compiler
layer:

* :mod:`repro.static.types` — an XDM sequence-type lattice (item kinds
  × occurrence bounds) with the union / concatenation / atomization
  operations of the XQuery Formal Semantics;
* :mod:`repro.static.infer` — an abstract interpreter that walks the
  XQuery AST, consulting registered schemas and per-document path
  summaries, and assigns every subexpression a static type, cardinality
  bounds and constant value where provable;
* :mod:`repro.static.diagnostics` — reason-coded findings
  (``SE…`` static errors, ``SW…`` pitfall warnings);
* :mod:`repro.static.rules` — the rules engine behind ``repro lint``,
  the one advice pipeline: every Tips 1–12 pitfall check over both
  query languages, each finding the eligibility reason of the same
  predicate.

Consumers: the planner prunes statically-empty branches and seeds its
cardinality estimates from inferred bounds; the eligibility analyzer
takes comparison-type verdicts from inference instead of surface cast
syntax; the CLI exposes everything as ``repro lint``.
"""

from .diagnostics import Code, Diagnostic
from .infer import Inference, infer_module, refine_candidates
from .rules import lint_index_pattern, lint_statement
from .types import ItemType, SeqType

__all__ = ["Code", "Diagnostic", "Inference", "ItemType", "SeqType",
           "infer_module", "lint_index_pattern", "lint_statement",
           "refine_candidates"]
