"""repro — a reproduction of "On the Path to Efficient XML Queries"
(Balmin, Beyer, Özcan, Nicola; VLDB 2006).

The package implements a DB2-Viper-style XML database in pure Python:

* an XQuery Data Model substrate (:mod:`repro.xdm`),
* a namespace-aware XML parser and serializer (:mod:`repro.xmlio`),
* per-document schema-lite validation (:mod:`repro.schema`),
* an XQuery engine (:mod:`repro.xquery`),
* an SQL/XML engine with XMLQUERY / XMLEXISTS / XMLTABLE / XMLCAST
  (:mod:`repro.sql`),
* B+Tree-backed, path-typed XML value indexes (:mod:`repro.storage`),
* the paper's core contribution — an index **eligibility analyzer**
  (:mod:`repro.core`) and the Tips 1–12 pitfall lint built on it
  (:mod:`repro.static`), and
* a planner that turns eligibility verdicts into index-prefilter plans
  (:mod:`repro.planner`).

Quickstart::

    from repro import Database

    db = Database()
    db.create_table("orders", [("ordid", "INTEGER"), ("orddoc", "XML")])
    db.insert("orders", {"ordid": 1, "orddoc": "<order><lineitem "
                         "price='120.0'/></order>"})
    db.execute("CREATE INDEX li_price ON orders(orddoc) "
               "USING XMLPATTERN '//lineitem/@price' AS DOUBLE")
    result = db.xquery(
        "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price>100]")
"""

from .analysis.sanitizer import install_from_env as _install_sanitizer
from .errors import ReproError, SQLError, XMLParseError, XQueryError
from .xmlio import parse_document as parse_xml
from .xmlio import serialize, serialize_sequence

__version__ = "1.0.0"

# REPRO_SANITIZE=1 turns on the runtime concurrency sanitizer for the
# whole process (see repro/analysis/sanitizer.py); off by default and
# a single `is None` test per lock operation when off.
_install_sanitizer()

__all__ = [
    "Database", "DurableDatabase", "ReproError", "SQLError",
    "XMLParseError", "XQueryError", "analyze_eligibility",
    "parse_xml", "serialize", "serialize_sequence", "__version__",
]


def __getattr__(name: str):
    # Late imports keep `import repro` cheap and avoid import cycles
    # while the heavier engine modules are loaded on first use.
    if name == "Database":
        from .storage.catalog import Database
        return Database
    if name == "DurableDatabase":
        from .durability.engine import DurableDatabase
        return DurableDatabase
    if name == "analyze_eligibility":
        from .core.eligibility import analyze_eligibility
        return analyze_eligibility
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
