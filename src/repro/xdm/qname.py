"""Expanded qualified names and well-known namespace URIs.

An expanded QName is a (namespace-uri, local-name) pair; the prefix is
presentation only.  Namespace handling is central to the paper's Section
3.7: an index defined without a namespace stores only nodes in the empty
namespace, and default element namespaces do not apply to attributes.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Well-known namespace URIs.
XS_NS = "http://www.w3.org/2001/XMLSchema"
XSI_NS = "http://www.w3.org/2001/XMLSchema-instance"
FN_NS = "http://www.w3.org/2005/xpath-functions"
XDT_NS = "http://www.w3.org/2005/xpath-datatypes"
XML_NS = "http://www.w3.org/XML/1998/namespace"
XMLNS_NS = "http://www.w3.org/2000/xmlns/"
DB2FN_NS = "http://www.ibm.com/xmlns/prod/db2/functions"

#: Prefixes predeclared in every XQuery static context.
DEFAULT_PREFIXES = {
    "xs": XS_NS,
    "xsi": XSI_NS,
    "fn": FN_NS,
    "xdt": XDT_NS,
    "xml": XML_NS,
    "db2-fn": DB2FN_NS,
    "local": "http://www.w3.org/2005/xquery-local-functions",
}


@dataclass(frozen=True, slots=True)
class QName:
    """An expanded QName.

    ``uri`` is ``""`` for names in no namespace.  ``prefix`` is retained
    for serialization but ignored by equality and hashing.
    """

    uri: str
    local: str
    prefix: str = ""

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QName):
            return NotImplemented
        return self.uri == other.uri and self.local == other.local

    def __hash__(self) -> int:
        return hash((self.uri, self.local))

    def __str__(self) -> str:
        if self.prefix:
            return f"{self.prefix}:{self.local}"
        if self.uri:
            return f"{{{self.uri}}}{self.local}"
        return self.local

    @property
    def lexical(self) -> str:
        """Prefixed lexical form (``prefix:local`` or ``local``)."""
        return f"{self.prefix}:{self.local}" if self.prefix else self.local
