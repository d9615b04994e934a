"""Schema-lite: declarative type annotation schemas.

The paper's schema-flexibility story (Sections 1, 2, 3.1) needs three
behaviours from validation, all of which this module provides without a
full XML Schema implementation:

* **Per-document association**: a schema is chosen per document at
  insert time, never per column, so one XML column can mix documents
  validated against *conflicting* schema versions (the U.S. vs Canadian
  postal-code scenario of §2.1).
* **Type annotation**: validation attaches ``xs:*`` type annotations and
  typed values to elements/attributes; unvalidated documents stay
  ``xdt:untyped`` / ``xdt:untypedAtomic``.
* **List types**: a declaration may mark a node as list-typed, in which
  case its typed value is a whitespace-separated sequence of atomics —
  the case the §3.10 footnote says DB2's indexes prohibit.

A schema is a set of :class:`TypeDeclaration` rows.  Each declaration
names a *path suffix* — e.g. ``lineitem/@price`` or ``order/custid`` —
and a target type.  The longest matching suffix wins.  ``xsi:type``
attributes on elements override declarations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import SchemaValidationError
from ..xdm.qname import XSI_NS


@dataclass(frozen=True)
class TypeDeclaration:
    """Assign ``type_name`` to nodes whose path ends with ``path``.

    ``path`` is a ``/``-separated suffix of element local names; a final
    ``@name`` component targets an attribute.  ``is_list=True`` makes
    the typed value a whitespace-separated list of ``type_name`` atoms.
    """

    path: str
    type_name: str
    is_list: bool = False

    def __post_init__(self):
        components = tuple(part for part in self.path.split("/") if part)
        if not components:
            raise SchemaValidationError(f"empty declaration path {self.path!r}")
        for component in components[:-1]:
            if component.startswith("@"):
                raise SchemaValidationError(
                    f"attribute step must be last in {self.path!r}")
        object.__setattr__(self, "_components", components)

    @property
    def components(self) -> tuple[str, ...]:
        return self._components  # type: ignore[attr-defined]

    def matches(self, path_locals: tuple[str, ...]) -> bool:
        """True when ``path_locals`` (root-to-node local names, attribute
        as ``@name``) ends with this declaration's components."""
        own = self.components
        if len(path_locals) < len(own):
            return False
        return path_locals[-len(own):] == own

    @property
    def specificity(self) -> int:
        return len(self.components)


@dataclass
class Schema:
    """A named set of type declarations, associated per document."""

    name: str
    declarations: list[TypeDeclaration] = field(default_factory=list)
    #: Reject documents containing elements/attributes that fail to cast.
    strict: bool = True

    def declare(self, path: str, type_name: str,
                is_list: bool = False) -> "Schema":
        """Add a declaration (returns self for chaining)."""
        self.declarations.append(TypeDeclaration(path, type_name, is_list))
        return self

    def lookup(self, path_locals: tuple[str, ...]) -> TypeDeclaration | None:
        """Most specific declaration matching a node path, if any."""
        best: TypeDeclaration | None = None
        for declaration in self.declarations:
            if declaration.matches(path_locals):
                if best is None or declaration.specificity > best.specificity:
                    best = declaration
        return best


def xsi_type_of(element) -> str | None:
    """The ``xsi:type`` annotation on an element, normalized to the
    engine's canonical ``xs:*`` spelling, or None."""
    attribute = element.attribute("type", XSI_NS)
    if attribute is None:
        return None
    value = attribute.string_value().strip()
    if ":" in value:
        value = "xs:" + value.split(":", 1)[1]
    else:
        value = "xs:" + value
    return value
