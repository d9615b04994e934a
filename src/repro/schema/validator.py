"""Per-document validation: walk a tree and attach type annotations."""

from __future__ import annotations

from ..errors import CastError, SchemaValidationError
from ..xdm.atomic import AtomicValue, cast, untyped
from ..xdm.nodes import AttributeNode, DocumentNode, ElementNode, Node
from .schema import Schema, TypeDeclaration, xsi_type_of

_KNOWN_TYPES = {
    "xs:string", "xs:double", "xs:decimal", "xs:integer", "xs:long",
    "xs:boolean", "xs:date", "xs:dateTime", "xdt:untypedAtomic",
}


def validate(document: DocumentNode, schema: Schema) -> None:
    """Validate ``document`` against ``schema`` in place.

    Matching elements/attributes get type annotations and typed values.
    In strict mode a value that cannot be cast raises
    :class:`SchemaValidationError` (modelling DB2 rejecting the insert);
    in lenient mode the node simply stays untyped.  The column store
    behind ``document`` (a stored document's, validated at its insert
    and again at each materialization) stops being
    :attr:`~repro.storage.columnar.ColumnStore.untyped`.
    """
    if document.column_store is not None:
        document.column_store.untyped = False
    root = document.root_element
    if root is None:
        raise SchemaValidationError("document has no root element")
    _validate_element(root, (), schema)


def _typed_values(text: str, declaration: TypeDeclaration
                  ) -> list[AtomicValue]:
    if declaration.type_name not in _KNOWN_TYPES:
        raise SchemaValidationError(
            f"unknown type {declaration.type_name!r} in schema")
    if declaration.is_list:
        tokens = text.split()
        return [cast(untyped(token), declaration.type_name)
                for token in tokens]
    return [cast(untyped(text), declaration.type_name)]


def _apply(node: ElementNode | AttributeNode, type_name: str,
           is_list: bool, schema: Schema, path: tuple[str, ...]) -> None:
    declaration = TypeDeclaration("/".join(path) or node.name.local,
                                  type_name, is_list)
    try:
        values = _typed_values(node.string_value(), declaration)
    except CastError as exc:
        if schema.strict:
            raise SchemaValidationError(
                f"value {node.string_value()!r} at "
                f"{'/'.join(path)} does not conform to {type_name}: {exc}"
            ) from exc
        return
    node.set_typed_value(type_name, values)


def _validate_element(element: ElementNode, parent_path: tuple[str, ...],
                      schema: Schema) -> None:
    path = parent_path + (element.name.local,)

    for attribute in element.attributes:
        attribute_path = path + (f"@{attribute.name.local}",)
        declaration = schema.lookup(attribute_path)
        if declaration is not None:
            _apply(attribute, declaration.type_name, declaration.is_list,
                   schema, attribute_path)

    override = xsi_type_of(element)
    declaration = schema.lookup(path)
    has_element_children = any(child.kind == "element"
                               for child in element.children)
    if override is not None and not has_element_children:
        _apply(element, override, False, schema, path)
    elif declaration is not None and not has_element_children:
        _apply(element, declaration.type_name, declaration.is_list,
               schema, path)

    for child in element.children:
        if isinstance(child, ElementNode):
            _validate_element(child, path, schema)
