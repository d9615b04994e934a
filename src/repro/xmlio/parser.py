"""A from-scratch, namespace-aware XML parser that fills column stores.

One pass over the text appends every node to the document's columns
and path partitions (:class:`~repro.storage.columnar.ColumnBuilder`)
and creates no node objects; the tree :func:`parse_document` returns
is the columns' materialization, already numbered and with its store
attached.  The tree keeps what the XQuery data model and the paper's
pitfalls need: text nodes distinct from their parent elements (Section
3.8's ``99.50USD`` mixed content), comments, processing instructions,
attribute vs element nodes (Section 3.9), and per-element in-scope
namespace bindings (Section 3.7).

Supported syntax: the XML 1.0 core — prolog, elements, attributes,
namespace declarations (``xmlns`` / ``xmlns:p``), character data with
the five predefined entities plus numeric character references, CDATA
sections, comments, and processing instructions.  DTDs are tolerated
and skipped.  Every raw character, and every character a reference
names, must be an XML 1.0 ``Char`` (#x9, #xA, #xD, #x20-#xD7FF,
#xE000-#xFFFD, #x10000-#x10FFFF).  Open elements live on an explicit
stack, and a root-to-node path is one interned trie node, so depth
costs neither recursion nor quadratic work; elements nest at most
:data:`MAX_DEPTH` deep.  Every error is an
:class:`~repro.errors.XMLParseError` with a line and column.
"""

from __future__ import annotations

import re

from ..errors import XMLParseError
from ..obs.metrics import METRICS
from ..xdm.nodes import DocumentNode, Node, copy_node
from ..xdm.qname import XML_NS

#: A name; the lookahead keeps a failed match from backtracking into
#: it (``<ab="1">`` must not read as ``<a b="1">``).
_NAME = r"[A-Za-z_:][\w.\-:\u00c0-\uffff]*(?![\w.\-:\u00c0-\uffff])"
_SPACE_RE = re.compile(r"[ \t\r\n]*")
#: One attribute: name, '=', and a quoted value free of '<'
#: (references are expanded afterwards).
_ATTRIBUTE_RE = re.compile(
    rf"[ \t\r\n]*({_NAME})[ \t\r\n]*=[ \t\r\n]*"
    r"""(?:"([^"<]*)"|'([^'<]*)')""")
#: One token of content, named by its last group (``lastgroup``): a
#: character run, an end tag, a start tag (name, attributes, the '/'
#: of an empty element), a comment, a CDATA section, or a PI.
_CONTENT_RE = re.compile(
    r"(?P<text>[^<]+)"
    rf"|</(?P<end>{_NAME})[ \t\r\n]*>"
    rf"|<(?P<start>{_NAME})(?P<attributes>(?:{_ATTRIBUTE_RE.pattern})*)"
    r"[ \t\r\n]*(?P<empty>/?)>"
    r"|<!--(?P<comment>.*?)-->"
    r"|<!\[CDATA\[(?P<cdata>.*?)\]\]>"
    rf"|<\?(?P<target>{_NAME})(?P<pi>.*?)\?>",
    re.DOTALL)
_NOT_CHAR_RE = re.compile(
    "[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")

#: The deepest element nesting a document may have (the root element
#: is at depth 1): a memory bound on hostile input, not a cost bound.
MAX_DEPTH = 100_000

_ENTITIES = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}

# Column-store kind codes (``repro.storage.columnar``, which this
# module cannot import at load time: the storage package imports it).
_ELEMENT, _ATTRIBUTE, _TEXT, _COMMENT, _PI = 1, 2, 3, 4, 5


def parse_document(text: str, document_uri: str = "") -> DocumentNode:
    """Parse an XML document string into a :class:`DocumentNode`: the
    materialization of :func:`parse_columns`."""
    return parse_columns(text, document_uri).materialize()


def parse_columns(text: str, document_uri: str = ""):
    """Parse an XML document string straight into a
    :class:`~repro.storage.columnar.ColumnStore`."""
    from ..storage.columnar import ColumnBuilder

    illegal = _NOT_CHAR_RE.search(text)
    if illegal is not None:
        raise _error(text, illegal.start(),
                     f"illegal character U+{ord(illegal.group()):04X}")
    builder = ColumnBuilder(document_uri)
    _Parser(text, builder).document()
    if METRICS.enabled:
        METRICS.inc("xmlio.parses")
    return builder.finish()


def parse_fragment(text: str) -> list[Node]:
    """Parse a sequence of elements/text into unattached, unnumbered
    copies (a parsed tree is numbered, so its nodes stay in it)."""
    wrapped = parse_document(f"<repro-fragment-wrapper>{text}"
                             f"</repro-fragment-wrapper>")
    root = wrapped.root_element
    assert root is not None
    return [copy_node(child) for child in root.children]


def _error(text: str, pos: int, message: str) -> XMLParseError:
    consumed = text[:pos]
    line = consumed.count("\n") + 1
    column = pos - (consumed.rfind("\n") + 1) + 1
    return XMLParseError(message, line, column)


class _Parser:
    """One document's parse: its text and the builder it feeds."""

    __slots__ = ("text", "builder")

    def __init__(self, text: str, builder):
        self.text = text
        self.builder = builder

    def error(self, pos: int, message: str) -> XMLParseError:
        return _error(self.text, pos, message)

    def document(self) -> None:
        text = self.text
        pos = _SPACE_RE.match(text).end()
        if text.startswith("<?xml", pos):
            end = text.find("?>", pos)
            if end < 0:
                raise self.error(pos, "unterminated XML declaration")
            pos = _SPACE_RE.match(text, end + 2).end()
        if text.startswith("<!DOCTYPE", pos):
            depth = 0
            for bracket in re.finditer("[<>]", text[pos:]):
                depth += 1 if bracket.group() == "<" else -1
                if depth == 0:
                    pos += bracket.end()
                    break
            else:
                raise self.error(len(text), "unterminated DOCTYPE")
        saw_root = False
        while True:
            pos = _SPACE_RE.match(text, pos).end()
            if pos >= len(text):
                break
            if text[pos] != "<":
                raise self.error(pos, f"unexpected content outside root "
                                      f"element: {text[pos]!r}")
            token = _CONTENT_RE.match(text, pos)
            kind = None if token is None else token.lastgroup
            if kind in ("comment", "pi"):
                self._leaf(token, 0)
                pos = token.end()
            elif text.startswith("<!--", pos) or text.startswith("<?", pos):
                raise self.error(pos, "malformed markup")
            elif saw_root:
                raise self.error(pos, "multiple root elements")
            else:
                pos = self._element(pos)
                saw_root = True
        if not saw_root:
            raise self.error(pos, "document has no root element")

    def _element(self, pos: int) -> int:
        """Parse the root element at ``pos`` and everything inside it;
        returns the position after its end tag."""
        text = self.text
        builder = self.builder
        token_at = _CONTENT_RE.match
        # Open elements: (raw name, slot, scope, scope id).
        stack: list[tuple[str, int, dict[str, str], int]] = []
        tag = token_at(text, pos)
        if tag is None or tag.lastgroup != "empty":
            raise self.error(pos, "malformed markup")
        self._start_tag(tag, 0, {"xml": XML_NS}, -1, stack)
        pos = tag.end()
        parts: list[str] = []  # character data not yet flushed
        while stack:
            token = token_at(text, pos)
            if token is None:
                if pos >= len(text):
                    raise self.error(pos, f"unterminated element "
                                          f"<{stack[-1][0]}>")
                raise self.error(pos, "malformed markup")
            kind = token.lastgroup
            if kind == "text" or kind == "cdata":
                run = token.group(kind)
                if kind == "text" and "&" in run:
                    run = self._expand(run, pos)
                parts.append(run)
                pos = token.end()
                continue
            name, parent, scope, scope_id = stack[-1]
            if parts:
                builder.leaf(_TEXT, parent, -1, "".join(parts))
                parts.clear()
            if kind == "empty":
                self._start_tag(token, parent, scope, scope_id, stack)
            elif kind == "end":
                if token.group(kind) != name:
                    raise self.error(token.end(kind), f"mismatched closing "
                                     f"tag </{token.group(kind)}> for "
                                     f"<{name}>")
                builder.close(parent)
                stack.pop()
            else:
                self._leaf(token, parent)
            pos = token.end()
        return pos

    def _start_tag(self, tag: re.Match, parent: int, scope: dict[str, str],
                   scope_id: int, stack: list) -> None:
        """Append the element ``tag`` matched and its attributes; push
        it on ``stack`` unless it is empty.  A scope id of -1 means
        ``scope`` is not interned yet."""
        if len(stack) >= MAX_DEPTH:
            raise self.error(tag.start(), f"elements nest deeper than "
                                          f"{MAX_DEPTH} levels")
        builder = self.builder
        default = scope.get("", "")
        attributes: list[tuple[str, str, int]] = []
        if tag.group("attributes"):
            declared = dict(scope)
            for match in _ATTRIBUTE_RE.finditer(
                    self.text, tag.start("attributes"), tag.end("attributes")):
                name = match.group(1)
                group = 2 if match.group(2) is not None else 3
                value = match.group(group)
                if "&" in value:
                    value = self._expand(value, match.start(group))
                if name == "xmlns":
                    declared[""] = default = value
                elif name.startswith("xmlns:"):
                    declared[name[6:]] = value
                else:
                    attributes.append((name, value, match.start(1)))
            if declared != scope:
                scope, scope_id = declared, -1
        if scope_id < 0:
            scope_id = builder.scope_id(scope)
        name = tag.group("start")
        slot = builder.open(
            _ELEMENT, parent,
            self._name_id(name, scope, default, tag.end("start")), scope_id)
        if attributes:
            # Default namespaces never apply to attributes (§3.7).
            ids = [self._name_id(attribute, scope, "", at)
                   for attribute, _value, at in attributes]
            names = builder.store.names
            if len({names[name_id] for name_id in ids}) < len(ids):
                raise self.error(tag.end("start"),
                                 f"duplicate attribute in <{name}>")
            for name_id, (_attribute, value, _at) in zip(ids, attributes):
                builder.leaf(_ATTRIBUTE, slot, name_id, value)
        if tag.group("empty"):
            builder.close(slot)
        else:
            stack.append((name, slot, scope, scope_id))

    def _name_id(self, name: str, scope: dict[str, str], default: str,
                 pos: int) -> int:
        prefix, colon, local = name.partition(":")
        if not colon:
            return self.builder.name_id(default, name)
        if not prefix or not local or ":" in local:
            raise self.error(pos, f"malformed QName {name!r}")
        if prefix not in scope:
            raise self.error(pos, f"undeclared namespace prefix {prefix!r}")
        return self.builder.name_id(scope[prefix], local, prefix)

    def _leaf(self, token: re.Match, parent: int) -> None:
        """Append the comment or processing instruction ``token``."""
        if token.lastgroup == "comment":
            self.builder.leaf(_COMMENT, parent, -1, token.group("comment"))
            return
        target = token.group("target")
        if target.lower() == "xml":
            raise self.error(token.end("target"),
                             "'xml' is a reserved PI target")
        self.builder.leaf(_PI, parent, self.builder.name_id("", target),
                          token.group("pi").lstrip())

    def _expand(self, run: str, pos: int) -> str:
        """``run`` (found at ``pos``) with its references replaced."""
        pieces = run.split("&")
        out = [pieces[0]]
        pos += len(pieces[0])  # at the '&'
        for piece in pieces[1:]:
            semicolon = piece.find(";")
            if semicolon < 0 or semicolon > 11:
                raise self.error(pos, "malformed entity reference")
            reference = piece[:semicolon]
            if reference.startswith("#"):
                try:
                    code = (int(reference[2:], 16)
                            if reference[1:2] in ("x", "X")
                            else int(reference[1:]))
                except ValueError:
                    code = -1
                if (not 0 <= code <= 0x10FFFF
                        or _NOT_CHAR_RE.match(chr(code))):
                    raise self.error(pos, f"&{reference}; does not name "
                                          f"an XML Char")
                out.append(chr(code))
            elif reference in _ENTITIES:
                out.append(_ENTITIES[reference])
            else:
                raise self.error(pos, f"unknown entity &{reference};")
            out.append(piece[semicolon + 1:])
            pos += len(piece) + 1
        return "".join(out)
