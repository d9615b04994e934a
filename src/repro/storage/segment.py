"""Column segments: the one form a stored document takes on disk.

A segment holds only what a :class:`~repro.storage.columnar.ColumnStore`
cannot derive:

* per slot, its ``kind`` (one byte), ``parent``, ``name`` and ``scope``
  (signed integers, each column as narrow as its largest value allows;
  ``-1`` where a slot has no name or scope).  The parent is written as
  the distance ``slot - parent``, small wherever children sit near
  their parent, so deep or wide documents keep narrow columns;
* the ``length`` of each heap-backed slot (attribute, text, comment,
  PI), in slot order, and the text heap itself, as UTF-8 after the
  columns.  Never node ids: recovery draws fresh ones, a buffer-pool
  reload passes in the ones its document kept (:class:`SegmentRef`).

Names and namespace scopes are indexes into a :class:`SegmentTables`.
A checkpoint keeps one for all of its documents, a WAL insert record
one for its row.  :meth:`Segment.adopt` re-derives everything else
(post, level, ``subtree_end``, path ids and partitions, text offsets)
in one pass over the slots, numbering them as
:class:`~repro.storage.columnar.ColumnBuilder` does, without parsing.

Byte layout (little-endian)::

    <widths:u8><slots:u32><crc:u32>                      header
    kind[slots] parent[slots] name[slots] scope[slots]
    length[heap slots] heap[UTF-8]

``widths`` holds four 2-bit codes (1, 2, 4 or 8 bytes) for parent,
name, scope and length.  The CRC32 covers every byte after the header.
Anything a reader cannot adopt — a CRC mismatch, sizes that disagree
with the header, a parent outside ``[-1, slot)`` or not an open
element, a name or scope index out of range, lengths that do not add
up to the heap — is a :class:`~repro.errors.DurabilityError` naming
where the segment came from.

In a log record a document is ``{"$seg": segment bytes}``, plus
``"$uri"`` when its document URI is not empty (:func:`encode_document`,
:func:`decode_document`); the frame carries the bytes raw
(:mod:`repro.durability.wal`).
"""

from __future__ import annotations

import operator
import struct
import sys
import zlib
from array import array
from dataclasses import dataclass

from ..errors import DurabilityError
from ..xdm.qname import XML_NS, QName
from ..core.patterns import ROOT_PATH, PathNode, intern_shape
from ..xdm.nodes import allocate_node_ids
from .columnar import (_KIND_NAMES, KIND_ATTRIBUTE, KIND_COMMENT,
                       KIND_DOCUMENT, KIND_ELEMENT, KIND_PI, KIND_TEXT,
                       ColumnStore, _subtree_ends)

__all__ = ["Segment", "SegmentTables", "SegmentRef", "encode_document",
           "decode_document"]

_HEADER = struct.Struct("<BII")  # widths, slots, crc32
#: width code -> (signed, unsigned) typecodes of that many bytes
_TYPECODES = [(signed, unsigned) for signed, unsigned
              in (("b", "B"), ("h", "H"), ("i", "I"), ("q", "Q"))]
_WIDTHS = (1, 2, 4, 8)
_SWAP = sys.byteorder == "big"


class SegmentTables:
    """Names and namespace scopes as segments refer to them: each once,
    in the order :meth:`Segment.of` first sees them."""

    __slots__ = ("names", "scopes", "steps", "_name_ids", "_scope_ids")

    def __init__(self):
        self.names: list[QName] = []
        self.scopes: list[dict[str, str]] = []
        #: (parent path, kind, name id) -> interned path, shared by the
        #: documents adopted with these tables
        self.steps: dict[tuple, PathNode] = {}
        self._name_ids: dict[tuple[str, str, str], int] = {}
        self._scope_ids: dict[tuple, int] = {}

    def name_ids(self, names) -> list[int]:
        """Each name's index, adding the names not yet held."""
        return _indexes(names, self.names, self._name_ids,
                        lambda name: (name.uri, name.local, name.prefix))

    def scope_ids(self, scopes) -> list[int]:
        """Each scope's index, adding the scopes not yet held."""
        return _indexes(scopes, self.scopes, self._scope_ids,
                        lambda scope: tuple(sorted(scope.items())))

    def to_json(self) -> tuple[list, list]:
        """(names, scopes) rows: a name in no namespace and without a
        prefix is its local part, any other ``[uri, local, prefix]``;
        a scope is its sorted ``[prefix, uri]`` pairs but the ``xml``
        prefix's, which is bound in every scope by definition."""
        names = [name.local if not name.uri and not name.prefix
                 else [name.uri, name.local, name.prefix]
                 for name in self.names]
        scopes = [[list(pair) for pair in sorted(scope.items())
                   if pair[0] != "xml"]
                  for scope in self.scopes]
        return names, scopes

    @classmethod
    def from_json(cls, names, scopes, where: str) -> "SegmentTables":
        tables = cls()
        try:
            for row in names:
                if isinstance(row, str):
                    tables.names.append(QName("", row))
                elif (isinstance(row, list) and len(row) == 3
                      and all(isinstance(part, str) for part in row)):
                    tables.names.append(QName(*row))
                else:
                    raise TypeError(f"name row {row!r}")
            for row in scopes:
                scope = {"xml": XML_NS}
                for prefix, uri in row:
                    if not isinstance(prefix, str) or \
                            not isinstance(uri, str):
                        raise TypeError(f"scope row {row!r}")
                    scope[prefix] = uri
                tables.scopes.append(scope)
        except (TypeError, ValueError) as error:
            raise DurabilityError(
                f"{where}: malformed name or scope table: {error}"
            ) from None
        return tables


@dataclass
class Segment:
    """The stored columns of one document (see the module docstring)."""

    kind: array
    parent: array
    name: array
    scope: array
    length: array
    text: str

    @classmethod
    def of(cls, store: ColumnStore, tables: SegmentTables) -> "Segment":
        """``store``'s segment, its names and scopes added to
        ``tables``."""
        return cls(
            kind=store.kind, parent=store.parent,
            name=_remap(store.name_id, tables.name_ids(store.names)),
            scope=_remap(store.ns_id, tables.scope_ids(store.nsscopes)),
            length=array("q", [high - low for low, high
                               in zip(store.text_lo, store.text_hi)
                               if low >= 0]),
            text=store.text)

    def to_bytes(self) -> bytes:
        distances = array("q", map(operator.sub, range(len(self.parent)),
                                   self.parent))
        columns = [_narrow(distances), _narrow(self.name),
                   _narrow(self.scope), _narrow(self.length, unsigned=True)]
        widths = 0
        for position, column in enumerate(columns):
            widths |= _WIDTHS.index(column.itemsize) << (2 * position)
        columns.insert(0, self.kind)
        body = b"".join([*map(_to_bytes, columns),
                         self.text.encode("utf-8", "surrogatepass")])
        return _HEADER.pack(widths, len(self.kind),
                            zlib.crc32(body)) + body

    @classmethod
    def from_bytes(cls, data: bytes, where: str) -> "Segment":
        """Split ``data`` into columns and heap after checking its sizes
        and CRC; no slot is interpreted yet (see :meth:`adopt`)."""
        if len(data) < _HEADER.size:
            raise DurabilityError(f"{where}: segment of {len(data)} bytes "
                                  f"is shorter than its header")
        widths, slots, crc = _HEADER.unpack_from(data)
        body = memoryview(data)[_HEADER.size:]
        if zlib.crc32(body) != crc:
            raise DurabilityError(f"{where}: segment CRC mismatch")
        offset = 0

        def take(typecode: str, count: int) -> array:
            nonlocal offset
            column = array(typecode)
            end = offset + column.itemsize * count
            if end > len(body):
                raise DurabilityError(
                    f"{where}: segment ends inside its columns")
            column.frombytes(body[offset:end])
            if _SWAP:
                column.byteswap()
            offset = end
            return column

        kind = take("b", slots)
        distances, name, scope = (
            take(_TYPECODES[(widths >> (2 * position)) & 3][0], slots)
            for position in range(3))
        parent = array("q", map(operator.sub, range(slots), distances))
        leaves = slots - kind.count(KIND_DOCUMENT) - kind.count(KIND_ELEMENT)
        length = take(_TYPECODES[(widths >> 6) & 3][1], leaves)
        try:
            text = str(body[offset:], "utf-8", "surrogatepass")
        except UnicodeDecodeError as error:
            raise DurabilityError(
                f"{where}: segment heap is not UTF-8: {error}") from None
        return cls(kind, parent, name, scope, length, text)

    def adopt(self, tables: SegmentTables, where: str,
              document_uri: str = "",
              node_ids: array | None = None) -> ColumnStore:
        """The column store this segment describes: one pass over the
        slots checks them and re-derives post, level, path ids and
        partitions, and text offsets, numbered as :class:`ColumnBuilder`
        numbers them, whose per-slot calls would cost about twice as
        much here; node ids are fresh unless ``node_ids`` (a reloaded
        document's own) are given."""
        kind, parent, name, scope, lengths = (
            self.kind, self.parent, self.name, self.scope, self.length)
        names, scopes, steps = tables.names, tables.scopes, tables.steps
        slots = len(kind)
        if not slots or kind[0] != KIND_DOCUMENT or parent[0] != -1:
            raise DurabilityError(f"{where}: slot 0 is not a document")
        leaves = slots - kind.count(KIND_DOCUMENT) - kind.count(KIND_ELEMENT)
        if len(lengths) != leaves or sum(lengths) != len(self.text):
            raise DurabilityError(
                f"{where}: slot lengths add up to {sum(lengths)} "
                f"characters, the text heap holds {len(self.text)}")
        level = [0] * slots
        post = [0] * slots
        text_lo = [-1] * slots
        text_hi = [-1] * slots
        path_id = [-1] * slots
        slot_paths = [ROOT_PATH] * slots
        paths: list[PathNode] = []
        partitions: list[array] = []
        local_ids: dict[PathNode, int] = {}
        open_slots = [0]
        closed = low = leaf = 0

        def bad(slot: int, problem: str) -> DurabilityError:
            return DurabilityError(f"{where}: slot {slot}: {problem}")

        for slot in range(1, slots):
            up = parent[slot]
            if up != open_slots[-1]:
                if not -1 <= up < slot:
                    raise bad(slot, f"parent {up} outside [-1, {slot})")
                while open_slots[-1] != up:
                    if len(open_slots) == 1:
                        raise bad(slot, f"parent {up} is not an open "
                                        f"element")
                    post[open_slots.pop()] = closed
                    closed += 1
            code = kind[slot]
            name_id = name[slot]
            if code == KIND_ELEMENT:
                if not 0 <= name_id < len(names):
                    raise bad(slot, f"name {name_id} outside the "
                                    f"{len(names)} names")
                if not 0 <= scope[slot] < len(scopes):
                    raise bad(slot, f"scope {scope[slot]} outside the "
                                    f"{len(scopes)} scopes")
                open_slots.append(slot)
            else:
                if code == KIND_ATTRIBUTE or code == KIND_PI:
                    if not 0 <= name_id < len(names):
                        raise bad(slot, f"name {name_id} outside the "
                                        f"{len(names)} names")
                    if code == KIND_ATTRIBUTE and \
                            kind[up] != KIND_ELEMENT:
                        raise bad(slot, f"attribute of non-element {up}")
                elif code != KIND_TEXT and code != KIND_COMMENT:
                    raise bad(slot, f"unknown kind {code}")
                elif name_id != -1:
                    raise bad(slot, f"a kind {code} slot has name "
                                    f"{name_id}")
                text_lo[slot] = low
                low += lengths[leaf]
                text_hi[slot] = low
                leaf += 1
                post[slot] = closed
                closed += 1
            level[slot] = level[up] + 1
            step = (slot_paths[up], code, name_id)
            path = steps.get(step)
            if path is None:
                path = steps[step] = _extend(step, names)
            slot_paths[slot] = path
            local = local_ids.get(path)
            if local is None:
                local = local_ids[path] = len(paths)
                paths.append(path)
                partitions.append(array("q"))
            partitions[local].append(slot)
            path_id[slot] = local
        while open_slots:
            post[open_slots.pop()] = closed
            closed += 1
        store = ColumnStore()
        store.document_uri = document_uri
        store.kind = array("b", kind)
        store.parent = array("q", parent)
        store.name_id = array("q", name)
        store.ns_id = array("q", scope)
        store.post = array("q", post)
        store.level = array("q", level)
        store.subtree_end = _subtree_ends(post, level)
        store.path_id = array("q", path_id)
        store.text_lo = array("q", text_lo)
        store.text_hi = array("q", text_hi)
        store.text = self.text
        store.names = names
        store.nsscopes = scopes
        store.shape = intern_shape(paths)
        store.partitions = partitions
        store.node_ids = (allocate_node_ids(slots) if node_ids is None
                          else node_ids)
        return store


def _extend(step: tuple, names: list[QName]) -> PathNode:
    """The interned path one ``(parent path, kind, name id)`` step
    below its parent."""
    parent, code, name_id = step
    if name_id < 0:
        return parent.child(_KIND_NAMES[code])
    name = names[name_id]
    return parent.child(_KIND_NAMES[code], name.uri, name.local)


def encode_document(store: ColumnStore, tables: SegmentTables) -> dict:
    """``store`` as a record value, its names and scopes indexing
    ``tables`` (a checkpoint's, or a WAL insert record's own)."""
    value = {"$seg": Segment.of(store, tables).to_bytes()}
    if store.document_uri:
        value["$uri"] = store.document_uri
    return value


def decode_document(value, where: str,
                    tables: SegmentTables) -> ColumnStore:
    """Adopt the column store :func:`encode_document` wrote."""
    data, document_uri = value.get("$seg"), value.get("$uri", "")
    if not isinstance(data, bytes) or not isinstance(document_uri, str):
        raise DurabilityError(f"{where}: malformed document value")
    return Segment.from_bytes(data, where).adopt(tables, where,
                                                 document_uri)


@dataclass(frozen=True, slots=True)
class SegmentRef:
    """Where a document's segment sits in a written log frame: its
    columns come back with one ``pread`` of ``file`` (a read handle)."""

    file: object
    offset: int
    length: int
    tables: SegmentTables
    node_ids: array
    document_uri: str = ""

    def load(self) -> ColumnStore:
        """Read the segment back; a CRC mismatch or a short read is a
        :class:`~repro.errors.DurabilityError` naming the file."""
        where = f"{self.file.path} segment at byte {self.offset}"
        data = self.file.pread(self.offset, self.length)
        return Segment.from_bytes(data, where).adopt(
            self.tables, where, self.document_uri, self.node_ids)


def _indexes(items, table: list, ids: dict, key) -> list[int]:
    """Each item's index in ``table`` (``ids``: ``key(item)`` -> index),
    appending the items not yet held."""
    found = []
    for item in items:
        index = ids.setdefault(key(item), len(table))
        if index == len(table):
            table.append(item)
        found.append(index)
    return found


def _remap(column: array, mapping: list[int]) -> array:
    """``column`` with every id ``i >= 0`` replaced by ``mapping[i]``."""
    if mapping == list(range(len(mapping))):
        return column
    lookup = mapping + [-1]  # -1 (no name or scope) maps to itself
    return array("q", map(lookup.__getitem__, column))


def _narrow(column: array, unsigned: bool = False) -> array:
    """``column`` in the narrowest typecode holding its values."""
    top = max(max(column, default=0), -1 - min(column, default=0))
    for signed_code, unsigned_code in _TYPECODES:
        code = unsigned_code if unsigned else signed_code
        narrowed = array(code)
        if top < 1 << (8 * narrowed.itemsize - (0 if unsigned else 1)):
            return array(code, column)
    raise DurabilityError(f"column value {top} does not fit 64 bits")


def _to_bytes(column: array) -> bytes:
    if _SWAP:
        column = array(column.typecode, column)
        column.byteswap()
    return column.tobytes()

