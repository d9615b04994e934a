"""Spelling interned paths out for tests.

A :class:`~repro.core.patterns.PathNode` is compared by identity, so an
oracle that builds paths of its own (a parent-chain walk of a tree, a
re-parse in another process) compares against its spelled components
instead: :func:`spell` reads only ``parent``/``kind``/``uri``/``local``
and never the trie that interned the node, and :func:`walk_path` reads
only the tree.
"""

from repro.core.patterns import PathComponent


def spell(path) -> tuple[PathComponent, ...]:
    """The root-to-node components of an interned path."""
    components = []
    while path.parent is not None:
        components.append(PathComponent(path.kind, path.uri, path.local))
        path = path.parent
    return tuple(reversed(components))


def walk_path(node) -> tuple[PathComponent, ...]:
    """A tree node's root-to-node components, from its parent chain."""
    components = []
    while node.kind != "document":
        name = node.name
        components.append(PathComponent(node.kind) if name is None
                          else PathComponent(node.kind, name.uri, name.local))
        node = node.parent
    return tuple(reversed(components))


def spelled_counts(counts: dict) -> dict:
    """``ColumnStore.path_counts()`` keyed by spelled paths."""
    return {spell(path): count for path, count in counts.items()}
