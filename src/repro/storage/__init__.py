"""Storage: B+Trees, tables, columnar node stores (whose path
partitions are each document's structural summary), the buffer pool,
XML and relational indexes."""

from .btree import BPlusTree
from .bufferpool import BufferPool
from .catalog import Database
from .columnar import ColumnStore, get_store, ingest_document
from .relindex import RelationalIndex
from .table import Row, StoredDocument, Table
from .xmlindex import IndexEntry, XmlIndex

__all__ = ["BPlusTree", "BufferPool", "ColumnStore", "Database",
           "IndexEntry", "RelationalIndex", "Row", "StoredDocument",
           "Table", "XmlIndex", "get_store", "ingest_document"]
