"""Property and unit tests for the content-keyed RB and AVL trees."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.fusion.avl import AvlTree
from repro.fusion.rbtree import RedBlackTree


class Memory:
    """Stand-in frame store: ``pfn -> key``, counting every key read."""

    def __init__(self) -> None:
        self.keys: list[bytes] = []
        self.reads = 0

    def read(self, pfn: int) -> bytes:
        self.reads += 1
        return self.keys[pfn]

    def box(self, key: bytes) -> "Box":
        self.keys.append(key)
        return Box(self, len(self.keys) - 1)


class Box:
    """A hashable value whose key lives in a frame (models a drifting page)."""

    __slots__ = ("memory", "pfn")

    def __init__(self, memory: Memory, pfn: int) -> None:
        self.memory = memory
        self.pfn = pfn

    @property
    def key(self) -> bytes:
        return self.memory.keys[self.pfn]

    @key.setter
    def key(self, key: bytes) -> None:
        self.memory.keys[self.pfn] = key


def make_rb(memory, values=(), on_compare=None):
    tree = RedBlackTree(memory.read, on_compare=on_compare)
    for value in values:
        tree.insert(value)
    return tree


class CompareLog:
    """``on_compare`` hook recording each operation's charged count."""

    def __init__(self) -> None:
        self.counts: list[int] = []

    def __call__(self, count: int) -> None:
        self.counts.append(count)

    def take(self) -> list[int]:
        counts, self.counts = self.counts, []
        return counts


def rb_search_path(tree, key: bytes) -> int:
    """Nodes a search for ``key`` visits, walked without the tree's code."""
    node, visited = tree.root, 0
    while node is not tree.nil:
        visited += 1
        node_key = node.value.key
        if key == node_key:
            break
        node = node.left if key < node_key else node.right
    return visited


def rb_insert_compares(tree, key: bytes) -> int:
    """Compares an insert of ``key`` makes: its descent plus the parent."""
    node, depth = tree.root, 0
    while node is not tree.nil:
        depth += 1
        node = node.left if key < node.value.key else node.right
    return depth + 1 if depth else 0


def avl_search_path(tree, key: bytes) -> int:
    node, visited = tree._root, 0
    while node is not None:
        visited += 1
        if key == node.key:
            break
        node = node.left if key < node.key else node.right
    return visited


def avl_remove_compares(tree, key: bytes) -> int:
    """Path to ``key`` plus, for a two-child node, the successor's path."""
    node, visited = tree._root, 0
    while node is not None:
        visited += 1
        if key == node.key:
            if node.left is not None and node.right is not None:
                successor = node.right
                visited += 1
                while successor.left is not None:
                    successor = successor.left
                    visited += 1
            break
        node = node.left if key < node.key else node.right
    return visited


class TestRedBlackBasics:
    def test_insert_search(self):
        memory = Memory()
        box = memory.box(b"m")
        tree = make_rb(memory, [box])
        assert tree.search(b"m") is box
        assert tree.search(b"x") is None

    def test_len_and_contains(self):
        memory = Memory()
        boxes = [memory.box(bytes([i])) for i in range(10)]
        tree = make_rb(memory, boxes)
        assert len(tree) == 10
        assert boxes[3] in tree

    def test_duplicate_value_rejected(self):
        memory = Memory()
        box = memory.box(b"a")
        tree = make_rb(memory, [box])
        with pytest.raises(ValueError):
            tree.insert(box)

    def test_remove(self):
        memory = Memory()
        boxes = [memory.box(bytes([i])) for i in range(20)]
        tree = make_rb(memory, boxes)
        for box in boxes[::2]:
            tree.remove(box)
        assert len(tree) == 10
        tree.check_invariants()
        for box in boxes[::2]:
            assert tree.search(box.key) is None
        for box in boxes[1::2]:
            assert tree.search(box.key) is box

    def test_discard_missing(self):
        memory = Memory()
        tree = make_rb(memory)
        assert not tree.discard(memory.box(b"a"))

    def test_clear(self):
        memory = Memory()
        tree = make_rb(memory, [memory.box(b"a"), memory.box(b"b")])
        tree.clear()
        assert len(tree) == 0
        assert tree.search(b"a") is None

    def test_key_drift_degrades_search_but_not_removal(self):
        """A drifted key may no longer be findable (like KSM's unstable
        tree) but structural removal still works."""
        memory = Memory()
        boxes = [memory.box(bytes([i])) for i in range(16)]
        tree = make_rb(memory, boxes)
        boxes[5].key = b"\xff\xff"
        tree.remove(boxes[5])
        tree.check_invariants()
        assert len(tree) == 15

    def test_compare_hook_called(self):
        """One ``on_compare(count)`` per search/insert; ``count`` is the
        exact number of compares, and equals the keys the op read."""
        memory = Memory()
        log = CompareLog()
        tree = make_rb(memory, on_compare=log)
        b, a, c = memory.box(b"b"), memory.box(b"a"), memory.box(b"c")

        def op(fn, *args):
            before = memory.reads
            result = fn(*args)
            counts = log.take()
            assert len(counts) == 1
            assert counts[0] == memory.reads - before
            return result, counts[0]

        # Into an empty tree: no compare, no key read.
        assert op(tree.insert, b) == (None, 0)
        # Root compare + the attach compare against the parent.
        assert op(tree.insert, a) == (None, 2)
        assert op(tree.insert, c) == (None, 2)
        assert op(tree.search, b"b") == (b, 1)
        assert op(tree.search, b"c") == (c, 2)
        assert op(tree.search, b"bb") == (None, 2)
        assert op(tree.search, b"z") == (None, 2)
        # Structural removal charges nothing.
        tree.remove(a)
        assert log.take() == []
        assert op(tree.search, b"a") == (None, 1)
        # Drift: the stale root key sends the search the wrong way.
        c.key = b"a"
        assert op(tree.search, b"a") == (None, 1)
        b.key = b"0"
        assert op(tree.search, b"a") == (c, 2)

    def test_empty_search_charges_zero(self):
        memory = Memory()
        log = CompareLog()
        tree = make_rb(memory, on_compare=log)
        assert tree.search(b"a") is None
        assert log.take() == [0]
        assert memory.reads == 0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.binary(min_size=1, max_size=8), unique=True, min_size=1, max_size=80))
def test_rb_property_insert_search_remove(keys):
    memory = Memory()
    boxes = [memory.box(key) for key in keys]
    tree = make_rb(memory, boxes)
    tree.check_invariants()
    for box in boxes:
        assert tree.search(box.key) is box
    for box in boxes[::2]:
        tree.remove(box)
        tree.check_invariants()
    for box in boxes[::2]:
        assert tree.search(box.key) is None
    for box in boxes[1::2]:
        assert tree.search(box.key) is box


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.binary(min_size=1, max_size=8), unique=True, min_size=1, max_size=80),
    st.randoms(use_true_random=False),
)
def test_rb_property_random_removal_order(keys, rng):
    memory = Memory()
    boxes = [memory.box(key) for key in keys]
    tree = make_rb(memory, boxes)
    order = list(boxes)
    rng.shuffle(order)
    for box in order:
        tree.remove(box)
        tree.check_invariants()
    assert len(tree) == 0


class TestAvlBasics:
    def test_insert_search(self):
        tree = AvlTree()
        tree.insert(b"k", "v")
        assert tree.search(b"k") == "v"
        assert tree.search(b"x") is None
        assert b"k" in tree

    def test_duplicate_key_rejected(self):
        tree = AvlTree()
        tree.insert(b"k", 1)
        with pytest.raises(ValueError):
            tree.insert(b"k", 2)

    def test_remove(self):
        tree = AvlTree()
        for i in range(30):
            tree.insert(bytes([i]), i)
        assert tree.remove(bytes([7])) == 7
        assert tree.search(bytes([7])) is None
        assert len(tree) == 29
        tree.check_invariants()

    def test_remove_missing_raises(self):
        tree = AvlTree()
        with pytest.raises(KeyError):
            tree.remove(b"x")

    def test_items_sorted(self):
        tree = AvlTree()
        for key in [b"c", b"a", b"b"]:
            tree.insert(key, key)
        assert [k for k, _ in tree.items()] == [b"a", b"b", b"c"]

    def test_compare_counts_are_exact(self):
        """One ``on_compare(count)`` per search/insert/remove, with the
        exact number of compares each made."""
        log = CompareLog()
        tree = AvlTree(on_compare=log)
        tree.insert(b"b", "b")
        assert log.take() == [0]
        tree.insert(b"a", "a")
        tree.insert(b"c", "c")
        assert log.take() == [1, 1]
        assert tree.search(b"b") == "b"
        assert tree.search(b"c") == "c"
        assert tree.search(b"bb") is None
        assert log.take() == [1, 2, 2]
        with pytest.raises(ValueError):
            tree.insert(b"c", "again")
        assert log.take() == [2]
        # Two-child root: the path to it, then the successor's path.
        assert tree.remove(b"b") == "b"
        assert log.take() == [2]
        with pytest.raises(KeyError):
            tree.remove(b"zz")  # root "c", then off its right edge
        assert log.take() == [1]
        tree.check_invariants()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.binary(min_size=1, max_size=8), unique=True, min_size=1, max_size=100))
def test_avl_property_balanced(keys):
    tree = AvlTree()
    for key in keys:
        tree.insert(key, key)
    tree.check_invariants()
    assert [k for k, _ in tree.items()] == sorted(keys)
    for key in keys[::3]:
        tree.remove(key)
        tree.check_invariants()
    remaining = sorted(set(keys) - set(keys[::3]))
    assert [k for k, _ in tree.items()] == remaining


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["insert", "search", "remove", "drift"]),
            st.binary(min_size=1, max_size=3),
            st.integers(min_value=0, max_value=1_000),
        ),
        max_size=80,
    )
)
def test_rb_compare_count_is_key_reads(ops):
    """Under any op sequence, key drift included: each search/insert
    reports one count, equal to its key reads and to the compares an
    independent walk of the same tree predicts."""
    memory = Memory()
    log = CompareLog()
    tree = make_rb(memory, on_compare=log)
    stored: list[Box] = []
    for op, key, pick in ops:
        before = memory.reads
        if op == "insert":
            box = memory.box(key)
            expected = rb_insert_compares(tree, key)
            tree.insert(box)
            stored.append(box)
        elif op == "search":
            expected = rb_search_path(tree, key)
            tree.search(key)
        elif op == "remove" and stored:
            tree.remove(stored.pop(pick % len(stored)))
            assert log.take() == []
            continue
        elif op == "drift" and stored:
            stored[pick % len(stored)].key = key
            continue
        else:
            continue
        assert log.take() == [expected]
        assert memory.reads - before == expected
    tree.check_invariants()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["insert", "search", "remove"]),
            st.binary(min_size=1, max_size=3),
        ),
        max_size=80,
    )
)
def test_avl_compare_count_is_path_length(ops):
    """Each AVL op reports one count: the compares on its search path
    (for a two-child removal, plus the successor's path)."""
    log = CompareLog()
    tree = AvlTree(on_compare=log)
    present: set[bytes] = set()
    for op, key in ops:
        if op == "search":
            expected = avl_search_path(tree, key)
            tree.search(key)
        elif op == "insert":
            expected = avl_search_path(tree, key)
            if key in present:
                with pytest.raises(ValueError):
                    tree.insert(key, key)
            else:
                tree.insert(key, key)
                present.add(key)
        else:
            expected = avl_remove_compares(tree, key)
            if key in present:
                assert tree.remove(key) == key
                present.discard(key)
            else:
                with pytest.raises(KeyError):
                    tree.remove(key)
        assert log.take() == [expected]
    tree.check_invariants()
    assert [k for k, _ in tree.items()] == sorted(present)
