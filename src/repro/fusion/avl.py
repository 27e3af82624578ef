"""AVL tree keyed by page content, as used by Windows Page Fusion.

WPF stores already-fused pages in "multiple AVL trees that have the
same functionality as KSM's stable tree" (paper §2.2).  Keys here are
stable (fused pages are read-only), so a classic AVL with
static keys is faithful.  Like the red-black tree, every operation
counts its content comparisons and reports them with one
``on_compare(count)`` call, which the engine charges as
``count * tree_compare``.
"""

from __future__ import annotations

from typing import Callable, Generic, Iterator, TypeVar

T = TypeVar("T")


class _AvlNode(Generic[T]):
    __slots__ = ("key", "value", "left", "right", "height")

    def __init__(self, key: bytes, value: T) -> None:
        self.key = key
        self.value = value
        self.left: "_AvlNode[T] | None" = None
        self.right: "_AvlNode[T] | None" = None
        self.height = 1


def _height(node: "_AvlNode[T] | None") -> int:
    return node.height if node is not None else 0


def _balance(node: "_AvlNode[T]") -> int:
    return _height(node.left) - _height(node.right)


class AvlTree(Generic[T]):
    """Self-balancing AVL tree mapping content keys to values."""

    def __init__(self, on_compare: Callable[[int], object] | None = None) -> None:
        self._root: "_AvlNode[T] | None" = None
        self._on_compare = on_compare
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def _charge(self, count: int) -> None:
        if self._on_compare is not None:
            self._on_compare(count)

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(self, key: bytes) -> T | None:
        node = self._root
        count = 0
        found = None
        while node is not None:
            count += 1
            node_key = node.key
            if key < node_key:
                node = node.left
            elif key > node_key:
                node = node.right
            else:
                found = node.value
                break
        self._charge(count)
        return found

    def __contains__(self, key: bytes) -> bool:
        return self.search(key) is not None

    # ------------------------------------------------------------------
    # Insert / delete
    # ------------------------------------------------------------------
    def insert(self, key: bytes, value: T) -> None:
        path: list[tuple["_AvlNode[T]", bool]] = []
        node = self._root
        count = 0
        while node is not None:
            count += 1
            node_key = node.key
            if key < node_key:
                path.append((node, True))
                node = node.left
            elif key > node_key:
                path.append((node, False))
                node = node.right
            else:
                self._charge(count)
                raise ValueError(f"duplicate key {key!r}")
        subtree = _AvlNode(key, value)
        for parent, went_left in reversed(path):
            if went_left:
                parent.left = subtree
            else:
                parent.right = subtree
            subtree = self._rebalance(parent)
        self._root = subtree
        self._size += 1
        self._charge(count)

    def remove(self, key: bytes) -> T:
        counter = [0]
        try:
            self._root, removed = self._remove(self._root, key, counter)
        finally:
            self._charge(counter[0])
        self._size -= 1
        return removed

    def _remove(
        self, node: "_AvlNode[T] | None", key: bytes, counter: list[int]
    ) -> tuple["_AvlNode[T] | None", T]:
        if node is None:
            raise KeyError(key)
        counter[0] += 1
        if key < node.key:
            node.left, removed = self._remove(node.left, key, counter)
        elif key > node.key:
            node.right, removed = self._remove(node.right, key, counter)
        else:
            removed = node.value
            if node.left is None:
                return node.right, removed
            if node.right is None:
                return node.left, removed
            successor = node.right
            while successor.left is not None:
                successor = successor.left
            node.key, node.value = successor.key, successor.value
            node.right, _ = self._remove(node.right, successor.key, counter)
        return self._rebalance(node), removed

    # ------------------------------------------------------------------
    # Balancing
    # ------------------------------------------------------------------
    def _rebalance(self, node: "_AvlNode[T]") -> "_AvlNode[T]":
        node.height = 1 + max(_height(node.left), _height(node.right))
        balance = _balance(node)
        if balance > 1:
            if _balance(node.left) < 0:
                node.left = self._rotate_left(node.left)
            return self._rotate_right(node)
        if balance < -1:
            if _balance(node.right) > 0:
                node.right = self._rotate_right(node.right)
            return self._rotate_left(node)
        return node

    def _rotate_left(self, node: "_AvlNode[T]") -> "_AvlNode[T]":
        pivot = node.right
        node.right = pivot.left
        pivot.left = node
        node.height = 1 + max(_height(node.left), _height(node.right))
        pivot.height = 1 + max(_height(pivot.left), _height(pivot.right))
        return pivot

    def _rotate_right(self, node: "_AvlNode[T]") -> "_AvlNode[T]":
        pivot = node.left
        node.left = pivot.right
        pivot.right = node
        node.height = 1 + max(_height(node.left), _height(node.right))
        pivot.height = 1 + max(_height(pivot.left), _height(pivot.right))
        return pivot

    # ------------------------------------------------------------------
    # Iteration / validation
    # ------------------------------------------------------------------
    def items(self) -> Iterator[tuple[bytes, T]]:
        def walk(node: "_AvlNode[T] | None") -> Iterator[tuple[bytes, T]]:
            if node is None:
                return
            yield from walk(node.left)
            yield node.key, node.value
            yield from walk(node.right)

        return walk(self._root)

    def check_invariants(self) -> None:
        """Verify AVL balance and key ordering."""

        def walk(node: "_AvlNode[T] | None") -> int:
            if node is None:
                return 0
            left = walk(node.left)
            right = walk(node.right)
            if abs(left - right) > 1:
                raise AssertionError("AVL balance violated")
            if node.height != 1 + max(left, right):
                raise AssertionError("stale height")
            if node.left is not None and not node.left.key < node.key:
                raise AssertionError("left key out of order")
            if node.right is not None and not node.key < node.right.key:
                raise AssertionError("right key out of order")
            return node.height

        walk(self._root)
