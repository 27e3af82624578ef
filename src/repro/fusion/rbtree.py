"""Red-black tree keyed by page content, as used by KSM.

KSM's stable and unstable trees balance themselves on the *contents*
of the pages they index.  Stable-tree keys never change (stable pages
are read-only), but unstable-tree pages are unprotected and may be
rewritten after insertion — so the unstable tree "is not always
perfectly balanced" (paper §2.1) and lookups can miss.  The simulator
reproduces that honestly: every comparison reads the stored page's
*current* content (``read(value.pfn)``), and the whole unstable tree
is reset every scan cycle, exactly like the real KSM.

Charge contract: ``search`` and ``insert`` count their content
comparisons and report them with one ``on_compare(count)`` call per
operation; the engines charge ``count * tree_compare``.  Each
comparison reads exactly one key, so ``count`` always equals the keys
read by the operation (insert reads the new value's own key, standing
in for its final compare against the parent).  Nothing in a tree
operation reads the simulated clock, so charging once per operation
instead of once per comparison moves no simulated observable.

Deletion never relies on key comparisons (a node whose key drifted can
still be unlinked): values map to their nodes directly.
"""

from __future__ import annotations

from typing import Callable, Generic, Iterator, Protocol, TypeVar


class _Keyed(Protocol):
    """A stored value: hashable, keyed by the content of frame ``pfn``."""

    pfn: int


T = TypeVar("T", bound=_Keyed)

RED = True
BLACK = False


class _Node(Generic[T]):
    __slots__ = ("value", "left", "right", "parent", "color")

    def __init__(self, value: T | None, color: bool) -> None:
        self.value = value
        self.left: "_Node[T] | None" = None
        self.right: "_Node[T] | None" = None
        self.parent: "_Node[T] | None" = None
        self.color = color


class RedBlackTree(Generic[T]):
    """CLRS-style red-black tree with live (possibly drifting) keys.

    A stored value's key is ``read(value.pfn)``, read afresh on every
    comparison, so key drift after insertion degrades search exactly
    as in KSM's unstable tree.  ``on_compare(count)`` is called once
    per ``search``/``insert`` with the number of content comparisons
    it made, so the fusion engines can charge simulated time for them.
    """

    def __init__(
        self,
        read: Callable[[int], bytes],
        on_compare: Callable[[int], object] | None = None,
    ) -> None:
        self._read = read
        self._on_compare = on_compare
        self.nil: _Node[T] = _Node(None, BLACK)
        self.root: _Node[T] = self.nil
        self._nodes: dict[T, _Node[T]] = {}

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, value: T) -> bool:
        return value in self._nodes

    def values(self) -> Iterator[T]:
        return iter(list(self._nodes))

    def clear(self) -> None:
        self.root = self.nil
        self._nodes.clear()

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(self, key: bytes) -> T | None:
        """Find a stored value whose *current* key equals ``key``."""
        read = self._read
        nil = self.nil
        node = self.root
        count = 0
        found = None
        while node is not nil:
            count += 1
            node_key = read(node.value.pfn)
            if key < node_key:
                node = node.left
            elif key > node_key:
                node = node.right
            else:
                found = node.value
                break
        if self._on_compare is not None:
            self._on_compare(count)
        return found

    # ------------------------------------------------------------------
    # Insert
    # ------------------------------------------------------------------
    def insert(self, value: T) -> None:
        if value in self._nodes:
            raise ValueError(f"value {value!r} already in tree")
        read = self._read
        nil = self.nil
        node = _Node(value, RED)
        node.left = node.right = nil
        parent = nil
        cursor = self.root
        count = 0
        went_left = False
        if cursor is not nil:
            key = read(value.pfn)
            while cursor is not nil:
                count += 1
                parent = cursor
                went_left = key < read(cursor.value.pfn)
                cursor = cursor.left if went_left else cursor.right
            # The final compare against the parent (the attach side) is
            # charged as its own comparison; its outcome is the loop's
            # last one.
            count += 1
        node.parent = parent
        if parent is nil:
            self.root = node
        elif went_left:
            parent.left = node
        else:
            parent.right = node
        self._nodes[value] = node
        if self._on_compare is not None:
            self._on_compare(count)
        self._insert_fixup(node)

    def _insert_fixup(self, node: _Node[T]) -> None:
        while node.parent.color is RED:
            parent = node.parent
            grandparent = parent.parent
            if parent is grandparent.left:
                uncle = grandparent.right
                if uncle.color is RED:
                    parent.color = BLACK
                    uncle.color = BLACK
                    grandparent.color = RED
                    node = grandparent
                else:
                    if node is parent.right:
                        node = parent
                        self._rotate_left(node)
                    node.parent.color = BLACK
                    node.parent.parent.color = RED
                    self._rotate_right(node.parent.parent)
            else:
                uncle = grandparent.left
                if uncle.color is RED:
                    parent.color = BLACK
                    uncle.color = BLACK
                    grandparent.color = RED
                    node = grandparent
                else:
                    if node is parent.left:
                        node = parent
                        self._rotate_right(node)
                    node.parent.color = BLACK
                    node.parent.parent.color = RED
                    self._rotate_left(node.parent.parent)
        self.root.color = BLACK

    # ------------------------------------------------------------------
    # Delete (structural; never compares keys)
    # ------------------------------------------------------------------
    def remove(self, value: T) -> None:
        node = self._nodes.pop(value)
        self._delete_node(node)

    def discard(self, value: T) -> bool:
        if value not in self._nodes:
            return False
        self.remove(value)
        return True

    def _delete_node(self, node: _Node[T]) -> None:
        removed_color = node.color
        if node.left is self.nil:
            replacement = node.right
            self._transplant(node, node.right)
        elif node.right is self.nil:
            replacement = node.left
            self._transplant(node, node.left)
        else:
            successor = node.right
            while successor.left is not self.nil:
                successor = successor.left
            removed_color = successor.color
            replacement = successor.right
            if successor.parent is node:
                replacement.parent = successor
            else:
                self._transplant(successor, successor.right)
                successor.right = node.right
                successor.right.parent = successor
            self._transplant(node, successor)
            successor.left = node.left
            successor.left.parent = successor
            successor.color = node.color
        if removed_color is BLACK:
            self._delete_fixup(replacement)

    def _transplant(self, old: _Node[T], new: _Node[T]) -> None:
        if old.parent is self.nil:
            self.root = new
        elif old is old.parent.left:
            old.parent.left = new
        else:
            old.parent.right = new
        new.parent = old.parent

    def _delete_fixup(self, node: _Node[T]) -> None:
        while node is not self.root and node.color is BLACK:
            parent = node.parent
            if node is parent.left:
                sibling = parent.right
                if sibling.color is RED:
                    sibling.color = BLACK
                    parent.color = RED
                    self._rotate_left(parent)
                    sibling = parent.right
                if sibling.left.color is BLACK and sibling.right.color is BLACK:
                    sibling.color = RED
                    node = parent
                else:
                    if sibling.right.color is BLACK:
                        sibling.left.color = BLACK
                        sibling.color = RED
                        self._rotate_right(sibling)
                        sibling = parent.right
                    sibling.color = parent.color
                    parent.color = BLACK
                    sibling.right.color = BLACK
                    self._rotate_left(parent)
                    node = self.root
            else:
                sibling = parent.left
                if sibling.color is RED:
                    sibling.color = BLACK
                    parent.color = RED
                    self._rotate_right(parent)
                    sibling = parent.left
                if sibling.right.color is BLACK and sibling.left.color is BLACK:
                    sibling.color = RED
                    node = parent
                else:
                    if sibling.left.color is BLACK:
                        sibling.right.color = BLACK
                        sibling.color = RED
                        self._rotate_left(sibling)
                        sibling = parent.left
                    sibling.color = parent.color
                    parent.color = BLACK
                    sibling.left.color = BLACK
                    self._rotate_right(parent)
                    node = self.root
        node.color = BLACK

    # ------------------------------------------------------------------
    # Rotations
    # ------------------------------------------------------------------
    def _rotate_left(self, node: _Node[T]) -> None:
        pivot = node.right
        node.right = pivot.left
        if pivot.left is not self.nil:
            pivot.left.parent = node
        pivot.parent = node.parent
        if node.parent is self.nil:
            self.root = pivot
        elif node is node.parent.left:
            node.parent.left = pivot
        else:
            node.parent.right = pivot
        pivot.left = node
        node.parent = pivot

    def _rotate_right(self, node: _Node[T]) -> None:
        pivot = node.left
        node.left = pivot.right
        if pivot.right is not self.nil:
            pivot.right.parent = node
        pivot.parent = node.parent
        if node.parent is self.nil:
            self.root = pivot
        elif node is node.parent.right:
            node.parent.right = pivot
        else:
            node.parent.left = pivot
        pivot.right = node
        node.parent = pivot

    # ------------------------------------------------------------------
    # Validation (used by property tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify red-black structure (colors and black-height)."""
        if self.root.color is not BLACK:
            raise AssertionError("root is red")

        def walk(node: _Node[T]) -> int:
            if node is self.nil:
                return 1
            if node.color is RED:
                if node.left.color is RED or node.right.color is RED:
                    raise AssertionError("red node has red child")
            left_height = walk(node.left)
            right_height = walk(node.right)
            if left_height != right_height:
                raise AssertionError("black-height mismatch")
            return left_height + (1 if node.color is BLACK else 0)

        walk(self.root)
