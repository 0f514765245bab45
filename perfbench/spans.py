"""Span tracing from outside the program.

Wraps public functions of the qgr modules, at every module that holds
them under a name, and records one aggregated span tree per operation:
each node is a function called from a given parent path, with its call
count, its total (inclusive) time and its self time.  Nothing inside
``src/qgr`` changes; the wrappers live only in the traced child process.
"""

from __future__ import annotations

import functools
import sys
import time

# span name -> (module, attribute path) of the wrapped callable.  Span
# names are the per-layer metric stems used by run.py.
TARGETS = {
    "partitions.GrassmannContext": ("qgr.partitions", "GrassmannContext.__init__"),
    "quantum.build_table": ("qgr.quantum", "build_table"),
    "quantum.quantum_pieri_product": ("qgr.quantum", "quantum_pieri_product"),
    "quantum.giambelli_expand": ("qgr.quantum", "giambelli_expand"),
    "quantum.quantum_product": ("qgr.quantum", "quantum_product"),
    "quantum.verify_commutativity": ("qgr.quantum", "verify_commutativity"),
    "quantum.verify_associativity": ("qgr.quantum", "verify_associativity"),
    "quantum.verify_grading": ("qgr.quantum", "verify_grading"),
    "quantum.verify_pieri_consistency": ("qgr.quantum", "verify_pieri_consistency"),
    "quantum.verify_giambelli": ("qgr.quantum", "verify_giambelli"),
    "quantum.verify_cyclic": ("qgr.quantum", "verify_cyclic"),
    "classical.lr_coefficient": ("qgr.classical", "lr_coefficient"),
    "classical.cup_product": ("qgr.classical", "cup_product"),
    "involution.bar": ("qgr.involution", "bar"),
    "involution.verify_involution_factorization": ("qgr.involution", "verify_involution_factorization"),
    "involution.verify_product_automorphism": ("qgr.involution", "verify_product_automorphism"),
    "involution.verify_duality_identities": ("qgr.involution", "verify_duality_identities"),
    "involution.verify_dual_product_identity": ("qgr.involution", "verify_dual_product_identity"),
    "spectrum.joint_eigenbasis": ("qgr.spectrum", "joint_eigenbasis"),
    "spectrum.eig": ("numpy.linalg", "eig"),
    "spectrum.mult_matrix": ("qgr.spectrum", "mult_matrix"),
    "spectrum.evaluate": ("qgr.spectrum", "evaluate"),
    "spectrum.verify_conjugation": ("qgr.spectrum", "verify_conjugation"),
    "spectrum.verify_point_conjugation": ("qgr.spectrum", "verify_point_conjugation"),
    "spectrum.verify_positivity": ("qgr.spectrum", "verify_positivity"),
    "spectrum.verify_vanishing": ("qgr.spectrum", "verify_vanishing"),
    "reports.VerifyReport.to_json_dict": ("qgr.reports", "VerifyReport.to_json_dict"),
    "cli.main": ("qgr.cli", "main"),
}


class _Node:
    __slots__ = ("count", "total", "children")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.children = {}

    def to_json(self):
        child_total = sum(c.total for c in self.children.values())
        return {"count": self.count, "total_s": self.total,
                "self_s": self.total - child_total,
                "children": {name: c.to_json()
                             for name, c in self.children.items()}}


class Tracer:
    """Records spans into an aggregated tree.

    The last value returned under each span name in ``keep`` is held in
    ``results``, for counts read off a returned object.
    """

    def __init__(self, keep=()):
        self.root = _Node()
        self._stack = [self.root]
        self.keep = frozenset(keep)
        self.results = {}

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1]
            node = parent.children.get(name)
            if node is None:
                node = parent.children[name] = _Node()
            self._stack.append(node)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                node.total += time.perf_counter() - start
                node.count += 1
                self._stack.pop()
            if name in self.keep:
                self.results[name] = out
            return out
        return traced

    def install(self):
        """Wrap every target wherever a loaded module holds it by name.

        Targets in modules the job never imported stay unwrapped.
        """
        for name, (module, attr) in TARGETS.items():
            owner = sys.modules.get(module)
            if owner is None:
                continue
            if "." in attr:  # a method: patch the class, the one holder
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "qgr" or mod_name.startswith("qgr.")
                                       or mod_name == module):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def tree(self):
        return self.root.to_json()["children"]


def span_total(tree, name):
    """Inclusive time of a span name, not double counting recursion."""
    total = 0.0
    for child_name, node in tree.items():
        if child_name == name:
            total += node["total_s"]
        else:
            total += span_total(node["children"], name)
    return total


def span_count(tree, name):
    """Number of calls of a span name anywhere in the tree."""
    return sum((node["count"] if child_name == name else 0)
               + span_count(node["children"], name)
               for child_name, node in tree.items())


def subtree_count(tree, parent, name):
    """Calls of ``name`` made inside spans of ``parent``."""
    total = 0
    for child_name, node in tree.items():
        if child_name == parent:
            total += span_count(node["children"], name)
        else:
            total += subtree_count(node["children"], parent, name)
    return total
