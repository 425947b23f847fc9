"""Wrap functions of the program where their callers look them up.

A module that did `from .geometry import prox_step` holds its own binding, so
patching `geometry.prox_step` alone misses its calls. `Patches.wrap_all`
therefore replaces every binding of the target object in every loaded
`sliding_opt` module, and for a method it replaces the attribute on the class.
A target that no longer exists is skipped and listed in `missing`, so the
benchmark keeps running when the program is refactored; the metrics that need
it then read as not reached.
"""

from __future__ import annotations

import importlib
import sys

PACKAGE = "sliding_opt"


class Patches:
    """Replacements made so far, undone in reverse order by `restore`."""

    def __init__(self):
        self._undo = []
        self.missing = []

    def wrap_all(self, targets, make_wrapper, name=None):
        """Wrap each (module, path) target with make_wrapper(fn, name).

        path is `func`, `Class.method`, or `DICT[]` for every value of a
        module-level dict (the harness looks its experiment builders up in one).
        """
        for module_name, path in targets:
            label = name if name is not None else f"{module_name}.{path}"
            module = importlib.import_module(module_name)
            if path.endswith("[]"):
                table = getattr(module, path[:-2], None)
                if not isinstance(table, dict):
                    self.missing.append(label)
                    continue
                for key, fn in list(table.items()):
                    self._set(table, key, make_wrapper(fn, label), dict_entry=True)
                continue
            owner = module
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(label)
                continue
            wrapper = make_wrapper(fn, label)
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, key, wrapper)

    def _set(self, owner, key, value, dict_entry=False):
        if dict_entry:
            self._undo.append((owner, key, owner[key], True))
            owner[key] = value
        else:
            self._undo.append((owner, key, owner.__dict__[key], False))
            setattr(owner, key, value)

    def restore(self):
        while self._undo:
            owner, key, original, dict_entry = self._undo.pop()
            if dict_entry:
                owner[key] = original
            else:
                setattr(owner, key, original)
