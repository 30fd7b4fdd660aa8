"""Span tracer for an in-process ``cvbias.cli.main`` call.

``Tracer.install`` wraps every public function defined in a ``cvbias``
module and rebinds the wrapper at every module attribute that holds the
original, so calls made through ``from .conjlm import fit`` in
``cvbias.search`` are seen as well as calls through ``cvbias.conjlm``.
Spans stay in memory until ``write_jsonl``.

Run as a script it times one ``main(argv)`` call, traced or not, in this
fresh interpreter and writes a JSON summary:

    python3 perfbench/tracer.py --traced 1 --result out.json \\
        --spans spans.jsonl -- forward train.csv --target y
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import json
import os
import pkgutil
import sys
import time
import types
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    facts: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


@dataclass
class Tracer:
    """Records one span per wrapped call.

    ``probes`` maps a span name to ``probe(args, result) -> dict``; its
    facts (counts taken from the arguments or the returned object) are
    stored on the span, so no argument or result outlives the call.
    """

    probes: dict = field(default_factory=dict)
    spans: list[Span] = field(default_factory=list)
    _stack: list[Span] = field(default_factory=list)
    _restore: list[tuple[types.ModuleType, str, object]] = field(default_factory=list)

    def wrap(self, name: str, func):
        probe = self.probes.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), name, parent.id if parent else None, 0.0)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
            if probe is not None:
                span.facts = probe(args, result)
            return result

        return traced

    def install(self, package: str = "cvbias") -> None:
        """Wrap the package's public functions at every module attribute bound to them."""
        pkg = importlib.import_module(package)
        modules = [pkg] + [
            importlib.import_module(f"{package}.{m.name}")
            for m in pkgutil.iter_modules(pkg.__path__)
        ]
        wrappers = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and not attr.startswith("_")
                    and obj.__module__.startswith(package + ".")
                    and attr == obj.__name__
                    and id(obj) not in wrappers
                ):
                    name = f"{obj.__module__[len(package) + 1 :]}.{attr}"
                    wrappers[id(obj)] = (obj, self.wrap(name, obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)][1])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {"id": s.id, "name": s.name, "parent": s.parent,
                         "start": s.start, "end": s.end, "self_s": s.self_s}
                    )
                    + "\n"
                )


def run_main(argv: list[str], traced: bool) -> tuple[int, float, Tracer | None]:
    """Call ``cvbias.cli.main(argv)`` once; return (exit code, wall seconds, tracer)."""
    import cvbias.cli

    tracer = None
    if traced:
        from layers import PROBES

        tracer = Tracer(probes=PROBES)
        tracer.install()
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            t0 = time.perf_counter()
            code = cvbias.cli.main(argv)
            wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return code, wall, tracer


def _main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--traced", type=int, choices=[0, 1], required=True)
    ap.add_argument("--result", required=True, help="JSON summary output path")
    ap.add_argument("--spans", default=None, help="JSON Lines span output path")
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    code, wall, tracer = run_main(argv, bool(args.traced))
    summary = {"exit_code": code, "wall_s": wall}
    if tracer is not None:
        from layers import layer_metrics

        summary["layers"] = layer_metrics(tracer.spans)
        if args.spans:
            tracer.write_jsonl(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return 0


if __name__ == "__main__":
    sys.exit(_main())
