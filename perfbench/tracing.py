"""In-memory spans around calls into hlmkit's layers.

The traced run drives ``hlmkit.cli.main`` in-process. Before it does,
:class:`Tracer` replaces chosen library functions, in every ``hlmkit``
module that binds them, with wrappers that record a span per call: name,
start, end and the index of the enclosing span. Nothing inside the package
is edited; the wrappers are removed when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# (module, function, span name, counter) for every layer boundary the traced
# run records. A span name is "<layer>.<operation>"; a callable computes it
# from the call's arguments. A counter maps the call's result to counts that
# are added up over the outermost calls of that name.


def _score_span(corpus, criterion, providers=None):
    if criterion == "flesch":
        return "splitkit.score_flesch"
    if providers is not None and providers.lm is not None:
        return "splitkit.score_model"
    return "splitkit.score_imported"


def _scored_tokens(result):
    seqs = result if isinstance(result, list) else [result]
    return {"surprisal.tokens": sum(len(s.values) for s in seqs)}


def _ngram_entries(model):
    return {"surprisal.ngram_entries":
            sum(len(ws) for table in model.counts.values() for ws in table.values())}


def _report_shape(report):
    return {"hlm.cells": len(report.cells),
            "hlm.index_keys": len(report.i_model) + len(report.i_task) + len(report.i_criteria)}


def _svg_bytes(text):
    return {"svg.bytes": len(text.encode("utf-8"))}


BOUNDARIES = (
    ("textstat", "segment_sentences", "textstat.segment", None),
    ("textstat", "text_stats", "textstat.text_stats", None),
    ("surprisal", "train_lm", "surprisal.train", _ngram_entries),
    ("surprisal", "save_model", "surprisal.save", None),
    ("surprisal", "load_model", "surprisal.load", None),
    ("surprisal", "token_surprisals", "surprisal.score", _scored_tokens),
    ("surprisal", "sentence_surprisals", "surprisal.score", _scored_tokens),
    ("surprisal", "export_surprisals", "surprisal.export", None),
    ("surprisal", "import_surprisals", "surprisal.import", None),
    ("uid", "uid_superlinear", "uid.sl", None),
    ("uid", "uid_variance", "uid.var", None),
    ("splitkit", "load_corpus_jsonl", "splitkit.load_corpus", None),
    ("splitkit", "score_corpus", _score_span, None),
    ("splitkit", "scores_to_jsonl", "splitkit.scores_io", None),
    ("splitkit", "scores_from_jsonl", "splitkit.scores_io", None),
    ("splitkit", "tertile_split", "splitkit.split", None),
    ("experiment", "make_schedule", "experiment.schedule", None),
    ("experiment", "transfer_scores", "experiment.transfer",
     lambda m: {"experiment.transfer_groups": len(m.groups)}),
    ("experiment", "load_training_log", "experiment.load_log", None),
    ("experiment", "converge_result_to_dict", "experiment.converge", None),
    ("hlm", "load_cube_csv", "hlm.load_cube", None),
    ("hlm", "compute_report", "hlm.report", _report_shape),
    ("hlm", "report_to_dict", "hlm.report", None),
    ("svg", "heatmap_svg", "svg.heatmap", _svg_bytes),
    ("svg", "curves_svg", "svg.curves", _svg_bytes),
)


class Tracer:
    """Records spans as [name, start, end, parent] lists, in call order."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _nested_in(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            outermost = not self._nested_in(span_name)
            with self.span(span_name):
                result = fn(*args, **kwargs)
            # Counted after the span has closed, so counting is overhead of
            # the trace and not time of the layer.
            if counter is not None and outermost:
                for key, value in counter(result).items():
                    self.counts[key] = self.counts.get(key, 0) + value
            return result
        return traced

    @contextmanager
    def installed(self):
        """Wrap every boundary in BOUNDARIES for the duration of the block."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "hlmkit" or n.startswith("hlmkit.")) and m is not None]
        saved = []
        try:
            for module_name, attr, name, counter in BOUNDARIES:
                original = getattr(sys.modules[f"hlmkit.{module_name}"], attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(original, name, counter)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            saved.append((m, key, original))
                            setattr(m, key, wrapper)
            yield self
        finally:
            for m, key, original in reversed(saved):
                setattr(m, key, original)

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _ in self.spans]
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent is not None:
                own[parent] -= self.spans[i][2] - self.spans[i][1]
        return own

    def total(self, name: str) -> float:
        """Inclusive seconds in ``name``, not counting nested calls twice."""
        out = 0.0
        for n, start, end, parent in self.spans:
            if n != name:
                continue
            p = parent
            while p is not None and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p is None:
                out += end - start
        return out

    def layer_self(self, layer: str) -> float:
        own = self.self_times()
        return sum(t for (n, _, _, _), t in zip(self.spans, own)
                   if n.split(".", 1)[0] == layer)

    def write(self, path: Path) -> None:
        """One JSON object per span, with its self time, in call order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for i, ((name, start, end, parent), self_s) in enumerate(zip(self.spans, own)):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "self_s": self_s}) + "\n")
