"""Spans around the public functions of each modquant module.

The wrappers live here, not in the program: ``Tracer.install`` replaces each
target function in its defining module and in every other modquant module
that bound the same object with ``from ... import`` (``layer.compute_params``,
``calibrate.forward_with_cache``, ``cli.calibrate`` and so on). The package
attribute ``modquant.calibrate`` is the function, which shadows the
submodule, so modules are always looked up in ``sys.modules``.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import dataclass

import numpy as np


def _arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, "path"))}


def _matmul_gflop(args, kwargs, result):
    a, b = args[0], args[1]
    return {"gflop": 2.0 * np.shape(a)[0] * np.shape(a)[1] * np.shape(b)[1] / 1e9}


def _elements(args, kwargs, result):
    return {"elements": np.size(_arg(args, kwargs, "m"))}


def _rank_matrix(args, kwargs, result):
    ranks = _arg(args, kwargs, "ranks")
    return {"channels": np.shape(ranks)[1], "cells": np.size(ranks)}


def _calib_steps(args, kwargs, result):
    return {"steps": len(result[1].losses)}


# (module, function, work counter or None). A counter maps the call's
# arguments and result to the amounts of work it did.
TARGETS = (
    ("modquant.synth", "generate", None),
    ("modquant.synth", "generate_weight", None),
    ("modquant.tensor", "load_tensor", _file_bytes),
    ("modquant.tensor", "save_tensor", _file_bytes),
    ("modquant.tensor", "as_matrix", None),
    ("modquant.tensor", "matmul", _matmul_gflop),
    ("modquant.quantizer", "compute_params", _elements),
    ("modquant.quantizer", "fake_quantize", _elements),
    ("modquant.quantizer", "clamp_mask", _elements),
    ("modquant.transform", "apply_right", None),
    ("modquant.transform", "apply_inv_left", None),
    ("modquant.transform", "diagonal_transform", None),
    ("modquant.mocd", "build_partition", None),
    ("modquant.mocd", "vision_score", None),
    ("modquant.mocd", "percentile_rank", None),
    ("modquant.mocd", "text_score", _rank_matrix),
    ("modquant.lowrank", "truncated_svd", None),
    ("modquant.layer", "build_layer", None),
    ("modquant.layer", "forward_with_cache", None),
    ("modquant.layer", "with_updated_params", None),
    ("modquant.layer", "save_layer", None),
    ("modquant.layer", "load_layer", None),
    ("modquant.calibrate", "calibrate", _calib_steps),
    ("modquant.calibrate", "analytic_gradient", None),
    ("modquant.calibrate", "stability_report", None),
)


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    work: dict | None = None

    @property
    def total_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


class Tracer:
    """Records one span per call of each target; spans stay in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            span = Span(name, parent, time.perf_counter())
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent].child_s += span.total_s
            if counter is not None:
                span.work = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every target in every loaded modquant module that binds it.

        A target missing from the program is skipped; its metrics read 0.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "modquant" or n.startswith("modquant."))]
        for module_name, func_name, counter in TARGETS:
            original = getattr(sys.modules[module_name], func_name, None)
            if original is None:
                continue
            traced = self._wrap(f"{module_name.split('.')[-1]}.{func_name}", original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, value))
                        setattr(module, attr, traced)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced loop: self time unless named total."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    work: dict[str, float] = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + s.self_s
        total_s[s.name] = total_s.get(s.name, 0.0) + s.total_s
        for key, amount in (s.work or {}).items():
            work[f"{s.name}:{key}"] = work.get(f"{s.name}:{key}", 0.0) + float(amount)

    def own(name):
        return self_s.get(name, 0.0)

    quant = ("quantizer.compute_params", "quantizer.fake_quantize", "quantizer.clamp_mask")
    steps = work.get("calibrate.calibrate:steps", 0.0)
    return {
        "synth.generate_s": own("synth.generate"),
        "synth.generate_weight_s": own("synth.generate_weight"),
        "tensor.load_tensor_s": own("tensor.load_tensor"),
        "tensor.save_tensor_s": own("tensor.save_tensor"),
        "tensor.bytes_read": work.get("tensor.load_tensor:bytes", 0.0),
        "tensor.bytes_written": work.get("tensor.save_tensor:bytes", 0.0),
        "tensor.as_matrix_calls": calls.get("tensor.as_matrix", 0),
        "tensor.as_matrix_s": own("tensor.as_matrix"),
        "tensor.matmul_calls": calls.get("tensor.matmul", 0),
        "tensor.matmul_s": own("tensor.matmul"),
        "tensor.matmul_gflop": work.get("tensor.matmul:gflop", 0.0),
        "quantizer.compute_params_s": own("quantizer.compute_params"),
        "quantizer.fake_quantize_s": own("quantizer.fake_quantize"),
        "quantizer.clamp_mask_s": own("quantizer.clamp_mask"),
        "quantizer.calls": sum(calls.get(n, 0) for n in quant),
        "quantizer.elements": sum(work.get(f"{n}:elements", 0.0) for n in quant),
        "transform.apply_s": own("transform.apply_right") + own("transform.apply_inv_left"),
        "transform.diagonal_transform_calls": calls.get("transform.diagonal_transform", 0),
        "transform.diagonal_transform_s": own("transform.diagonal_transform"),
        "mocd.build_partition_calls": calls.get("mocd.build_partition", 0),
        "mocd.build_partition_s": total_s.get("mocd.build_partition", 0.0),
        "mocd.vision_score_s": own("mocd.vision_score"),
        "mocd.percentile_rank_s": own("mocd.percentile_rank"),
        "mocd.text_score_s": own("mocd.text_score"),
        "mocd.channels_scored": work.get("mocd.text_score:channels", 0.0),
        "mocd.rank_cells": work.get("mocd.text_score:cells", 0.0),
        "lowrank.truncated_svd_s": own("lowrank.truncated_svd"),
        "layer.build_layer_s": own("layer.build_layer"),
        "layer.forward_with_cache_s": own("layer.forward_with_cache"),
        "layer.forward_calls": calls.get("layer.forward_with_cache", 0),
        "layer.with_updated_params_s": own("layer.with_updated_params"),
        "layer.save_layer_s": own("layer.save_layer"),
        "layer.load_layer_s": own("layer.load_layer"),
        "calibrate.calibrate_s": total_s.get("calibrate.calibrate", 0.0),
        "calibrate.steps": steps,
        "calibrate.step_s": total_s.get("calibrate.calibrate", 0.0) / steps if steps else 0.0,
        "calibrate.analytic_gradient_s": own("calibrate.analytic_gradient"),
        "calibrate.stability_report_s": total_s.get("calibrate.stability_report", 0.0),
    }
