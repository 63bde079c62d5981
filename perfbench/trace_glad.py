"""Traced entry point of the glad CLI, and the per-layer metrics of its spans.

    python3 perfbench/trace_glad.py SPANS_PREFIX <glad arguments...>

wraps every public function of every `glad` module, including the names
other glad modules bound with `from ... import`, runs `glad.cli.main` on the
arguments, and writes the recorded spans to SPANS_PREFIX.json (names) and
SPANS_PREFIX.bin (arrays) when it ends. The program itself is not changed:
the wrappers only read the clock and append to arrays. Spans of processes
that the program starts itself are not recorded.

`layer_metrics` turns the span files of one traced run into the per-layer
metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import pkgutil
import statistics
import sys
import time
from array import array

# Array typecodes, in file order: name id, parent index, start, end, amount.
FIELDS = (("name", "i"), ("parent", "q"), ("start", "d"), ("end", "d"), ("amount", "q"))


def _frames_of(args, kwargs):
    clips = args[1] if len(args) > 1 else kwargs["clip_frames"]
    return clips.shape[0] * clips.shape[1]


def _bytes_read(args, kwargs):
    directory = args[0] if args else kwargs["directory"]
    return sum(os.path.getsize(os.path.join(directory, f))
               for f in ("manifest.json", "frames.bin"))


# Work counted per call, beyond the call itself.
AMOUNTS = {"model.encode_clip_batch": _frames_of,
           "synthdata.read_dataset": _bytes_read}


class Recorder:
    """Spans kept in flat arrays; a span's parent is the innermost span open
    when it started."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.cols = {name: array(code) for name, code in FIELDS}
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        name_id = self.ids.setdefault(name, len(self.ids))
        if name_id == len(self.names):
            self.names.append(name)
        amount = AMOUNTS.get(name)
        cols, stack, clock = self.cols, self.stack, time.perf_counter
        c_name, c_parent, c_start, c_end, c_amount = (cols[f] for f, _ in FIELDS)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(c_name)
            c_name.append(name_id)
            c_parent.append(stack[-1] if stack else -1)
            c_amount.append(amount(args, kwargs) if amount else 0)
            c_end.append(0.0)
            stack.append(index)
            c_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                c_end[index] = clock()
                stack.pop()
        return traced

    def write(self, prefix: str) -> None:
        with open(prefix + ".json", "w") as f:
            json.dump({"names": self.names, "count": len(self.cols["name"])}, f)
        with open(prefix + ".bin", "wb") as f:
            for field, _ in FIELDS:
                self.cols[field].tofile(f)


def install(recorder: Recorder) -> None:
    """Replace each public glad function, wherever a glad module binds it."""
    import glad

    modules = [importlib.import_module(f"glad.{m.name}")
               for m in pkgutil.iter_modules(glad.__path__)]
    wrapped = {}
    for mod in modules:
        layer = mod.__name__.split(".")[-1]
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                wrapped[obj] = recorder.wrap(f"{layer}.{attr}", obj)
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])


def read_spans(prefix: str):
    with open(prefix + ".json") as f:
        head = json.load(f)
    cols = {}
    with open(prefix + ".bin", "rb") as f:
        for field, code in FIELDS:
            cols[field] = array(code)
            cols[field].fromfile(f, head["count"])
    return head["names"], cols


def _p(sorted_values, q):
    """Nearest-rank percentile; 0 for no values."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def layer_metrics(prefixes) -> dict:
    """Per-layer metrics, {name: (value, unit)}, summed over the span files
    of one traced run.

    A layer's time is the duration of its spans whose parent belongs to
    another layer, so nested calls inside a layer count once; a self time
    is a span's duration minus its direct children's.
    """
    total = {}     # function name -> summed duration of outermost calls
    calls = {}     # function name -> call count
    amounts = {}   # function name -> summed amount
    layer_s = {}   # layer -> time of calls entered from another layer
    self_s = {}    # function name -> summed self time
    enc_eval = 0.0
    steps, runs = [], []
    n_spans = 0
    for prefix in prefixes:
        names, c = read_spans(prefix)
        name, parent, start, end = c["name"], c["parent"], c["start"], c["end"]
        n = len(name)
        n_spans += n
        fn = [names[i] for i in name]
        layer = [f.split(".")[0] for f in fn]
        dur = [end[i] - start[i] for i in range(n)]
        child = [0.0] * n
        in_eval = [False] * n
        open_step = {}
        for i in range(n):
            f, p = fn[i], parent[i]
            if p >= 0:
                child[p] += dur[i]
                in_eval[i] = in_eval[p]
            if f == "trainer.evaluate":
                in_eval[i] = True
            calls[f] = calls.get(f, 0) + 1
            amounts[f] = amounts.get(f, 0) + c["amount"][i]
            if p < 0 or fn[p] != f:
                total[f] = total.get(f, 0.0) + dur[i]
            if p < 0 or layer[p] != layer[i]:
                layer_s[layer[i]] = layer_s.get(layer[i], 0.0) + dur[i]
            if f == "model.encode_clip_batch" and in_eval[i]:
                enc_eval += dur[i]
            if f == "trainer.step_losses":
                open_step[p] = start[i]
            elif f == "trainer.apply_grads" and p in open_step:
                steps.append(end[i] - open_step.pop(p))
            elif f == "trainer.train":
                runs.append(dur[i])
        for i in range(n):
            self_s[fn[i]] = self_s.get(fn[i], 0.0) + dur[i] - child[i]
    steps.sort()
    t = total.get
    return {
        "sampling.clip_calls": (calls.get("sampling.sample_global_clip", 0)
                                + calls.get("sampling.sample_local_clip", 0), "count"),
        "sampling.s": (layer_s.get("sampling", 0.0), "s"),
        "debias.augment_s": (t("debias.apply_augmentation_policy", 0.0), "s"),
        "debias.mixed_videos": (calls.get("debias.mix_background", 0), "count"),
        "debias.bank_s": (t("debias.build_background_bank", 0.0), "s"),
        "model.encode_fwd_train_s": (t("model.encode_clip_batch", 0.0) - enc_eval, "s"),
        "model.encode_fwd_eval_s": (enc_eval, "s"),
        "model.encode_bwd_s": (t("model.encode_clip_backward", 0.0), "s"),
        "model.encoded_frames": (amounts.get("model.encode_clip_batch", 0), "count"),
        "model.gla_s": (t("model.gla_loss", 0.0), "s"),
        "model.tol_s": (t("model.tol_loss", 0.0) + t("model.tol_accuracy", 0.0), "s"),
        "model.ce_s": (t("model.ce_loss", 0.0), "s"),
        "diffnet.mlp_forward_calls": (calls.get("diffnet.mlp_forward", 0), "count"),
        "diffnet.sgd_s": (t("diffnet.sgd_step", 0.0), "s"),
        "trainer.steps": (len(steps), "count"),
        "trainer.step_ms_p50": (1e3 * _p(steps, 0.50), "ms"),
        "trainer.step_ms_p98": (1e3 * _p(steps, 0.98), "ms"),
        "trainer.step_self_s": (self_s.get("trainer.step_losses", 0.0), "s"),
        "trainer.apply_grads_s": (t("trainer.apply_grads", 0.0), "s"),
        "trainer.evaluate_s": (t("trainer.evaluate", 0.0), "s"),
        "trainer.runs": (len(runs), "count"),
        "trainer.run_s_p50": (statistics.median(runs) if runs else 0.0, "s"),
        "synthdata.generate_s": (t("synthdata.generate_domain", 0.0), "s"),
        "synthdata.write_s": (t("synthdata.write_dataset", 0.0), "s"),
        "synthdata.read_s": (t("synthdata.read_dataset", 0.0), "s"),
        "synthdata.read_bytes": (amounts.get("synthdata.read_dataset", 0), "bytes"),
        "gapmetrics.scene_s": (t("gapmetrics.scene_distance", 0.0), "s"),
        "gapmetrics.emd_s": (t("gapmetrics.temporal_distance", 0.0), "s"),
        "cli.self_s": (sum(v for f, v in self_s.items() if f.startswith("cli.")), "s"),
        "trace.spans": (n_spans, "count"),
    }


def main(argv) -> int:
    prefix, glad_args = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder)
    import glad.cli

    try:
        return glad.cli.main(glad_args)
    finally:
        recorder.write(prefix)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
