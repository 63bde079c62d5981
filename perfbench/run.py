#!/usr/bin/env python3
"""Benchmark of the glad lab, driven through its command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every `glad` call runs in a fresh process
with one BLAS thread and GLAD_WORKERS set to the core count; each call
after set-up is one operation. The seed makes the inputs (dataset specs and experiment configs);
the program receives only those files. Outputs are checked by
perfbench/checks.py after the timed part.

With --trace 0 the last line of standard output is the end-to-end result;
with --trace 1 the workload runs once plainly and once through
perfbench/trace_glad.py, the two runs' outputs must be bit-identical, and
the last line holds the per-layer metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
RUN_LIMIT_S = 165.0
SETUPS = 3   # set-ups per run; setup_s is their median
PROBES = 4   # probes per run: what a workload's body does not time
GAP_CALLS = 2  # `glad gap` is short, so each pipeline round times it twice

# (domain, split, videos at scale 1, length range, seed offset): the
# default benchmark of `glad synth`.
SPLITS = (("source", "train", 600, [48, 96], 0),
          ("source", "test", 120, [48, 96], 1000),
          ("target", "train", 300, [8, 24], 1),
          ("target", "test", 120, [8, 24], 1001))
PIPELINE_SCALE = 4
BATCH = 16
# The default full_glad schedule, spelt out so the benchmark knows it.
FULL = {"warmup_epochs": 20, "main_epochs": 30, "lr": 0.002,
        "lr_drop_epochs": [20, 26], "batch_size": BATCH, "seed": 0}
ABLATE = {"warmup_epochs": 4, "main_epochs": 8, "lr": 0.002,
          "lr_drop_epochs": [5, 7], "batch_size": BATCH, "seed": 0}
ABLATE_SEEDS = [0, 1]
# Short run whose checkpoint the eval operations use; too short to be held
# to the 3x-chance floor of a full run.
CKPT = {"warmup_epochs": 2, "main_epochs": 2, "lr": 0.002,
        "lr_drop_epochs": [1], "batch_size": BATCH, "seed": 0}


def specs(seed: int, scale: int) -> dict:
    out = {}
    for domain, split, n, lengths, offset in SPLITS:
        out[f"{domain}_{split}"] = {
            "n_videos": n * scale, "length_range": lengths,
            "background_mode": "class_correlated" if domain == "source" else "fixed_checkerboard",
            "bias_rho": 1.0, "blob_speed_range": [0.8, 2.0],
            "seed": seed + offset, "domain": domain}
    return out


def n_videos(scale: int) -> int:
    return sum(n for _, _, n, _, _ in SPLITS) * scale


def steps_per_epoch() -> int:
    # One pass over the smaller training domain (target, or target as the
    # labelled side for supervised_target).
    n_src, n_tgt = SPLITS[0][2], SPLITS[2][2]
    return math.ceil(min(n_src, n_tgt) / BATCH)


def train_steps(train: dict, use_tol: bool = True) -> int:
    epochs = train["main_epochs"] + (train["warmup_epochs"] if use_tol else 0)
    return epochs * steps_per_epoch()


def experiment(data: str, train: dict) -> dict:
    return {"source_dir": f"{data}/source", "target_dir": f"{data}/target", "train": train}


def write_json(path: str, doc) -> None:
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)


def split_files(data: str):
    return [f"{data}/{d}/{s}/{name}" for d, s, *_ in SPLITS
            for name in ("manifest.json", "frames.bin")]


@dataclass
class Call:
    """One `glad` process: an operation, or a step of set-up."""
    op: str
    cwd: str
    outputs: list
    wall: float = 0.0
    rss_mb: float = 0.0
    rc: int = 0
    check: object = None  # () -> eval margin or None; raises checks.CheckFailed
    problem: str = ""

    @property
    def ok(self) -> bool:
        return self.rc == 0 and not self.problem

    def digest(self) -> str:
        h = hashlib.sha256()
        for rel in self.outputs:
            h.update(rel.encode())
            with open(os.path.join(self.cwd, rel), "rb") as f:
                for block in iter(lambda: f.read(1 << 20), b""):
                    h.update(block)
        return h.hexdigest()


@dataclass
class Runner:
    env: dict
    deadline: float
    log: str
    span_dir: str | None = None
    spans: list = field(default_factory=list)

    def glad(self, cwd: str, args: list, outputs=(), check=None) -> Call:
        call = Call(args[0], cwd, list(outputs), check=check)
        if self.span_dir is not None:
            prefix = os.path.join(self.span_dir, f"{len(self.spans):04d}")
            self.spans.append(prefix)
            cmd = [sys.executable, os.path.join(BENCH_DIR, "trace_glad.py"), prefix, *args]
        else:
            cmd = [sys.executable, "-m", "glad.cli", *args]
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(self.log, "ab") as log:
            log.write(f"$ glad {' '.join(args)}  (in {cwd})\n".encode())
            log.flush()
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=cwd, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            call.wall = time.perf_counter() - t0
        proc.returncode = call.rc = os.waitstatus_to_exitcode(status)
        call.rss_mb = usage.ru_maxrss / 1024.0
        if call.rc != 0:
            call.problem = f"glad {args[0]} exited with {call.rc}"
        elif any(not os.path.exists(os.path.join(cwd, o)) for o in call.outputs):
            call.problem = f"glad {args[0]} left an output missing"
        return call


def _checks():
    import checks  # imported late: numpy stays out of the timed part
    return checks


def check_splits(data_dir: str, seed: int, scale: int) -> None:
    for name, spec in specs(seed, scale).items():
        _checks().check_dataset(os.path.join(data_dir, *name.split("_")), spec)


# ---------------------------------------------------------------------------
# Operations shared by the workloads

def setup(run: Runner, sdir: str, wl: str, seed: int) -> list:
    """Inputs from the seed, the default datasets and a short checkpoint."""
    os.makedirs(sdir)
    write_json(os.path.join(sdir, "spec1.json"), specs(seed, 1))
    write_json(os.path.join(sdir, "ckpt.json"), experiment("data", CKPT))
    if wl == "train_full_glad":
        write_json(os.path.join(sdir, "full.json"), experiment("../setup/data", FULL))
    elif wl == "ablate_short":
        write_json(os.path.join(sdir, "ablate.json"), experiment("../setup/data", ABLATE))
    else:
        write_json(os.path.join(sdir, f"spec{PIPELINE_SCALE}.json"), specs(seed, PIPELINE_SCALE))
        write_json(os.path.join(sdir, "ckpt_probe.json"), experiment("../setup/data", CKPT))

    def check_ckpt():
        _checks().check_train(os.path.join(sdir, "ckpt"), CKPT,
                              os.path.join(sdir, "data", "target", "test"), skilled=False)

    synth = run.glad(sdir, ["synth", "--spec", "spec1.json", "--out", "data"], split_files("data"),
                     lambda: check_splits(os.path.join(sdir, "data"), seed, 1))
    if not synth.ok:
        return [synth]
    train = run.glad(sdir, ["train", "--config", "ckpt.json", "--out", "ckpt"],
                     ["ckpt/report.json", "ckpt/final/params.bin"], check_ckpt)
    return [synth, train]


def pipeline_round(run: Runner, rdir: str, seed: int, scale: int) -> list:
    """`glad synth` of the default splits with `scale` times the videos,
    `glad gap` on its training splits (GAP_CALLS times), and `glad eval` of
    the set-up checkpoint on each of its splits."""
    os.makedirs(rdir)
    data = f"data{scale}"

    def check_gap(out):
        _checks().check_gap(os.path.join(rdir, out, "gap.json"),
                            os.path.join(rdir, data, "source", "train"),
                            os.path.join(rdir, data, "target", "train"))

    calls = [run.glad(rdir, ["synth", "--spec", f"../setup/spec{scale}.json", "--out", data],
                      split_files(data),
                      lambda: check_splits(os.path.join(rdir, data), seed, scale))]
    if not calls[0].ok:  # later operations of the round need its output
        return calls + [Call(op, rdir, [], rc=-1, problem="skipped: synth failed")
                        for op in ["gap"] * GAP_CALLS + ["eval"] * len(SPLITS)]
    for k in range(GAP_CALLS):
        out = f"gap{k}"
        calls.append(run.glad(rdir, ["gap", f"{data}/source", f"{data}/target", "--out", out],
                              [f"{out}/gap.json"], lambda out=out: check_gap(out)))
    for domain, split, *_ in SPLITS:
        out = f"eval_{domain}_{split}"

        def check_eval(out=out, domain=domain, split=split):
            return _checks().check_eval(os.path.join(rdir, out, "eval.json"),
                                        os.path.join(rdir, "..", "setup", "ckpt", "final"),
                                        os.path.join(rdir, data, domain, split))

        calls.append(run.glad(rdir, ["eval", "--checkpoint", "../setup/ckpt/final",
                                     "--data", f"{data}/{domain}/{split}", "--out", out],
                              [f"{out}/eval.json"], check_eval))
    return calls


def body_round(run: Runner, rdir: str, wl: str, seed: int) -> list:
    if wl == "data_pipeline":
        return pipeline_round(run, rdir, seed, PIPELINE_SCALE)
    os.makedirs(rdir)
    if wl == "train_full_glad":
        def check():
            _checks().check_train(os.path.join(rdir, "run"), FULL,
                                  os.path.join(rdir, "..", "setup", "data", "target", "test"))
        return [run.glad(rdir, ["train", "--config", "../setup/full.json", "--out", "run"],
                         ["run/report.json", "run/report.csv", "run/final/params.bin"], check)]

    def check():
        _checks().check_ablation(os.path.join(rdir, "abl", "ablation.json"),
                                 ABLATE_SEEDS, SPLITS[3][2])
    seeds = ",".join(map(str, ABLATE_SEEDS))
    return [run.glad(rdir, ["ablate", "--config", "../setup/ablate.json",
                            "--seeds", seeds, "--out", "abl"],
                     ["abl/ablation.json"], check)]


def probe(run: Runner, pdir: str, wl: str, seed: int) -> list:
    """For data_pipeline, the set-up's short training run again; for the
    others, a pipeline round at scale 1."""
    if wl != "data_pipeline":
        return pipeline_round(run, pdir, seed, 1)
    os.makedirs(pdir)

    def check():
        _checks().check_train(os.path.join(pdir, "ckpt"), CKPT,
                              os.path.join(pdir, "..", "setup", "data", "target", "test"),
                              skilled=False)
    return [run.glad(pdir, ["train", "--config", "../setup/ckpt_probe.json", "--out", "ckpt"],
                     ["ckpt/report.json", "ckpt/final/params.bin"], check)]


# ---------------------------------------------------------------------------

def same_outputs(first: list, other: list) -> None:
    """Mark operations of `other` whose outputs differ from `first`'s."""
    for a, b in zip(first, other):
        if a.ok and b.ok and a.digest() != b.digest():
            b.problem = f"glad {b.op}: output differs from an identical earlier call"


def run_checks(calls: list):
    """Run each call's check; returns the smallest eval logit margin seen."""
    checks = _checks()
    margins = []
    for call in calls:
        if call.ok and call.check is not None:
            try:
                margin = call.check()
            except checks.CheckFailed as e:
                call.problem = f"glad {call.op}: {e}"
            else:
                if margin is not None:
                    margins.append(margin)
    return min(margins) if margins else None


def median_of(values):
    return statistics.median(values) if values else float("nan")


def walls(calls, op):
    return [c.wall for c in calls if c.op == op and c.ok]


def round_wall(calls) -> float:
    return sum(c.wall for c in calls)


def measure(wl: str, seed: int, seconds: float, env: dict, wdir: str, log: str):
    start = time.monotonic()
    run = Runner(env, start + RUN_LIMIT_S, log)
    setups, setup_s = [], []
    for k in range(SETUPS):
        t0 = time.perf_counter()
        setups.append(setup(run, os.path.join(wdir, "setup" if k == 0 else f"setup{k}"), wl, seed))
        setup_s.append(time.perf_counter() - t0)
        if not all(c.ok for c in setups[-1]):
            raise SystemExit(f"set-up failed: {[c.problem for c in setups[-1]]}")
        if k:
            same_outputs(setups[0], setups[k])
            shutil.rmtree(os.path.join(wdir, f"setup{k}"))

    rounds = []
    t_body = time.monotonic()
    while True:
        rdir = os.path.join(wdir, f"round{len(rounds)}")
        rounds.append(body_round(run, rdir, wl, seed))
        if len(rounds) > 1:
            same_outputs(rounds[0], rounds[-1])
            shutil.rmtree(rdir)
        # Stop where the run comes closest to `seconds` in whole rounds.
        elapsed = time.monotonic() - t_body
        if elapsed + round_wall(rounds[-1]) / 2 > seconds or time.monotonic() > run.deadline:
            break
    probes = []
    for k in range(PROBES):
        probes.append(probe(run, os.path.join(wdir, f"probe{k}"), wl, seed))
        if k:
            same_outputs(probes[0], probes[k])
            shutil.rmtree(os.path.join(wdir, f"probe{k}"))
    self_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    margin = run_checks(setups[0] + rounds[0] + probes[0])
    ops = [c for r in rounds + probes for c in r]
    good_rounds = [r for r in rounds if all(c.ok for c in r)]
    # synth, gap and eval are timed on pipeline rounds: the body of
    # data_pipeline, the probes of the other workloads.
    if wl == "data_pipeline":
        pipeline, scale = good_rounds, PIPELINE_SCALE
        synth_walls = [r[0].wall for r in pipeline]
        steps_s = train_steps(CKPT) / median_of([s[1].wall for s in setups]
                                                + walls(ops, "train"))
    else:
        # The probes' synth is the set-up's: the same call on the same spec.
        pipeline, scale = [p for p in probes if all(c.ok for c in p)], 1
        synth_walls = [r[0].wall for r in setups + pipeline]
        if wl == "train_full_glad":
            steps_s = train_steps(FULL) / median_of(walls(ops, "train"))
        else:
            rows = _checks().ABLATION_ROWS.values()
            steps = sum(train_steps(ABLATE, tol) for tol in rows) * len(ABLATE_SEEDS)
            steps_s = steps / median_of(walls(ops, "ablate"))
    metrics = {
        "wall_s": (median_of([round_wall(r) for r in good_rounds]), "s"),
        "setup_s": (median_of(setup_s), "s"),
        "train_steps_per_s": (steps_s, "steps/s"),
        "synth_videos_per_s": (n_videos(scale) / median_of(synth_walls), "videos/s"),
        "gap_s": (median_of([c.wall for r in pipeline for c in r[1:1 + GAP_CALLS]]), "s"),
        "eval_videos_per_s": (n_videos(scale) / median_of([round_wall(r[1 + GAP_CALLS:])
                                                           for r in pipeline]), "videos/s"),
        "peak_rss_mb": (max([self_rss_mb] + [c.rss_mb for c in ops]), "MB"),
    }
    op_walls = {}
    for call in [c for s in setups for c in s] + ops:
        op_walls.setdefault(call.op, []).append(round(call.wall, 4))
    detail = {"rounds": len(rounds), "probes": len(probes),
              "round_walls_s": [round(round_wall(r), 4) for r in rounds],
              "setup_walls_s": [round(s, 4) for s in setup_s], "op_walls_s": op_walls,
              "benchmark_rss_mb": round(self_rss_mb, 1), "min_eval_margin": margin}
    return ops, setups[0], metrics, detail


def measure_traced(wl: str, seed: int, env: dict, wdir: str, log: str):
    """The workload once plainly and once traced: one set-up, one body round
    and one probe each."""
    import trace_glad

    passes = {}
    for mode in ("plain", "traced"):
        pdir = os.path.join(wdir, mode)
        os.makedirs(pdir)
        run = Runner(env, time.monotonic() + RUN_LIMIT_S / 2, log)
        if mode == "traced":
            run.span_dir = os.path.join(wdir, "spans")
            os.makedirs(run.span_dir)
        calls = setup(run, os.path.join(pdir, "setup"), wl, seed)
        if not all(c.ok for c in calls):
            raise SystemExit(f"set-up failed: {[c.problem for c in calls]}")
        calls += body_round(run, os.path.join(pdir, "round0"), wl, seed)
        calls += probe(run, os.path.join(pdir, "probe0"), wl, seed)
        passes[mode] = (calls, run)
    plain, traced = passes["plain"][0], passes["traced"][0]
    same_outputs(plain, traced)
    margin = run_checks(plain)
    metrics = trace_glad.layer_metrics(passes["traced"][1].spans)
    overhead = round_wall(traced) - round_wall(plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    detail = {"plain_wall_s": round(round_wall(plain), 4),
              "traced_wall_s": round(round_wall(traced), 4),
              "overhead_pct": round(100.0 * overhead / round_wall(plain), 2),
              "min_eval_margin": margin}
    n_setup = 2
    ops = plain[n_setup:] + traced[n_setup:]
    return ops, plain[:n_setup] + traced[:n_setup], metrics, detail


WORKLOADS = ("train_full_glad", "ablate_short", "data_pipeline")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(ROOT, "src", "glad", "cli.py")):
        print(f"error: no glad sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    cores = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), GLAD_WORKERS=str(cores),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    wdir = os.path.join(WORK_DIR, args.workload)
    shutil.rmtree(wdir, ignore_errors=True)
    os.makedirs(wdir)
    log = os.path.join(wdir, "glad.log")
    seed = args.seed % (1 << 31)
    sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]
    if args.trace:
        ops, setup_calls, metrics, detail = measure_traced(args.workload, seed, env, wdir, log)
    else:
        ops, setup_calls, metrics, detail = measure(args.workload, seed, args.seconds,
                                                    env, wdir, log)
    problems = [c.problem for c in setup_calls + ops if c.problem]
    failed = sum(1 for c in ops if not c.ok)
    wrong = [c for c in setup_calls + ops if c.rc == 0 and c.problem]
    detail["problems"] = problems
    print(json.dumps({"detail": detail}))
    if failed == len(ops) or any(not math.isfinite(v) for v, _ in metrics.values()):
        print(f"error: no usable measurement; see {log}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": not wrong, "attempted": len(ops), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
