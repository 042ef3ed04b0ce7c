"""Span tracer for one pannkit CLI process, installed from outside the package.

``install`` wraps the public functions and layer methods that the benchmark
reports layer by layer. Each call becomes a span: id, parent id, name, start,
end (``time.perf_counter``, which is CLOCK_MONOTONIC and so shared with the
parent benchmark process) and an optional work count such as the batch size.
Spans stay in memory and go to a JSONL file when the process exits, followed
by one line of counters that are not spans (attack iterations, rows written,
distinct approximant keys, cached sweep cells).

Functions that another pannkit module imported by name (``sturdiness``
imports ``train`` and ``evaluate``; ``cli`` and ``transform`` import
``build_appsgn``) are replaced at every import site, so no call escapes.
"""

import atexit
import functools
import json
import time

# layer spans are named by batch-size bucket: the smallest bound >= N
BATCH_BUCKETS = (1, 32, 64, 512)


def batch_bucket(n: int) -> str:
    for bound in BATCH_BUCKETS:
        if n <= bound:
            return f"n{bound}"
    return "nmax"


class Tracer:
    def __init__(self, run_id: str, path: str):
        self.run_id = run_id
        self.path = path
        self.spans = []      # (id, parent, name, start, end, count, outer)
        self.stack = [0]     # open span ids; 0 is the process root
        self.active = {}     # name -> open spans of that name
        self.next_id = 1
        self.counters = {}
        self.approx_keys = set()

    def count(self, name: str, k: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(k)

    def wrap(self, name, fn, count=None, after=None):
        """Wrap fn in a span. name is a string or a function of the call's
        arguments; count(*args, **kwargs) gives the span's work count;
        after(result) updates counters once the call returns."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            n = count(*args, **kwargs) if count is not None else None
            sid = tracer.next_id
            tracer.next_id += 1
            parent = tracer.stack[-1]
            depth = tracer.active.get(label, 0)
            tracer.active[label] = depth + 1
            tracer.stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer.stack.pop()
                tracer.active[label] = depth
                tracer.spans.append((sid, parent, label, t0, t1, n,
                                     depth == 0))
            if after is not None:
                after(result)
            return result

        return traced

    def dump(self) -> None:
        rid = json.dumps(self.run_id)
        with open(self.path, "w") as fh:
            for sid, parent, label, t0, t1, n, outer in self.spans:
                fh.write(f'{{"run":{rid},"id":{sid},"parent":{parent},'
                         f'"name":"{label}","start":{t0!r},"end":{t1!r},'
                         f'"n":{"null" if n is None else n},'
                         f'"outer":{"true" if outer else "false"}}}\n')
            counters = dict(self.counters,
                            **{"polyapprox.build_appsgn.keys":
                               len(self.approx_keys)})
            fh.write(json.dumps({"run": self.run_id,
                                 "counters": counters}) + "\n")


def _samples(_, x, *args, **kwargs):
    return int(x.shape[0])


def _elements(_, z, *args, **kwargs):
    return int(z.size)


def install(run_id: str, path: str) -> Tracer:
    """Wrap pannkit's layers in spans; write them to path at process exit."""
    from pannkit import (attack, cli, datasets, fixedpoint, nn, polyapprox,
                         records, sturdiness, training, transform)

    tracer = Tracer(run_id, path)
    modules = (attack, cli, datasets, fixedpoint, nn, polyapprox, records,
               sturdiness, training, transform)

    def function(module, attr, name=None, **kw):
        orig = getattr(module, attr)
        wrapped = tracer.wrap(name or f"{module.__name__[8:]}.{attr}", orig,
                              **kw)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapped)

    def method(cls, attr, name=None, **kw):
        module = cls.__module__[8:]
        setattr(cls, attr, tracer.wrap(
            name or f"{module}.{cls.__name__}.{attr}", getattr(cls, attr),
            **kw))

    function(cli, "main")
    function(datasets, "load_dataset")
    method(records.RecordStore, "read_rows")
    method(records.RecordStore, "append_rows",
           after=lambda n: tracer.count("records.rows_written", n))

    function(sturdiness, "weight_decay_sweep")
    function(sturdiness, "perturbation_loss_experiment")
    sweep_cells = sturdiness._sweep_cells

    def counted_sweep_cells(cells, chash, runner, store, force, workers):
        ran = []

        def run_one(cell):
            ran.append(cell)
            return runner(cell)

        out = sweep_cells(cells, chash, run_one, store, force, workers)
        tracer.count("sturdiness.cells_run", len(ran))
        tracer.count("sturdiness.cells_cached", len(cells) - len(ran))
        return out

    sturdiness._sweep_cells = counted_sweep_cells

    function(training, "train")
    function(training, "evaluate", count=_samples)
    function(training, "ngnv_output_adjustment")

    function(nn, "forward", count=_samples)
    function(nn, "backward")
    function(nn, "predict")
    function(nn, "input_gradient")
    function(nn, "loss_and_logit_grad")
    function(nn, "sgd_step")
    for cls in (nn.Dense, nn.Conv2d, nn.AvgPool, nn.Activation):
        for attr in ("forward", "backward"):
            method(cls, attr, name=lambda _, x, *a, c=cls.__name__, m=attr:
                   f"nn.{c}.{m}.{batch_bucket(x.shape[0])}")

    function(transform, "calibrate_bound")
    function(transform, "transform")
    function(transform, "apply_descriptor")
    method(transform.CompositeReLU, "apply", count=_elements)
    method(transform.CompositeReLU, "grad")
    method(transform.InjectedReLU, "apply")

    def approx_key(approx):
        tracer.approx_keys.add((approx.beta, approx.eps0 / approx.bound,
                                approx.max_stage_degree,
                                tuple(p.degree for p in approx.chain)))

    function(polyapprox, "build_appsgn", after=approx_key)
    function(polyapprox, "remez_minimax")
    function(polyapprox, "approx_from_json")
    method(polyapprox.CompositeSgnApprox, "eval")

    method(fixedpoint.TruncatedReLU, "apply", count=_elements)

    def attack_outcome(outcome):
        tracer.count("attack.iterations", outcome.iterations)
        tracer.count("attack.successes", int(outcome.success))

    function(attack, "attack_pann", after=attack_outcome)
    function(attack, "verify_outcome")

    atexit.register(tracer.dump)
    return tracer
