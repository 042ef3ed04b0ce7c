"""Small dense/conv network engine with hand-written reverse-mode gradients.

Everything runs in float64 on numpy arrays. Networks are immutable snapshots:
an optimizer step returns a new network and never touches the parameters of
the old one, so references held elsewhere (checkpoints, sweeps) stay valid.
The step consumes the gradients it is given instead: their buffers may
become the parameters of the network it returns.

The activation slot is pluggable: a mode object only has to provide
``apply(z)`` and ``grad(z)``. The exact ReLU lives here; polynomial and
fixed-point modes are defined next to the code that builds them. A
checkpoint holds a backbone, exact-ReLU slots and valid convolutions only;
a PANN is stored as that backbone plus a descriptor of its slots.
"""

from __future__ import annotations

import base64
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from .seeding import derive_rng

DTYPE = np.float64

LOSS_KINDS = ("cross_entropy", "mse")


class ShapeError(ValueError):
    """Input incompatible with a layer. Carries the offending layer index."""

    def __init__(self, layer_index: int, message: str):
        super().__init__(f"layer {layer_index}: {message}")
        self.layer_index = layer_index


class IntervalOverflowError(RuntimeError):
    """An activation input left the interval its mode is certified on."""


class NonFiniteLossError(FloatingPointError):
    """Loss evaluated to NaN or infinity."""


class FieldError(ValueError):
    """An invalid config field; the message starts with the field's name."""


# ---------------------------------------------------------------------------
# activation modes


class ExactReLU:
    """max(z, 0) with subgradient 0 at z = 0."""

    def apply(self, z: np.ndarray) -> np.ndarray:
        return np.maximum(z, 0.0)

    def grad(self, z: np.ndarray) -> np.ndarray:
        return (z > 0).astype(DTYPE)

    def descriptor(self) -> dict:
        return {"kind": "exact_relu"}

    def __repr__(self):
        return "ExactReLU()"


@contextmanager
def field_errors(where: str):
    """Re-raise what a malformed JSON field makes the code inside raise as
    a ValueError naming ``where``."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{where}: missing field {exc}") from exc
    except (AttributeError, ArithmeticError, TypeError, ValueError) as exc:
        # AttributeError: an object expected holds some other JSON type;
        # ArithmeticError: an integer field holds Infinity or 1e400
        raise ValueError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# layers


@dataclass(frozen=True)
class Dense:
    """Affine map y = x W^T + b with W of shape [out, in]."""

    W: np.ndarray
    b: np.ndarray

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.W.shape[1]:
            raise ValueError(
                f"dense expects [N, {self.W.shape[1]}], got {x.shape}")
        return x @ self.W.T + self.b

    def backward(self, x: np.ndarray, gy: np.ndarray, input_grad=True):
        gx = gy @ self.W if input_grad else None
        return gx, {"W": gy.T @ x, "b": gy.sum(axis=0)}

    def params(self) -> dict:
        return {"W": self.W, "b": self.b}

    def with_params(self, p: dict) -> "Dense":
        return Dense(W=p["W"], b=p["b"])


def _windows(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """[N, C, H, W] -> read-only [N, C, kh, kw, OH, OW] view of the patches."""
    n, c, h, w = x.shape
    s0, s1, s2, s3 = x.strides
    return np.lib.stride_tricks.as_strided(
        x, (n, c, kh, kw, h - kh + 1, w - kw + 1), (s0, s1, s2, s3, s2, s3),
        writeable=False)


@dataclass(frozen=True)
class Conv2d:
    """2-D valid convolution, stride 1, kernel of shape [F, C, kh, kw]. Forward
    memory does not grow with N x patch size; backward holds all patches,
    and adds their gradients into the input gradient channels-last, in
    (kh, kw) order, with no copy of them."""

    kernel: np.ndarray
    b: np.ndarray

    def forward(self, x: np.ndarray) -> np.ndarray:
        f, c, kh, kw = self.kernel.shape
        if x.ndim != 4 or x.shape[1] != c:
            raise ValueError(f"conv expects [N, {c}, H, W], got {x.shape}")
        if x.shape[2] < kh or x.shape[3] < kw:
            raise ValueError(f"input {x.shape} smaller than kernel {kh}x{kw}")
        win = _windows(x, kh, kw)
        n, kmat = len(x), self.kernel.reshape(f, -1)
        step = max(1, 2**19 // (win[:1].nbytes or 8))  # 512 KB ran fastest
        buf = np.empty((min(n, step),) + win.shape[1:], dtype=DTYPE)
        out = np.empty((n, f) + win.shape[4:], dtype=DTYPE)
        for s in range(0, n, step):  # per sample the gemm of a stacked matmul
            m = min(step, n - s)
            np.copyto(buf[:m], win[s:s + m])
            np.matmul(kmat, buf[:m].reshape(m, kmat.shape[1], -1),
                      out=out[s:s + m].reshape(m, f, -1))
        return np.add(out, self.b[:, None, None], out=out)

    def backward(self, x: np.ndarray, gy: np.ndarray, input_grad=True):
        f, c, kh, kw = self.kernel.shape
        n = x.shape[0]
        oh, ow = gy.shape[2], gy.shape[3]
        cols = _windows(x, kh, kw).reshape(n, c * kh * kw, oh * ow)
        gyf = gy.reshape(n, f, oh * ow)
        gk = np.einsum("nfl,nkl->fk", gyf, cols).reshape(self.kernel.shape)
        gb = gy.sum(axis=(0, 2, 3))
        if not input_grad:
            return None, {"kernel": gk, "b": gb}
        gcols = self.kernel.reshape(f, -1).T @ gyf  # [N, C*kh*kw, OH*OW]
        gcols = gcols.reshape(n, c, kh, kw, oh, ow).transpose(2, 3, 4, 5, 0, 1)
        # scattered channels-last, [H, W, N, C], so that each (i, j) add
        # runs over rows of OW*N*C contiguous values
        gx = np.zeros(x.shape[2:] + x.shape[:2], dtype=DTYPE)
        for i in range(kh):
            for j in range(kw):
                gx[i:i + oh, j:j + ow] += gcols[i, j]
        gx = np.ascontiguousarray(gx.transpose(2, 3, 0, 1))
        return gx, {"kernel": gk, "b": gb}

    def params(self) -> dict:
        return {"kernel": self.kernel, "b": self.b}

    def with_params(self, p: dict) -> "Conv2d":
        return Conv2d(kernel=p["kernel"], b=p["b"])


@dataclass(frozen=True)
class AvgPool:
    """Non-overlapping average pooling with square window."""

    size: int

    def forward(self, x: np.ndarray) -> np.ndarray:
        p = self.size
        if x.ndim != 4:
            raise ValueError(f"avgpool expects [N, C, H, W], got {x.shape}")
        n, c, h, w = x.shape
        if h % p or w % p:
            raise ValueError(f"avgpool {p} does not divide spatial dims {h}x{w}")
        if p >= 8 or not x.flags.c_contiguous:
            # numpy's reduction order differs here; keep its exact result
            return x.reshape(n, c, h // p, p, w // p, p).mean(axis=(3, 5))
        # strided slice sums in the order numpy reduces a contiguous window:
        # each window row left to right, then the row sums top to bottom
        total = np.empty((n, c, h // p, w // p), dtype=DTYPE)
        row = np.empty_like(total)
        for i in range(p):
            acc = row if i else total
            np.copyto(acc, x[:, :, i::p, 0::p])
            for j in range(1, p):
                np.add(acc, x[:, :, i::p, j::p], out=acc)
            if i:
                np.add(total, row, out=total)
        return np.divide(total, p * p, out=total)

    def backward(self, x: np.ndarray, gy: np.ndarray):
        p = self.size
        n, c, h, w = gy.shape
        share = gy / (p * p)  # each entry of a window gets its share
        gx = np.empty((n, c, h, p, w, p), dtype=DTYPE)
        for i in range(p):
            for j in range(p):
                gx[:, :, :, i, :, j] = share
        return gx.reshape(n, c, h * p, w * p), {}

    def params(self) -> dict:
        return {}


@dataclass(frozen=True)
class Flatten:
    def forward(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(x.shape[0], -1)

    def backward(self, x: np.ndarray, gy: np.ndarray):
        return gy.reshape(x.shape), {}

    def params(self) -> dict:
        return {}


@dataclass(frozen=True)
class Activation:
    """Elementwise nonlinearity slot; the mode is swappable after training."""

    mode: object = field(default_factory=ExactReLU)

    def forward(self, z: np.ndarray) -> np.ndarray:
        return self.mode.apply(z)

    def backward(self, z: np.ndarray, gy: np.ndarray):
        return gy * self.mode.grad(z), {}

    def params(self) -> dict:
        return {}


LAYER_KINDS = {Dense: "dense", Conv2d: "conv2d", AvgPool: "avgpool",
               Flatten: "flatten", Activation: "activation"}


# ---------------------------------------------------------------------------
# network


@dataclass(frozen=True)
class Network:
    """Layer pipeline plus input/output metadata."""

    layers: tuple
    input_shape: tuple  # per-sample shape, no batch dim
    n_classes: int

    def activation_indices(self) -> list[int]:
        return [i for i, l in enumerate(self.layers)
                if isinstance(l, Activation)]

    def replace_layer(self, index: int, layer) -> "Network":
        layers = list(self.layers)
        layers[index] = layer
        return replace(self, layers=tuple(layers))


def _flat_add(a: np.ndarray, idx: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a with v added at the flat (C-order) indices idx; in place when a is
    contiguous."""
    flat = a.reshape(-1)
    flat[idx] += v
    return flat.reshape(a.shape)


def _run_layers(net: Network, x: np.ndarray, act_hook=None, caches=None,
                observe=None, start=0, stop=None):
    """Forward pass of ``layers[start:stop]``; returns ``(h, adjust)``.

    ``caches``, when given, receives each layer's input for backprop;
    ``observe(i, z)`` sees the pre-activation z entering slot layers[i].
    Without them each intermediate is freed once the next layer reads it.

    ``act_hook(slot_index, z) -> (indices, factors) | (None, None)`` adds a
    sparse training-time adjustment to the slot's output: the slot computes
    ``mode.apply(z)`` plus ``factors * z`` at the flat indices, and the
    backward pass adds ``gy * factors`` there to the chain through the slot.
    ``adjust`` maps each adjusted slot to its ``(indices, factors)``.
    """
    if not start and x.shape[1:] != tuple(net.input_shape):
        raise ShapeError(-1, f"input {x.shape[1:]} != expected {tuple(net.input_shape)}")
    adjust: dict[int, tuple] = {}
    h = np.asarray(x, dtype=DTYPE)
    for i, layer in enumerate(net.layers[start:stop], start):
        z = h
        if caches is not None:
            caches.append(z)
        try:
            h = layer.forward(z)
        except ValueError as exc:
            raise ShapeError(i, str(exc)) from exc
        except IntervalOverflowError as exc:
            raise IntervalOverflowError(f"layers[{i}]: {exc}") from exc
        if not isinstance(layer, Activation):
            continue
        if observe is not None:
            observe(i, z)
        idx, f = act_hook(i, z) if act_hook is not None else (None, None)
        if idx is not None:
            if np.may_share_memory(h, z):  # a mode may hand back its input
                h = h.copy()
            h = _flat_add(h, idx, f * z.reshape(-1)[idx])
            adjust[i] = idx, f
    return h, adjust


def forward(net: Network, x: np.ndarray):
    """Evaluate the network.

    Returns ``(logits, trace)`` where trace lists the pre-activation tensor
    entering each activation slot, in layer order. Pure: repeated calls give
    identical results.
    """
    trace: list[np.ndarray] = []
    logits, _ = _run_layers(net, x, observe=lambda _, z: trace.append(z))
    return logits, trace


BLOCK = 64  # samples per block of infer's convolutional prefix


def infer(net: Network, x: np.ndarray, observe=None) -> np.ndarray:
    """The logits of ``forward``, keeping no trace. ``observe(i, z)`` sees
    the pre-activation z entering slot layers[i]: once per block of BLOCK
    samples in the per-sample layers before the first Flatten or Dense,
    which run in such blocks; Dense bytes depend on the row count, so it
    and all later layers see the whole batch."""
    end = next((i for i, l in enumerate(net.layers)
                if isinstance(l, (Dense, Flatten))), len(net.layers))
    if not end or x.ndim < 2 or len(x) <= BLOCK:
        return _run_layers(net, x, observe=observe)[0]
    out = None
    try:
        for s in range(0, len(x), BLOCK):
            h = _run_layers(net, x[s:s + BLOCK], observe=observe, stop=end)[0]
            if out is None:
                out = np.empty((len(x),) + h.shape[1:], dtype=DTYPE)
            out[s:s + len(h)] = h
    except (ShapeError, IntervalOverflowError):
        _run_layers(net, x)  # a block may fail at a later slot than the batch
        raise
    return _run_layers(net, out, observe=observe, start=end)[0]


def predict(net: Network, x: np.ndarray) -> np.ndarray:
    return np.argmax(infer(net, x), axis=1)


# ---------------------------------------------------------------------------
# losses


def one_hot(y: np.ndarray, k: int) -> np.ndarray:
    """Rows of k weights, 1 at each integer label."""
    out = np.zeros((len(y), k), dtype=DTYPE)
    out[np.arange(len(y)), np.asarray(y, dtype=int)] = 1.0
    return out


def row_losses(logits: np.ndarray, target: np.ndarray, kind: str):
    """(loss of each row, each row's gradient of its own loss). Targets: int
    labels or rows of weights."""
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}; expected {LOSS_KINDS}")
    t = target if target.ndim == 2 else one_hot(target, logits.shape[1])
    if kind == "cross_entropy":
        z = logits - logits.max(axis=1, keepdims=True)
        logp = z - np.log(np.sum(np.exp(z), axis=1, keepdims=True))
        return -(t * logp).sum(axis=1), np.exp(logp) - t
    diff = logits - t
    return (diff ** 2).sum(axis=1), 2.0 * diff


def loss_and_logit_grad(logits: np.ndarray, target: np.ndarray, kind: str):
    """Scalar loss, the mean of the row losses, plus dL/dlogits."""
    rows, g = row_losses(logits, target, kind)
    return float(rows.mean()), g / logits.shape[0]


def _backprop(net: Network, x: np.ndarray, target: np.ndarray, kind: str,
              act_hook=None, input_grad=True):
    """Reverse pass. Without ``input_grad`` it stops at the first layer with
    parameters and asks that layer for its parameter gradients only; the
    layers below it have none, and dL/dx is not needed."""
    caches: list[np.ndarray] = []
    logits, adjust = _run_layers(net, x, act_hook, caches=caches)
    loss, g = loss_and_logit_grad(logits, target, kind)
    if not np.isfinite(loss):
        raise NonFiniteLossError(f"non-finite loss {loss!r}")
    grads: list[dict] = [{} for _ in net.layers]
    stop = 0
    if not input_grad:
        stop = next((i for i, l in enumerate(net.layers) if l.params()),
                    len(net.layers))
    for i in range(len(net.layers) - 1, stop - 1, -1):
        gy = g
        if i == stop and not input_grad:
            # positional, so wrappers that forward *args keep working
            g, pg = net.layers[i].backward(caches[i], g, False)
        else:
            g, pg = net.layers[i].backward(caches[i], g)
        if i in adjust:
            idx, f = adjust[i]
            g = _flat_add(g, idx, gy.reshape(-1)[idx] * f)
        grads[i] = pg
    return grads, g, loss, logits


def backward(net: Network, x: np.ndarray, target: np.ndarray,
             loss_kind: str = "cross_entropy", act_hook=None):
    """Gradients of the batch loss for every parameter.

    Returns ``(grads, loss)``; grads is a per-layer list of dicts whose
    entries match the layer's parameter shapes exactly. They are fresh
    arrays that ``sgd_step`` consumes: it may write the new parameters into
    them, and it never writes ``net``.
    """
    grads, _, loss, _ = _backprop(net, x, target, loss_kind, act_hook,
                                  input_grad=False)
    return grads, loss


def input_gradient(net: Network, x: np.ndarray, target: np.ndarray,
                   loss_kind: str = "cross_entropy"):
    """dL/dx, same shape as x. Used by gradient-guided input perturbation."""
    _, gx, loss, _ = _backprop(net, x, target, loss_kind)
    return gx, loss


# ---------------------------------------------------------------------------
# SGD with momentum and coupled L2 weight decay


@dataclass
class SgdState:
    """Optimizer hyperparameters plus velocity buffers.

    The step is the classic coupled form

        v <- momentum * v + (grad + weight_decay * W)
        W <- W - lr_t * v

    Decay enters through the gradient, so each step subtracts
    lr_t * weight_decay * W. That is the update induced by augmenting the
    batch loss with (lambda / (2 eta)) * ||W||^2 where lambda =
    lr_t * weight_decay; the per-step objective form and the coupled L2 form
    describe the same arithmetic. Decay applies to every parameter tensor,
    biases included.
    """

    lr: float
    momentum: float = 0.0
    weight_decay: float = 0.0
    milestones: tuple = ()
    gamma: float = 0.1
    epoch: int = 0
    velocities: dict = field(default_factory=dict)

    def lr_at(self, epoch: int) -> float:
        k = sum(1 for m in self.milestones if epoch >= m)
        return self.lr * self.gamma ** k

    def fresh(self) -> "SgdState":
        return SgdState(lr=self.lr, momentum=self.momentum,
                        weight_decay=self.weight_decay,
                        milestones=tuple(self.milestones), gamma=self.gamma)


SGD_BLOCK = 32_768  # values per block of sgd_step's scratch buffer


def sgd_step(net: Network, grads: list, state: SgdState) -> Network:
    """One optimizer step; returns a new network and never writes ``net``.
    The velocity buffers in ``state`` are updated in place.

    The gradients are consumed: each new parameter is written into the
    buffer of its gradient when that is a writeable, C-contiguous float64
    array of the parameter's shape that shares memory with no parameter of
    ``net``, no velocity and no other gradient, and into a fresh array
    otherwise. So a buffer passed in may become a parameter of the network
    returned, and a caller that keeps ``grads`` must not read them again.

    Each parameter streams in flat blocks of SGD_BLOCK values through one
    scratch buffer, with the roundings of the whole-array step:
    g + wd * w, then v * momentum + that (v = that on the first step),
    then w - eta * v."""
    eta = state.lr_at(state.epoch)
    scratch = np.empty(SGD_BLOCK, dtype=DTYPE)
    layers = list(net.layers)
    held = [w for layer in layers for w in layer.params().values()]
    held += state.velocities.values()
    given = [g for pg in grads for g in pg.values()]
    for i, layer in enumerate(layers):
        pg = grads[i]
        if not pg:
            continue
        new_params = {}
        for name, w in layer.params().items():
            key = (i, name)
            first = key not in state.velocities
            if first:  # the state owns its buffers from the first step on
                state.velocities[key] = np.empty(w.shape, dtype=DTYPE)
            g = pg[name]
            # each block of g is read before its new value is written
            own = (g.dtype == DTYPE and g.shape == w.shape
                   and g.flags.c_contiguous and g.flags.writeable
                   and not any(np.may_share_memory(g, h) for h in held)
                   and sum(np.may_share_memory(g, h) for h in given) == 1)
            new = g if own else np.empty(w.shape, dtype=DTYPE)
            w_flat, g_flat = w.reshape(-1), g.reshape(-1)
            v_flat = state.velocities[key].reshape(-1)
            new_flat = new.reshape(-1)
            for s in range(0, w.size, SGD_BLOCK):
                blk = slice(s, s + SGD_BLOCK)
                v = v_flat[blk]
                t = scratch[:len(v)]
                np.multiply(w_flat[blk], state.weight_decay, out=t)
                np.add(g_flat[blk], t, out=t)
                if first:
                    v[...] = t
                else:
                    v *= state.momentum
                    v += t
                np.multiply(v, eta, out=t)
                np.subtract(w_flat[blk], t, out=new_flat[blk])
            new_params[name] = new
        layers[i] = layer.with_params(new_params)
    return replace(net, layers=tuple(layers))


# ---------------------------------------------------------------------------
# builders


def build_mlp(input_shape, hidden, n_classes, seed=0) -> Network:
    """Fully connected ReLU net; flattens multi-axis inputs first."""
    rng = derive_rng(seed, "init")
    input_shape = tuple(int(s) for s in (
        input_shape if hasattr(input_shape, "__len__") else (input_shape,)))
    layers: list = []
    if len(input_shape) > 1:
        layers.append(Flatten())
    fan_in = int(np.prod(input_shape))
    for h in hidden:
        w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(h, fan_in))
        layers.append(Dense(W=w, b=np.zeros(h, dtype=DTYPE)))
        layers.append(Activation(ExactReLU()))
        fan_in = h
    w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(n_classes, fan_in))
    layers.append(Dense(W=w, b=np.zeros(n_classes, dtype=DTYPE)))
    return Network(tuple(layers), input_shape, n_classes)


def parse_arch(arch: str) -> tuple:
    """(kind, widths, dense widths) of 'mlp:256,256' (hidden widths) or
    'cnn:6,12' or 'cnn:6,12+32' (conv channels + dense hidden widths)."""
    kind, _, rest = arch.partition(":")
    if kind not in ("mlp", "cnn"):
        raise ValueError(f"unknown architecture kind {kind!r} in {arch!r}")
    try:
        parts = rest.partition("+")[::2] if kind == "cnn" else (rest, "")
        widths, dense = (tuple(int(s) for s in p.split(",") if s)
                         for p in parts)
        if min(widths + dense, default=1) < 1 or kind == "cnn" and not widths:
            raise ValueError("widths must be integers >= 1, and a cnn needs "
                             "a conv channel")
    except ValueError as exc:
        raise ValueError(f"bad architecture string {arch!r}: {exc}") from exc
    return kind, widths, dense


def build_arch(arch: str, input_shape, n_classes, seed: int = 0) -> Network:
    """Build the network that parse_arch reads from arch."""
    kind, widths, dense = parse_arch(arch)
    try:
        if kind == "mlp":
            return build_mlp(input_shape, widths, n_classes, seed)
        return build_cnn(input_shape, widths, n_classes, seed,
                         dense_hidden=dense)
    except ValueError as exc:
        raise ValueError(f"bad architecture string {arch!r}: {exc}") from exc


def build_cnn(input_shape, conv_channels, n_classes, seed=0,
              kernel=5, pool=2, dense_hidden=()) -> Network:
    """Conv/ReLU/AvgPool stack followed by dense layers."""
    rng = derive_rng(seed, "init")
    if len(input_shape) != 3:
        raise ValueError(f"a cnn needs [C, H, W] samples, got sample shape "
                         f"{tuple(input_shape)}")
    c, h, w = (int(s) for s in input_shape)
    layers: list = []
    for f in conv_channels:
        fan_in = c * kernel * kernel
        k = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(f, c, kernel, kernel))
        layers.append(Conv2d(kernel=k, b=np.zeros(f, dtype=DTYPE)))
        layers.append(Activation(ExactReLU()))
        layers.append(AvgPool(pool))
        c, h, w = f, (h - kernel + 1) // pool, (w - kernel + 1) // pool
        if h <= 0 or w <= 0:
            raise ValueError("input too small for the conv stack")
    layers.append(Flatten())
    fan_in = c * h * w
    for units in dense_hidden:
        wd = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(units, fan_in))
        layers.append(Dense(W=wd, b=np.zeros(units, dtype=DTYPE)))
        layers.append(Activation(ExactReLU()))
        fan_in = units
    wd = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(n_classes, fan_in))
    layers.append(Dense(W=wd, b=np.zeros(n_classes, dtype=DTYPE)))
    return Network(tuple(layers), tuple(int(s) for s in input_shape), n_classes)


# ---------------------------------------------------------------------------
# checkpoints: JSON container, raw little-endian float64 payloads


CHECKPOINT_VERSION = 1
_PANN = "a PANN is stored as a backbone checkpoint plus a pann descriptor"


def _enc(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(a, dtype=DTYPE)
    return {"shape": list(a.shape),
            "data": base64.b64encode(a.astype("<f8").tobytes()).decode()}


def _dec(d: dict) -> np.ndarray:
    raw = base64.b64decode(d["data"])
    a = np.frombuffer(raw, dtype="<f8").astype(DTYPE)
    expected = int(np.prod(d["shape"])) if d["shape"] else 1
    if a.size != expected:
        raise ValueError(
            f"tensor payload holds {a.size} values, shape {d['shape']} "
            f"needs {expected}")
    if not np.isfinite(a).all():
        raise ValueError("tensor payload holds a NaN or infinite value")
    return a.reshape(d["shape"])


def network_to_dict(net: Network) -> dict:
    """The checkpoint of a backbone; a slot whose mode is not ExactReLU
    raises ValueError, since no checkpoint may hold one."""
    layers = []
    for i, layer in enumerate(net.layers):
        kind = LAYER_KINDS[type(layer)]
        entry: dict = {"kind": kind}
        if isinstance(layer, Dense):
            entry["W"], entry["b"] = _enc(layer.W), _enc(layer.b)
        elif isinstance(layer, Conv2d):
            entry["kernel"], entry["b"] = _enc(layer.kernel), _enc(layer.b)
            entry["padding"] = "valid"
        elif isinstance(layer, AvgPool):
            entry["size"] = layer.size
        elif isinstance(layer, Activation):
            if not isinstance(layer.mode, ExactReLU):
                raise ValueError(f"layers[{i}]: runs {layer.mode!r}; {_PANN}")
            entry["mode"] = layer.mode.descriptor()
        layers.append(entry)
    return {"format": "pannkit-checkpoint", "version": CHECKPOINT_VERSION,
            "input_shape": list(net.input_shape), "n_classes": net.n_classes,
            "layers": layers}


MAX_INPUT_SIZE = 1 << 24


def network_from_dict(doc: dict) -> Network:
    """The checkpoint's network, run once on a zero input to check that its
    layers fit together (so a sample holds at most MAX_INPUT_SIZE values). A
    malformed checkpoint raises ValueError naming the field: ``input_shape``,
    ``layers[i]``, ..."""
    if not isinstance(doc, dict) or doc.get("format") != "pannkit-checkpoint":
        raise ValueError("format: not a pannkit checkpoint")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"version: unsupported checkpoint version "
                         f"{doc.get('version')!r}")
    shape, n_classes = doc.get("input_shape"), doc.get("n_classes")
    if not isinstance(shape, list) or not shape or not all(
            type(n) is int and n >= 1 for n in shape) or \
            math.prod(shape) > MAX_INPUT_SIZE:
        raise ValueError(f"input_shape: expected a list of positive "
                         f"integers, at most {MAX_INPUT_SIZE} values in all, "
                         f"got {shape!r}")
    if type(n_classes) is not int or n_classes < 1:
        raise ValueError(f"n_classes: expected a positive integer, got "
                         f"{n_classes!r}")
    if not isinstance(doc.get("layers"), list):
        raise ValueError("layers: expected a list")
    layers: list = []
    h = np.zeros((1, *shape), dtype=DTYPE)
    for i, entry in enumerate(doc["layers"]):
        with field_errors(f"layers[{i}]"):
            layers.append(_layer_from_dict(entry))
            h = layers[-1].forward(h)
    if h.shape != (1, n_classes):
        raise ValueError(f"n_classes: the layers output shape {h.shape[1:]}, "
                         f"not ({n_classes},)")
    return Network(tuple(layers), tuple(shape), n_classes)


def _layer_from_dict(entry: dict):
    kind = entry["kind"]
    if kind == "dense":
        return Dense(W=_dec(entry["W"]), b=_dec(entry["b"]))
    if kind == "conv2d":
        if entry.get("padding", "valid") != "valid":
            raise ValueError(f"padding: expected 'valid', got "
                             f"{entry['padding']!r}")
        return Conv2d(kernel=_dec(entry["kernel"]), b=_dec(entry["b"]))
    if kind == "avgpool":
        return AvgPool(entry["size"])
    if kind == "flatten":
        return Flatten()
    if kind == "activation":
        if entry["mode"]["kind"] != "exact_relu":
            raise ValueError(f"mode: {entry['mode']['kind']!r} is not an "
                             f"exact ReLU; {_PANN}")
        return Activation(ExactReLU())
    raise ValueError(f"unknown layer kind {kind!r}")
