"""Swap a trained backbone's exact ReLUs for approximate activation modes.

The transform never touches the source network: it returns a copy whose
activation slots all carry one new mode. Modes are recorded (descriptors),
so a transformed network can be reconstructed bit-identically from its
descriptor plus the backbone checkpoint. This is the one module that knows
how every mode is built, stored and rebuilt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .nn import IntervalOverflowError  # raised under the error policy
from .fixedpoint import FixedPointFormat, TruncatedReLU
from .polyapprox import (CompositeSgnApprox, Polynomial, approx_from_json,
                         approx_to_json, check_number)
from .seeding import derive_rng

OVERFLOW_POLICIES = ("clamp_to_B", "error")
SIGN_FILTERS = ("all", "neg_only", "pos_only")
INJECTION_MODES = ("uniform_random", "worst_case_fixed")


@dataclass
class IntervalPolicy:
    """What to do when a pre-activation falls outside the certified [-B, B].

    clamp_to_B clips the sign-approximant argument to +-B, where the chain
    reads s(+-1), which the certificate covers; error aborts
    deterministically. Every policy is a pure function of the batch it is
    given.
    """

    overflow: str = "clamp_to_B"

    def __post_init__(self):
        if self.overflow not in OVERFLOW_POLICIES:
            raise ValueError(f"overflow must be one of {OVERFLOW_POLICIES}, "
                             f"got {self.overflow!r}")


class CompositeReLU:
    """Certified smooth ReLU: (z + z * appsgn(z)) / 2 with interval policy.

    The mode never changes after construction.
    """

    def __init__(self, approx: CompositeSgnApprox,
                 policy: IntervalPolicy | None = None):
        self.approx = approx  # its construction demands a passing certificate
        self.policy = policy or IntervalPolicy()

    def _admit(self, z: np.ndarray) -> np.ndarray:
        """z as the chain reads it: clipped to the certified [-B, B]."""
        b = self.approx.bound
        if not (np.abs(z) > b).any():
            return z
        if self.policy.overflow == "error":
            worst = float(np.max(np.abs(z)))
            raise IntervalOverflowError(
                f"|z| reached {worst:.6g} > certified bound {b:.6g}")
        return np.clip(z, -b, b)

    def apply(self, z: np.ndarray) -> np.ndarray:
        zc = self._admit(z)
        s = self.approx.eval(zc)
        return (z + z * s) / 2.0

    def grad(self, z: np.ndarray) -> np.ndarray:
        zc = self._admit(z)
        s, ds = self.approx.eval_with_derivative(zc)
        # the chain's argument moves with z except where z is clipped to +-B
        inside = np.abs(z) <= self.approx.bound
        return (1.0 + s + z * ds * inside) / 2.0

    def descriptor(self) -> dict:
        return {"kind": "composite_relu", "policy": self.policy.overflow,
                "approx": approx_to_json(self.approx)}

    def __repr__(self):
        return (f"CompositeReLU(beta={self.approx.beta}, "
                f"B={self.approx.bound:.4g}, {self.policy.overflow})")


class InjectedReLU:
    """ReLU plus seeded, bounded error e * z / 2 with |e| <= 2^-beta: the
    noise model of an approximation, with no polynomial in it.

    Errors are drawn once per activation unit (the trailing axes of z) and
    shared across the leading batch axis, so the perturbed net is a fixed
    function of its input: batched and single-sample evaluation agree, and
    the objective of any optimizer probing this mode is well defined. The
    sign filter picks the inputs that carry the error: all, z < 0 or z > 0.
    """

    def __init__(self, beta: int, sign_filter: str = "all",
                 mode: str = "uniform_random", seed: int = 0,
                 slot: int = 0):
        if sign_filter not in SIGN_FILTERS:
            raise ValueError(f"sign_filter must be one of {SIGN_FILTERS}, "
                             f"got {sign_filter!r}")
        if mode not in INJECTION_MODES:
            raise ValueError(f"mode must be one of {INJECTION_MODES}, got "
                             f"{mode!r}")
        self.beta = int(check_number("beta", beta, 1, integer=True))
        self.sign_filter = sign_filter
        self.mode = mode
        self.seed = int(check_number("seed", seed, integer=True))
        self.slot = int(check_number("slot", slot, 0, integer=True))

    def _errors(self, shape) -> np.ndarray:
        # per-slot label keeps layers on independent draws of one seed
        rng = derive_rng(self.seed * 100_003 + self.slot, "inject")
        bound = 2.0 ** -self.beta
        if self.mode == "uniform_random":
            unit = rng.uniform(-bound, bound, size=shape[1:])
        else:
            g = rng.standard_normal(size=shape[1:])
            unit = np.where(g >= 0, bound, -bound)
        return np.broadcast_to(unit, shape)

    def _mask(self, z: np.ndarray) -> np.ndarray:
        if self.sign_filter == "all":
            return np.ones(z.shape, dtype=bool)
        return z < 0 if self.sign_filter == "neg_only" else z > 0

    def apply(self, z: np.ndarray) -> np.ndarray:
        # max(z, 0) + where(mask, e * z / 2, 0), built in one output
        # buffer plus one scratch array, with the same roundings
        out = np.multiply(self._errors(z.shape), z)
        np.divide(out, 2.0, out=out)
        if self.sign_filter != "all":
            np.copyto(out, 0.0, where=~self._mask(z))
        return np.add(np.maximum(z, 0.0), out, out=out)

    def grad(self, z: np.ndarray) -> np.ndarray:
        e = self._errors(z.shape)
        mask = self._mask(z)
        return (z > 0).astype(np.float64) + np.where(mask, e / 2.0, 0.0)

    def descriptor(self) -> dict:
        return {"kind": "injected_relu", "beta": self.beta,
                "sign_filter": self.sign_filter, "mode": self.mode,
                "seed": self.seed, "slot": self.slot}

    def with_slot(self, index: int) -> "InjectedReLU":
        return InjectedReLU(self.beta, self.sign_filter, self.mode,
                            self.seed, slot=index)

    def __repr__(self):
        return (f"InjectedReLU(beta={self.beta}, {self.sign_filter}, "
                f"{self.mode}, seed={self.seed}, slot={self.slot})")


def default_quadratic_replacement() -> Polynomial:
    """The stock low-degree ReLU stand-in 0.14 z^2 + 0.5 z + 0.28."""
    return Polynomial((0.28, 0.5, 0.14))


class PartialReplaceReLU:
    """Mix sigma(z) = c * relu(z) + (1 - c) * p(z).

    At c = 0 or 1 the slot runs only the branch it keeps, so the c=1 case is
    bit-identical to the backbone even where p(z) overflows.
    """

    def __init__(self, p: Polynomial | None = None, c: float = 0.5):
        self.p = p if p is not None else default_quadratic_replacement()
        self.dp = self.p.derivative  # whose coefficients must be finite too
        self.c = float(check_number("c", c, 0.0, 1.0))

    def apply(self, z: np.ndarray) -> np.ndarray:
        if self.c in (0.0, 1.0):
            return np.maximum(z, 0.0) if self.c else self.p(z)
        return self.c * np.maximum(z, 0.0) + (1.0 - self.c) * self.p(z)

    def grad(self, z: np.ndarray) -> np.ndarray:
        if self.c in (0.0, 1.0):
            return (z > 0).astype(np.float64) if self.c else self.dp(z)
        return self.c * (z > 0) + (1.0 - self.c) * self.dp(z)

    def descriptor(self) -> dict:
        return {"kind": "partial_replace_relu",
                "coeffs": [f"{v:.17g}" for v in self.p.coeffs], "c": self.c}

    def __repr__(self):
        return f"PartialReplaceReLU(c={self.c})"


# ---------------------------------------------------------------------------
# the transform itself


def transform(net: nn.Network, mode) -> nn.Network:
    """Return a copy of the backbone net with every activation slot running
    ``mode``. A slot that already runs another mode raises ValueError:
    transforms start from the exact-ReLU backbone."""
    out = net
    for slot_pos, layer_idx in enumerate(net.activation_indices()):
        current = net.layers[layer_idx].mode
        if not isinstance(current, nn.ExactReLU):
            raise ValueError(
                f"slot {slot_pos} already runs {current!r}; transform from "
                "the exact-ReLU backbone")
        new_mode = mode.with_slot(slot_pos) if hasattr(mode, "with_slot") \
            else mode
        out = out.replace_layer(layer_idx, nn.Activation(new_mode))
    return out


def calibrate_bound(net: nn.Network, x: np.ndarray,
                    safety: float = 1.2) -> float:
    """B = safety * max |pre-activation| over the given inputs. Raises
    ValueError when that peak is zero or not finite."""
    peaks = [0.0]
    # a non-finite peak is refused below, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, x.shape[0], 512):  # Dense bytes depend on rows
            nn.infer(net, x[i:i + 512],
                     lambda _, z: peaks.append(float(np.max(np.abs(z)))))
    worst = float(np.max(peaks))  # NaN-propagating, unlike max()
    if worst == 0.0 or not np.isfinite(worst):
        raise ValueError(f"calibration inputs produced activations peaking "
                         f"at {worst}; a bound needs a finite, nonzero peak")
    return safety * worst


# ---------------------------------------------------------------------------
# descriptors: reconstruct a transformed network from its backbone


def pann_descriptor(net: nn.Network) -> dict:
    """Per-slot mode descriptors for a transformed network."""
    slots = [net.layers[i].mode.descriptor()
             for i in net.activation_indices()]
    return {"format": "pannkit-pann-descriptor", "version": 1, "slots": slots}


def apply_descriptor(backbone: nn.Network, desc: dict) -> nn.Network:
    """The backbone with each activation slot rebuilt from the descriptor
    by the MODES factory of its kind.

    Composite slots are re-certified, each distinct chain once per process.
    A malformed descriptor, an approximant that fails re-certification, or a
    slot count that does not match the backbone's activation layers raises
    ValueError naming ``slots[i]``.
    """
    if not isinstance(desc, dict) or \
            desc.get("format") != "pannkit-pann-descriptor":
        raise ValueError("not a pann descriptor")
    if desc.get("version") != 1:
        raise ValueError(f"version: unsupported pann descriptor version "
                         f"{desc.get('version')!r}")
    slots = desc.get("slots")
    acts = backbone.activation_indices()
    if not isinstance(slots, list) or len(slots) != len(acts):
        raise ValueError(f"slots: expected a list of {len(acts)} slot "
                         "descriptors, one per activation layer")
    out = backbone
    for slot_pos, (slot, layer_idx) in enumerate(zip(slots, acts)):
        with nn.field_errors(f"slots[{slot_pos}]"):
            kind = slot.get("kind")
            if kind not in MODES:
                raise ValueError(f"unknown activation mode kind: {kind!r}")
            mode = MODES[kind](slot)
        out = out.replace_layer(layer_idx, nn.Activation(mode))
    return out


# slot descriptor kind -> the mode it describes; exact_relu is here because
# a descriptor of the backbone (transform --mode exact) holds exact slots
MODES = {
    "exact_relu": lambda d: nn.ExactReLU(),
    "composite_relu": lambda d: CompositeReLU(approx_from_json(d["approx"]),
                                              IntervalPolicy(d["policy"])),
    "injected_relu": lambda d: InjectedReLU(
        d["beta"], d["sign_filter"], d["mode"], d["seed"],
        slot=d.get("slot", 0)),
    "partial_replace_relu": lambda d: PartialReplaceReLU(
        Polynomial(tuple(d["coeffs"])), c=d["c"]),
    "truncated_relu": lambda d: TruncatedReLU(
        FixedPointFormat(d["total_bits"])),
}
