"""Swap a trained backbone's exact ReLUs for approximate activation modes.

The transform never touches the source network: it returns a copy whose
activation slots carry new mode objects. Modes are recorded (descriptors),
so the swap is reversible and a transformed network can be reconstructed
bit-identically from its descriptor plus the backbone checkpoint.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .fixedpoint import FixedPointFormat, TruncatedReLU
from .polyapprox import (CompositeSgnApprox, Polynomial, approx_from_json,
                         approx_to_json, build_appsgn, check_injection,
                         _filter_mask, _injection_errors)

OVERFLOW_POLICIES = ("clamp_to_B", "widen_and_recertify", "error")


class IntervalOverflowError(RuntimeError):
    """A pre-activation left [-B, B] under the error policy."""


@dataclass
class IntervalPolicy:
    """What to do when a pre-activation falls outside the certified [-B, B].

    clamp_to_B clips the sign-approximant argument and counts the clipped
    entries; widen_and_recertify rebuilds the approximant with B set to 1.2x
    the worst offender and certifies it again; error aborts deterministically.
    """

    overflow: str = "clamp_to_B"

    def __post_init__(self):
        if self.overflow not in OVERFLOW_POLICIES:
            raise ValueError(f"overflow must be one of {OVERFLOW_POLICIES}")


class CompositeReLU:
    """Certified smooth ReLU: (z + z * appsgn(z)) / 2 with interval policy."""

    name = "composite_relu"

    def __init__(self, approx: CompositeSgnApprox,
                 policy: IntervalPolicy | None = None):
        if not approx.certificate.passed:
            raise ValueError("refusing an uncertified sign approximant")
        self.approx = approx
        self.policy = policy or IntervalPolicy()
        self.clamped = 0
        self.recertifications = 0
        self.total = 0

    def _admit(self, z: np.ndarray) -> np.ndarray:
        b = self.approx.bound
        over = np.abs(z) > b
        self.total += int(np.prod(z.shape))
        if not over.any():
            return z
        if self.policy.overflow == "error":
            worst = float(np.max(np.abs(z)))
            raise IntervalOverflowError(
                f"|z| reached {worst:.6g} > certified bound {b:.6g}")
        if self.policy.overflow == "widen_and_recertify":
            from .polyapprox import build_appsgn
            new_b = 1.2 * float(np.max(np.abs(z)))
            ratio = self.approx.eps0 / self.approx.bound
            self.approx = build_appsgn(
                self.approx.beta, eps0=ratio * new_b, bound=new_b,
                max_stage_degree=self.approx.max_stage_degree)
            self.recertifications += 1
            return z
        self.clamped += int(np.count_nonzero(over))
        return np.clip(z, -b, b)

    def clamp_fraction(self) -> float:
        return self.clamped / self.total if self.total else 0.0

    def apply(self, z: np.ndarray) -> np.ndarray:
        zc = self._admit(z)  # may widen self.approx; read it afterwards
        s = self.approx.eval(zc)
        return (z + z * s) / 2.0

    def grad(self, z: np.ndarray) -> np.ndarray:
        zc = self._admit(z)
        s, ds = self.approx.eval_with_derivative(zc)
        inside = (np.abs(z) <= self.approx.bound).astype(np.float64)
        return (1.0 + s + z * ds * inside) / 2.0

    def descriptor(self) -> dict:
        return {"kind": "composite_relu", "policy": self.policy.overflow,
                "approx": approx_to_json(self.approx)}

    def with_slot(self, index: int) -> "CompositeReLU":
        return CompositeReLU(self.approx, IntervalPolicy(self.policy.overflow))

    def __repr__(self):
        return (f"CompositeReLU(beta={self.approx.beta}, "
                f"B={self.approx.bound:.4g}, {self.policy.overflow})")


class InjectedReLU:
    """ReLU plus seeded, bounded error e * z / 2 with |e| <= 2^-beta.

    Errors are drawn once per activation unit (the trailing axes of z) and
    shared across the leading batch axis, so the perturbed net is a fixed
    function of its input: batched and single-sample evaluation agree, and
    the objective of any optimizer probing this mode is well defined.
    """

    name = "injected_relu"

    def __init__(self, beta: int, sign_filter: str = "all",
                 mode: str = "uniform_random", seed: int = 0,
                 slot: int = 0):
        check_injection(sign_filter, mode)
        self.beta = int(beta)
        self.sign_filter = sign_filter
        self.mode = mode
        self.seed = int(seed)
        self.slot = int(slot)

    def _errors(self, shape) -> np.ndarray:
        # per-slot label keeps layers on independent draws of one seed
        unit = _injection_errors(shape[1:], self.beta, self.mode,
                                 self.seed * 100_003 + self.slot)
        return np.broadcast_to(unit, shape)

    def apply(self, z: np.ndarray) -> np.ndarray:
        e = self._errors(z.shape)
        mask = _filter_mask(z, self.sign_filter)
        return np.maximum(z, 0.0) + np.where(mask, e * z / 2.0, 0.0)

    def grad(self, z: np.ndarray) -> np.ndarray:
        e = self._errors(z.shape)
        mask = _filter_mask(z, self.sign_filter)
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

    With binarized=True the slot runs exactly one branch (c must be 0 or 1),
    which keeps the c=1 case bit-identical to the backbone.
    """

    name = "partial_replace_relu"

    def __init__(self, p: Polynomial | None = None, c: float = 0.5,
                 binarized: bool = False):
        self.p = p if p is not None else default_quadratic_replacement()
        self.c = float(c)
        self.binarized = bool(binarized)
        if not 0.0 <= self.c <= 1.0:
            raise ValueError("c must lie in [0, 1]")
        if self.binarized and self.c not in (0.0, 1.0):
            raise ValueError("binarized slots need c in {0, 1}")

    def apply(self, z: np.ndarray) -> np.ndarray:
        if self.binarized:
            return np.maximum(z, 0.0) if self.c == 1.0 else self.p(z)
        return self.c * np.maximum(z, 0.0) + (1.0 - self.c) * self.p(z)

    def grad(self, z: np.ndarray) -> np.ndarray:
        dp = self.p.derivative()
        if self.binarized:
            return (z > 0).astype(np.float64) if self.c == 1.0 else dp(z)
        return self.c * (z > 0) + (1.0 - self.c) * dp(z)

    def descriptor(self) -> dict:
        return {"kind": "partial_replace_relu",
                "coeffs": [f"{v:.17g}" for v in self.p.coeffs],
                "c": self.c, "binarized": self.binarized}

    def with_slot(self, index: int) -> "PartialReplaceReLU":
        return self

    def __repr__(self):
        return f"PartialReplaceReLU(c={self.c}, binarized={self.binarized})"


def replacement_error(g_val, p_val, c: float, binarized_choice: str):
    """Error committed by binarizing the mixed slot.

    Rounding the mix to the true ReLU leaves (1-c)(g - p); rounding to the
    polynomial leaves c(p - g).
    """
    g_val = np.asarray(g_val, dtype=np.float64)
    p_val = np.asarray(p_val, dtype=np.float64)
    if binarized_choice == "g":
        out = (1.0 - c) * (g_val - p_val)
    elif binarized_choice == "p":
        out = c * (p_val - g_val)
    else:
        raise ValueError("binarized_choice must be 'g' or 'p'")
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# the transform itself


def transform(net: nn.Network, mode, slots=None) -> nn.Network:
    """Return a copy of net with activation slots running ``mode``.

    slots: activation indices (positions among the network's activation
    slots, 0-based) to replace; default all. Approximate modes must be
    installed over exact ReLUs, i.e. transforms start from the backbone;
    installing ExactReLU is always allowed and restores the backbone.
    """
    act_indices = net.activation_indices()
    chosen = set(range(len(act_indices))) if slots is None else set(slots)
    bad = chosen - set(range(len(act_indices)))
    if bad:
        raise ValueError(f"no such activation slots: {sorted(bad)}")
    restoring = isinstance(mode, nn.ExactReLU)
    out = net
    for slot_pos, layer_idx in enumerate(act_indices):
        if slot_pos not in chosen:
            continue
        current = net.layers[layer_idx].mode
        if not restoring and not isinstance(current, nn.ExactReLU):
            raise ValueError(
                f"slot {slot_pos} already runs {current!r}; transform from "
                "the exact-ReLU backbone")
        new_mode = mode.with_slot(slot_pos) if hasattr(mode, "with_slot") \
            else mode
        out = out.replace_layer(layer_idx, nn.Activation(new_mode))
    return out


def build_composite_pann(net: nn.Network, calib_x: np.ndarray, beta: int, *,
                         safety: float = 1.2, overflow: str = "clamp_to_B",
                         max_stage_degree: int = 15,
                         grid_points: int = 100_000) -> nn.Network:
    """Calibrate the interval on calib_x, certify an approximant for it, and
    install the smooth ReLU in every activation slot."""
    bound = calibrate_bound(net, calib_x, safety=safety)
    approx = build_appsgn(beta=beta, bound=bound,
                          max_stage_degree=max_stage_degree,
                          grid_points=grid_points)
    return transform(net, CompositeReLU(approx, IntervalPolicy(overflow)))


def calibrate_bound(net: nn.Network, x: np.ndarray, safety: float = 1.2,
                    batch: int = 512) -> float:
    """B = safety * max |pre-activation| over the given inputs."""
    worst = 0.0
    for i in range(0, x.shape[0], batch):
        _, trace = nn.forward(net, x[i:i + batch])
        for z in trace:
            worst = max(worst, float(np.max(np.abs(z))))
    if worst == 0.0:
        raise ValueError("calibration inputs produced all-zero activations")
    return safety * worst


# ---------------------------------------------------------------------------
# descriptors: reconstruct a transformed network from its backbone


def pann_descriptor(net: nn.Network) -> dict:
    """Per-slot mode descriptors for a transformed network."""
    slots = []
    for slot_pos, layer_idx in enumerate(net.activation_indices()):
        slots.append(net.layers[layer_idx].mode.descriptor())
    return {"format": "pannkit-pann-descriptor", "version": 1, "slots": slots}


def apply_descriptor(backbone: nn.Network, desc: dict) -> nn.Network:
    """The backbone with each activation slot rebuilt from the descriptor.

    Composite slots are re-certified, each distinct approximant once. A
    malformed descriptor, an approximant that fails re-certification, or a
    slot count that does not match the backbone's activation layers raises
    ValueError naming ``slots[i]``.
    """
    if not isinstance(desc, dict) or \
            desc.get("format") != "pannkit-pann-descriptor":
        raise ValueError("not a pann descriptor")
    slots = desc.get("slots")
    acts = backbone.activation_indices()
    if not isinstance(slots, list) or len(slots) != len(acts):
        raise ValueError(f"slots: expected a list of {len(acts)} slot "
                         "descriptors, one per activation layer")
    out = backbone
    certified = {}
    for slot_pos, (slot, layer_idx) in enumerate(zip(slots, acts)):
        try:
            if isinstance(slot, dict) and slot.get("kind") == "composite_relu":
                mode = _composite_from_descriptor(slot, certified)
            else:
                mode = nn.mode_from_descriptor(slot)
        except KeyError as exc:
            raise ValueError(f"slots[{slot_pos}]: missing field {exc}") \
                from exc
        except (AttributeError, ArithmeticError, TypeError,
                ValueError) as exc:
            # AttributeError: an object expected (a slot or its approx)
            # holds some other JSON type; ArithmeticError: an integer field
            # holds Infinity or 1e400
            raise ValueError(f"slots[{slot_pos}]: {exc}") from exc
        out = out.replace_layer(layer_idx, nn.Activation(mode))
    return out


def save_pann_descriptor(net: nn.Network, path) -> None:
    with open(path, "w") as fh:
        json.dump(pann_descriptor(net), fh)


def _composite_from_descriptor(d: dict, certified: dict) -> CompositeReLU:
    """A composite slot with its approximant re-certified, unless
    ``certified`` (approximant JSON -> approximant) already holds it."""
    key = json.dumps(d["approx"], sort_keys=True)
    if key not in certified:
        certified[key] = approx_from_json(d["approx"], recertify=True)
    return CompositeReLU(certified[key], IntervalPolicy(d["policy"]))


def _injected_from_descriptor(d: dict) -> InjectedReLU:
    return InjectedReLU(d["beta"], d["sign_filter"], d["mode"], d["seed"],
                        slot=d.get("slot", 0))


def _partial_from_descriptor(d: dict) -> PartialReplaceReLU:
    return PartialReplaceReLU(Polynomial(tuple(float(c) for c in d["coeffs"])),
                              c=d["c"], binarized=d["binarized"])


def _truncated_from_descriptor(d: dict) -> TruncatedReLU:
    return TruncatedReLU(FixedPointFormat(d["total_bits"]))


nn.register_mode("composite_relu",
                 lambda d: _composite_from_descriptor(d, {}))
nn.register_mode("injected_relu", _injected_from_descriptor)
nn.register_mode("partial_replace_relu", _partial_from_descriptor)
nn.register_mode("truncated_relu", _truncated_from_descriptor)
