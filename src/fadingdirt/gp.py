"""Finite-alphabet Gelfand-Pinsker machinery.

A problem instance fixes a state prior, a channel kernel W(y|x,s), and an
auxiliary alphabet size; the encoder strategy is a conditional law p(u|s)
plus a deterministic map x(u,s) (standard sufficiency for the GP problem).
The objective I(Y;U) - I(U;S) is evaluated exactly from the induced joint
law; it is maximized by alternating ascent (a Blahut-Arimoto-style
minorize-maximize step on p(u|s) interleaved with greedy reselection of
x(u,s)), with tiny instances brute-forced as an independent oracle.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AscentNotMonotone,
    DegenerateAtoms,
    InstanceTooLarge,
    MalformedAssignment,
    NonFinite,
    SpecInvalid,
    malformed,
)
from .fading import _frozen_array, seeded_rng

_ROW_TOL = 1e-12
_LOG_FLOOR = 1e-300
_MAX_ITERS = 2000  # ascent steps per restart
_CHUNK = 1024  # grid points or restarts per `_objective` call: _CHUNK * |U| * |Y| floats


@dataclass(frozen=True)
class GPInstance:
    states: tuple
    prior: tuple
    inputs: tuple
    aux_size: int
    outputs: tuple
    kernel: tuple  # nested (nx, ns, ny) probability table W(y | x, s)

    def __post_init__(self):
        pr = _frozen_array(self.prior)
        W = _frozen_array(self.kernel)
        if not (np.isfinite(pr).all() and np.isfinite(W).all()):
            raise NonFinite("state prior and kernel entries must be finite")
        if len(self.states) != len(self.prior) or len(self.states) == 0:
            raise SpecInvalid("state alphabet and prior sizes differ")
        if self.aux_size < 1:
            raise SpecInvalid("aux_size must be >= 1")
        if np.any(pr < 0) or abs(pr.sum() - 1.0) > _ROW_TOL:
            raise SpecInvalid("state prior is not a probability vector")
        if W.shape != (len(self.inputs), len(self.states), len(self.outputs)):
            raise SpecInvalid(f"kernel shape {W.shape} does not match alphabets")
        if np.any(W < 0) or np.max(np.abs(W.sum(axis=2) - 1.0)) > _ROW_TOL:
            raise SpecInvalid("kernel rows must sum to 1")
        object.__setattr__(self, "_kernel_array", W)
        object.__setattr__(self, "_prior_array", pr)

    @property
    def kernel_array(self):
        return self._kernel_array

    @property
    def prior_array(self):
        return self._prior_array

    def to_json(self):
        return {
            "states": list(self.states),
            "prior": list(self.prior),
            "inputs": list(self.inputs),
            "aux_size": self.aux_size,
            "outputs": [list(y) if isinstance(y, tuple) else y for y in self.outputs],
            "kernel": self.kernel_array.tolist(),
        }

    @staticmethod
    def from_json(obj):
        """Instance from a JSON object or its text (str or bytes); a missing
        key, a value of the wrong type, bad JSON or bad UTF-8 raises
        SpecInvalid.  Other keys, such as the `rcsi` flag of older instance
        files, are ignored."""
        with malformed("GP instance"):
            if isinstance(obj, (str, bytes)):
                obj = json.loads(obj)
            outputs = tuple(tuple(y) if isinstance(y, list) else y for y in obj["outputs"])
            kernel = tuple(tuple(tuple(row) for row in plane) for plane in obj["kernel"])
            return GPInstance(
                states=tuple(obj["states"]),
                prior=tuple(obj["prior"]),
                inputs=tuple(obj["inputs"]),
                aux_size=int(obj["aux_size"]),
                outputs=outputs,
                kernel=kernel,
            )


def _coerce_assignment(inst, p_u_given_s, x_of_us):
    nu, ns, nx = inst.aux_size, len(inst.states), len(inst.inputs)
    p = np.asarray(p_u_given_s, dtype=float)
    if p.shape != (nu, ns):
        raise MalformedAssignment(f"p(u|s) must have shape {(nu, ns)}, got {p.shape}")
    if np.any(p < -_ROW_TOL) or np.max(np.abs(p.sum(axis=0) - 1.0)) > 1e-9:
        raise MalformedAssignment("p(u|s) columns must be probability vectors")
    x = np.asarray(x_of_us)
    if x.shape != (nu, ns):
        raise MalformedAssignment(f"x(u,s) must have shape {(nu, ns)}")
    x = x.astype(int)
    if np.any(x < 0) or np.any(x >= nx):
        raise MalformedAssignment("x(u,s) value outside the input alphabet")
    return np.clip(p, 0.0, None), x


def _joint(inst, p, x):
    """The laws p(u,s) and p(u,y) induced by (p(u|s), x(u,s)); p and x may
    carry leading batch axes, and so do the laws."""
    p_su = p * inst.prior_array
    Wp = inst.kernel_array[x, np.arange(len(inst.states)), :]  # (..., nu, ns, ny)
    return p_su, np.einsum("...us,...usy->...uy", p_su, Wp)


def _mi(joint, ma, mb):
    """Mutual information in bits of each joint law over the last two axes."""
    ratio = np.divide(joint, ma[..., :, None] * mb[..., None, :],
                      out=np.ones_like(joint), where=joint > 0)
    return np.sum(joint * np.log2(ratio), axis=(-2, -1))


def _objective(inst, p_su, p_uy):
    """Exact I(Y;U) - I(U;S) in bits of the joint laws from `_joint`, one
    value per leading batch index."""
    p_u = p_su.sum(axis=-1)
    return _mi(p_uy, p_u, p_uy.sum(axis=-2)) - _mi(p_su, p_u, inst.prior_array)


def evaluate_assignment(inst: GPInstance, p_u_given_s, x_of_us) -> float:
    p, x = _coerce_assignment(inst, p_u_given_s, x_of_us)
    return float(_objective(inst, *_joint(inst, p, x)))


def optimize_alternating(inst: GPInstance, restarts: int = 32, seed: int = 0,
                         tol: float = 1e-10):
    """Coordinate ascent over (p(u|s), x(u,s)); returns (value, (p, x)).

    The p-step is a softmax minorize-maximize update (monotone); the x-step
    greedily reselects each deterministic input against the current reverse
    channel.  Restart r starts from `seeded_rng(seed, r)`; the restarts
    ascend together, `_CHUNK` at a time.  Best value over the restarts wins,
    lowest restart index on ties, so the result depends only on
    (restarts, seed, tol).
    """
    if restarts < 1 or not tol > 0:
        raise SpecInvalid("need restarts >= 1 and tol > 0")
    nu, ns = inst.aux_size, len(inst.states)
    best_val, best_asg = -math.inf, None
    for lo in range(0, restarts, _CHUNK):
        rngs = [seeded_rng(seed, r) for r in range(lo, min(lo + _CHUNK, restarts))]
        p = np.stack([rng.dirichlet(np.ones(nu), size=ns).T for rng in rngs])
        x = np.stack([rng.integers(0, len(inst.inputs), size=(nu, ns)) for rng in rngs])
        vals = _ascend(inst, p, x, tol, lo)
        for i, val in enumerate(vals.tolist()):
            if val > best_val + 1e-15:
                best_val, best_asg = val, (p[i], x[i])
    return best_val, best_asg


def _ascend(inst, p, x, tol, first):
    """Ascend the restarts `first`, `first` + 1, ... from their starts
    (p, x) of shape (R, |U|, |S|), in place, one step of every live restart
    per `_objective` call; a restart stops once its step gains less than
    `tol` or after `_MAX_ITERS` steps.  Returns the final values."""
    W = inst.kernel_array
    p_su, p_uy = _joint(inst, p, x)
    vals = _objective(inst, p_su, p_uy)
    live, lowered = np.arange(len(p)), []
    for _ in range(_MAX_ITERS):
        if not live.size:
            break
        q = p_uy / np.maximum(p_uy.sum(axis=-2, keepdims=True), _LOG_FLOOR)
        logq = np.log(np.maximum(q, _LOG_FLOOR))
        # greedy x-step: per (u,s) pick the input maximizing E[log q(u|Y)]
        scores = np.einsum("xsy,ruy->rusx", W, logq)
        x_new = scores.argmax(axis=-1)
        # p-step: p(u|s) proportional to exp(E[log q(u|Y)]) at the new x
        t = scores.max(axis=-1)
        t -= t.max(axis=-2, keepdims=True)
        p_new = np.exp(t)
        p_new /= p_new.sum(axis=-2, keepdims=True)
        p_su, p_uy = _joint(inst, p_new, x_new)  # the one joint law of this step
        new, old = _objective(inst, p_su, p_uy), vals[live]
        p[live], x[live], vals[live] = p_new, x_new, new
        down = new < old - 1e-9
        lowered.extend(zip(live[down].tolist(), old[down].tolist(), new[down].tolist()))
        keep = ~down & ~(new - old < tol)
        live, p_uy = live[keep], p_uy[keep]
    if lowered:
        r, old, new = min(lowered)
        raise AscentNotMonotone(f"restart {first + r}: step lowered {old!r} to {new!r}")
    return vals


def optimize_exhaustive(inst: GPInstance, prob_grid: int = 11):
    """Brute-force oracle: all deterministic x(u,s) maps and all p(u|s) on a
    simplex grid of resolution 1/(prob_grid-1), scored `_CHUNK` grid points
    per call.  A point replaces the best so far only if it beats it by more
    than 1e-15, so the first optimum in enumeration order wins."""
    nu, ns, nx = inst.aux_size, len(inst.states), len(inst.inputs)
    if nu * ns > 6 or nx > 3 or prob_grid > 21 or prob_grid < 2:
        raise InstanceTooLarge(
            f"exhaustive search limited to |U||S| <= 6, |X| <= 3, grid <= 21")
    steps = prob_grid - 1
    col = np.array([np.bincount(c, minlength=nu) for c in
                    itertools.combinations_with_replacement(range(nu), steps)]) / steps
    # every column choice, the last state's fastest: (points, nu, ns)
    grid = col[np.indices((len(col),) * ns).reshape(ns, -1).T].transpose(0, 2, 1)
    best_val, best_asg = -math.inf, None
    for xs in itertools.product(range(nx), repeat=nu * ns):
        x = np.asarray(xs, dtype=int).reshape(nu, ns)
        for lo in range(0, len(grid), _CHUNK):
            vals = _objective(inst, *_joint(inst, grid[lo:lo + _CHUNK], x))
            i = 0  # each later point that beats the best so far by the slack, as a scan would
            while (hits := np.flatnonzero(vals[i:] > best_val + 1e-15)).size:
                i += hits[0]
                best_val, best_asg = float(vals[i]), (grid[lo + i], x)
                i += 1
    return best_val, best_asg


def binary_nonoise_instance(a_atoms, rcsi: bool = True, aux_size: int = 4) -> GPInstance:
    """Noise-free adder Y = X + A*S with X, S uniform binary symbols.

    With receiver side information the output symbol is the pair (x + a*s, a);
    without it the fading is averaged into the kernel.
    """
    atoms = [(float(a), float(p)) for a, p in a_atoms]
    for a, p in atoms:
        if not (math.isfinite(a) and math.isfinite(p)):
            raise NonFinite(f"fading atom {[a, p]!r} is not finite")
    vals = [a for a, _ in atoms]
    if len(set(vals)) != len(vals) or any(a == 0.0 for a in vals):
        raise DegenerateAtoms("fading atoms must be distinct and non-zero")
    if any(p < 0 for _, p in atoms) or abs(sum(p for _, p in atoms) - 1.0) > _ROW_TOL:
        raise DegenerateAtoms("atom masses must form a probability vector")
    xs = (-1.0, 1.0)
    ss = (-1.0, 1.0)

    def key(v):
        return round(v, 12)

    if rcsi:
        out = sorted({(key(x + a * s), key(a)) for x in xs for s in ss for a in vals})
    else:
        out = sorted({key(x + a * s) for x in xs for s in ss for a in vals})
    index = {y: i for i, y in enumerate(out)}
    W = np.zeros((2, 2, len(out)))
    for ix, x in enumerate(xs):
        for i_s, s in enumerate(ss):
            for a, p in atoms:
                y = (key(x + a * s), key(a)) if rcsi else key(x + a * s)
                W[ix, i_s, index[y]] += p
    return GPInstance(
        states=ss,
        prior=(0.5, 0.5),
        inputs=xs,
        aux_size=aux_size,
        outputs=tuple(out),
        kernel=tuple(tuple(tuple(row) for row in plane) for plane in W),
    )
