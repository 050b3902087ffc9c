import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fadingdirt.errors import (
    DegenerateAtoms,
    InstanceTooLarge,
    MalformedAssignment,
    SpecInvalid,
)
from fadingdirt.gp import (
    GPInstance,
    binary_nonoise_instance,
    evaluate_assignment,
    optimize_alternating,
    optimize_exhaustive,
)

ATOMS_2 = [(-1.0, 0.5), (1.0, 0.5)]
ATOMS_3 = [(1.0, 1 / 3), (2.0, 1 / 3), (3.0, 1 / 3)]


def xs_assignment():
    """The product-of-symbols strategy: U = X*S with X uniform and
    independent of S, written in the solver's (p(u|s), x(u,s)) encoding."""
    p = np.zeros((4, 2))
    p[0, :] = 0.5  # u0 stands for U = -1
    p[1, :] = 0.5  # u1 stands for U = +1
    x = np.zeros((4, 2), dtype=int)
    x[0, 0], x[0, 1] = 1, 0  # x = u/s with alphabets ordered (-1, +1)
    x[1, 0], x[1, 1] = 0, 1
    return p, x


def brute_force_objective(inst, p, x):
    """Independent reference: accumulate the full joint over (u, s, y) with
    plain dict arithmetic, then sum I(Y;U) - I(U;S) term by term."""
    W = np.asarray(inst.kernel, dtype=float)
    joint = {}
    for u in range(inst.aux_size):
        for s in range(len(inst.states)):
            for y in range(len(inst.outputs)):
                pr = inst.prior[s] * p[u][s] * W[x[u][s], s, y]
                if pr > 0:
                    joint[(u, s, y)] = joint.get((u, s, y), 0.0) + pr
    p_u, p_y, p_s, p_uy, p_us = {}, {}, {}, {}, {}
    for (u, s, y), pr in joint.items():
        p_u[u] = p_u.get(u, 0.0) + pr
        p_y[y] = p_y.get(y, 0.0) + pr
        p_s[s] = p_s.get(s, 0.0) + pr
        p_uy[(u, y)] = p_uy.get((u, y), 0.0) + pr
        p_us[(u, s)] = p_us.get((u, s), 0.0) + pr
    i_yu = sum(pr * math.log2(pr / (p_u[u] * p_y[y])) for (u, y), pr in p_uy.items())
    i_us = sum(pr * math.log2(pr / (p_u[u] * p_s[s])) for (u, s), pr in p_us.items())
    return i_yu - i_us


def blahut_arimoto(W, iters=3000):
    """Reference capacity iteration for a plain channel W(y|x)."""
    nx = W.shape[0]
    r = np.full(nx, 1.0 / nx)
    for _ in range(iters):
        q = r[:, None] * W
        q /= np.maximum(q.sum(axis=0, keepdims=True), 1e-300)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.exp(np.sum(np.where(W > 0, W * np.log(np.maximum(q, 1e-300)), 0.0),
                              axis=1))
        r = t / t.sum()
    q = r[:, None] * W
    py = q.sum(axis=0)
    mask = q > 0
    return float(np.sum(q[mask] * np.log2(q[mask] / (r[:, None] * py[None, :])[mask])))


BSC = GPInstance(states=(0,), prior=(1.0,), inputs=(0, 1), aux_size=2,
                 outputs=(0, 1), kernel=(((0.9, 0.1),), ((0.1, 0.9),)))


class TestEvaluate:
    def test_product_strategy_is_one_bit(self):
        p, x = xs_assignment()
        assert evaluate_assignment(binary_nonoise_instance(ATOMS_2), p, x) == 1.0
        assert evaluate_assignment(binary_nonoise_instance(ATOMS_3), p, x) == 1.0

    def test_uninformative_assignment(self):
        inst = binary_nonoise_instance(ATOMS_2)
        p = np.full((4, 2), 0.25)
        x = np.zeros((4, 2), dtype=int)
        assert evaluate_assignment(inst, p, x) == pytest.approx(0.0, abs=1e-12)

    def test_cardinality_cap(self):
        inst = binary_nonoise_instance(ATOMS_2)
        p, x = xs_assignment()
        assert evaluate_assignment(inst, p, x) <= math.log2(inst.aux_size)

    def test_dict_map_accepted(self):
        inst = binary_nonoise_instance(ATOMS_2)
        p, x = xs_assignment()
        xd = {(u, s): int(x[u, s]) for u in range(4) for s in range(2)}
        assert evaluate_assignment(inst, p, xd) == 1.0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_matches_independent_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        inst = binary_nonoise_instance(ATOMS_2, rcsi=bool(seed % 2))
        p = rng.dirichlet(np.ones(4), size=2).T
        x = rng.integers(0, 2, size=(4, 2))
        got = evaluate_assignment(inst, p, x)
        assert got == pytest.approx(brute_force_objective(inst, p, x), abs=1e-12)

    def test_malformed_assignment(self):
        inst = binary_nonoise_instance(ATOMS_2)
        with pytest.raises(MalformedAssignment):
            evaluate_assignment(inst, np.full((4, 2), 0.5), np.zeros((4, 2), int))
        with pytest.raises(MalformedAssignment):
            p, x = xs_assignment()
            evaluate_assignment(inst, p, {(0, 0): 0})
        with pytest.raises(MalformedAssignment):
            p, x = xs_assignment()
            evaluate_assignment(inst, p, x + 5)


class TestAlternating:
    def test_binary_nonoise_reaches_one_bit(self):
        val, _ = optimize_alternating(binary_nonoise_instance(ATOMS_2),
                                      restarts=32, seed=0)
        assert val >= 1.0 - 1e-3

    def test_three_atom_reaches_one_bit(self):
        val, _ = optimize_alternating(binary_nonoise_instance(ATOMS_3),
                                      restarts=32, seed=0)
        assert val >= 1.0 - 1e-3

    def test_bsc_matches_reference_iteration(self):
        val, _ = optimize_alternating(BSC, restarts=8, seed=2)
        ref = blahut_arimoto(np.array([[0.9, 0.1], [0.1, 0.9]]))
        assert val == pytest.approx(ref, abs=1e-6)

    def test_noiseless_channel(self):
        det = GPInstance(states=(0,), prior=(1.0,), inputs=(0, 1), aux_size=2,
                         outputs=(0, 1), kernel=(((1.0, 0.0),), ((0.0, 1.0),)))
        val, _ = optimize_alternating(det, restarts=4, seed=0)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_deterministic_given_seed(self):
        inst = binary_nonoise_instance(ATOMS_2)
        a = optimize_alternating(inst, restarts=4, seed=9)
        b = optimize_alternating(inst, restarts=4, seed=9)
        assert a[0] == b[0]
        assert np.array_equal(a[1][1], b[1][1])

    def test_output_relabeling_invariance(self):
        perm = (1, 0)
        kernel = tuple(tuple(tuple(row[j] for j in perm) for row in plane)
                       for plane in BSC.kernel)
        flipped = GPInstance(states=(0,), prior=(1.0,), inputs=(0, 1), aux_size=2,
                             outputs=(1, 0), kernel=kernel)
        a, _ = optimize_alternating(BSC, restarts=8, seed=2)
        b, _ = optimize_alternating(flipped, restarts=8, seed=2)
        assert a == pytest.approx(b, abs=1e-8)

    def test_rejects_bad_args(self):
        with pytest.raises(SpecInvalid):
            optimize_alternating(BSC, restarts=0)
        with pytest.raises(SpecInvalid):
            optimize_alternating(BSC, tol=0.0)


class TestExhaustive:
    def test_binary_nonoise(self):
        inst = binary_nonoise_instance(ATOMS_2, aux_size=2)
        val, _ = optimize_exhaustive(inst, prob_grid=11)
        assert val >= 1.0 - 5e-2

    def test_bsc_capacity(self):
        val, _ = optimize_exhaustive(BSC, prob_grid=11)
        h2 = -0.1 * math.log2(0.1) - 0.9 * math.log2(0.9)
        assert val == pytest.approx(1.0 - h2, abs=2e-2)

    def test_alternating_at_least_exhaustive(self):
        inst = binary_nonoise_instance(ATOMS_2, aux_size=2)
        ex, _ = optimize_exhaustive(inst, prob_grid=11)
        alt, _ = optimize_alternating(inst, restarts=16, seed=0)
        assert alt >= ex - 1e-6

    def test_instance_too_large(self):
        with pytest.raises(InstanceTooLarge):
            optimize_exhaustive(binary_nonoise_instance(ATOMS_2, aux_size=4))
        with pytest.raises(InstanceTooLarge):
            optimize_exhaustive(BSC, prob_grid=50)


class TestInstance:
    def test_rcsi_output_alphabet(self):
        inst = binary_nonoise_instance(ATOMS_2, rcsi=True)
        for a in (-1.0, 1.0):
            for v in (-2.0, 0.0, 2.0):
                assert (v, a) in inst.outputs

    def test_single_atom_adder(self):
        inst = binary_nonoise_instance([(1.0, 1.0)])
        val, _ = optimize_alternating(inst, restarts=8, seed=1)
        assert val >= 1.0 - 1e-6  # binary adder with known state

    def test_degenerate_atoms(self):
        with pytest.raises(DegenerateAtoms):
            binary_nonoise_instance([(0.0, 0.5), (1.0, 0.5)])
        with pytest.raises(DegenerateAtoms):
            binary_nonoise_instance([(1.0, 0.5), (1.0, 0.5)])
        with pytest.raises(DegenerateAtoms):
            binary_nonoise_instance([(-1.0, 0.7), (1.0, 0.7)])

    def test_kernel_validation(self):
        with pytest.raises(SpecInvalid):
            GPInstance(states=(0,), prior=(1.0,), inputs=(0,), aux_size=1,
                       outputs=(0, 1), kernel=(((0.5, 0.6),),))
        with pytest.raises(SpecInvalid):
            GPInstance(states=(0,), prior=(0.9,), inputs=(0,), aux_size=1,
                       outputs=(0,), kernel=(((1.0,),),))

    def test_arrays_built_once_and_read_only(self):
        inst = binary_nonoise_instance(ATOMS_2)
        for name in ("kernel_array", "prior_array"):
            arr = getattr(inst, name)
            assert getattr(inst, name) is arr
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
        np.testing.assert_array_equal(inst.kernel_array, np.asarray(inst.kernel))
        np.testing.assert_array_equal(inst.prior_array, np.asarray(inst.prior))

    def test_json_round_trip(self):
        for inst in (binary_nonoise_instance(ATOMS_2, rcsi=True),
                     binary_nonoise_instance(ATOMS_3, rcsi=False), BSC):
            assert GPInstance.from_json(inst.to_json()) == inst

    def test_json_text_round_trip(self):
        import json
        inst = binary_nonoise_instance(ATOMS_2)
        assert GPInstance.from_json(json.dumps(inst.to_json())) == inst
