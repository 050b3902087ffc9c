import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fadingdirt.errors import (
    AscentNotMonotone,
    DegenerateAtoms,
    InstanceTooLarge,
    MalformedAssignment,
    SpecInvalid,
)
from fadingdirt import gp
from fadingdirt.fading import seeded_rng
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


def serial_alternating(inst, restarts, seed, tol=1e-10):
    """Reference ascent: the restarts one after another, each step on one
    (p, x) pair.  Returns (value, (p, x), ascent steps of each restart)."""
    W = inst.kernel_array
    nu, ns = inst.aux_size, len(inst.states)
    best_val, best_asg, steps = -math.inf, None, []
    for r in range(restarts):
        rng = seeded_rng(seed, r)
        p = rng.dirichlet(np.ones(nu), size=ns).T  # (nu, ns)
        x = rng.integers(0, len(inst.inputs), size=(nu, ns))
        p_su, p_uy = gp._joint(inst, p, x)
        val = float(gp._objective(inst, p_su, p_uy))
        for k in range(gp._MAX_ITERS):
            q = p_uy / np.maximum(p_uy.sum(axis=0), gp._LOG_FLOOR)
            logq = np.log(np.maximum(q, gp._LOG_FLOOR))
            scores = np.einsum("xsy,uy->usx", W, logq)
            x = scores.argmax(axis=2)
            t = scores.max(axis=2)
            t -= t.max(axis=0, keepdims=True)
            p = np.exp(t)
            p /= p.sum(axis=0, keepdims=True)
            p_su, p_uy = gp._joint(inst, p, x)
            new_val = float(gp._objective(inst, p_su, p_uy))
            if new_val < val - 1e-9:
                raise AscentNotMonotone(f"restart {r}: step lowered {val!r} to {new_val!r}")
            if new_val - val < tol:
                val = new_val
                break
            val = new_val
        steps.append(k + 1)
        if val > best_val + 1e-15:
            best_val, best_asg = val, (p, x)
    return best_val, best_asg, steps


BSC = GPInstance(states=(0,), prior=(1.0,), inputs=(0, 1), aux_size=2,
                 outputs=(0, 1), kernel=(((0.9, 0.1),), ((0.1, 0.9),)))


def aux3(atoms, rcsi):
    return binary_nonoise_instance(atoms, rcsi=rcsi, aux_size=3)


# (instance, grid, optimum, p(u|s) in grid steps, x(u,s)) as the point-by-point
# search found them before the oracle scored the grid in batches
PARENT_OPTIMA = {
    "bsc-grid11": (lambda: BSC, 11, 0.5310044064107189, [[5], [5]], [[0], [1]]),
    "atoms2-rcsi-aux2-grid11": (lambda: binary_nonoise_instance(ATOMS_2, aux_size=2), 11, 1.0,
                                [[5, 5], [5, 5]], [[0, 1], [1, 0]]),
    "atoms2-norcsi-aux2-grid11": (lambda: binary_nonoise_instance(ATOMS_2, rcsi=False, aux_size=2),
                                  11, 0.5, [[5, 5], [5, 5]], [[0, 0], [1, 1]]),
    "atoms3-rcsi-aux2-grid21": (lambda: binary_nonoise_instance(ATOMS_3, aux_size=2), 21, 1.0,
                                [[10, 10], [10, 10]], [[0, 1], [1, 0]]),
    "atoms2-rcsi-aux3-grid6": (lambda: aux3(ATOMS_2, True), 6, 0.9709505944546687,
                               [[0, 0], [3, 3], [2, 2]], [[0, 0], [0, 1], [1, 0]]),
    "atoms2-norcsi-aux3-grid6": (lambda: aux3(ATOMS_2, False), 6, 0.4854752972273343,
                                 [[3, 3], [0, 0], [2, 2]], [[0, 0], [0, 0], [1, 1]]),
    "atoms3-rcsi-aux3-grid6": (lambda: aux3(ATOMS_3, True), 6, 0.9709505944546687,
                               [[3, 0], [0, 3], [2, 2]], [[0, 0], [0, 1], [1, 0]]),
    "atoms3-norcsi-aux3-grid6": (lambda: aux3(ATOMS_3, False), 6, 0.6473003963031126,
                                 [[3, 0], [0, 3], [2, 2]], [[0, 0], [0, 1], [1, 0]]),
}
# the same at aux 3 and grid 11, keyed by (atoms, rcsi)
PARENT_AUX3_GRID11 = {
    "atoms2-rcsi": (ATOMS_2, True, 1.0, [[0, 0], [5, 5], [5, 5]], [[0, 0], [0, 1], [1, 0]]),
    "atoms2-norcsi": (ATOMS_2, False, 0.5, [[5, 5], [0, 0], [5, 5]], [[0, 0], [0, 0], [1, 1]]),
    "atoms3-rcsi": (ATOMS_3, True, 0.9999999999999998,
                    [[5, 0], [0, 5], [5, 5]], [[0, 0], [0, 1], [1, 0]]),
    "atoms3-norcsi": (ATOMS_3, False, 0.6666666666666665,
                      [[5, 0], [0, 5], [5, 5]], [[0, 0], [0, 1], [1, 0]]),
}


NOISELESS = GPInstance(states=(0,), prior=(1.0,), inputs=(0, 1), aux_size=2,
                       outputs=(0, 1), kernel=(((1.0, 0.0),), ((0.0, 1.0),)))
ATOMS_M112 = [(-1.0, 1 / 3), (1.0, 1 / 3), (2.0, 1 / 3)]
# the instances on which the batched ascent must match the serial reference bit for bit
ORACLE_INSTANCES = {
    **{f"{name}-{'rcsi' if rcsi else 'norcsi'}-aux{aux}":
       (lambda atoms=atoms, rcsi=rcsi, aux=aux: binary_nonoise_instance(atoms, rcsi, aux))
       for name, atoms in (("pm1", ATOMS_2), ("m112", ATOMS_M112))
       for rcsi in (True, False) for aux in (2, 3)},
    "bsc": lambda: BSC,
    "noiseless": lambda: NOISELESS,
}


def assert_same_result(got, want):
    val, (p, x) = got
    assert val == want[0]
    np.testing.assert_array_equal(p, want[1][0])
    np.testing.assert_array_equal(x, want[1][1])


def assert_optimum(result, grid, value, steps, x):
    val, (p, xm) = result
    assert val == pytest.approx(value, abs=1e-12)
    np.testing.assert_array_equal(p, np.array(steps) / (grid - 1))
    np.testing.assert_array_equal(xm, x)


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

    def test_dict_map_rejected(self):
        inst = binary_nonoise_instance(ATOMS_2)
        p, x = xs_assignment()
        xd = {(u, s): int(x[u, s]) for u in range(4) for s in range(2)}
        with pytest.raises(MalformedAssignment):
            evaluate_assignment(inst, p, xd)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_matches_independent_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        inst = binary_nonoise_instance(ATOMS_2, rcsi=bool(seed % 2))
        p = rng.dirichlet(np.ones(4), size=2).T
        x = rng.integers(0, 2, size=(4, 2))
        got = evaluate_assignment(inst, p, x)
        assert got == pytest.approx(brute_force_objective(inst, p, x), abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 9), st.booleans())
    def test_batch_matches_independent_brute_force(self, seed, batch, rcsi):
        rng = np.random.default_rng(seed)
        inst = binary_nonoise_instance(ATOMS_3, rcsi=rcsi)
        p = rng.dirichlet(np.ones(4), size=(batch, 2)).transpose(0, 2, 1)
        p[rng.random(p.shape) < 0.3] = 0.0  # grid points have empty cells
        p[:, 0, :] += p.sum(axis=1) == 0
        p /= p.sum(axis=1, keepdims=True)
        x = rng.integers(0, 2, size=(4, 2))
        got = gp._objective(inst, *gp._joint(inst, p, x))
        assert got.shape == (batch,)
        for value, row in zip(got, p):
            assert value == pytest.approx(brute_force_objective(inst, row, x), abs=1e-12)

    def test_malformed_assignment(self):
        inst = binary_nonoise_instance(ATOMS_2)
        with pytest.raises(MalformedAssignment, match=r"p\(u\|s\) must have shape"):
            evaluate_assignment(inst, np.full((2, 4), 0.5), np.zeros((4, 2), int))
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
        val, _ = optimize_alternating(NOISELESS, restarts=4, seed=0)
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

    @pytest.mark.parametrize("name", list(ORACLE_INSTANCES))
    def test_matches_serial_reference(self, name):
        inst = ORACLE_INSTANCES[name]()
        for seed in range(4):
            want = serial_alternating(inst, 8, seed)
            assert_same_result(optimize_alternating(inst, restarts=8, seed=seed), want)

    def test_chunk_size_does_not_change_result(self, monkeypatch):
        for inst in (aux3(ATOMS_M112, False), binary_nonoise_instance(ATOMS_2), BSC):
            want = serial_alternating(inst, 16, 3)
            for chunk in (1, 7, gp._CHUNK):
                monkeypatch.setattr(gp, "_CHUNK", chunk)
                assert_same_result(optimize_alternating(inst, restarts=16, seed=3), want)

    def test_one_objective_call_per_step_per_block(self, monkeypatch):
        inst = aux3(ATOMS_M112, False)
        *_, steps = serial_alternating(inst, 8, 1)
        assert len(set(steps)) > 1  # restarts stop at different steps
        batches = []
        objective = gp._objective

        def counted(inst, p_su, p_uy):
            batches.append(len(p_su))
            return objective(inst, p_su, p_uy)

        monkeypatch.setattr(gp, "_objective", counted)
        for chunk in (3, gp._CHUNK):
            monkeypatch.setattr(gp, "_CHUNK", chunk)
            batches.clear()
            optimize_alternating(inst, restarts=8, seed=1)
            blocks = [steps[lo:lo + chunk] for lo in range(0, 8, chunk)]
            # the initial call of each block, then one call per step of its longest restart
            assert len(batches) == sum(1 + max(block) for block in blocks)
            # each restart is scored once at its start and once per step it takes
            assert sum(batches) == sum(1 + k for k in steps)
        assert len(batches) < sum(1 + k for k in steps)  # fewer calls than the serial loop

    def test_lowest_failing_restart_is_named(self, monkeypatch):
        # restart 3 loses value at the first step, restart 1 at the second
        script = iter([[0.0] * 4, [1.0, 1.0, 1.0, -1.0], [1.0, 0.0, 1.0]])
        monkeypatch.setattr(gp, "_objective", lambda inst, p_su, p_uy: np.array(next(script)))
        with pytest.raises(AscentNotMonotone, match=r"^restart 1: step lowered 1\.0 to 0\.0$"):
            optimize_alternating(BSC, restarts=4, seed=0)

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

    @pytest.mark.parametrize("name", list(PARENT_OPTIMA))
    def test_parent_optimum_and_assignment(self, name):
        make, grid, *pinned = PARENT_OPTIMA[name]
        assert_optimum(optimize_exhaustive(make(), prob_grid=grid), grid, *pinned)

    def test_chunk_size_does_not_change_result(self, monkeypatch):
        for make, grid in ((lambda: aux3(ATOMS_2, True), 5), (lambda: aux3(ATOMS_3, False), 5),
                           (lambda: binary_nonoise_instance(ATOMS_3, aux_size=2), 11)):
            results = []
            for chunk in (1, 7, gp._CHUNK):
                monkeypatch.setattr(gp, "_CHUNK", chunk)
                results.append(optimize_exhaustive(make(), prob_grid=grid))
            for val, (p, x) in results[1:]:
                assert val == results[0][0]
                np.testing.assert_array_equal(p, results[0][1][0])
                np.testing.assert_array_equal(x, results[0][1][1])

    @pytest.mark.parametrize("name", list(PARENT_AUX3_GRID11))
    def test_aux3_grid11_one_call_per_chunk(self, monkeypatch, name):
        atoms, rcsi, *pinned = PARENT_AUX3_GRID11[name]
        calls = []
        objective = gp._objective

        def counted(inst, p_su, p_uy):
            calls.append(len(p_su))
            return objective(inst, p_su, p_uy)

        monkeypatch.setattr(gp, "_objective", counted)
        inst = aux3(atoms, rcsi)
        result = optimize_exhaustive(inst, prob_grid=11)
        assert_optimum(result, 11, *pinned)
        points = math.comb(10 + 2, 2) ** 2  # p(u|s) grid points per x-map
        assert sum(calls) == 2 ** 6 * points
        assert len(calls) == 2 ** 6 * math.ceil(points / gp._CHUNK)
        monkeypatch.setattr(gp, "_objective", objective)
        alt, _ = optimize_alternating(inst, restarts=32, seed=0)
        assert alt >= result[0] - 1e-6

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

    @pytest.mark.parametrize("rcsi", [True, False])
    def test_json_rcsi_key_still_loads(self, rcsi):
        # instance files once carried the receiver flag, which no solver read;
        # the kernel alone says what the receiver sees
        inst = binary_nonoise_instance(ATOMS_2, rcsi=rcsi)
        assert "rcsi" not in inst.to_json()
        assert GPInstance.from_json({**inst.to_json(), "rcsi": rcsi}) == inst
