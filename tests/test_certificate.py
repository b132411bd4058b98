"""The Certificate record: its terms, its bound, and its sweep-row projection."""

import numpy as np
import pytest

from maskedlra import (
    Banded,
    Certificate,
    Diagonal,
    Diagonal3,
    Explicit,
    LowRankFactor,
    ParameterError,
    ToeplitzModP,
    chain_inequality_check,
    emit,
    gen_planted,
    make_mask,
    masked_cost,
    masked_tensor_lra,
    multiparty_partition,
    neq3_multiparty,
    nondet_cover,
    sample_partition,
    tensor_comparator,
    verify_bicriteria,
    verify_nondet_bound,
    verify_structural_bicriteria,
    verify_tensor_bicriteria,
)
from maskedlra import harness, solver
from maskedlra.harness import COLUMNS, ExperimentReport, load_rows, sparse_pattern
from maskedlra.linalg import zero_factor

_CFG = harness.parse_config({"k": 2})
_CELLS = [("t1", 32, 0.25), ("t2", 32, 0.5), ("t3", 32, 0.25), ("t4", 32, 0.25), ("a2", 32, 0.25)]


def _in_order(terms):
    total = 0
    for _, coef, base in terms:
        total = total + coef * base
    return total


def _cell_instance(route, n, seed):
    pattern = harness.make_pattern(harness.ROUTES[route], n, t=_CFG["t"], p=_CFG["p"], seed=seed)
    return gen_planted("matrix", pattern, n, _CFG["k"], seed=seed)


def _tensor_cert(eps=0.25, noise=0.0):
    inst = gen_planted("tensor3", Diagonal3(), 8, 1, noise_sigma=noise, seed=0)
    return inst, verify_tensor_bicriteria(inst.A, inst.W, 1, eps, opt_upper=inst.opt_upper)


def _boolean_cert():
    cover = nondet_cover("neq-bits", 4)
    inst = gen_planted("boolean", Diagonal(), 4, 1, seed=2)
    return verify_nondet_bound(inst.A, inst.W, cover, 1, int(inst.opt_upper), inner="exhaustive")


@pytest.mark.parametrize("route, n, eps", _CELLS)
def test_matrix_certificate_terms(route, n, eps):
    cert = harness.certify_cell(route, n, eps, 1, _CFG)
    inst = _cell_instance(route, n, 1)
    M = inst.A * inst.W.bitmap
    opt = inst.opt_upper
    if route == "a2":
        want = [("opt_upper", 1.0, opt), ("eps2", eps, float(np.sum(inst.A * inst.A)))]
    else:
        eps1 = 0.0 if route == "t3" else 2 * eps  # eq-mod-p is a zero-error protocol
        want = [("opt_upper", 1.0, opt), ("eps1", eps1, float(np.sum(M * M)))]
    if route == "t4":
        off = inst.L_star.value() * (1 - inst.W.bitmap)
        want.append(("eps2", eps, float(np.sum(off * off))))
    assert list(cert.terms) == want
    assert cert.rhs == _in_order(cert.terms)
    assert cert.route == ("structural" if route == "a2" else "partition")


def test_tensor_certificate_terms():
    inst, cert = _tensor_cert()
    M = inst.A * inst.W.bitmap
    assert cert.terms == (
        ("eps1", 0.5, float(np.sum(M * M))),
        ("slack", 1e-6, float(np.sum(inst.A * inst.A))),
    )
    assert cert.rhs == _in_order(cert.terms)
    assert cert.route == "tensor" and cert.satisfied


def test_boolean_certificate_terms_stay_integers():
    cert = _boolean_cert()
    assert cert.terms == (("opt_upper", 4, cert.opt_upper),)
    assert cert.rhs == _in_order(cert.terms)
    assert isinstance(cert.rhs, int) and isinstance(cert.cost, int)
    assert (cert.route, cert.k_prime, cert.one_count) == ("boolean", 4, 4)


def test_coefficient_of_an_absent_term_is_zero():
    cert = Certificate("boolean", "x", 4, 1, 1, 0, 0, 0, (("opt_upper", 2, 3),), True)
    assert cert.coefficient("opt_upper") == 2
    assert cert.coefficient("eps1") == 0.0
    assert cert.rhs == 6


def test_every_projection_reads_back(tmp_path):
    certs = [harness.certify_cell(route, n, eps, 0, _CFG) for route, n, eps in _CELLS]
    certs += [_tensor_cert()[1], _boolean_cert()]
    report = ExperimentReport(rows=[harness._row(c) for c in certs])
    for fmt in ("csv", "json"):
        path = tmp_path / f"rows.{fmt}"
        emit(report, fmt, str(path))
        back = load_rows(str(path))
        assert len(back) == len(certs)
        for cert, row in zip(certs, back):
            want = harness._row(cert)
            assert {c: row[c] for c in COLUMNS} == {c: want[c] for c in COLUMNS}
            assert row["eps1"] == cert.coefficient("eps1")
            assert row["rhs"] == cert.rhs


@pytest.mark.parametrize("k", [1, 2])
def test_tensor_verifier_agrees_with_the_inline_bound(k):
    # criterion 07's instances and its inline bound
    eps = 0.25
    inst = gen_planted("tensor3", Diagonal3(), 16, k, seed=k)
    P = multiparty_partition(neq3_multiparty(16, eps), seed=0)
    comp = tensor_comparator(inst.A, inst.W, P, k, restarts=1, seed=0)
    F = masked_tensor_lra(inst.A, inst.W, comp.rank_bound, init=comp, seed=0)
    mass = float(np.sum((np.asarray(inst.A) * inst.W.bitmap) ** 2))
    bound = 2 * eps * mass + 1e-6 * float(np.sum(np.asarray(inst.A) ** 2))
    assert masked_cost(inst.A, inst.W, F) <= bound

    cert = verify_tensor_bicriteria(inst.A, inst.W, k, eps, seed=0)
    assert cert.rhs == bound
    assert cert.k_prime == comp.rank_bound
    assert cert.satisfied
    assert cert.cost <= cert.diagnostics["comparator_cost"] * (1 + 1e-9) + 1e-9


def test_tensor_tiny_eps_with_noise_fails():
    _, cert = _tensor_cert(eps=1e-4, noise=0.5)
    assert not cert.satisfied
    assert cert.cost > cert.rhs


def test_tensor_verifier_needs_diagonal3():
    # the route draws the mask pattern's own spec, which must be order-3
    inst = gen_planted("tensor3", harness.make_pattern("sparse-faces", 4, t=1), 4, 1, seed=0)
    cube = make_mask(Diagonal3(), 4).bitmap
    for W in (inst.W, cube, make_mask(Explicit(cube), 4), make_mask(Diagonal(), 4)):
        with pytest.raises(ParameterError):
            verify_tensor_bicriteria(inst.A, W, 1, 0.25)
    for n, delta in ((4, 0.25), (12, 1.0)):
        assert harness.make_pattern("diagonal3", n).spec(n, delta) == neq3_multiparty(n, delta)


# The bounds are homogeneous of degree 2 in A, so mapping A to c*A, opt_upper
# to c^2*opt_upper and the candidate to c times itself must keep every
# verdict. The tensor route is left out: its CP-ALS ridge is absolute.
_SCALES = (1e-8, 1e-4, 1e4)
# the instances of the negative tests: a dense Gaussian A with opt_upper = 0
_FAILING = {"t1": (Diagonal(), 2), "t2": (sparse_pattern(64, 2, 0), 1),
            "t3": (ToeplitzModP(4), 2), "t4": (Banded(2), 1)}
_SCALE_CASES = [f"{route}-fails" for route in _FAILING] + ["a2-fails-64", "a2-fails-128"] + [
    f"{route}-passes" for route in ("t1", "t2", "t3", "t4", "a2")]


def _scale_case(name):
    """(A, W, k, eps, opt_upper, candidate) of a case; candidate None means a2."""
    route, kind, *n = name.split("-")
    if route == "a2" and kind == "fails":
        # the identity under a cyclic-shift mask, as in test_structural
        n = int(n[0])
        B = np.ones((n, n), dtype=np.uint8)
        B[np.arange(n), (np.arange(n) + 1) % n] = 0
        return np.eye(n), make_mask(Explicit(B), n), 1, 0.5 if n == 64 else 0.25, 0.0, None
    if kind == "fails":
        pattern, k = _FAILING[route]
        A = np.random.default_rng(0).standard_normal((64, 64))
        return A, make_mask(pattern, 64), k, 0.25, 0.0, zero_factor(64, 64)
    inst = _cell_instance(route, 32, 1)
    L = None if route == "a2" else inst.L_star
    return inst.A, inst.W, _CFG["k"], 0.25, inst.opt_upper, L


def _scaled_verdict(case, c):
    A, W, k, eps, opt_upper, L = case
    if L is None:
        return verify_structural_bicriteria(c * A, W, k, eps, c * c * opt_upper).satisfied
    L = LowRankFactor(c * L.U, L.V, L.rank_bound)
    return verify_bicriteria(c * A, W, k, eps, opt_upper=c * c * opt_upper,
                             L_for_eps2=L).satisfied


@pytest.mark.parametrize("name", _SCALE_CASES)
def test_verdicts_are_invariant_under_scaling_A(name):
    case = _scale_case(name)
    for c in (1.0,) + _SCALES:
        assert _scaled_verdict(case, c) is name.endswith("passes"), c


@pytest.mark.parametrize("solver_loses", [False, True], ids=["exact", "zero-solver"])
@pytest.mark.parametrize("name", [n for n in _SCALE_CASES if not n.startswith("a2")])
def test_chain_check_is_invariant_under_scaling_A(monkeypatch, name, solver_loses):
    A, W, k, eps, _, _ = _scale_case(name)
    P = sample_partition(W.pattern.spec(W.n, eps), 1)
    if solver_loses:
        # the zero fit stands in for the exact solver and loses to the comparator
        monkeypatch.setattr(solver, "masked_lra", lambda A, W, k: zero_factor(*A.shape))
    for c in (1.0,) + _SCALES:
        assert chain_inequality_check(c * A, W, P, k) is not solver_loses, c
