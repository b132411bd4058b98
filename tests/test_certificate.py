"""The Certificate record: its terms, its bound, and its sweep-row projection."""

import numpy as np
import pytest

from maskedlra import (
    Certificate,
    Diagonal,
    Diagonal3,
    ParameterError,
    emit,
    gen_planted,
    masked_cost,
    masked_tensor_lra,
    multiparty_partition,
    neq3_multiparty,
    nondet_cover,
    tensor_comparator,
    verify_nondet_bound,
    verify_tensor_bicriteria,
)
from maskedlra import harness
from maskedlra.harness import COLUMNS, ExperimentReport, load_rows

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
    inst = gen_planted("tensor3", harness.make_pattern("sparse-faces", 4, t=1), 4, 1, seed=0)
    with pytest.raises(ParameterError):
        verify_tensor_bicriteria(inst.A, inst.W, 1, 0.25)
