"""The operator-composition oracle for the curvature of a lambda-connection lift.

It applies dbar(t) and D(t) to a test section literally, term by term, using
only ``wedge``, ``dbar``, ``del_op`` and the lift's ``a``/``b`` series, so it
stays independent of ``integrability_residuals`` and its closed formula.
"""

from twistorsec.torus_forms import MatrixForm, dbar, del_op, wedge


def composition_residuals(lift, u, up_to):
    """t-coefficients 0..up_to of (dbar(t) D(t) + D(t) dbar(t)) u for a
    function u."""
    # D(t) u
    v = [wedge(a, u) for a in lift.a]
    v[1] = v[1] + del_op(u)
    # dbar(t) (D(t) u)
    first = []
    for k in range(up_to + 1):
        acc = dbar(v[k])
        for i in range(1, k + 1):
            acc = acc + wedge(lift.b[i], v[k - i])
        first.append(acc)
    # dbar(t) u
    w = [wedge(b, u) for b in lift.b]
    w[0] = w[0] + dbar(u)
    # D(t) (dbar(t) u)
    second = []
    for k in range(up_to + 1):
        acc = MatrixForm.zero(lift.rank, (1, 1))
        for i in range(k + 1):
            acc = acc + wedge(lift.a[i], w[k - i])
        if k >= 1:
            acc = acc + del_op(w[k - 1])
        second.append(acc)
    return [a + b for a, b in zip(first, second)]
