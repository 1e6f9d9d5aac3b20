"""Every argument check in the library raises its own type with its own message.

One row per `raise` that no other test reaches: the call, the exception
type and the exact message.  Two rows pin the field check of a
composition, with one message: `RationalFunction.compose` reaches the one
in the Horner loop `_compose_over`, and `mobius_conjugate` makes its own,
of phi's field against sigma's, before its one `_compose_over` call.
Not listed, because it cannot be reached:
`_tame_places`' affine `WildRamification` (geometry.py).  A wild affine
place of index e has Wronskian order >= e >= p, and `squarefree_decompose`
refuses every multiplicity >= p with `WildInput` before that loop runs.
"""

import pytest

from corrforms.errors import FieldMismatch, InseparableMap, NormalizationRequired
from corrforms.field import GF, QQ, FpElement
from corrforms.geometry import DifferentialForm, Divisor, MobiusTransform, RationalMap, mobius_conjugate
from corrforms.invariance import Correspondence, affine_conductor_guard, flat_form_weight1
from corrforms.poly import Polynomial, _compose_over, squarefree_decompose
from corrforms.ratfunc import RationalFunction
from corrforms.serialize import scalar_str
from corrforms.sweep import chebyshev, decompose_power_pair

from conftest import fp, qp

T = Polynomial.variable(QQ)
ZERO = Polynomial.zero(QQ)
INV_T = RationalFunction(qp(1), T)
ZERO_RF = RationalFunction(ZERO)


def _rational_pair():
    return Correspondence(INV_T, RationalFunction(T))


CASES = {
    "fp_pow_float": (lambda: FpElement(2, 5) ** 1.5, TypeError, "exponent must be an int"),
    "qq_scalar_float": (lambda: QQ.scalar(1.5), FieldMismatch, "cannot interpret float as a rational"),
    "fp_raw_float": (lambda: GF(5).raw(1.5), FieldMismatch, "cannot interpret float as an F_5 element"),
    "map_of_str": (
        lambda: RationalMap("t"), TypeError, "a RationalMap wraps a RationalFunction or Polynomial"
    ),
    "polynomial_of_1_over_t": (
        lambda: RationalMap(INV_T).polynomial, ValueError, "(1)/(t) is not a polynomial map"
    ),
    "form_zero_coeff": (
        lambda: DifferentialForm(ZERO_RF, 1), ValueError, "differential form coefficient must be nonzero"
    ),
    "form_weight_0": (lambda: DifferentialForm(T, 0), ValueError, "weight must be a nonzero integer"),
    "divisor_wrong_field": (
        lambda: Divisor(QQ, [(fp(5, 0, 1), 1)]), FieldMismatch, "divisor component over the wrong field"
    ),
    "divisor_add_fields": (
        lambda: Divisor(QQ, [(T, 1)]) + Divisor(GF(5), [(fp(5, 0, 1), 1)]),
        FieldMismatch,
        "cannot add divisors over different fields",
    ),
    "inseparable_sigma1": (
        lambda: Correspondence(fp(5, 1, 0, 0, 0, 0, 1), fp(5, 0, 1)),
        InseparableMap,
        "sigma1 = t^5 + 1 is inseparable",
    ),
    "guard_rational_pair": (
        lambda: affine_conductor_guard(_rational_pair(), flat_form_weight1(QQ, 0)),
        NormalizationRequired,
        "guard is stated for polynomial maps",
    ),
    "leading_of_zero": (lambda: ZERO.leading, ValueError, "zero polynomial has no leading coefficient"),
    "hasse_order_negative": (
        lambda: T.hasse_derivative(-1), ValueError, "Hasse derivative order must be nonnegative"
    ),
    "monic_of_zero": (lambda: ZERO.monic(), ValueError, "the zero polynomial cannot be made monic"),
    "compose_across_fields": (
        lambda: RationalFunction(fp(7, 0, 0, 1), fp(7, 1, 1)).compose(INV_T),
        FieldMismatch,
        "cannot mix GF(7) and QQ",
    ),
    "mobius_conjugate_across_fields": (
        lambda: mobius_conjugate(RationalMap(T**3 + T), MobiusTransform(GF(7), 1, 2, 0, 1)),
        FieldMismatch,
        "cannot mix GF(7) and QQ",
    ),
    "compose_order_below_degree": (
        lambda: _compose_over(T, qp(1), [(T**2, 1)]), ValueError, "order must be at least deg(poly)"
    ),
    "squarefree_of_zero": (
        lambda: squarefree_decompose(ZERO), ValueError, "cannot squarefree-decompose the zero polynomial"
    ),
    "ratfunc_of_int": (lambda: RationalFunction(1), TypeError, "num must be a Polynomial"),
    "constant_value_of_t": (
        lambda: RationalFunction(T).constant_value(), ValueError, "t is not constant"
    ),
    "divide_by_zero": (
        lambda: RationalFunction(T) / ZERO_RF, ZeroDivisionError, "division by the zero function"
    ),
    "ratfunc_pow_float": (lambda: RationalFunction(T) ** 1.5, ValueError, "exponent must be an int"),
    "zero_negative_power": (lambda: ZERO_RF**-1, ZeroDivisionError, "0 has no negative powers"),
    "scalar_str_float": (lambda: scalar_str(1.5), TypeError, "not a scalar: 1.5"),
    "power_pair_of_ratfunc": (
        lambda: decompose_power_pair(RationalFunction(T), T), TypeError, "sigma1 must be a Polynomial"
    ),
    "power_pair_of_constant": (
        lambda: decompose_power_pair(qp(3), T), ValueError, "sigma1 must be nonconstant"
    ),
    "chebyshev_negative": (lambda: chebyshev(-1), ValueError, "d must be a nonnegative integer"),
}


@pytest.mark.parametrize("case", CASES)
def test_argument_check_raises_its_message(case):
    call, kind, message = CASES[case]
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind
    assert str(info.value) == message
