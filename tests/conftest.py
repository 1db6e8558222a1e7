import functools

import pytest

import toricbsato.bsato as bsato


@pytest.fixture(autouse=True, scope="session")
def _groebner_self_check():
    """Every Groebner run that goes through ``bsato.groebner_basis`` (the
    elimination and the b-function driver) re-verifies its basis without a
    cap: inputs and all S-polynomials of the output reduce to zero.  The
    inputs are packed again if the fields widened during the run."""
    groebner_basis = bsato.groebner_basis

    @functools.wraps(groebner_basis)
    def checked(polys, pack):
        width = pack.width
        gb = groebner_basis(polys, pack)
        if pack.width != width:
            polys = [pack.recode(p, width) for p in polys]
        bsato.verify_groebner_basis(polys, gb, pack)
        return gb

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bsato, "groebner_basis", checked)
        yield
