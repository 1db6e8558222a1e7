import functools

import pytest

import toricbsato.bsato as bsato


@pytest.fixture(autouse=True, scope="session")
def _groebner_self_check():
    """Every Groebner run that goes through ``bsato.groebner_basis`` (the
    elimination and the b-function driver) re-verifies its basis without a
    cap: inputs and all S-polynomials of the output reduce to zero."""
    groebner_basis = bsato.groebner_basis

    @functools.wraps(groebner_basis)
    def checked(gens, pack=None):
        gb = groebner_basis(gens, pack)
        bsato.verify_groebner_basis(gens, gb)
        return gb

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bsato, "groebner_basis", checked)
        yield
