"""Test data that more than one test module reads: the seed, one parameter
set per corpus kind, and the hypothesis strategies that draw params."""

from hypothesis import strategies as st

SEED = 20260808

#: representative parameters for every corpus entry; a test asserts that its
#: keys are the corpus, so a new kind cannot skip the tests that read it
CORPUS_PARAMS = {
    "constant": [2.0],
    "smooth-sin": [2.0, 1.0],
    "time-smooth": [2.0, 1.0],
    "holder-root": [1.0, 1.0, 0.5, 0.0],
    "step-mollified": [1.0, 2.0, 0.0, 0.5],
}

#: the spatial Hoelder constant of each CORPUS_PARAMS entry at its exponent,
#: read off the formula: b for the sines, 1 for the root, |hi - lo| / width
#: for the ramp
HOLDER_CONST = {
    "constant": 0.0,
    "smooth-sin": 1.0,
    "time-smooth": 1.0,
    "holder-root": 1.0,
    "step-mollified": 2.0,
}

LEVEL = st.floats(1e-150, 1e150)
ANY = st.floats(-1e300, 1e300)
UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
SINE = st.tuples(LEVEL, UNIT).map(lambda au: (au[0], au[0] * au[1]))
#: params inside each builder's domain (a draw may still round onto its edge)
INSIDE = {
    "constant": st.tuples(LEVEL),
    "smooth-sin": SINE,
    "time-smooth": SINE,
    "holder-root": st.tuples(LEVEL, LEVEL, UNIT, ANY),
    "step-mollified": st.tuples(LEVEL, LEVEL, ANY, st.floats(5e-324, 1e300)),
}
