"""Hypothesis strategies that more than one test module draws from."""

from hypothesis import strategies as st

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
