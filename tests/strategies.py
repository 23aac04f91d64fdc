"""Test data that more than one test module reads: the seed, and one KINDS
row per corpus kind, from which the per-kind tables and the case list CASES
are derived. test_corpus_names_sorted asserts that KINDS names the corpus,
so a new kind cannot skip the tests that read it."""

from hypothesis import strategies as st

SEED = 20260808

LEVEL = st.floats(1e-150, 1e150)
ANY = st.floats(-1e300, 1e300)
UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
SINE = st.tuples(LEVEL, UNIT).map(lambda au: (au[0], au[0] * au[1]))

#: name: (representative params, the spatial Hoelder constant at them,
#: params inside the builder's domain). The constant is read off the formula
#: at the kind's exponent: b for the sines, 1 for the root, |hi - lo| / width
#: for the ramp. A drawn param may still round onto the domain's edge.
KINDS = {
    "constant": ([2.0], 0.0, st.tuples(LEVEL)),
    "smooth-sin": ([2.0, 1.0], 1.0, SINE),
    "time-smooth": ([2.0, 1.0], 1.0, SINE),
    "holder-root": ([1.0, 1.0, 0.5, 0.0], 1.0, st.tuples(LEVEL, LEVEL, UNIT, ANY)),
    "step-mollified": ([1.0, 2.0, 0.0, 0.5], 2.0,
                       st.tuples(LEVEL, LEVEL, ANY, st.floats(5e-324, 1e300))),
}
CORPUS_PARAMS = {name: params for name, (params, _, _) in KINDS.items()}
HOLDER_CONST = {name: const for name, (_, const, _) in KINDS.items()}
INSIDE = {name: inside for name, (_, _, inside) in KINDS.items()}
#: (name, params) of every kind at its params, and of holder-root at beta 0.3
#: and 0.6 too; in KINDS order, and by params within a kind
CASES = sorted([*CORPUS_PARAMS.items(), ("holder-root", [1.0, 1.0, 0.3, 0.0]),
                ("holder-root", [1.0, 1.0, 0.6, 0.0])],
               key=lambda case: (list(KINDS).index(case[0]), case[1]))
