"""The CLI exit-code contract holds for generated flag combinations.

Whatever the flags, ``riemann-lab`` exits 0 (success), 2 (usage error) or
3 (verify gap above tolerance), and never ends in a traceback.
"""

import contextlib
import io
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from riemannlab import cli
from riemannlab.quadrature import VARIANTS
from riemannlab.scenarios import THEOREM_KINDS, get_scenario, scenario_names

SCENARIOS = sorted(scenario_names()) + ["no.such.scenario"]
THEOREMS = [n for n in SCENARIOS[:-1] if get_scenario(n).kind in THEOREM_KINDS]
ONE_SIDED = [n for n in SCENARIOS[:-1] if n not in THEOREMS]
FITS = {"integrate": ONE_SIDED, "verify": THEOREMS, "converge": SCENARIOS[:-1]}
GAMMAS = [0.0, 0.5, 0.999999, -0.1, 1.0, math.nan, 1e-300]


@st.composite
def argv(draw):
    command = draw(st.sampled_from(["integrate", "verify", "converge"]))
    # Half the draws pick a scenario the command accepts, so that more of
    # them get past the usage checks into the sums.
    scenario = draw(
        st.one_of(st.sampled_from(FITS[command]), st.sampled_from(SCENARIOS))
    )
    args = [command, scenario]
    args.append("--variant=" + draw(st.sampled_from(VARIANTS)))
    if draw(st.booleans()):
        args.append(f"--k={draw(st.integers(-2, 50))}")
    else:
        schedule = draw(st.sampled_from(["pow:0.5", "pow:1.5", "log", "pow:x"]))
        args.append(f"--k-schedule={schedule}")
    args.append("--selector=" + draw(st.sampled_from(["prefix", "random", "largest"])))
    args.append("--tags=" + draw(st.sampled_from(["midpoint", "corner", "random"])))
    args.append(f"--gamma={draw(st.sampled_from(GAMMAS))!r}")
    args.append(f"--seed={draw(st.integers(-3, 2**70))}")
    if command == "converge":
        m_list = draw(st.lists(st.integers(-1, 8), max_size=5))
        args.append("--m-list=" + ",".join(map(str, m_list)))
    else:
        args.append(f"--m={draw(st.integers(-2, 8))}")
    if command != "integrate":
        boundary_m = draw(st.one_of(st.none(), st.integers(-1, 16)))
        if boundary_m is not None:
            args.append(f"--boundary-m={boundary_m}")
    return args


@settings(max_examples=400, derandomize=True, deadline=None)
@given(argv())
def test_exit_code_is_0_2_or_3_and_no_traceback(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(args)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 2, 3), (args, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
