import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import exchange_path, h4_rectangle
from sortlet_vmc.geometry import (
    BOHR_PER_ANGSTROM,
    ConfigError,
    SystemSpec,
    load_system,
    parse_config,
    transpose_electrons,
)

LI_CFG = """
system:
  nuclei:
    - element: Li
      xyz: [0.0, 0.0, 0.0]
"""

H_CFG = """
system:
  nuclei:
    - element: H
      xyz: [0.0, 0.0, 0.0]
"""


def test_li_atom_defaults():
    sys = load_system(LI_CFG)
    assert sys.n_nuclei == 1
    assert sys.charges.tolist() == [3]
    assert (sys.n_up, sys.n_down) == (2, 1)
    assert sys.spins.tolist() == [1, 1, -1]


def test_h_atom_defaults():
    sys = load_system(H_CFG)
    assert (sys.n_up, sys.n_down) == (1, 0)
    assert sys.n_electrons == 1


def test_charge_in_place_of_element():
    sys = load_system("""
system:
  nuclei:
    - charge: 4
      xyz: [0, 0, 0]
""")
    assert sys.charges.tolist() == [4]
    assert (sys.n_up, sys.n_down) == (2, 2)


def test_electron_override_for_ions():
    sys = load_system(LI_CFG + """
electrons:
  n_up: 1
  n_down: 1
""")
    assert (sys.n_up, sys.n_down) == (1, 1)


def test_seed_and_potential_roundtrip():
    cfg = parse_config(H_CFG + """
run:
  seed: 11
  potential: harmonic
""")
    assert cfg.run.seed == 11
    assert cfg.run.potential == "harmonic"
    # defaults
    cfg = parse_config(H_CFG)
    assert cfg.run.seed == 0
    assert cfg.run.potential == "coulomb"


@pytest.mark.parametrize("snippet,field", [
    ("system:\n  nuclei:\n    - element: Xx\n      xyz: [0,0,0]\n", "element"),
    ("system:\n  nuclei:\n    - element: H\n      xyz: [0,0]\n", "xyz"),
    ("system:\n  nuclei:\n    - element: H\n      charge: 1\n      xyz: [0,0,0]\n", "nuclei[0]"),
    ("system:\n  nuclei:\n    - element: H\n      xyz: [0,0,0]\n      extra: 1\n", "extra"),
    (H_CFG + "run:\n  seed: -3\n", "seed"),
    (H_CFG + "run:\n  potential: morse\n", "potential"),
    (H_CFG + "electrons:\n  n_up: 1\n", "electrons"),
    (H_CFG + "bogus: {}\n", "bogus"),
    ("system: {}\n", "nuclei"),
    ("[]", "<document>"),
    ("system:\n  nuclei:\n    - charge: true\n      xyz: [0,0,0]\n", "charge"),
    ("system:\n  nuclei:\n    - element: H\n      xyz: [true,0,0]\n", "xyz"),
    (H_CFG + "run:\n  seed: true\n", "seed"),
    (H_CFG + "electrons:\n  n_up: true\n  n_down: false\n", "n_up"),
    (H_CFG + "electrons:\n  n_up: 1\n  n_down: false\n", "n_down"),
    ("system:\n  nuclei:\n    - element: [H]\n      xyz: [0,0,0]\n", "element"),
    (H_CFG + "electrons: false\n", "electrons"),
    (H_CFG + "run: []\n", "run"),
    (H_CFG + "run:\n  potential: {coulomb: 1}\n", "potential"),
    ("system:\n  nuclei:\n    - charge: 100000000000000000000\n      xyz: [0,0,0]\n"
     "electrons:\n  n_up: 1\n  n_down: 0\n", "system"),
], ids=["bad-element", "short-xyz", "element-and-charge", "unknown-nucleus-key",
        "negative-seed", "unknown-potential", "half-override", "unknown-top-key",
        "missing-nuclei", "non-mapping", "bool-charge", "bool-xyz", "bool-seed",
        "bool-n_up", "bool-n_down", "list-element", "bool-electrons", "list-run",
        "mapping-potential", "charge-past-int64"])
def test_rejects_bad_configs(snippet, field):
    with pytest.raises(ConfigError) as exc:
        parse_config(snippet)
    assert field in str(exc.value)


def test_rejects_coincident_nuclei():
    with pytest.raises(ConfigError):
        load_system("""
system:
  nuclei:
    - element: H
      xyz: [0, 0, 0]
    - element: H
      xyz: [0, 0, 0]
""")


def test_h4_geometry_square():
    sys = h4_rectangle(90.0)
    r = 1.738 * BOHR_PER_ANGSTROM
    assert sys.n_nuclei == 4
    assert (sys.n_up, sys.n_down) == (2, 2)
    radii = np.linalg.norm(sys.nuclei_positions, axis=1)
    np.testing.assert_allclose(radii, r, rtol=1e-12)
    # theta = 90 puts the four nuclei at the corners of a square
    d = np.linalg.norm(sys.nuclei_positions[0] - sys.nuclei_positions[1])
    assert d == pytest.approx(r * math.sqrt(2.0), rel=1e-12)


def test_transpose_swaps_positions_not_spins():
    """Spins belong to the slots, so only position rows move, in a copy."""
    pos = np.arange(9, dtype=float).reshape(3, 3)
    before = pos.copy()
    swapped = transpose_electrons(pos, 0, 2)
    np.testing.assert_array_equal(swapped[0], pos[2])
    np.testing.assert_array_equal(swapped[2], pos[0])
    np.testing.assert_array_equal(swapped[1], pos[1])
    np.testing.assert_array_equal(pos, before)
    with pytest.raises(IndexError):
        transpose_electrons(pos, 0, 3)


def test_transpose_is_an_involution():
    rng = np.random.default_rng(0)
    pos = rng.normal(size=(3, 3))
    back = transpose_electrons(transpose_electrons(pos, 0, 1), 0, 1)
    np.testing.assert_array_equal(back, pos)


def test_transpose_per_row_matches_one_configuration_at_a_time():
    """Index arrays of shape (B,) exchange one pair per row of a batch, the
    same bits as exchanging each row's pair alone; integers exchange the same
    pair in every row."""
    rng = np.random.default_rng(4)
    pos = rng.normal(size=(20, 5, 3))
    i, j = rng.integers(0, 5, size=(2, 20))
    want = np.stack([transpose_electrons(p, a, b) for p, a, b in zip(pos, i, j)])
    assert transpose_electrons(pos, i, j).tobytes() == want.tobytes()
    want = np.stack([transpose_electrons(p, 1, 3) for p in pos])
    assert transpose_electrons(pos, 1, 3).tobytes() == want.tobytes()


def test_exchange_path_endpoints_and_midpoint():
    sys = load_system(LI_CFG)
    rng = np.random.default_rng(1)
    pos = rng.normal(size=(3, 3))
    start = exchange_path(sys, pos, 0, 1, 0.0)
    end = exchange_path(sys, pos, 0, 1, 1.0)
    mid = exchange_path(sys, pos, 0, 1, 0.5)
    np.testing.assert_array_equal(start, pos)
    np.testing.assert_array_equal(end, transpose_electrons(pos, 0, 1))
    np.testing.assert_array_equal(mid[0], mid[1])


def test_exchange_path_rejects_mixed_spins():
    sys = load_system(LI_CFG)
    pos = np.zeros((3, 3)) + np.arange(3)[:, None]
    with pytest.raises(ValueError):
        exchange_path(sys, pos, 0, 2, 0.3)  # electron 0 is up, 2 is down


def test_system_validation():
    with pytest.raises(ValueError):
        SystemSpec(nuclei_positions=np.zeros((1, 3)), charges=np.array([0]), n_up=1, n_down=0)
    with pytest.raises(ValueError):
        SystemSpec(nuclei_positions=np.zeros((1, 3)), charges=np.array([1]), n_up=0, n_down=0)


def test_arrays_are_immutable():
    sys = load_system(LI_CFG)
    with pytest.raises(ValueError):
        sys.nuclei_positions[0, 0] = 1.0


@pytest.mark.parametrize("n_up,n_down", [(1, 0), (2, 1), (0, 3), (4, 4)])
def test_spin_layout_is_derived_once_and_read_only(n_up, n_down):
    """What every evaluation reads of the spin split is built on first use,
    then the same read-only arrays, equal to the per-call formulas it replaced."""
    sys = SystemSpec(nuclei_positions=np.zeros((1, 3)), charges=np.array([8]),
                     n_up=n_up, n_down=n_down)
    spins = np.concatenate([np.ones(n_up, dtype=np.int64), -np.ones(n_down, dtype=np.int64)])
    iu, ju = np.triu_indices(n_up + n_down, 1)
    assert sys.spins.dtype == np.int64 and np.array_equal(sys.spins, spins)
    assert [s.tolist() for s in sys.sectors] == [np.flatnonzero(spins == s).tolist()
                                                 for s in (1, -1)]
    i, j, same = sys.pairs
    assert np.array_equal(i, iu) and np.array_equal(j, ju)
    assert same.tobytes() == (spins[iu] == spins[ju]).astype(np.float64).tobytes()
    def layout():
        return sys.spins, *sys.sectors, *sys.pairs, *sum(sys.partner_means, ())

    assert all(a is b for a, b in zip(layout(), layout()))
    assert not any(a.flags.writeable for a in layout())


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.floats(0, 1))
def test_path_is_linear_in_t(i, j, t):
    sys = SystemSpec(nuclei_positions=np.zeros((1, 3)), charges=np.array([10]),
                     n_up=5, n_down=5)
    rng = np.random.default_rng(i * 7 + j)
    pos = rng.normal(size=(10, 3))
    p = exchange_path(sys, pos, i, j, t)
    expected = (1 - t) * pos + t * transpose_electrons(pos, i, j)
    np.testing.assert_allclose(p, expected, atol=1e-15)
