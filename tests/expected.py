"""Frozen reference values shared by the test modules.

The two network matrices, the chain Gram inverse and the 16 inequalities
are written out from the published tables, and the optimal gains of those
inequalities in closed form; nothing here is produced by the code under test.
"""

from fractions import Fraction
from math import sqrt

import numpy as np

_S = sqrt

# Published network matrix of the 8-mode chain experiment (inputs 1,3,5,7
# amplitude-squeezed, 2,4,6,8 phase-squeezed).
CHAIN8_UNITARY = np.array(
    [
        [1j / _S(2), 1j / _S(3), 1j / _S(10), _S(3 / 170), _S(5 / 102), 0, 0, 0],
        [-1 / _S(2), 1 / _S(3), 1 / _S(10), -1j * _S(3 / 170), -1j * _S(5 / 102), 0, 0, 0],
        [0, 1j / _S(3), -1j * _S(2 / 5), -_S(6 / 85), -_S(10 / 51), 0, 0, 0],
        [0, 0, _S(2 / 5), 3j * _S(3 / 170), 1j * _S(15 / 34), 0, 0, 0],
        [0, 0, 0, _S(15 / 34), -3 * _S(3 / 170), 1j * _S(2 / 5), 0, 0],
        [0, 0, 0, 1j * _S(10 / 51), -1j * _S(6 / 85), _S(2 / 5), 1 / _S(3), 0],
        [0, 0, 0, -_S(5 / 102), _S(3 / 170), 1j / _S(10), -1j / _S(3), -1j / _S(2)],
        [0, 0, 0, -1j * _S(5 / 102), 1j * _S(3 / 170), -1 / _S(10), 1 / _S(3), -1 / _S(2)],
    ]
)

# Published network matrix of the two-diamond experiment.
DIAMOND8_UNITARY = np.array(
    [
        [-1j / _S(2), -1j / _S(3), -1j / _S(10), -_S(3 / 170), -_S(5 / 102), 0, 0, 0],
        [1j / _S(2), -1j / _S(3), -1j / _S(10), -_S(3 / 170), -_S(5 / 102), 0, 0, 0],
        [0, -1 / _S(3), _S(2 / 5), -1j * _S(6 / 85), -1j * _S(10 / 51), 0, 0, 0],
        [0, 0, _S(2 / 5), 3j * _S(3 / 170), 1j * _S(15 / 34), 0, 0, 0],
        [0, 0, 0, _S(15 / 34), -3 * _S(3 / 170), 1j * _S(2 / 5), 0, 0],
        [0, 0, 0, -_S(10 / 51), _S(6 / 85), 1j * _S(2 / 5), 1j / _S(3), 0],
        [0, 0, 0, 1j * _S(5 / 102), -1j * _S(3 / 170), 1 / _S(10), -1 / _S(3), -1 / _S(2)],
        [0, 0, 0, 1j * _S(5 / 102), -1j * _S(3 / 170), 1 / _S(10), -1 / _S(3), 1 / _S(2)],
    ]
)

# Published Gram inverse inv(I + A^2) of the 8-mode chain, exact.
_F = Fraction
CHAIN8_GRAM_INVERSE = np.array(
    [
        [float(x) for x in row]
        for row in [
            [_F(21, 34), 0, _F(-4, 17), 0, _F(3, 34), 0, _F(-1, 34), 0],
            [0, _F(13, 34), 0, _F(-5, 34), 0, _F(1, 17), 0, _F(-1, 34)],
            [_F(-4, 17), 0, _F(8, 17), 0, _F(-3, 17), 0, _F(1, 17), 0],
            [0, _F(-5, 34), 0, _F(15, 34), 0, _F(-3, 17), 0, _F(3, 34)],
            [_F(3, 34), 0, _F(-3, 17), 0, _F(15, 34), 0, _F(-5, 34), 0],
            [0, _F(1, 17), 0, _F(-3, 17), 0, _F(8, 17), 0, _F(-4, 17)],
            [_F(-1, 34), 0, _F(1, 17), 0, _F(-5, 34), 0, _F(13, 34), 0],
            [0, _F(-1, 34), 0, _F(3, 34), 0, _F(-4, 17), 0, _F(21, 34)],
        ]
    ]
)

# Neighbour sets encoding the printed nullifier lists of both graphs.
CHAIN8_NEIGHBOURS = {
    1: {2},
    2: {1, 3},
    3: {2, 4},
    4: {3, 5},
    5: {4, 6},
    6: {5, 7},
    7: {6, 8},
    8: {7},
}

DIAMOND8_NEIGHBOURS = {
    1: {3, 4},
    2: {3, 4},
    3: {1, 2},
    4: {1, 2, 5},
    5: {4, 7, 8},
    6: {7, 8},
    7: {5, 6},
    8: {5, 6},
}

# The 7 + 9 published inequalities, term for term as printed:
# cid -> (u terms, v terms, bipartition).  A term is (mode, quadrature,
# coefficient, gain slot or None).
_P = lambda m: (m, "p", 1.0, None)  # noqa: E731
_X = lambda m, g=None: (m, "x", -1.0, g)  # noqa: E731
PUBLISHED_CRITERIA = {
    "linear8": {
        "3a": ((_P(1), _X(2)), (_P(2), _X(1), _X(3, "g_L3")), (1, 2)),
        "3b": ((_P(2), _X(1, "g_L1"), _X(3)), (_P(3), _X(2), _X(4, "g_L4")), (2, 3)),
        "3c": ((_P(3), _X(2, "g_L2"), _X(4)), (_P(4), _X(3), _X(5, "g_L5")), (3, 4)),
        "3d": ((_P(4), _X(3, "g_L3"), _X(5)), (_P(5), _X(4), _X(6, "g_L6")), (4, 5)),
        "3e": ((_P(5), _X(4, "g_L4"), _X(6)), (_P(6), _X(5), _X(7, "g_L7")), (5, 6)),
        "3f": ((_P(6), _X(5, "g_L5"), _X(7)), (_P(7), _X(6), _X(8, "g_L8")), (6, 7)),
        "3g": ((_P(7), _X(6, "g_L6"), _X(8)), (_P(8), _X(7)), (7, 8)),
    },
    "diamond8": {
        "4a": ((_P(1), _X(3), _X(4, "g_D1")), (_P(3), _X(1), _X(2, "g_D2")), (1, 3)),
        "4b": ((_P(2), _X(3), _X(4, "g_D1")), (_P(3), _X(2), _X(1, "g_D2")), (2, 3)),
        "4c": (
            (_P(1), _X(3, "g_D3"), _X(4)),
            (_P(4), _X(1), _X(2, "g_D4"), _X(5, "g_D5")),
            (1, 4),
        ),
        "4d": (
            (_P(2), _X(3, "g_D3"), _X(4)),
            (_P(4), _X(1, "g_D4"), _X(2), _X(5, "g_D5")),
            (2, 4),
        ),
        "4e": (
            (_P(4), _X(1, "g_D6"), _X(2, "g_D6"), _X(5)),
            (_P(5), _X(4), _X(7, "g_D6"), _X(8, "g_D6")),
            (4, 5),
        ),
        "4f": (
            (_P(5), _X(4, "g_D5"), _X(7), _X(8, "g_D4")),
            (_P(7), _X(5), _X(6, "g_D3")),
            (5, 7),
        ),
        "4g": (
            (_P(5), _X(4, "g_D5"), _X(7, "g_D4"), _X(8)),
            (_P(8), _X(5), _X(6, "g_D3")),
            (5, 8),
        ),
        "4h": ((_P(6), _X(7), _X(8, "g_D2")), (_P(7), _X(5, "g_D1"), _X(6)), (6, 7)),
        "4i": ((_P(6), _X(7, "g_D2"), _X(8)), (_P(8), _X(5, "g_D1"), _X(6)), (6, 8)),
    },
}



def linear_optimal_gains(r: float) -> dict[str, float]:
    """Closed-form variance-minimising gains for the chain criteria."""
    e4 = np.exp(4.0 * r)
    g1 = 21.0 * (e4 - 1.0) / (13.0 + 21.0 * e4)
    g2 = 13.0 * (e4 - 1.0) / (21.0 + 13.0 * e4)
    g3 = 8.0 * (e4 - 1.0) / (9.0 + 8.0 * e4)
    g4 = 15.0 * (e4 - 1.0) / (19.0 + 15.0 * e4)
    return {
        "g_L1": g1,
        "g_L2": g2,
        "g_L3": g3,
        "g_L4": g4,
        "g_L5": g4,
        "g_L6": g3,
        "g_L7": g2,
        "g_L8": g1,
    }


def diamond_optimal_gains(r: float) -> dict[str, float]:
    """Closed-form variance-minimising gains for the two-diamond criteria."""
    e4 = np.exp(4.0 * r)
    e8 = np.exp(8.0 * r)
    coupled_denom = 7.0 + 18.0 * e4 + 9.0 * e8
    return {
        "g_D1": 15.0 * (e4 - 1.0) / (19.0 + 15.0 * e4),
        "g_D2": 21.0 * (e4 - 1.0) / (13.0 + 21.0 * e4),
        "g_D3": 9.0 * (e4 - 1.0) / (8.0 + 9.0 * e4),
        "g_D4": 9.0 * (e8 - 1.0) / coupled_denom,
        "g_D5": 3.0 * (3.0 * e8 - 2.0 * e4 - 1.0) / coupled_denom,
        "g_D6": 4.0 * (e4 - 1.0) / (13.0 + 4.0 * e4),
    }


def optimal_gains_analytic(r: float) -> dict[str, float]:
    """Chain and diamond gain tables merged (the slot names are disjoint)."""
    gains = linear_optimal_gains(r)
    gains.update(diamond_optimal_gains(r))
    return gains


def lcg_edges(n: int, count: int, seed: int) -> list[list[int]]:
    """``count`` distinct edges on modes 1..n from a fixed linear congruential stream."""
    x, edges = seed, set()
    while len(edges) < count:
        ends = []
        for _ in range(2):
            x = (1103515245 * x + 12345) % 2**31
            ends.append((x >> 16) % n + 1)
        a, b = ends
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return [list(e) for e in sorted(edges)]


# A 64-mode custom graph (mean degree 3) for the compile, simulate and sweep
# pins below; only `sweep` reads the sweep section.
CUSTOM64_CONFIG = {
    "graph": {"n": 64, "edges": lcg_edges(64, 96, seed=8)},
    "squeeze": {"r": 0.5},
    "loss": {"eta": 1.0},
    "sweep": {"r_min": 0.0, "r_max": 1.0, "steps": 21},
}

# A 256-mode custom graph (mean degree 3, per-mode efficiencies in [0.5, 1]),
# the largest size of the benchmark's random graphs, for the wide pins below.
CUSTOM256_CONFIG = {
    "graph": {"n": 256, "edges": lcg_edges(256, 384, seed=25)},
    "squeeze": {"r": 0.8},
    "loss": {"eta": [round(0.5 + 0.5 * ((37 * k) % 101) / 100, 4) for k in range(256)]},
}
CUSTOM_CONFIGS = {"custom64": CUSTOM64_CONFIG, "custom256": CUSTOM256_CONFIG}

# sha256 of the files `cvcluster compile` wrote before its matrices went
# through the array emitter (json.dump of nested lists, indent=2), taken with
# numpy 2.4 and its bundled OpenBLAS on x86-64.  The matrices come from
# LAPACK, so another BLAS may move their last bits and these digests with them.
COMPILE_SHA256 = {
    "linear8": {
        "elements.json": "c1761b1abe4137292e80f824c3d70134b15fd7f909c48c67e83d1bfa68d6476e",
        "gram_factor.json": "bf8f61d0429bd13c1a75359a4bb872e02136ac394c4ec53d2ef310ea56170e90",
        "unitary.json": "284c3b0e5621ba9ae1c5ce72ebed21bc2ac2aa9f08b514a0b2c77990ba3fe616",
    },
    "diamond8": {
        "gram_factor.json": "344b8877c333e826617fd260e4a83534219eb37bdcd930a3578de046798f6e9b",
        "unitary.json": "db08096fe0083ffdf59a81d5ab002812a430f45b19c9c46e2efb2ee49802a523",
    },
    "custom64": {
        "gram_factor.json": "2be55ec5263811d04030599a75cf6b1b8b092a2e205640c66ef3d69dd35fecf4",
        "unitary.json": "60a166b580fdecd8248dc673491967dc8f7065665159bb639dd841adfe1520c6",
    },
    # Taken before the array emitter wrote each array as one flat sequence.
    "custom256": {
        "gram_factor.json": "1641681b74aac96da1860a6f34b9b7229256b53159c284082f062b5d0ddc0341",
        "unitary.json": "dfcfffdd5b8923d94fe34a6fe8df1e98fea4a93313cbd50e2dde45ec5ec41630",
    },
}
COMPILE_SHA256["linear8_physical"] = COMPILE_SHA256["linear8"]
COMPILE_SHA256["diamond8_physical"] = COMPILE_SHA256["diamond8"]

# sha256 of simulate.json before its variances were read as one stack and its
# noise terms off one mask, with the same numpy and BLAS caveat as above.
SIMULATE_SHA256 = {
    "linear8": "93ca82f138a188825227d2211a1a3e4888c8bd40ef325ac286764e10e16af848",
    "diamond8": "cf21706ee7796b927d65aef9bcc04375f4abb0c48d28d9d67a6710b7a6ab5f77",
    "linear8_physical": "497fc9b404eb7831d129b15e512fcd22420c8523a76943a9c13b15c2fd7373c4",
    "diamond8_physical": "ae454b59ffddfec5683350dd07ceb738f148a9daa234cf2a467785602ab0154f",
    "custom64": "22371b9a0b33cc7a4ec124d6d010db6c2b0dcf7c3eb81cccb84e76aa0004d00b",
    # Taken before the noise-term rows went through the array emitter.
    "custom256": "226e4dd9cf178129afc4979eef96ed3ee372acac2a831256cdca1ec02f0aa6f4",
}

# sha256 of sample.json for `sample --n 200000 --seed 1` on each builtin and
# for one `--gains optimal --seed 7` run, taken when the streamed blocks went
# to 2**16 normals and were merged as a pairwise tree.  The estimates are sums
# over draws, so any reordering of those sums moves these digests.
SAMPLE_SHA256 = {
    ("linear8", "--n", "200000", "--seed", "1"):
        "f5d6e340409bef6e4aaf425aa7dc3eeb65312d66cf2c53eb43f05e29a5214f10",
    ("diamond8", "--n", "200000", "--seed", "1"):
        "112769d3a2fa937512a43687facc27fd16d85c8fa84957d7587c13038d8ad1ba",
    ("linear8_physical", "--n", "200000", "--seed", "1"):
        "7a26bde7d011b6ef632479dabd1dfde2253b7a126da560e417a0447c9ddbd54f",
    ("diamond8_physical", "--n", "200000", "--seed", "1"):
        "55aea3b1669bc668fe9ca916ef89ad6d17ca687281e6ae07a6d4885d5f5b4f98",
    ("diamond8_physical", "--n", "200000", "--seed", "7", "--gains", "optimal"):
        "9b47cc11259b7a42c77da12c8bdc2bafe21de0265a3c3e8305d2132f984161dd",
}

# sha256 of criteria.json for each builtin with its config's gains, --gains
# unit and --gains optimal, taken before the criteria rows were written from
# their records and the bound was read off the ungained coefficients.
CRITERIA_SHA256 = {
    ('linear8',):
        "0d35a0b8916f0ad52efcbc4886307b0c6333fe4f79be50af78ec5777ed4dea6e",
    ('linear8', '--gains', 'unit'):
        "0d35a0b8916f0ad52efcbc4886307b0c6333fe4f79be50af78ec5777ed4dea6e",
    ('linear8', '--gains', 'optimal'):
        "5984ed26d3835821f5822c77f37a020e18548c255f4d677e17bf25b047d2ef8e",
    ('diamond8',):
        "dc27ce8563a56969a18197c0d8105495fbf92a618eb6776f583e23fd88afcf97",
    ('diamond8', '--gains', 'unit'):
        "9f74c80679e33a7e31440932a1349ae4e8a085a700a2f179ee865e4412ab5b18",
    ('diamond8', '--gains', 'optimal'):
        "beaa9b8bd7c4c0130b8140308643ae72edacc75519603e70c654da465343f855",
    ('linear8_physical',):
        "9097b9b9ee111b12e571e3fbe05f9e5de3f1d9aea9eaebd4622edefe3f4c8cff",
    ('linear8_physical', '--gains', 'unit'):
        "9097b9b9ee111b12e571e3fbe05f9e5de3f1d9aea9eaebd4622edefe3f4c8cff",
    ('linear8_physical', '--gains', 'optimal'):
        "72b330317b7b0c42994f7625f81945ce8212ce49f7065a7777589bc88dddefd5",
    ('diamond8_physical',):
        "78c1439af87353466fa4fe8001f0bbaa0df61fa95b611da4ec0e669c24eaf4b3",
    ('diamond8_physical', '--gains', 'unit'):
        "b04a070e02902b4caa55d763bcbd317b5046ef8dc0aa42dd07ec455ced306915",
    ('diamond8_physical', '--gains', 'optimal'):
        "3c5981bcd3e9e169e1fbab1e6bfcc949118f7580344c81bb3e31be109b83c33a",
}

# sha256 of the files `cvcluster sweep` writes for each builtin, taken at the
# same commit as CRITERIA_SHA256.  For custom64, thresholds.json was taken
# while the r curves still formed a 2n x 2n covariance at every r, and
# sweep.csv after they read one Gram block per criterion: that moved one
# printed value (r = 0.9, criterion 23-42, lhs_optimal) in its 12th digit.
SWEEP_SHA256 = {
    "linear8": {
        "sweep.csv": "a5dc452213e1f80c5d346b866fe657740f101d5e1963e1c439a4c3735e95576a",
        "thresholds.json": "b3c23a9766960099c0eabb0fe0dc9b0c76350ece8e2d53851890046f8496f6ef",
    },
    "diamond8": {
        "sweep.csv": "e5026e2e03fbeae55ab7441bd428671401b7c29c2fa7b023c1fa45fc2bb84d6a",
        "thresholds.json": "0b588865ef7bb553f91ef22050efabb59d7e4fb86129f916db21d35e2c9b9997",
    },
    "linear8_physical": {
        "sweep.csv": "b5eec162afd6f64a62147090a99dce16caf5f3c24796e1067dec1f25794f66de",
        "thresholds.json": "faa9d42ab06cb957bbe99dfc17425ea79310b25dcb7311c0029529a33823a4d7",
    },
    "diamond8_physical": {
        "sweep.csv": "d2c1c9747a66511f76afbaa10a5c8ca4db1559cce95221c1c659df4b599773bc",
        "thresholds.json": "224f8c2b85e9a1167fc618e19321084f26755e8f7a66d1526332a5036cd976d5",
    },
    "custom64": {
        "sweep.csv": "731284c722106db14b4d54374f0cd3e091b7a2663ba5b995c18ff158b786ca2f",
        "thresholds.json": "aa6d9757d0bdf725f6567d467c9a05b450caad9d53b3136e81892634a8ff525b",
    },
}
