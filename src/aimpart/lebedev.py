"""Lebedev-Laikov quadrature nodes and weights on the unit sphere.

The grids are generated from the classic octahedral-symmetry parameter sets
(Lebedev & Laikov, Dokl. Math. 59, 477 (1999)), embedded here as static data.
Weights are normalized to sum to 1, i.e. they compute the *mean* of a function
over the sphere. Every embedded grid is checked against the spherical-harmonic
orthogonality invariants in the test suite.
"""

import itertools

import numpy as np

__all__ = ["LEBEDEV_DEGREE", "available_orders", "lebedev_grid"]

# point count -> highest polynomial degree integrated exactly
LEBEDEV_DEGREE = {
    6: 3, 14: 5, 26: 7, 38: 9, 50: 11, 74: 13, 86: 15,
    110: 17, 146: 19, 170: 21, 194: 23, 230: 25, 266: 27, 302: 29,
}


def available_orders():
    """Supported point counts, ascending."""
    return sorted(LEBEDEV_DEGREE)


def _gen_oh(code, v, a=0.0, b=0.0):
    """One octahedral-symmetry orbit of points with common weight v.

    The orbit is every distinct signed permutation of one representative
    point, in sorted order. Types 0..5 follow the standard Lebedev-Laikov
    enumeration: vertices, edge midpoints, face centers, and the
    parametrized (a, a, b), (a, b, 0) and (a, b, c) orbits of sizes 24, 24
    and 48.
    """
    if code == 0:
        point = (1.0, 0.0, 0.0)
    elif code == 1:
        point = (0.0, np.sqrt(0.5), np.sqrt(0.5))
    elif code == 2:
        point = (np.sqrt(1.0 / 3.0),) * 3
    elif code == 3:
        point = (a, a, np.sqrt(1.0 - 2.0 * a * a))
    elif code == 4:
        point = (a, np.sqrt(1.0 - a * a), 0.0)
    elif code == 5:
        point = (a, b, np.sqrt(1.0 - a * a - b * b))
    else:
        raise ValueError(f"unknown orbit code {code}")
    # + 0.0 folds -0.0 into 0.0, so a zero coordinate yields one point
    pts = sorted({tuple(s * x + 0.0 for s, x in zip(signs, perm))
                  for perm in itertools.permutations(point)
                  for signs in itertools.product((1.0, -1.0), repeat=3)})
    return np.array(pts), np.full(len(pts), v)


# Orbit parameter tables: (code, v[, a[, b]]) per orbit.
_ORBITS = {
    6: [(0, 0.1666666666666667)],
    14: [(0, 0.6666666666666667e-1), (2, 0.7500000000000000e-1)],
    26: [(0, 0.4761904761904762e-1), (1, 0.3809523809523810e-1),
         (2, 0.3214285714285714e-1)],
    38: [(0, 0.9523809523809524e-2), (2, 0.3214285714285714e-1),
         (4, 0.2857142857142857e-1, 0.4597008433809831)],
    50: [(0, 0.1269841269841270e-1), (1, 0.2257495590828924e-1),
         (2, 0.2109375000000000e-1),
         (3, 0.2017333553791887e-1, 0.3015113445777636)],
    74: [(0, 0.5130671797338464e-3), (1, 0.1660406956574204e-1),
         (2, -0.2958603896103896e-1),
         (3, 0.2657620708215946e-1, 0.4803844614152614),
         (4, 0.1652217099371571e-1, 0.3207726489807764)],
    86: [(0, 0.1154401154401154e-1), (2, 0.1194390908585628e-1),
         (3, 0.1111055571060340e-1, 0.3696028464541502),
         (3, 0.1187650129453714e-1, 0.6943540066026664),
         (4, 0.1181230374690448e-1, 0.3742430390903412)],
    110: [(0, 0.3828270494937162e-2), (2, 0.9793737512487512e-2),
          (3, 0.8211737283191111e-2, 0.1851156353447362),
          (3, 0.9942814891178103e-2, 0.6904210483822922),
          (3, 0.9595471336070963e-2, 0.3956894730559419),
          (4, 0.9694996361663028e-2, 0.4783690288121502)],
    146: [(0, 0.5996313688621381e-3), (1, 0.7372999718620756e-2),
          (2, 0.7210515360144488e-2),
          (3, 0.7116355493117555e-2, 0.6764410400114264),
          (3, 0.6753829486314477e-2, 0.4174961227965453),
          (3, 0.7574394159054034e-2, 0.1574676672039082),
          (5, 0.6991087353303262e-2, 0.1403553811713183, 0.4493328323269557)],
    170: [(0, 0.5544842902037365e-2), (1, 0.6071332770670752e-2),
          (2, 0.6383674773515093e-2),
          (3, 0.5183387587747790e-2, 0.2551252621114134),
          (3, 0.6317929009813725e-2, 0.6743601460362766),
          (3, 0.6201670006589077e-2, 0.4318910696719410),
          (4, 0.5477143385137348e-2, 0.2613931360335988),
          (5, 0.5968383987681156e-2, 0.4990453161796037, 0.1446630744325115)],
    194: [(0, 0.1782340447244611e-2), (1, 0.5716905949977102e-2),
          (2, 0.5573383178848738e-2),
          (3, 0.5608704082587997e-2, 0.6712973442695226),
          (3, 0.5158237711805383e-2, 0.2892465627575439),
          (3, 0.5518771467273614e-2, 0.4446933178717437),
          (3, 0.4106777028169394e-2, 0.1299335447650067),
          (4, 0.5051846064614808e-2, 0.3457702197611283),
          (5, 0.5530248916233094e-2, 0.1590417105383530, 0.8360360154824589)],
    230: [(0, -0.5522639919727325e-1), (2, 0.4450274607445226e-2),
          (3, 0.4496841067921404e-2, 0.4492044687397611),
          (3, 0.5049153450478750e-2, 0.2520419490210201),
          (3, 0.3976408018051883e-2, 0.6981906658447242),
          (3, 0.4401400650381014e-2, 0.6587405243460960),
          (3, 0.1724544350544401e-1, 0.4038544050097660e-1),
          (4, 0.4231083095357343e-2, 0.5823842309715585),
          (4, 0.5198069864064399e-2, 0.3545877390518688),
          (5, 0.4695720972568883e-2, 0.2272181808998187, 0.4864661535886647)],
    266: [(0, -0.1313769127326952e-2), (1, -0.2522728704859336e-2),
          (2, 0.4186853881700583e-2),
          (3, 0.5315167977810885e-2, 0.7039373391585475),
          (3, 0.4047142377086219e-2, 0.1012526248572414),
          (3, 0.4112482394406990e-2, 0.4647448726420539),
          (3, 0.3595584899758782e-2, 0.3277420654971629),
          (3, 0.4256131351428158e-2, 0.6620338663699974),
          (4, 0.4229582700647240e-2, 0.8506508083520399),
          (5, 0.4080914225780505e-2, 0.3233484542692899, 0.1153112011009701),
          (5, 0.4071467593830964e-2, 0.2314790158712601, 0.5244939240922365)],
    302: [(0, 0.8545911725128148e-3), (2, 0.3599119285025571e-2),
          (3, 0.3449788424305883e-2, 0.3515640345570105),
          (3, 0.3604822601419882e-2, 0.6566329410219612),
          (3, 0.3576729661743367e-2, 0.4729054132581005),
          (3, 0.2352101413689164e-2, 0.9618308522614784e-1),
          (3, 0.3108953122413675e-2, 0.2219645236294178),
          (3, 0.3650045807677255e-2, 0.7011766416089545),
          (4, 0.2982344963171804e-2, 0.2644152887060663),
          (4, 0.3600820932216460e-2, 0.5718955891878961),
          (5, 0.3571540554273387e-2, 0.2510034751770465, 0.8000727494073952),
          (5, 0.3392312205006170e-2, 0.1233548532583327, 0.4127724083168531)],
}


def lebedev_grid(order):
    """Return (points, weights) for the Lebedev grid with `order` nodes.

    Points are unit vectors of shape (order, 3); weights sum to 1 and compute
    the mean over the sphere.
    """
    if order not in _ORBITS:
        raise ValueError(
            f"unsupported Lebedev order {order}; available: {available_orders()}"
        )
    points, weights = (np.concatenate(part) for part in
                       zip(*[_gen_oh(*orbit) for orbit in _ORBITS[order]]))
    if len(points) != order:
        raise AssertionError(f"Lebedev table for {order} produced {len(points)} points")
    return points, weights
