"""Parametric model meshes with known field behaviour.

These are the concrete surfaces the test suite sweeps: a disk with a linear
field, a tilted annulus and cylinder, round and dumbbell spheres, a torus
with a hole cut at a regular point, and flat local models for the boundary
minimum and interior saddle growth laws.  Area weights come from the stated
geometry (Euclidean or exact band areas), fields are evaluated exactly at
vertices.
"""

from __future__ import annotations

import math

import numpy as np

from .surface import PLSurface


def _euclid_area(xy: list[tuple[float, float]], a: int, b: int, c: int) -> float:
    (xa, ya), (xb, yb), (xc, yc) = xy[a], xy[b], xy[c]
    return 0.5 * abs((xb - xa) * (yc - ya) - (xc - xa) * (yb - ya))


def _surface(
    points: list[tuple[float, float]],
    fvals: list[float],
    tris: list[tuple[int, int, int]],
    areas: list[float],
) -> PLSurface:
    """The mesh with vertex ids 1, 2, ... in point order."""
    ids = list(range(1, len(points) + 1))
    return PLSurface(ids, np.array(fvals), np.array(tris, dtype=int), np.array(areas), np.array(points))


def _grid_triangles(rows: int, cols: int, closed: bool) -> list[tuple[int, int, int]]:
    """Triangles of a grid of rows + 1 point rows: each quad (a, b, c, d) is
    split counterclockwise into (a, b, c) and (a, c, d).  A closed row has
    cols points around a circle, an open one cols + 1 points along a line."""
    width = cols if closed else cols + 1
    tris: list[tuple[int, int, int]] = []
    for j in range(rows):
        lo, hi = j * width, (j + 1) * width
        for i in range(cols):
            nxt = (i + 1) % width
            a, b, c, d = lo + i, lo + nxt, hi + nxt, hi + i
            tris += [(a, b, c), (a, c, d)]
    return tris


def _from_grid(
    points: list[tuple[float, float]], fvals: list[float], rows: int, cols: int, closed: bool = False
) -> PLSurface:
    """The grid's triangles with Euclidean areas."""
    tris = _grid_triangles(rows, cols, closed)
    return _surface(points, fvals, tris, [_euclid_area(points, *t) for t in tris])


def disk_mesh() -> PLSurface:
    """Unit disk with f = x, on 10 rings of 24 sectors.  Ring angles are
    offset so no two vertices share an x coordinate."""
    rings, sectors = 10, 24
    points: list[tuple[float, float]] = [(0.0, 0.0)]
    fvals = [0.0]
    ring_start = [None]
    for i in range(1, rings + 1):
        r = i / rings
        # small irrational twist per ring: distinct x values, sane triangles
        offset = 0.15 + i * 0.0137
        start = len(points)
        ring_start.append(start)
        for k in range(sectors):
            th = offset + 2.0 * math.pi * k / sectors
            points.append((r * math.cos(th), r * math.sin(th)))
            fvals.append(r * math.cos(th))
    tris: list[tuple[int, int, int]] = []
    first = ring_start[1]
    for k in range(sectors):
        tris.append((0, first + (k + 1) % sectors, first + k))
    for i in range(1, rings):
        lo = ring_start[i]
        hi = ring_start[i + 1]
        for k in range(sectors):
            a, b = lo + k, lo + (k + 1) % sectors
            c, d = hi + k, hi + (k + 1) % sectors
            tris.append((a, b, c))
            tris.append((b, d, c))
    return _surface(points, fvals, tris, [_euclid_area(points, *t) for t in tris])


def annulus_mesh() -> PLSurface:
    """Annulus 1 <= r <= 2 with f = x, on 6 rings of 40 sectors; four boundary
    critical points, sigma = 2."""
    rings, sectors, r_in, r_out = 6, 40, 1.0, 2.0
    points: list[tuple[float, float]] = []
    fvals: list[float] = []
    offset = 0.21
    for i in range(rings + 1):
        r = r_in + (r_out - r_in) * i / rings
        for k in range(sectors):
            th = offset + 2.0 * math.pi * k / sectors
            points.append((r * math.cos(th), r * math.sin(th)))
            fvals.append(r * math.cos(th))
    return _from_grid(points, fvals, rings, sectors, closed=True)


def sphere_mesh(bands: int = 24, sectors: int = 24) -> PLSurface:
    """Round unit sphere with f = height; band areas are the exact 2*pi*dz."""
    points: list[tuple[float, float]] = [(0.0, 0.0)]
    fvals = [-1.0]
    zs = [math.cos(math.pi * (bands - i) / bands) for i in range(bands + 1)]
    ring_of = []
    for i in range(1, bands):
        start = len(points)
        ring_of.append(start)
        z = zs[i]
        rho = math.sqrt(max(0.0, 1.0 - z * z))
        for k in range(sectors):
            th = 0.1 + 2.0 * math.pi * k / sectors + 0.05 * i
            points.append((rho * math.cos(th), rho * math.sin(th)))
            fvals.append(z)
    top = len(points)
    points.append((0.0, 0.0))
    fvals.append(1.0)

    tris: list[tuple[int, int, int]] = []
    areas: list[float] = []

    def band_area(i: int) -> float:
        return 2.0 * math.pi * (zs[i + 1] - zs[i])

    first = ring_of[0]
    a0 = band_area(0) / sectors
    for k in range(sectors):
        tris.append((0, first + (k + 1) % sectors, first + k))
        areas.append(a0)
    for i in range(bands - 2):
        lo, hi = ring_of[i], ring_of[i + 1]
        ai = band_area(i + 1) / (2 * sectors)
        for k in range(sectors):
            a, b = lo + k, lo + (k + 1) % sectors
            c, d = hi + k, hi + (k + 1) % sectors
            tris.append((a, d, c))
            areas.append(ai)
            tris.append((a, b, d))
            areas.append(ai)
    last = ring_of[-1]
    at = band_area(bands - 1) / sectors
    for k in range(sectors):
        tris.append((last + k, last + (k + 1) % sectors, top))
        areas.append(at)
    return _surface(points, fvals, tris, areas)


def dumbbell_sphere_mesh(bands: int = 36, sectors: int = 36) -> PLSurface:
    """Closed sphere with f = z^2 + 0.25 z + 0.15 x + 0.02 y.

    Four critical points: a minimum, an interior saddle joining one circle
    family to two (three solid edges), and two maxima.
    """
    s = sphere_mesh(bands, sectors)
    # recover z from the stored f (f was z) and xy for the tilt
    z = s.f.copy()
    x = s.xy[:, 0]
    y = s.xy[:, 1]
    f = z * z + 0.25 * z + 0.15 * x + 0.02 * y
    return PLSurface(list(s.vertex_ids), f, s.triangles.copy(), s.areas.copy(), s.xy.copy())


def tilted_cylinder_mesh(sectors: int = 48, levels: int = 30) -> PLSurface:
    """Flat cylinder (circumference 1) with f = axial + amp*sin(angle), amp = 0.25.

    Reeb graph: boundary minimum, segment closing into a circle, one long
    solid edge, and the mirrored pair at the top.
    """
    height, amp = 2.0, 0.25
    points: list[tuple[float, float]] = []
    fvals: list[float] = []
    for j in range(levels + 1):
        v = height * j / levels
        for k in range(sectors):
            u = (k + 0.3 * j / levels) / sectors
            points.append((u, v))
            fvals.append(v + amp * math.sin(2.0 * math.pi * u))
    # flat metric: areas of the parameter cells, independent of the rolled-up xy
    tris = _grid_triangles(levels, sectors, closed=True)
    cell = (1.0 / sectors) * (height / levels)
    return _surface(points, fvals, tris, [cell / 2.0] * len(tris))


def parabolic_strip_mesh(nx: int = 48, ny: int = 36) -> PLSurface:
    """Rectangle 0 <= q <= height, |p| <= width with f = q + p^2 + eps*p,
    width = 1 and height = 0.8.

    The bottom-center vertex is a boundary minimum whose accumulated area
    grows like (4/3) t^{3/2}; the q grid is graded towards q = 0.
    """
    eps, width, height = 1e-4, 1.0, 0.8
    points: list[tuple[float, float]] = []
    fvals: list[float] = []
    for j in range(ny + 1):
        q = height * (j / ny) ** 2
        for i in range(nx + 1):
            p = -width + 2.0 * width * i / nx
            points.append((p, q))
            fvals.append(q + p * p + eps * p)
    return _from_grid(points, fvals, ny, nx)


def pq_square_mesh(n: int = 48) -> PLSurface:
    """Square |p|,|q| <= 1 with f = p*q + tiny tilt: one interior saddle with
    four dashed legs (the t*log t growth model)."""
    eps = 7e-4
    points: list[tuple[float, float]] = []
    fvals: list[float] = []
    for j in range(n + 1):
        q = -1.0 + 2.0 * j / n
        for i in range(n + 1):
            p = -1.0 + 2.0 * i / n
            points.append((p, q))
            fvals.append(p * q + eps * (p + 2.0 * q))
    return _from_grid(points, fvals, n, n)


def torus_with_hole_mesh() -> PLSurface:
    """Vertical torus (R=1, r=0.5) with height field and a smooth elliptical
    hole around a regular point on the upper side of the tube.

    Built on the fundamental square of the torus centered at the hole: mesh
    rings interpolate from the hole ellipse out to the square boundary, whose
    sides are glued with the usual torus identifications.  The hole straddles
    the level of the upper handle saddle, so the extracted graph is elliptic
    minimum, circle-splitting saddle, circle-to-segment vertex, a saddle with
    one solid and two dashed legs, segment-to-circle vertex, elliptic maximum.
    """
    sectors, rings = 44, 12  # sectors is a multiple of 4: m per side of the square
    # the hole's centre (theta, phi) on the fundamental square and its radii
    hole_theta, hole_phi, rho_theta, rho_phi = 0.5236, math.pi / 2.0, 0.45, 0.8
    R, r = 1.0, 0.5
    eps1, eps2 = 0.011, 0.004
    m = sectors // 4

    def square_point(k: int) -> tuple[float, float]:
        # perimeter of the square of side 2*pi, counterclockwise from the
        # lower-left corner
        s = 4.0 * k / sectors
        side, frac = int(s), s - int(s)
        lo_t, lo_p = hole_theta - math.pi, hole_phi - math.pi
        if side == 0:
            return lo_t + 2.0 * math.pi * frac, lo_p
        if side == 1:
            return lo_t + 2.0 * math.pi, lo_p + 2.0 * math.pi * frac
        if side == 2:
            return lo_t + 2.0 * math.pi * (1.0 - frac), lo_p + 2.0 * math.pi
        return lo_t, lo_p + 2.0 * math.pi * (1.0 - frac)

    def ellipse_point(k: int) -> tuple[float, float]:
        alpha = 5.0 * math.pi / 4.0 + 2.0 * math.pi * k / sectors
        return (
            hole_theta + rho_theta * math.cos(alpha),
            hole_phi + rho_phi * math.sin(alpha),
        )

    points: list[tuple[float, float]] = []
    fvals: list[float] = []

    def add_point(th: float, ph: float) -> int:
        x = (R + r * math.cos(ph)) * math.cos(th)
        z = (R + r * math.cos(ph)) * math.sin(th)
        y = r * math.sin(ph)
        points.append((th, ph))
        fvals.append(z + eps1 * x + eps2 * y)
        return len(points) - 1

    index: dict[tuple[int, int], int] = {}
    # identification map for the outer ring (torus side gluings)
    ident: dict[int, int] = {}
    for k in range(sectors):
        if k in (0, m, 2 * m, 3 * m):
            ident[k] = 0
        elif k < m:
            ident[k] = k
        elif k < 2 * m:
            ident[k] = k
        elif k < 3 * m:
            ident[k] = 3 * m - k  # top {x, 1} -> bottom {x, 0}
        else:
            ident[k] = 5 * m - k  # left {0, y} -> right {1, y}

    def vid(ring: int, k: int) -> int:
        k = k % sectors
        if ring == rings:
            k = ident[k]
        key = (ring, k)
        if key not in index:
            t = ring / rings
            et, ep = ellipse_point(k)
            st, sp = square_point(k)
            index[key] = add_point((1.0 - t) * et + t * st, (1.0 - t) * ep + t * sp)
        return index[key]

    tris: list[tuple[int, int, int]] = []
    areas: list[float] = []
    for ring in range(rings):
        for k in range(sectors):
            a, b = vid(ring, k), vid(ring, k + 1)
            c, d = vid(ring + 1, k), vid(ring + 1, k + 1)
            for tri in ((a, b, c), (b, d, c)):
                th_c = sum(points[v][0] for v in tri) / 3.0
                ph_c = sum(points[v][1] for v in tri) / 3.0
                pa = _euclid_area(points, *tri)
                tris.append(tri)
                areas.append(pa * r * (R + r * math.cos(ph_c)))

    return _surface(points, fvals, tris, areas)


def square_mesh(n: int = 2) -> PLSurface:
    """Unit square from two right triangles per cell, f = x + 0.25 y."""
    points: list[tuple[float, float]] = []
    fvals: list[float] = []
    for j in range(n + 1):
        for i in range(n + 1):
            x, y = i / n, j / n
            points.append((x, y))
            fvals.append(x + 0.25 * y)
    return _from_grid(points, fvals, n, n)
