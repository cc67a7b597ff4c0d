"""Numerical tolerances of the construction.

Each is a dimensionless factor; the absolute threshold is formed where it is
read, by multiplying with the problem scale named below. The values are
chosen for double precision at window scales around 1e3.

- RES_REL: residual a pencil intersection candidate may leave in each
  implicit conic, relative to the sum of that conic's term magnitudes at
  the candidate.
- RANK_REL: eigenvalue magnitude, relative to the largest eigenvalue of the
  homogeneous 3x3 conic matrix, below which the matrix counts as
  rank-deficient.
- DEN_REL: magnitude of the denominator u^ of a parametrized conic,
  relative to the sum of its coefficient magnitudes, below which a
  parameter counts as singular (on the line at infinity); it also marks a
  split line as the line at infinity, relative to its constant term.
- VERT_REL: equidistance and global-minimality slack of a vertex or of a
  visible point, scaled by (1 + |distance|).
- DEDUP_REL: fraction of the scene's length scale within which pencil
  candidates and vertices merge; it also bounds a vertex's polish step and
  is the chord flattening tolerance of the measure's hole test. Clipping
  snaps window crossings within DEDUP_REL times the window diagonal.
- PARAM_MERGE: conic parameters within PARAM_MERGE (1 + |t| + |t'|) merge,
  and angles alpha within 10 PARAM_MERGE; twice it is the smallest arc gap.
- QUAD_ABS: absolute error target of the arc-length and area quadratures,
  which aim at max(QUAD_ABS, 1e-12 |integral|).
- CLASS_REL: ratio of the two eigenvalues of the denominator form u^ below
  which a real conic counts as a parabola.
"""

RES_REL = 1e-8
RANK_REL = 1e-10
DEN_REL = 1e-12
VERT_REL = 1e-8
DEDUP_REL = 1e-6
PARAM_MERGE = 1e-9
QUAD_ABS = 1e-10
CLASS_REL = 1e-9
