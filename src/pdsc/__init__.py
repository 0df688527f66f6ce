"""2D bond-based peridynamics with direction-dependent surface stiffening.

Modules: geometry (bodies, grids, bonds, ray queries), material
(calibration and surface correction), pd_core (assembly, solves, contact),
fem_ref (plane-stress Q4 reference), analytic (closed forms and oracles),
bench_cli (experiment harness).
"""
