"""Set-up that every vdwplate process pays: import the package, run one tiny
solve, and fill the quadrature caches.  `python3 perfbench/warmup.py` with
`src` on PYTHONPATH runs it in a fresh interpreter, as a CLI call would."""


def warm_up():
    import vdwplate.cli  # noqa: F401  (imports every layer)
    from vdwplate.eigensolver import GridCylSpec, hydrogen_plate_ground
    from vdwplate.multipole import (ANGULAR_NODES, RADIAL_NODES,
                                    angular_legendre_rule, radial_laguerre_rule)
    hydrogen_plate_ground(2.0, spec=GridCylSpec(h_target=0.25, l_xi_plus=4.0, l_rho=4.0))
    for n in (RADIAL_NODES, 2 * RADIAL_NODES):
        radial_laguerre_rule(n)
    angular_legendre_rule(ANGULAR_NODES)


if __name__ == "__main__":
    warm_up()
