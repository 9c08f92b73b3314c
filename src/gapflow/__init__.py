"""gapflow: spectral solver + verification harness for a gas-film gap coupled to a pinned plate.

Layout:
    spectral    sine transforms, plate spectrum, semigroup, Duhamel kicks, norms
    dispersive  mild-solution Picard solver for the plate given a pressure path
    reynolds    coupled driver: frozen-coefficient parabolic solve + Gamma iteration,
                finite-difference pressure operator, RK4 method-of-lines reference
    verify      every verify suite: each check's measurement (Hoelder chain included), bound, verdict
    cli         simulate / verify / sweep / export entry points
"""

__version__ = "0.1.0"
